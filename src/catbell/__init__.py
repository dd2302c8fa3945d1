"""Cat-state qubits, entanglement transfer, and Bell tests in truncated Fock space."""

__version__ = "0.1.0"


def __getattr__(name: str):
    """catbell.apply, hilbert.apply bound here on first access (PEP 562), so
    that importing the package loads no numpy: perfbench's tracer test
    checks that the tracer rebinds catbell.apply along with hilbert.apply."""
    if name != "apply":
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from .hilbert import apply
    globals()["apply"] = apply
    return apply
