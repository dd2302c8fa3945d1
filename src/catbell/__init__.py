"""Cat-state qubits, entanglement transfer, and Bell tests in truncated Fock space."""

__version__ = "0.1.0"

# apply is unused here but stays bound: perfbench's tracer test
# (test_tracer_rebinds_every_namespace_and_restores) checks that the tracer
# rebinds catbell.apply along with catbell.hilbert.apply
from .hilbert import apply  # noqa: F401
