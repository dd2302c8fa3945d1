"""Cat-state qubits, entanglement transfer, and Bell tests in truncated Fock space."""

__version__ = "0.1.0"

from .bell import BellAngles, chsh, electronic_bell, mixed_bell, violation_scan
from .bosonic import cat, coherent, displacement
from .encoding import EncodingParams, bell_target
from .errors import CapacityError, CatbellError, ConfigError, ContractError
from .gates import u_ev, u_swap, u_ve_ideal, u_ve_literal
from .hilbert import (
    DensityMatrix,
    OperatorMatrix,
    SpaceLayout,
    StateVector,
    apply,
    partial_trace,
    state_fidelity,
)
from .noise import HeatingParams, evolve_lindblad, sample_trajectory

__all__ = [
    "__version__",
    "BellAngles",
    "CapacityError",
    "CatbellError",
    "ConfigError",
    "ContractError",
    "DensityMatrix",
    "EncodingParams",
    "HeatingParams",
    "OperatorMatrix",
    "SpaceLayout",
    "StateVector",
    "apply",
    "bell_target",
    "cat",
    "chsh",
    "coherent",
    "displacement",
    "electronic_bell",
    "evolve_lindblad",
    "mixed_bell",
    "partial_trace",
    "sample_trajectory",
    "state_fidelity",
    "u_ev",
    "u_swap",
    "u_ve_ideal",
    "u_ve_literal",
    "violation_scan",
]
