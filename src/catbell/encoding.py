"""The cat-code register on truncated Fock factors, for the jump ensembles.

Logical |0> is the even cat, logical |1> the odd cat; their equal-weight
combinations (the two-level discrete Fourier pair) approach the coherent
states |alpha> and |-alpha> for large amplitude.  The joint layout is fixed
as [mode a, mode b, ion 1, ion 2], electronic factors last.  No command
runs this module: every protocol runs in coherent states (catbell.coherent)
or in Python floats, and the code basis and the Bell register here serve
noise.sample_trajectory's ensembles.  The register's settings,
EncodingParams, live in catbell.params, which loads no numpy.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import sqrt

import numpy as np

from . import bosonic
from .hilbert import SpaceLayout, StateVector
from .params import EVEN, ODD, EncodingParams

MODE_A, MODE_B, ION_1, ION_2 = 0, 1, 2, 3


def full_layout(params: EncodingParams) -> SpaceLayout:
    return SpaceLayout((params.mode_a.cutoff, params.mode_b.cutoff, 2, 2))


def qubit_state(bit: int) -> StateVector:
    v = np.zeros(2, dtype=np.complex128)
    v[bit] = 1.0
    return StateVector(SpaceLayout((2,)), v)


@dataclass(frozen=True)
class LogicalBasis:
    """Cat-code basis of one mode: the logical pair."""

    zero: StateVector       # even cat
    one: StateVector        # odd cat


# jump ensembles (Bell target, logical projection) read a code basis; an
# entry is two d-vectors, 32 d bytes: 32 * 32 * 128 B = 128 KB
@lru_cache(maxsize=32)
def logical_basis(which_mode: str, params: EncodingParams) -> LogicalBasis:
    """The cat-code basis of one mode, built once per (which_mode, params)
    and shared: the basis is frozen and its two arrays are read-only."""
    mode = params.mode(which_mode)
    amp = params.amplitude(which_mode)
    zero = bosonic.cat(amp, EVEN, mode)
    one = bosonic.cat(amp, ODD, mode)
    for state in (zero, one):
        state.amps.flags.writeable = False
    return LogicalBasis(zero, one)


def _on_ion_ground(*columns: np.ndarray) -> np.ndarray:
    """(d, 2, K) factor: the K mode columns with the ion in |0>."""
    cols = np.stack(columns, axis=-1)
    out = np.zeros((cols.shape[0], 2, cols.shape[1]), dtype=np.complex128)
    out[:, 0] = cols
    return out


BELL_KINDS = ("phi_plus", "psi_plus")


# jump ensembles heat one register again and again.  An entry is the
# register, 64 d_a d_b bytes, and what noise.sample_trajectory keeps on it
# per heated mode: two one-jump finals of the same size and three O(d)
# nodes; heating modes a and b, 5 * 64 d_a d_b B = 4.8 MB at d = 122
@lru_cache(maxsize=8)
def bell_target(kind: str, params: EncodingParams) -> StateVector:
    """Logical Bell state of the two modes, ions in |00>, built once per
    (kind, params) and shared.  The register is immutable (amps read-only
    down their .base chain), so noise.sample_trajectory keeps its level
    weights and one-jump words on it from one ensemble to the next and
    returns it as a jump-free final.  It is the sum of two products across
    the cut (mode a, ion 1) | (mode b, ion 2): (|0_L 0_L> + |1_L 1_L>) /
    sqrt(2) for phi_plus, (|0_L 1_L> + |1_L 0_L>) / sqrt(2) for psi_plus."""
    if kind not in BELL_KINDS:
        raise ValueError(f"kind must be one of {BELL_KINDS}, got {kind!r}")
    a = logical_basis("a", params)
    b = logical_basis("b", params)
    right = (b.zero.amps, b.one.amps) if kind == "phi_plus" \
        else (b.one.amps, b.zero.amps)
    layout = full_layout(params)  # the size cap, before anything is allocated
    left = _on_ion_ground(a.zero.amps, a.one.amps) / sqrt(2.0)
    state = StateVector(layout, np.einsum("aik,bjk->abij", left,
                                          _on_ion_ground(*right)))
    amps = state.amps
    while amps is not None:
        amps.flags.writeable = False
        amps = amps.base
    return state
