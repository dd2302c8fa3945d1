"""The cat states of one vibrational mode in a truncated Fock basis.

The jump ensembles' code basis (encoding.logical_basis) is built here; no
command runs this module.  Coherent amplitudes are generated by the stable
recurrence c_{n+1} = c_n * alpha / sqrt(n+1) starting from c_0 =
exp(-|alpha|^2/2), and cat checks how much probability the truncation
dropped before renormalizing.  Cat states carry exact parity: the
discarded-parity amplitudes cancel exactly in floating point, not just
approximately.  cat builds the mode's layout, which checks the size cap,
before it allocates anything, so an oversized cutoff is a CapacityError,
not a failed allocation.  The mode settings, the cutoff sizing, the cat
normalization and the leak check live in catbell.params, which loads no
numpy.
"""

from __future__ import annotations

from math import exp, sqrt

import numpy as np

from .hilbert import SpaceLayout, StateVector
from .params import EVEN, ODD, ModeParams, _check_leak, cat_norm


def _coherent_amps(alpha: complex, cutoff: int) -> np.ndarray:
    c = np.zeros(cutoff, dtype=np.complex128)
    c[0] = exp(-abs(alpha) ** 2 / 2.0)
    for n in range(1, cutoff):
        c[n] = c[n - 1] * alpha / sqrt(n)
    return c


def cat(alpha: complex, parity: str, mode: ModeParams) -> StateVector:
    """Even (+) or odd (-) superposition of |alpha> and |-alpha>, normalized.

    The suppressed-parity amplitudes are exact floating-point zeros.
    """
    if parity not in (EVEN, ODD):
        raise ValueError(f"parity must be '+' or '-', got {parity!r}")
    layout = SpaceLayout((mode.cutoff,))
    c = _coherent_amps(alpha, mode.cutoff)
    mirror = c * ((-1.0) ** np.arange(mode.cutoff))
    v = c + mirror if parity == EVEN else c - mirror
    kept = float(np.vdot(v, v).real)
    exact = 1.0 / cat_norm(alpha, parity) ** 2  # norm^2 of the untruncated sum
    _check_leak(max(0.0, 1.0 - kept / exact), mode, alpha, parity)
    return StateVector(layout, v / sqrt(kept))
