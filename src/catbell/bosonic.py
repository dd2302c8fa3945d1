"""States and operators of a single vibrational mode in a truncated Fock basis.

Coherent amplitudes are generated by the stable recurrence
c_{n+1} = c_n * alpha / sqrt(n+1) starting from c_0 = exp(-|alpha|^2/2), and
every constructor checks how much probability the truncation dropped before
renormalizing.  Cat states carry exact parity: the discarded-parity
amplitudes cancel exactly in floating point, not just approximately.
Constructors build mode.layout, which checks the size cap, before they
allocate anything, so an oversized cutoff is a CapacityError, not a
failed allocation.  The mode settings, the cutoff sizing, the cat
normalization and the leak check live in catbell.params, which loads no
numpy.
"""

from __future__ import annotations

from cmath import isfinite
from collections.abc import Callable
from functools import lru_cache
from math import exp, pi, sqrt

import numpy as np

from .hilbert import StateVector, band_eigh
from .params import EVEN, ODD, ModeParams, _check_leak, cat_norm


def _coherent_amps(alpha: complex, cutoff: int) -> np.ndarray:
    c = np.zeros(cutoff, dtype=np.complex128)
    c[0] = exp(-abs(alpha) ** 2 / 2.0)
    for n in range(1, cutoff):
        c[n] = c[n - 1] * alpha / sqrt(n)
    return c


def coherent(alpha: complex, mode: ModeParams) -> StateVector:
    """Normalized coherent state |alpha> truncated to the mode's cutoff."""
    layout = mode.layout
    c = _coherent_amps(alpha, mode.cutoff)
    kept = float(np.vdot(c, c).real)
    _check_leak(1.0 - kept, mode, alpha, "coherent state")
    return StateVector(layout, c / sqrt(kept))


def cat(alpha: complex, parity: str, mode: ModeParams) -> StateVector:
    """Even (+) or odd (-) superposition of |alpha> and |-alpha>, normalized.

    The suppressed-parity amplitudes are exact floating-point zeros.
    """
    if parity not in (EVEN, ODD):
        raise ValueError(f"parity must be '+' or '-', got {parity!r}")
    layout = mode.layout
    c = _coherent_amps(alpha, mode.cutoff)
    mirror = c * ((-1.0) ** np.arange(mode.cutoff))
    v = c + mirror if parity == EVEN else c - mirror
    kept = float(np.vdot(v, v).real)
    exact = 1.0 / cat_norm(alpha, parity) ** 2  # norm^2 of the untruncated sum
    _check_leak(max(0.0, 1.0 - kept / exact), mode, alpha, f"'{parity}' cat state")
    return StateVector(layout, v / sqrt(kept))


# a sweep at one encoding uses one or two cutoffs; an entry is 8 d (d + 1)
# bytes, so the 16 entries hold at most 16 * 8 * 128 * 129 B = 2.1 MB at d <= 128
@lru_cache(maxsize=16)
def _position_eigenbasis(dim: int) -> tuple[np.ndarray, np.ndarray]:
    """X = a + a+ on dim levels as X = V diag(w) V^T, from hilbert.band_eigh
    of its zero diagonal and off-diagonal sqrt(n).

    Memoized per cutoff; both arrays are read-only.
    """
    w, v = band_eigh(np.zeros(dim), np.sqrt(np.arange(1, dim)))
    w.flags.writeable = False
    v.flags.writeable = False
    return w, v


def displacement_action(beta: complex, mode: ModeParams
                        ) -> Callable[[np.ndarray], np.ndarray]:
    """x -> D(beta) x on axis 0 of x, D(beta) = exp(beta a† - beta* a) on the
    truncated basis; further axes of x ride along, and a new array is returned.

    The generator is R (i |beta| X) R† with X = a + a† real symmetric
    tridiagonal and R = diag(e^{i (arg beta - pi/2) n}), so the
    eigendecomposition X = V diag(w) Vᵀ gives D = R V diag(e^{i |beta| w}) Vᵀ R†,
    unitary to machine precision at any cutoff; only its action on states
    near the cutoff degrades.  (w, V) depend only on the cutoff and are
    computed once per process (_position_eigenbasis).  D is never formed:
    the real V acts on the float view of the complex columns, two real
    products and 8 d^2 flops per column.  D(beta)|alpha> =
    exp(i Im(beta alpha*)) |alpha+beta> holds well inside the basis;
    protocol-level claims are made on moduli only.  A beta that is not
    finite is a ValueError, and a finite one whose phases |beta| w pass the
    float range an OverflowError, both here, when the action is built, not
    on its first call.
    """
    if not isfinite(beta):
        raise ValueError(f"displacement beta must be finite, got {beta}")
    dim = mode.layout.dims[0]
    w, v = _position_eigenbasis(dim)
    size = abs(complex(beta))
    # Python floats: a product past the float range is inf, with no warning
    if not isfinite(size * float(max(w[-1], -w[0]))):
        raise OverflowError(f"displacement |beta| = {size!r} makes the phases "
                            f"|beta| w overflow at cutoff {dim}")
    r = np.exp(1j * (np.angle(beta) - pi / 2.0) * np.arange(dim))
    r_conj = r.conj()[:, None]
    phases = np.exp(1j * size * w)[:, None]

    def act(x: np.ndarray) -> np.ndarray:
        shape = np.shape(x)
        y = np.multiply(r_conj, np.reshape(x, (dim, -1)), order="C")
        y = (v.T @ y.view(np.float64)).view(np.complex128)
        y *= phases
        y = (v @ y.view(np.float64)).view(np.complex128)
        y *= r[:, None]
        return y.reshape(shape)
    return act

