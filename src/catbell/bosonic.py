"""States and operators of a single vibrational mode in a truncated Fock basis.

Coherent amplitudes are generated by the stable recurrence
c_{n+1} = c_n * alpha / sqrt(n+1) starting from c_0 = exp(-|alpha|^2/2), and
every constructor checks how much probability the truncation dropped before
renormalizing.  Cat states carry exact parity: the discarded-parity
amplitudes cancel exactly in floating point, not just approximately.
Constructors build mode.layout, which checks the size cap, before they
allocate anything, so an oversized cutoff is a CapacityError, not a
failed allocation.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import ceil, exp, expm1, sqrt

import numpy as np

from .errors import CapacityError
from .hilbert import OperatorMatrix, SpaceLayout, StateVector, matrix_exp

EVEN = "+"
ODD = "-"


@dataclass(frozen=True)
class ModeParams:
    """Truncation settings for one mode."""

    cutoff: int
    leak_tol: float = 1e-10

    def __post_init__(self) -> None:
        if self.cutoff < 2:
            raise ValueError(f"cutoff must be >= 2, got {self.cutoff}")
        if not 0.0 < self.leak_tol < 1.0:
            raise ValueError(f"leak_tol must be in (0, 1), got {self.leak_tol}")

    @property
    def layout(self) -> SpaceLayout:
        return SpaceLayout((self.cutoff,))


def default_cutoff(alpha: complex) -> int:
    """Fock levels that hold a coherent state of this size with room to spare."""
    a = abs(alpha)
    return int(ceil(a * a + 6.0 * a + 10.0))


def mode_for(alpha: complex, leak_tol: float = 1e-10) -> ModeParams:
    return ModeParams(cutoff=default_cutoff(alpha), leak_tol=leak_tol)


def required_cutoff(alpha: complex, leak_tol: float) -> int:
    """Smallest cutoff whose Poisson tail mass stays below leak_tol."""
    lam = abs(alpha) ** 2
    term = exp(-lam)
    total = term
    n = 0
    while 1.0 - total > leak_tol:
        n += 1
        term *= lam / n
        total += term
        if n > 100000:
            raise CapacityError(f"no finite cutoff found for |alpha|^2 = {lam}")
    return n + 1


def _coherent_amps(alpha: complex, cutoff: int) -> np.ndarray:
    c = np.zeros(cutoff, dtype=np.complex128)
    c[0] = exp(-abs(alpha) ** 2 / 2.0)
    for n in range(1, cutoff):
        c[n] = c[n - 1] * alpha / sqrt(n)
    return c


def _check_leak(dropped: float, mode: ModeParams, alpha: complex, what: str) -> None:
    if dropped > mode.leak_tol:
        need = required_cutoff(alpha, mode.leak_tol)
        raise CapacityError(
            f"cutoff {mode.cutoff} drops {dropped:.3e} of the {what} for "
            f"alpha = {alpha}; need cutoff >= {need}"
        )


def coherent(alpha: complex, mode: ModeParams) -> StateVector:
    """Normalized coherent state |alpha> truncated to the mode's cutoff."""
    layout = mode.layout
    c = _coherent_amps(alpha, mode.cutoff)
    kept = float(np.vdot(c, c).real)
    _check_leak(1.0 - kept, mode, alpha, "coherent state")
    return StateVector(layout, c / sqrt(kept))


def cat_norm(alpha: complex, parity: str) -> float:
    """N_+- = 1/sqrt(2 +- 2 exp(-2|alpha|^2)), the cat normalization constant.

    The odd norm^2 is computed as -2 expm1(-2|alpha|^2), which keeps its
    digits at small alpha where 2 - 2 exp(-2|alpha|^2) cancels to 0.
    """
    x = 2.0 * abs(alpha) ** 2
    if parity == EVEN:
        return 1.0 / sqrt(2.0 + 2.0 * exp(-x))
    if parity == ODD:
        norm2 = -2.0 * expm1(-x)
        if norm2 <= 0.0:
            raise ValueError(
                f"odd cat state is undefined at alpha = {alpha} (|alpha|^2 "
                "underflows)")
        return 1.0 / sqrt(norm2)
    raise ValueError(f"parity must be '+' or '-', got {parity!r}")


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


def annihilation(mode: ModeParams) -> OperatorMatrix:
    layout = mode.layout
    m = np.diag(np.sqrt(np.arange(1, mode.cutoff, dtype=np.float64)), 1)
    return OperatorMatrix(layout, (0,), m)


def creation(mode: ModeParams) -> OperatorMatrix:
    layout = mode.layout
    m = np.diag(np.sqrt(np.arange(1, mode.cutoff, dtype=np.float64)), -1)
    return OperatorMatrix(layout, (0,), m)


def number_op(mode: ModeParams) -> OperatorMatrix:
    layout = mode.layout
    return OperatorMatrix(layout, (0,), np.diag(np.arange(mode.cutoff, dtype=np.float64)))


def parity_projectors(mode: ModeParams) -> tuple[OperatorMatrix, OperatorMatrix]:
    """(even, odd) projectors; they sum to the identity exactly."""
    layout = mode.layout
    n = np.arange(mode.cutoff)
    even = np.diag(((n + 1) % 2).astype(np.float64))
    odd = np.diag((n % 2).astype(np.float64))
    return (OperatorMatrix(layout, (0,), even),
            OperatorMatrix(layout, (0,), odd))


def displacement(beta: complex, mode: ModeParams) -> OperatorMatrix:
    """D(beta) = exp(beta a† - beta* a) on the truncated basis.

    The truncated generator is still exactly anti-Hermitian, so the result is
    unitary to machine precision at any cutoff; only its action on states near
    the cutoff degrades.  Phase bookkeeping follows from the operator itself
    (D(beta)|alpha> = exp(i Im(beta alpha*)) |alpha+beta> for states well
    inside the basis), and protocol-level claims are made on moduli only.
    """
    a = annihilation(mode).matrix
    gen = beta * a.conj().T - np.conj(beta) * a
    return matrix_exp(OperatorMatrix(mode.layout, (0,), gen))
