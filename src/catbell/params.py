"""Run settings, the size cap and heat-sweep's law, in Python floats.

This module imports no numpy, so that `import catbell.cli`, `catbell
version`, `describe`, `--help`, every config error and a whole `heat-sweep`
run stay at the interpreter's floor.  It holds the command line's choice
lists, the settings that key the memos (EncodingParams, ModeParams), the
cutoff sizing, the cat normalization, the truncation leak check, the
unit-trace and unit-norm check (check_unit), and the size cap that every
layout and memo hit runs (check_dim).  The array modules (hilbert, bosonic,
encoding, noise, bell), catbell.coherent and gates import these names from
here; the layout of a tensor-product space (SpaceLayout) lives beside its
array readers in hilbert.

The settings are tuples of their fields (typing.NamedTuple) whose __new__
runs every check, so a run loads neither dataclasses nor inspect: equality
and the hash are those of the tuple of field values, the hash bit for bit
what a frozen dataclass of the same fields gives, and no field can be
assigned.  _replace and _make skip __new__ and its checks; a changed copy
is built through the class.

heat-sweep's answer is a sum over the prepared cat's levels: the even cat's
populations (even_cat_populations), from the coherent recurrence
c_{n+1} = c_n alpha / sqrt(n + 1) that bosonic._coherent_amps runs on
arrays, read through the heating channel's exact law (heated_moments).
"""

from __future__ import annotations

import operator
import os
import sys
from collections.abc import Iterable
from math import ceil, exp, expm1, fsum, isfinite, lgamma, log, log10, pi, sqrt
from typing import NamedTuple

from .errors import CapacityError, ContractError

# the readouts of bell.chsh and the two builds of the exchange's gates
# (coherent.exchange): the command line's field table reads them without
# loading bell or gates
CHSH_METHODS = ("exact", "sampled")
VE_VARIANTS = ("ideal", "literal")
EV_VARIANTS = ("displacement", "ideal")

EVEN = "+"
ODD = "-"

NORM_TOL = 1e-8

MAX_DIM_ENV = "CATBELL_MAX_DIM"
DEFAULT_MAX_DIM = 16384


def check_unit(value: complex, what: str) -> None:
    """ContractError unless value, the trace or the norm of `what`, is 1
    within NORM_TOL; a NaN is refused too."""
    dev = abs(value - 1.0)
    if not dev <= NORM_TOL:
        raise ContractError(f"{what} is not normalized (deviation {dev:.3e})")


# ---------------------------------------------------------- the size cap ---

def max_total_dim() -> int:
    """Current cap on the total dimension of a layout.

    Defaults to 16384 and can be raised or lowered through the
    ``CATBELL_MAX_DIM`` environment variable, read at layout creation time
    and on each memo hit (check_dim).
    """
    raw = os.environ.get(MAX_DIM_ENV)
    if raw is None:
        return DEFAULT_MAX_DIM
    try:
        value = int(raw)
    except ValueError as exc:
        raise CapacityError(f"{MAX_DIM_ENV} must be an integer, got {raw!r}") from exc
    if value < 2:
        raise CapacityError(f"{MAX_DIM_ENV} must be at least 2, got {value}")
    return value


def _count(n: int) -> str:
    """n in full up to 15 digits; beyond, to 3 significant digits."""
    if n < 10 ** 15:
        return str(n)
    exp10 = int(log10(n))  # may be one off; the 'e' format renormalizes
    mantissa, shift = f"{n / 10 ** exp10:.2e}".split("e")
    return f"{float(mantissa):g}e+{exp10 + int(shift)}"


def check_dim(total: int) -> int:
    """total, a layout's dimension, held to the size cap (max_total_dim): a
    CapacityError above it.  A memo hit, which builds no layout, calls it."""
    cap = max_total_dim()
    if total > cap:
        raise CapacityError(
            f"total dimension {_count(total)} exceeds the cap {cap}; "
            f"raise {MAX_DIM_ENV} if this is intentional"
        )
    return total


def _integer(value, name: str) -> int:
    """value as an int: a ValueError that names it unless it is an integer,
    a numpy one too, and not a bool."""
    if isinstance(value, bool) or not hasattr(type(value), "__index__"):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    return operator.index(value)


# ------------------------------------------------------ modes and cutoffs ---

class _ModeFields(NamedTuple):
    cutoff: int
    leak_tol: float


class ModeParams(_ModeFields):
    """Truncation settings for one mode."""

    __slots__ = ()

    def __new__(cls, cutoff: int, leak_tol: float = 1e-10) -> ModeParams:
        if _integer(cutoff, "cutoff") < 2:
            raise ValueError(f"cutoff must be >= 2, got {cutoff}")
        if not 0.0 < leak_tol < 1.0:
            raise ValueError(f"leak_tol must be in (0, 1), got {leak_tol}")
        return super().__new__(cls, cutoff, leak_tol)


def default_cutoff(alpha: complex) -> int:
    """Fock levels that hold a coherent state of this size with room to spare."""
    a = abs(alpha)
    if not isfinite(a):
        raise ValueError(f"amplitude must be finite, got {alpha}")
    levels = a * a + 6.0 * a + 10.0
    if not isfinite(levels):
        raise CapacityError(f"no finite cutoff for |alpha| = {a:.3g}: "
                            "|alpha|^2 overflows")
    return int(ceil(levels))


def mode_for(alpha: complex, leak_tol: float = 1e-10) -> ModeParams:
    return ModeParams(cutoff=default_cutoff(alpha), leak_tol=leak_tol)


# the log of the smallest normal float: a Poisson term below it underflows
LOG_TINY = log(sys.float_info.min)


def required_cutoff(alpha: complex, leak_tol: float) -> int:
    """Smallest cutoff whose Poisson tail mass stays below leak_tol.

    The sum runs up the levels by the recurrence p_n = p_{n-1} lam / n, lam
    = |alpha|^2.  Where p_0 = exp(-lam) underflows (lam > 708), it starts
    at the first level whose term is a normal float, bisected in log space
    (log p_n = n log lam - lam - lgamma(n + 1) rises up to n = lam), so
    that the terms do not all round to 0; the levels below hold under n
    times the smallest normal float.
    """
    lam = abs(alpha) ** 2
    n, term = 0, exp(-lam)
    if -lam < LOG_TINY:
        # log p_0 = -lam is below it and log p_int(lam), about -log(2 pi
        # lam) / 2, above it at any finite lam
        low, high = 0, int(lam)
        while high - low > 1:
            mid = (low + high) // 2
            if mid * log(lam) - lam - lgamma(mid + 1) < LOG_TINY:
                low = mid
            else:
                high = mid
        n, term = high, exp(high * log(lam) - lam - lgamma(high + 1))
    total = term
    while 1.0 - total > leak_tol and n <= 100000:
        n += 1
        term *= lam / n
        total += term
    if n > 100000:
        raise CapacityError(f"no finite cutoff found for |alpha|^2 = {lam}")
    return n + 1


def _check_leak(dropped: float, mode: ModeParams, alpha: complex,
                parity: str) -> None:
    """A CapacityError if the cutoff drops more than leak_tol of the cat of
    this parity, naming a cutoff that holds it: no level of the cat holds
    more than 4 N^2 times that of |alpha> (N its cat_norm), so the cutoff
    that keeps all but leak_tol / (4 N^2) of |alpha> does."""
    if dropped > mode.leak_tol:
        tol = mode.leak_tol / (4.0 * cat_norm(alpha, parity) ** 2)
        raise CapacityError(
            f"cutoff {mode.cutoff} drops {dropped:.3e} of the '{parity}' cat "
            f"state for alpha = {alpha}; need cutoff >= "
            f"{required_cutoff(alpha, tol)}"
        )


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


# ----------------------------------------------------------- the register ---

class _EncodingFields(NamedTuple):
    alpha: float
    beta: float
    mode_a: ModeParams
    mode_b: ModeParams
    epsilon: float | None  # explicit displacement scale, optional


class EncodingParams(_EncodingFields):
    """Cat amplitudes and truncation settings for the two-mode register."""

    __slots__ = ()

    def __new__(cls, alpha: float, beta: float, mode_a: ModeParams,
                mode_b: ModeParams, epsilon: float | None = None
                ) -> EncodingParams:
        for name, value in (("alpha", alpha), ("beta", beta),
                            ("epsilon", epsilon)):
            if value is not None and not isfinite(value):
                raise ValueError(f"{name} must be finite, got {value}")
        if alpha <= 0 or beta <= 0:
            raise ValueError("cat amplitudes must be positive")
        # below this |alpha|^2 is subnormal or 0 and the odd cat has no norm
        low, high = min(alpha, beta), max(alpha, beta)
        if low * low < sys.float_info.min:
            raise ValueError(
                "cat amplitudes must be at least "
                f"{sqrt(sys.float_info.min):.3g}, got {low:.3g}")
        if not isfinite(high * high):
            raise CapacityError(
                f"cat amplitude {high:.3g} is too large: |alpha|^2 overflows")
        if epsilon is not None and epsilon < 0:
            raise ValueError("epsilon must be nonnegative")
        # the one epsilon kicks both modes, so it bounds both rotations;
        # against pi / high, so that epsilon = pi / alpha itself is accepted
        # even where epsilon * alpha rounds above pi
        if epsilon is not None and epsilon > pi / high:
            raise ValueError(
                "epsilon*alpha and epsilon*beta must lie in [0, pi], "
                f"got {epsilon * high:.4g}"
            )
        return super().__new__(cls, alpha, beta, mode_a, mode_b, epsilon)

    @classmethod
    def for_amplitudes(cls, alpha: float, beta: float | None = None,
                       cutoff: int | None = None, leak_tol: float = 1e-10,
                       epsilon: float | None = None) -> EncodingParams:
        beta = alpha if beta is None else beta
        if cutoff is None:
            ma = mode_for(alpha, leak_tol)
            mb = mode_for(beta, leak_tol)
        else:
            ma = ModeParams(cutoff, leak_tol)
            mb = ModeParams(cutoff, leak_tol)
        return cls(alpha, beta, ma, mb, epsilon)

    def mode(self, which: str) -> ModeParams:
        return {"a": self.mode_a, "b": self.mode_b}[_mode_name(which)]

    def amplitude(self, which: str) -> float:
        return {"a": self.alpha, "b": self.beta}[_mode_name(which)]


def _mode_name(which: str) -> str:
    """which, once it is checked to name one of the two modes."""
    if which not in ("a", "b"):
        raise ValueError(f"mode must be 'a' or 'b', got {which!r}")
    return which


# ------------------------------------------------------ heat-sweep's law ---

def even_cat_populations(alpha: float, mode: ModeParams) -> list[float]:
    """The populations |c_k|^2 of the even cat of real amplitude alpha > 0 on
    the mode's cutoff, normalized on the kept levels, in Python floats.

    bosonic.cat's steps on one real line: the coherent recurrence, the even
    levels doubled and the odd ones exact zeros, the size cap before the
    series and the leak check before the division (so that a cat that
    underflows to nothing is a CapacityError).  Each step rounds once and
    the norm is summed correctly rounded (fsum), where numpy divides through
    the reciprocal and sums in its own order, so a population may differ
    from bosonic.cat's by a few ulps.
    """
    check_dim(mode.cutoff)
    c = exp(-abs(alpha) ** 2 / 2.0)
    v = [c + c]
    for n in range(1, mode.cutoff):
        c = c * alpha / sqrt(n)
        v.append(0.0 if n % 2 else c + c)
    kept = fsum(x * x for x in v)
    exact = 1.0 / cat_norm(alpha, EVEN) ** 2  # norm^2 of the untruncated sum
    _check_leak(max(0.0, 1.0 - kept / exact), mode, alpha, EVEN)
    scale = sqrt(kept)
    return [(x / scale) * (x / scale) for x in v]


def heated_moments(populations: Iterable[float], rate: float
                   ) -> tuple[float, float]:
    """<n> and the parity after the heating channel at gamma t = rate >= 0.

    populations, floats in level order, are the p_k of a one-mode state,
    read as a state of the untruncated ladder.  The channel's dual maps n to
    n + s and (-1)^n to x^n / (1 + 2s), x = (2s - 1) / (2s + 1), s = rate
    (noise's module docstring), so <n> = sum_k k p_k + s and the parity is
    sum_k p_k x^k / (1 + 2s), with no truncation error; <a> is conserved.
    Both sums run in level order in Python floats, with no BLAS.  |x| <= 1,
    so no power overflows.  A rate that is not finite is a ContractError.
    """
    if not isfinite(rate):
        raise ContractError(f"cannot heat at gamma*duration = {rate}")
    # 1 - 2 / (2s + 1) is x, and stays 1 where 2s overflows
    x = 1.0 - 2.0 / (2.0 * rate + 1.0)
    n_mean = parity = 0.0
    for k, p in enumerate(populations):
        n_mean += k * p
        parity += x ** k * p
    return float(n_mean) + rate, float(parity) / (2.0 * rate + 1.0)
