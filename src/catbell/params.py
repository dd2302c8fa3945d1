"""Run settings, the size cap and heat-sweep's law, in Python floats.

This module imports no numpy, so that `import catbell.cli`, `catbell
version`, `describe`, `--help`, every config error and a whole `heat-sweep`
run stay at the interpreter's floor.  It holds the command line's choice
lists, the frozen settings that key the memos (EncodingParams, ModeParams,
SpaceLayout), the cutoff sizing, the cat normalization and the truncation
leak check, and the size cap that every layout and memo hit runs
(check_dim).  The array modules (hilbert, bosonic, encoding, noise, bell,
gates) import these names from here.

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
from dataclasses import dataclass
from math import ceil, exp, expm1, fsum, isfinite, log10, pi, prod, sqrt

from .errors import CapacityError, ContractError

# the readouts of bell.chsh and the two builds of the exchange's gates
# (gates.u_swap): the command line's field table reads them without
# loading bell or gates
CHSH_METHODS = ("exact", "sampled")
VE_VARIANTS = ("ideal", "literal")
EV_VARIANTS = ("displacement", "ideal")

EVEN = "+"
ODD = "-"

MAX_DIM_ENV = "CATBELL_MAX_DIM"
DEFAULT_MAX_DIM = 16384


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


@dataclass(frozen=True)
class SpaceLayout:
    """Ordered factor dimensions of a tensor-product space.

    total_dim, the product of dims, is computed once by the cap check and
    kept as a plain attribute, not a field: equality, hash and repr read
    dims alone."""

    dims: tuple[int, ...]

    def __post_init__(self) -> None:
        dims = tuple(_integer(d, "a factor dimension") for d in self.dims)
        object.__setattr__(self, "dims", dims)
        if not dims:
            raise ValueError("layout needs at least one factor")
        if any(d < 2 for d in dims):
            raise ValueError(f"factor dimensions must be >= 2, got {dims}")
        object.__setattr__(self, "total_dim", check_dim(prod(dims)))

    @property
    def nsites(self) -> int:
        return len(self.dims)

    def dims_of(self, subsystems: tuple[int, ...]) -> tuple[int, ...]:
        return tuple(self.dims[i] for i in subsystems)


# ------------------------------------------------------ modes and cutoffs ---

@dataclass(frozen=True)
class ModeParams:
    """Truncation settings for one mode."""

    cutoff: int
    leak_tol: float = 1e-10

    def __post_init__(self) -> None:
        if _integer(self.cutoff, "cutoff") < 2:
            raise ValueError(f"cutoff must be >= 2, got {self.cutoff}")
        if not 0.0 < self.leak_tol < 1.0:
            raise ValueError(f"leak_tol must be in (0, 1), got {self.leak_tol}")

    @property
    def layout(self) -> SpaceLayout:
        return SpaceLayout((self.cutoff,))


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


def _check_leak(dropped: float, mode: ModeParams, alpha: complex, what: str) -> None:
    if dropped > mode.leak_tol:
        need = required_cutoff(alpha, mode.leak_tol)
        raise CapacityError(
            f"cutoff {mode.cutoff} drops {dropped:.3e} of the {what} for "
            f"alpha = {alpha}; need cutoff >= {need}"
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

@dataclass(frozen=True)
class EncodingParams:
    """Cat amplitudes and truncation settings for the two-mode register."""

    alpha: float
    beta: float
    mode_a: ModeParams
    mode_b: ModeParams
    epsilon: float | None = None  # explicit displacement scale, optional

    def __post_init__(self) -> None:
        for name in ("alpha", "beta", "epsilon"):
            value = getattr(self, name)
            if value is not None and not isfinite(value):
                raise ValueError(f"{name} must be finite, got {value}")
        if self.alpha <= 0 or self.beta <= 0:
            raise ValueError("cat amplitudes must be positive")
        # below this |alpha|^2 is subnormal or 0 and the odd cat has no norm
        low, high = min(self.alpha, self.beta), max(self.alpha, self.beta)
        if low * low < sys.float_info.min:
            raise ValueError(
                "cat amplitudes must be at least "
                f"{sqrt(sys.float_info.min):.3g}, got {low:.3g}")
        if not isfinite(high * high):
            raise CapacityError(
                f"cat amplitude {high:.3g} is too large: |alpha|^2 overflows")
        if self.epsilon is not None and self.epsilon < 0:
            raise ValueError("epsilon must be nonnegative")
        # the one epsilon kicks both modes, so it bounds both rotations;
        # against pi / amp, so that epsilon = pi / alpha itself is accepted
        # even where epsilon * alpha rounds above pi
        amp = max(self.alpha, self.beta)
        if self.epsilon is not None and self.epsilon > pi / amp:
            raise ValueError(
                "epsilon*alpha and epsilon*beta must lie in [0, pi], "
                f"got {self.epsilon * amp:.4g}"
            )

    @classmethod
    def for_amplitudes(cls, alpha: float, beta: float | None = None,
                       cutoff: int | None = None,
                       leak_tol: float = 1e-10) -> "EncodingParams":
        beta = alpha if beta is None else beta
        if cutoff is None:
            ma = mode_for(alpha, leak_tol)
            mb = mode_for(beta, leak_tol)
        else:
            ma = ModeParams(cutoff, leak_tol)
            mb = ModeParams(cutoff, leak_tol)
        return cls(alpha, beta, ma, mb)

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
    _check_leak(max(0.0, 1.0 - kept / exact), mode, alpha, f"'{EVEN}' cat state")
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
