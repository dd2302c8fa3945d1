"""Dense linear algebra on truncated tensor-product Hilbert spaces.

Everything is exact complex arithmetic on explicit numpy arrays; there is no
sparse or symbolic path.  A layout lists the factor dimensions in a fixed
order, with the first factor varying slowest in the flattened index (the
ordering produced by ``numpy.kron``).  Gates are not operators here: they
act in place on the axes of a state tensor (catbell.gates).  tensor and
partial_trace take pure states only.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from math import log10, prod

import numpy as np

from .errors import CapacityError, ContractError

MAX_DIM_ENV = "CATBELL_MAX_DIM"
DEFAULT_MAX_DIM = 16384

NORM_TOL = 1e-8

SIGMA_X = np.array([[0, 1], [1, 0]], dtype=np.complex128)
SIGMA_Y = np.array([[0, -1j], [1j, 0]], dtype=np.complex128)
SIGMA_Z = np.array([[1, 0], [0, -1]], dtype=np.complex128)


def max_total_dim() -> int:
    """Current cap on the total dimension of a layout.

    Defaults to 16384 and can be raised or lowered through the
    ``CATBELL_MAX_DIM`` environment variable, read at layout creation time.
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
    exp = int(log10(n))  # may be one off; the 'e' format renormalizes
    mantissa, shift = f"{n / 10 ** exp:.2e}".split("e")
    return f"{float(mantissa):g}e+{exp + int(shift)}"


@dataclass(frozen=True)
class SpaceLayout:
    """Ordered factor dimensions of a tensor-product space.

    total_dim, the product of dims, is computed once by the cap check and
    kept as a plain attribute, not a field: equality, hash and repr read
    dims alone."""

    dims: tuple[int, ...]

    def __post_init__(self) -> None:
        dims = tuple(int(d) for d in self.dims)
        object.__setattr__(self, "dims", dims)
        if not dims:
            raise ValueError("layout needs at least one factor")
        if any(d < 2 for d in dims):
            raise ValueError(f"factor dimensions must be >= 2, got {dims}")
        cap = max_total_dim()
        total = prod(dims)
        if total > cap:
            raise CapacityError(
                f"total dimension {_count(total)} exceeds the cap {cap}; "
                f"raise {MAX_DIM_ENV} if this is intentional"
            )
        object.__setattr__(self, "total_dim", total)

    @property
    def nsites(self) -> int:
        return len(self.dims)

    def dims_of(self, subsystems: tuple[int, ...]) -> tuple[int, ...]:
        return tuple(self.dims[i] for i in subsystems)


_COMPLEX = np.dtype(np.complex128)


def _as_complex(a: np.ndarray) -> np.ndarray:
    return np.ascontiguousarray(np.asarray(a, dtype=np.complex128))


@dataclass
class StateVector:
    """Pure state over a layout, stored as a flat complex vector.

    amps read-only down their .base chain make the state immutable, which
    noise.sample_trajectory relies on to reuse what it reads of one."""

    layout: SpaceLayout
    amps: np.ndarray

    def __post_init__(self) -> None:
        amps = self.amps
        # a flat, C-contiguous complex128 ndarray is kept as it is
        if not (type(amps) is np.ndarray and amps.dtype == _COMPLEX
                and amps.ndim == 1 and amps.flags.c_contiguous):
            self.amps = _as_complex(amps).reshape(-1)
        if self.amps.size != self.layout.total_dim:
            raise ValueError(
                f"amplitude length {self.amps.size} does not match "
                f"layout dimension {self.layout.total_dim}"
            )

    @property
    def norm(self) -> float:
        return float(np.linalg.norm(self.amps))

    def as_tensor(self) -> np.ndarray:
        """Amplitudes reshaped to one axis per factor."""
        return self.amps.reshape(self.layout.dims)

    def to_density(self) -> "DensityMatrix":
        return DensityMatrix(self.layout, np.outer(self.amps, self.amps.conj()))


@dataclass
class DensityMatrix:
    """Mixed state over a layout, stored as a dense Hermitian matrix."""

    layout: SpaceLayout
    matrix: np.ndarray

    def __post_init__(self) -> None:
        self.matrix = _as_complex(self.matrix)
        d = self.layout.total_dim
        if self.matrix.shape != (d, d):
            raise ValueError(
                f"matrix shape {self.matrix.shape} does not match layout dimension {d}"
            )

    @property
    def trace(self) -> complex:
        return complex(np.trace(self.matrix))


# OperatorMatrix and apply are not run by the program.  They stay because
# perfbench's tracer test (test_tracer_rebinds_every_namespace_and_restores)
# checks that the tracer rebinds hilbert.apply, catbell.apply and
# cli.apply; ROADMAP item 1 retires them with that test.
@dataclass
class OperatorMatrix:
    """Operator acting on a subset of a layout's factors.

    ``matrix`` is square over the product of the dimensions selected by
    ``acts_on`` (in increasing subsystem order); untouched factors are
    implicitly identity.
    """

    layout: SpaceLayout
    acts_on: tuple[int, ...]
    matrix: np.ndarray

    def __post_init__(self) -> None:
        self.acts_on = tuple(int(i) for i in self.acts_on)
        if len(set(self.acts_on)) != len(self.acts_on):
            raise ValueError(f"acts_on has repeats: {self.acts_on}")
        if any(i < 0 or i >= self.layout.nsites for i in self.acts_on):
            raise ValueError(
                f"acts_on {self.acts_on} out of range for {self.layout.nsites} factors"
            )
        if list(self.acts_on) != sorted(self.acts_on):
            raise ValueError(f"acts_on must be increasing, got {self.acts_on}")
        self.matrix = _as_complex(self.matrix)
        d = prod(self.layout.dims_of(self.acts_on))
        if self.matrix.shape != (d, d):
            raise ValueError(
                f"matrix shape {self.matrix.shape} does not match "
                f"selected dimensions (product {d})"
            )

    @property
    def sub_dims(self) -> tuple[int, ...]:
        return self.layout.dims_of(self.acts_on)


def tensor(parts: list[StateVector]) -> StateVector:
    """Kronecker product of states, first factor slowest.

    Each step is the flattened outer product, the bits of np.kron on
    vectors without its generic n-d set-up.  A factor shorter than the
    product so far is written one column at a time, each a multiply of the
    whole product by one amplitude, so that no inner loop runs over the
    short factor.
    """
    if not parts:
        raise ValueError("tensor of an empty list")
    if not all(isinstance(p, StateVector) for p in parts):
        raise TypeError("tensor() needs a list of StateVector")
    dims: tuple[int, ...] = ()
    amps = np.ones(1, dtype=np.complex128)
    for p in parts:
        dims = dims + p.layout.dims
        src = p.amps
        if src.size < amps.size:
            out = np.empty((amps.size, src.size), dtype=np.complex128)
            for k in range(src.size):
                np.multiply(amps, src[k], out=out[:, k])
        else:
            out = np.multiply.outer(amps, src)
        amps = out.reshape(-1)
    return StateVector(SpaceLayout(dims), amps)


def apply(op: OperatorMatrix, state: StateVector) -> StateVector:
    """Apply an operator to a state without materializing the full matrix."""
    if op.layout != state.layout:
        raise ValueError("operator and state live on different layouts")
    k = state.layout.nsites
    sel = op.acts_on
    psi = state.as_tensor()
    m = op.matrix.reshape(op.sub_dims + op.sub_dims)
    nin = len(sel)
    out = np.tensordot(m, psi, axes=(tuple(range(nin, 2 * nin)), sel))
    # tensordot leaves the operator's output axes first; restore layout order
    out = np.moveaxis(out, tuple(range(nin)), sel)
    return StateVector(state.layout, out.reshape(-1))


def partial_trace(state: StateVector, keep: tuple[int, ...]) -> DensityMatrix:
    """Trace out every factor not listed in ``keep``.

    The reduced matrix is contracted directly from the amplitude tensor, so
    tracing a large space down to a small subsystem never builds the full
    outer product.
    """
    if not isinstance(state, StateVector):
        raise TypeError("partial_trace() needs a StateVector")
    keep = tuple(int(i) for i in keep)
    layout = state.layout
    if list(keep) != sorted(set(keep)):
        raise ValueError(f"keep must be strictly increasing, got {keep}")
    if any(i < 0 or i >= layout.nsites for i in keep):
        raise ValueError(f"keep {keep} out of range")
    kept_layout = SpaceLayout(layout.dims_of(keep))
    drop = tuple(i for i in range(layout.nsites) if i not in keep)
    psi = state.as_tensor()
    red = np.tensordot(psi, psi.conj(), axes=(drop, drop))
    # axes are now (kept_bra..., kept_ket...) in layout order
    d = kept_layout.total_dim
    return DensityMatrix(kept_layout, red.reshape(d, d))


def band_eigh(diagonal: np.ndarray, off_diagonal: np.ndarray
              ) -> tuple[np.ndarray, np.ndarray]:
    """(w, V) of a real symmetric tridiagonal band: M = V diag(w) V^T, w
    ascending.  A dense eigh, O(d^3), that its callers cache per cutoff.
    V is column-major, as LAPACK writes it; a row-major V would sum the
    products with V in another order and move rounding-residue bytes of
    the output (trace_drift, b_value at delta = 1).
    """
    band = np.diag(diagonal) + np.diag(off_diagonal, 1) + np.diag(off_diagonal, -1)
    w, v = np.linalg.eigh(band)
    return w, np.asfortranarray(v)


def check_normalized(state, what: str) -> None:
    """ContractError unless the trace of a DensityMatrix, or the norm of any
    other state, is 1 within NORM_TOL."""
    if isinstance(state, DensityMatrix):
        dev = abs(state.trace - 1.0)
    else:
        dev = abs(state.norm - 1.0)
    if dev > NORM_TOL:
        raise ContractError(f"{what} is not normalized (deviation {dev:.3e})")


def state_fidelity(a: StateVector, b: StateVector) -> float:
    """|<a|b>|^2 for unit-norm states; unnormalized input is an error."""
    if a.layout != b.layout:
        raise ValueError("states live on different layouts")
    check_normalized(a, "first state")
    check_normalized(b, "second state")
    return float(abs(np.vdot(a.amps, b.amps)) ** 2)


def _psd_sqrt(m: np.ndarray) -> np.ndarray:
    w, v = np.linalg.eigh((m + m.conj().T) / 2)
    w = np.clip(w, 0.0, None)
    return (v * np.sqrt(w)) @ v.conj().T


def dm_fidelity(rho: DensityMatrix, sigma: DensityMatrix | StateVector) -> float:
    """Uhlmann fidelity; against a pure state it reduces to <psi|rho|psi>.

    Against a rank-deficient mixed target the clipped square roots of
    near-zero eigenvalues add about sqrt(machine eps) to the trace, so the
    result is good to about 1e-8; bell.mixed_bell_fidelity is the closed
    form for the parity-flip mixture.
    """
    if rho.layout != sigma.layout:
        raise ValueError("states live on different layouts")
    check_normalized(rho, "first state")
    check_normalized(sigma, "second state")
    if isinstance(sigma, StateVector):
        return float(np.vdot(sigma.amps, rho.matrix @ sigma.amps).real)
    s = _psd_sqrt(rho.matrix)
    inner = _psd_sqrt(s @ sigma.matrix @ s)
    val = float(np.trace(inner).real) ** 2
    return min(val, 1.0) if val <= 1.0 + 1e-9 else val


def unitarity_residual(m: np.ndarray) -> float:
    """max |U†U - 1| of a square array U, a cheap contract check.

    With U = A + iB, U†U = (AᵀA + BᵀB) + i(AᵀB - BᵀA).  Row i of
    P = [Aᵀ | Bᵀ] and of Q = [Bᵀ | -Aᵀ] holds column i of U, so the real
    part is P Pᵀ and the imaginary part P Qᵀ: two real einsums over
    contiguous rows.  einsum calls no BLAS, so the residual does not depend
    on the BLAS thread count.
    """
    p = np.concatenate([m.real.T, m.imag.T], axis=1)
    q = np.concatenate([m.imag.T, -m.real.T], axis=1)
    re = np.einsum("ik,jk->ij", p, p)
    re -= np.eye(m.shape[0])
    return float(np.hypot(re, np.einsum("ik,jk->ij", p, q)).max())
