"""Dense linear algebra on truncated tensor-product Hilbert spaces.

Everything is exact complex arithmetic on explicit numpy arrays; there is no
sparse or symbolic path.  A layout lists the factor dimensions in a fixed
order, with the first factor varying slowest in the flattened index (the
ordering produced by ``numpy.kron``).  Operators are stored compactly on the
subsystems they touch and are embedded with identity padding only on demand.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from math import prod

import numpy as np
import scipy.linalg

from .errors import CapacityError, ContractError

MAX_DIM_ENV = "CATBELL_MAX_DIM"
DEFAULT_MAX_DIM = 16384

NORM_TOL = 1e-8
HERM_TOL = 1e-12


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


@dataclass(frozen=True)
class SpaceLayout:
    """Ordered factor dimensions of a tensor-product space."""

    dims: tuple[int, ...]

    def __post_init__(self) -> None:
        dims = tuple(int(d) for d in self.dims)
        object.__setattr__(self, "dims", dims)
        if not dims:
            raise ValueError("layout needs at least one factor")
        if any(d < 2 for d in dims):
            raise ValueError(f"factor dimensions must be >= 2, got {dims}")
        cap = max_total_dim()
        if prod(dims) > cap:
            raise CapacityError(
                f"total dimension {prod(dims)} exceeds the cap {cap}; "
                f"raise {MAX_DIM_ENV} if this is intentional"
            )

    @property
    def total_dim(self) -> int:
        return prod(self.dims)

    @property
    def nsites(self) -> int:
        return len(self.dims)

    def dims_of(self, subsystems: tuple[int, ...]) -> tuple[int, ...]:
        return tuple(self.dims[i] for i in subsystems)


def _as_complex(a: np.ndarray) -> np.ndarray:
    return np.ascontiguousarray(np.asarray(a, dtype=np.complex128))


@dataclass
class StateVector:
    """Pure state over a layout, stored as a flat complex vector."""

    layout: SpaceLayout
    amps: np.ndarray

    def __post_init__(self) -> None:
        self.amps = _as_complex(self.amps).reshape(-1)
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


def tensor(parts: list) -> StateVector | OperatorMatrix:
    """Kronecker product of states or of operators, first factor slowest.

    All parts must be of the same kind.  Operator parts are taken as written
    over their own layouts; the result lives on the concatenated layout.
    """
    if not parts:
        raise ValueError("tensor of an empty list")
    if all(isinstance(p, StateVector) for p in parts):
        dims: tuple[int, ...] = ()
        amps = np.ones(1, dtype=np.complex128)
        for p in parts:
            dims = dims + p.layout.dims
            amps = np.kron(amps, p.amps)
        return StateVector(SpaceLayout(dims), amps)
    if all(isinstance(p, OperatorMatrix) for p in parts):
        dims = ()
        acts: tuple[int, ...] = ()
        mat = np.ones((1, 1), dtype=np.complex128)
        for p in parts:
            if p.acts_on != tuple(range(p.layout.nsites)):
                # keep the product unambiguous: no implicit-identity holes
                p = embed(p)
            acts = acts + tuple(i + len(dims) for i in p.acts_on)
            dims = dims + p.layout.dims
            mat = np.kron(mat, p.matrix)
        return OperatorMatrix(SpaceLayout(dims), acts, mat)
    raise TypeError("tensor() needs a list of StateVector or a list of OperatorMatrix")


def on_layout(op: OperatorMatrix, layout: SpaceLayout, at: tuple[int, ...]) -> OperatorMatrix:
    """Retarget a compact operator onto ``at`` within a (usually larger) layout."""
    at = tuple(int(i) for i in at)
    if len(at) != len(op.acts_on):
        raise ValueError(f"need {len(op.acts_on)} target subsystems, got {at}")
    if layout.dims_of(at) != op.sub_dims:
        raise ValueError(
            f"target dimensions {layout.dims_of(at)} do not match operator "
            f"dimensions {op.sub_dims}"
        )
    return OperatorMatrix(layout, at, op.matrix)


def embed(op: OperatorMatrix) -> OperatorMatrix:
    """Materialize the full matrix of ``op`` over its whole layout.

    Identity padding on untouched factors; axes are permuted back to layout
    order.  The result acts on every factor.
    """
    layout = op.layout
    k = layout.nsites
    sel = op.acts_on
    rest = tuple(i for i in range(k) if i not in sel)
    if not rest:
        return OperatorMatrix(layout, sel, op.matrix.copy())
    d_rest = prod(layout.dims_of(rest))
    big = np.kron(op.matrix, np.eye(d_rest, dtype=np.complex128))
    # big is ordered (sel..., rest...) on both row and column axes
    shaped = big.reshape(
        layout.dims_of(sel) + layout.dims_of(rest)
        + layout.dims_of(sel) + layout.dims_of(rest)
    )
    order = sel + rest
    perm = [order.index(i) for i in range(k)]
    shaped = shaped.transpose(perm + [k + p for p in perm])
    d = layout.total_dim
    return OperatorMatrix(layout, tuple(range(k)), shaped.reshape(d, d))


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


def expectation(op: OperatorMatrix, state: StateVector | DensityMatrix) -> complex:
    """<op> in a pure or mixed state; complex, imaginary part ~0 for Hermitian op."""
    if isinstance(state, StateVector):
        return complex(np.vdot(state.amps, apply(op, state).amps))
    u = embed(op).matrix if op.acts_on != tuple(range(op.layout.nsites)) else op.matrix
    return complex(np.trace(state.matrix @ u))


def partial_trace(state: StateVector | DensityMatrix, keep: tuple[int, ...]) -> DensityMatrix:
    """Trace out every factor not listed in ``keep``.

    For pure states the reduced matrix is contracted directly from the
    amplitude tensor, so tracing a large space down to a small subsystem never
    builds the full outer product.
    """
    keep = tuple(int(i) for i in keep)
    layout = state.layout
    if list(keep) != sorted(set(keep)):
        raise ValueError(f"keep must be strictly increasing, got {keep}")
    if any(i < 0 or i >= layout.nsites for i in keep):
        raise ValueError(f"keep {keep} out of range")
    kept_layout = SpaceLayout(layout.dims_of(keep))
    drop = tuple(i for i in range(layout.nsites) if i not in keep)
    if isinstance(state, StateVector):
        psi = state.as_tensor()
        red = np.tensordot(psi, psi.conj(), axes=(drop, drop))
        # axes are now (kept_bra..., kept_ket...) in layout order
        d = kept_layout.total_dim
        return DensityMatrix(kept_layout, red.reshape(d, d))
    k = layout.nsites
    t = state.matrix.reshape(layout.dims + layout.dims)
    for i in sorted(drop, reverse=True):
        t = np.trace(t, axis1=i, axis2=i + k)
        k -= 1
    d = kept_layout.total_dim
    return DensityMatrix(kept_layout, t.reshape(d, d))


def matrix_exp(op: OperatorMatrix, scale: complex = 1.0) -> OperatorMatrix:
    """exp(scale * op) on the same subsystems.

    Hermitian and anti-Hermitian arguments go through an eigendecomposition,
    which keeps unitarity at machine precision; anything else falls back to
    scaling-and-squaring.
    """
    m = np.asarray(scale, dtype=np.complex128) * op.matrix
    scale_norm = max(float(np.abs(m).max()), 1.0)
    if np.abs(m - m.conj().T).max() <= HERM_TOL * scale_norm:
        w, v = np.linalg.eigh((m + m.conj().T) / 2)
        exp_m = (v * np.exp(w)) @ v.conj().T
    elif np.abs(m + m.conj().T).max() <= HERM_TOL * scale_norm:
        h = (1j * m + (1j * m).conj().T) / 2  # Hermitian part of i*m
        w, v = np.linalg.eigh(h)
        exp_m = (v * np.exp(-1j * w)) @ v.conj().T
    else:
        exp_m = scipy.linalg.expm(m)
    return OperatorMatrix(op.layout, op.acts_on, exp_m)


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


def overlap(a: StateVector, b: StateVector) -> complex:
    """<a|b> with no normalization contract, for phase-sensitive checks."""
    if a.layout != b.layout:
        raise ValueError("states live on different layouts")
    return complex(np.vdot(a.amps, b.amps))


def unitarity_residual(op: OperatorMatrix) -> float:
    """max |U†U - 1|, a cheap contract check after exponentiation."""
    m = op.matrix
    return float(np.abs(m.conj().T @ m - np.eye(m.shape[0])).max())
