"""Dense linear algebra on truncated tensor-product Hilbert spaces.

Everything is exact complex arithmetic on explicit numpy arrays; there is no
sparse or symbolic path.  A layout lists the factor dimensions in a fixed
order, with the first factor varying slowest in the flattened index (the
ordering produced by ``numpy.kron``).  tensor takes pure states only.  No
command runs this module: its states serve the jump ensembles (noise,
encoding) and the Fock channel's oracle, and band_eigh the channel's
eigenbasis.  The layout (SpaceLayout) is defined here, beside the states
that read it; the size cap that it runs lives in catbell.params, which
loads no numpy.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import prod

import numpy as np

from .params import _integer, check_dim


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


SIGMA_X = np.array([[0, 1], [1, 0]], dtype=np.complex128)
SIGMA_Y = np.array([[0, -1j], [1j, 0]], dtype=np.complex128)
SIGMA_Z = np.array([[1, 0], [0, -1]], dtype=np.complex128)


def _as_complex(a: np.ndarray) -> np.ndarray:
    return np.ascontiguousarray(np.asarray(a, dtype=np.complex128))


@dataclass
class StateVector:
    """Pure state over a layout, stored as a flat complex vector.

    amps read-only down their .base chain make the state immutable:
    noise.sample_trajectory then keeps what it derives from the state per
    heated mode (the _jump_chains attribute) and reuses it from call to
    call."""

    layout: SpaceLayout
    amps: np.ndarray

    def __post_init__(self) -> None:
        self.amps = _as_complex(self.amps).reshape(-1)
        if self.amps.size != self.layout.total_dim:
            raise ValueError(
                f"amplitude length {self.amps.size} does not match "
                f"layout dimension {self.layout.total_dim}"
            )

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


# OperatorMatrix and apply are not run by the program.  perfbench's tracer
# test checks that the tracer rebinds hilbert.apply, catbell.apply and
# cli.apply (ROADMAP item 1), and tests/conftest.py builds its dense
# operators with both (expectation, embed, u_ev and others); tests/reach.py's
# KEPT_UNREACHED holds them.
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


def band_eigh(diagonal: np.ndarray, off_diagonal: np.ndarray
              ) -> tuple[np.ndarray, np.ndarray]:
    """(w, V) of a real symmetric tridiagonal band: M = V diag(w) V^T, w
    ascending.  A dense eigh, O(d^3), that its callers cache per cutoff.
    V is returned column-major, as LAPACK writes it, whatever view eigh
    returns, so that every product with V sums in one order.
    """
    band = np.diag(diagonal) + np.diag(off_diagonal, 1) + np.diag(off_diagonal, -1)
    w, v = np.linalg.eigh(band)
    return w, np.asfortranarray(v)
