"""Dense linear algebra on truncated tensor-product Hilbert spaces.

Everything is exact complex arithmetic on explicit numpy arrays; there is no
sparse or symbolic path.  A layout lists the factor dimensions in a fixed
order, with the first factor varying slowest in the flattened index (the
ordering produced by ``numpy.kron``).  Gates are not operators here: they
act in place on the axes of a state tensor (catbell.gates).  tensor takes
pure states only.  The layout itself (SpaceLayout) and the size cap live in
catbell.params, which loads no numpy.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import prod

import numpy as np

from .errors import ContractError
from .params import SpaceLayout

NORM_TOL = 1e-8

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
    V is column-major, as LAPACK writes it; a row-major V would sum the
    products with V in another order and move rounding-residue bytes of
    the output (trace_drift, b_value at delta = 1).
    """
    band = np.diag(diagonal) + np.diag(off_diagonal, 1) + np.diag(off_diagonal, -1)
    w, v = np.linalg.eigh(band)
    return w, np.asfortranarray(v)


def check_unit(value: complex, what: str) -> None:
    """ContractError unless value, the trace or the norm of `what`, is 1
    within NORM_TOL."""
    dev = abs(value - 1.0)
    if dev > NORM_TOL:
        raise ContractError(f"{what} is not normalized (deviation {dev:.3e})")


def state_fidelity(a: StateVector, b: StateVector) -> float:
    """|<a|b>|^2 for unit-norm states; unnormalized input is an error."""
    if a.layout != b.layout:
        raise ValueError("states live on different layouts")
    check_unit(a.norm, "first state")
    check_unit(b.norm, "second state")
    return float(abs(np.vdot(a.amps, b.amps)) ** 2)


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
