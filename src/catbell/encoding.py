"""Cat-state logical qubits on two vibrational modes plus two electronic qubits.

Logical |0> is the even cat, logical |1> the odd cat; their equal-weight
combinations (the two-level discrete Fourier pair) approach the coherent
states |alpha> and |-alpha> for large amplitude.  The joint layout is fixed
as [mode a, mode b, ion 1, ion 2], electronic factors last.  The register's
settings, EncodingParams, live in catbell.params, which loads no numpy.

A displacement i*eps on a mode rotates the logical qubit about x by the angle
2*alpha*eps: each coherent branch of a cat sits a distance 2*alpha from the
other in the displaced quadrature, so the momentum kick eps advances the
branch phases by +-alpha*eps and their difference by twice that.  The branch
fidelity against the ideal rotation is exp(-eps^2) up to terms of order
exp(-2 alpha^2).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import cos, exp, isfinite, sin, sqrt

import numpy as np

from . import bosonic
from .hilbert import StateVector, check_unit, state_fidelity
from .params import EVEN, ODD, EncodingParams, SpaceLayout, cat_norm

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

    def rotate(self, m2: np.ndarray, x: np.ndarray) -> np.ndarray:
        """Apply the lifted 2x2 unitary to axis 0 of x, at O(d) per column.

        (1 - B B^dag) x + B m2 B^dag x with B = [zero, one]: a rank-2 update
        that acts on the code and fixes the rest; further axes of x ride
        along.  Returns a new array.
        """
        m2 = np.asarray(m2, dtype=np.complex128)
        basis = np.column_stack([self.zero.amps, self.one.amps])
        flat = np.asarray(x, dtype=np.complex128).reshape(basis.shape[0], -1)
        code = basis.conj().T @ flat
        out = flat + basis @ ((m2 - np.eye(2)) @ code)
        return out.reshape(np.shape(x))


# cold pipeline ops (ideal kick, Hadamard stage, flip branch) and jump
# ensembles (Bell target, logical projection) read a code basis, warm ones
# none; an entry is two d-vectors, 32 d bytes: 32 * 32 * 128 B = 128 KB
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


@dataclass
class SchmidtState:
    """Register state kept as K products across the cut (mode a, ion 1) | (mode b, ion 2).

    psi[n_a, n_b, i_1, i_2] = sum_k left[n_a, i_1, k] right[n_b, i_2, k].
    It holds 2 K (d_a + d_b) amplitudes instead of 4 d_a d_b, and an operator
    on one side of the cut updates one factor only.  The layout is the full
    register's, so a state too large for the size cap cannot be made.
    """

    layout: SpaceLayout
    left: np.ndarray    # (d_a, 2, K): mode a, ion 1, term
    right: np.ndarray   # (d_b, 2, K): mode b, ion 2, term

    def __post_init__(self) -> None:
        self.left = np.asarray(self.left, dtype=np.complex128)
        self.right = np.asarray(self.right, dtype=np.complex128)
        k = self.left.shape[-1]
        dims = self.layout.dims
        if (self.left.shape != (dims[MODE_A], 2, k)
                or self.right.shape != (dims[MODE_B], 2, k)):
            raise ValueError(
                f"factor shapes {self.left.shape} and {self.right.shape} do "
                f"not fit the register layout {dims}")

    def inner(self, other: "SchmidtState") -> complex:
        """<self|other> = sum_kl <L_k|L'_l> <R_k|R'_l>, from two Gram tables."""
        if self.layout != other.layout:
            raise ValueError("states live on different layouts")
        gl = np.einsum("aik,ail->kl", self.left.conj(), other.left)
        gr = np.einsum("aik,ail->kl", self.right.conj(), other.right)
        return complex((gl * gr).sum())

    @property
    def norm(self) -> float:
        return sqrt(max(self.inner(self).real, 0.0))

    def to_state(self) -> StateVector:
        """The register this form stands for, 4 d_a d_b amplitudes: the
        sum over k of the outer products of left[..., k] and right[..., k]."""
        amps = np.einsum("aik,bjk->abij", self.left, self.right)
        return StateVector(self.layout, amps)


def _on_ion_ground(*columns: np.ndarray) -> np.ndarray:
    """(d, 2, K) factor: the K mode columns with the ion in |0>."""
    cols = np.stack(columns, axis=-1)
    out = np.zeros((cols.shape[0], 2, cols.shape[1]), dtype=np.complex128)
    out[:, 0] = cols
    return out


def schmidt_fidelity(a: SchmidtState, b: SchmidtState) -> float:
    """|<a|b>|^2 for unit-norm states; unnormalized input is an error.

    hilbert.state_fidelity's contract, at O(d K^2) with no register built.
    """
    check_unit(a.norm, "first state")
    check_unit(b.norm, "second state")
    return float(abs(a.inner(b)) ** 2)


def prepare_entangled_schmidt(params: EncodingParams) -> SchmidtState:
    """Cross-phase entangling step on a pair of coherent states, as two
    Schmidt terms.

    Starts from |alpha>_a |beta>_b with both ions in |0> and applies the
    two-mode phase exp(-i chi_t n_a n_b) at chi_t = pi, which gives the
    coherent/cat entangled pair.  exp(-i pi n_a n_b) = ((-1)^n_a)^n_b, so
    the even Fock rows of |alpha> keep |beta> and the odd rows take
    (-1)^n_b |beta> = |-beta>.  The row mask and the sign flip are exact in
    floating point; the truncated coherent factors are each normalized, and
    so is the result.
    """
    ca = bosonic.coherent(params.alpha, params.mode_a).amps
    cb = bosonic.coherent(params.beta, params.mode_b).amps
    odd = np.arange(ca.size) % 2 == 1
    left = _on_ion_ground(np.where(odd, 0.0, ca), np.where(odd, ca, 0.0))
    right = _on_ion_ground(cb, (-1.0) ** np.arange(cb.size) * cb)
    return SchmidtState(full_layout(params), left, right)


def entangled_target_schmidt(params: EncodingParams) -> SchmidtState:
    """The entangled pair built directly from coherent components.

    The normalized four-term form (|a,b> + |-a,b> + |a,-b> - |-a,-b>)/2
    with both ions in |0>, as the two Schmidt terms
    (|a> + |-a>)|b>/2 + (|a> - |-a>)|-b>/2; it equals the chi_t = pi
    preparation exactly, truncation aside.
    """
    ca_p = bosonic.coherent(params.alpha, params.mode_a).amps
    ca_m = bosonic.coherent(-params.alpha, params.mode_a).amps
    cb_p = bosonic.coherent(params.beta, params.mode_b).amps
    cb_m = bosonic.coherent(-params.beta, params.mode_b).amps
    psi = SchmidtState(full_layout(params),
                       _on_ion_ground(0.5 * (ca_p + ca_m), 0.5 * (ca_p - ca_m)),
                       _on_ion_ground(cb_p, cb_m))
    return SchmidtState(psi.layout, psi.left / psi.norm, psi.right)


def entangled_target_cat_form(params: EncodingParams, side: str = "b") -> SchmidtState:
    """Same state written with cats on one side and coherent kets on the other.

    side "b": sum over |+-alpha>_a (x) cat_+-(beta)_b with the cat weights
    0.5 / N+- on the mode-a factor; side "a" mirrors it, the weights still on
    mode a.  Both are two Schmidt terms, normalized.  Used to check that both
    factorizations describe one and the same vector.
    """
    other = "b" if side == "a" else "a"
    amp, ket = params.amplitude(side), params.amplitude(other)
    cats = [bosonic.cat(amp, p, params.mode(side)).amps for p in (EVEN, ODD)]
    kets = [bosonic.coherent(k, params.mode(other)).amps for k in (ket, -ket)]
    left, right = (cats, kets) if side == "a" else (kets, cats)
    weights = [0.5 / cat_norm(amp, p) for p in (EVEN, ODD)]
    psi = SchmidtState(full_layout(params),
                       _on_ion_ground(*(w * x for w, x in zip(weights, left))),
                       _on_ion_ground(*right))
    return SchmidtState(psi.layout, psi.left / psi.norm, psi.right)


BELL_KINDS = ("phi_plus", "psi_plus")


def bell_target_schmidt(kind: str, params: EncodingParams) -> SchmidtState:
    """Logical Bell state of the two modes, ions in |00>, as two Schmidt terms."""
    if kind not in BELL_KINDS:
        raise ValueError(f"kind must be one of {BELL_KINDS}, got {kind!r}")
    a = logical_basis("a", params)
    b = logical_basis("b", params)
    right = (b.zero.amps, b.one.amps) if kind == "phi_plus" \
        else (b.one.amps, b.zero.amps)
    return SchmidtState(full_layout(params),
                        _on_ion_ground(a.zero.amps, a.one.amps) / sqrt(2.0),
                        _on_ion_ground(*right))


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
    returns it as a jump-free final."""
    state = bell_target_schmidt(kind, params).to_state()
    amps = state.amps
    while amps is not None:
        amps.flags.writeable = False
        amps = amps.base
    return state


def hadamard_matrix() -> np.ndarray:
    return np.array([[1, 1], [1, -1]], dtype=np.complex128) / sqrt(2.0)


def rx_matrix(theta: float) -> np.ndarray:
    return np.array(
        [[cos(theta), 1j * sin(theta)], [1j * sin(theta), cos(theta)]],
        dtype=np.complex128,
    )


def rotation_fidelity(eps: float, params: EncodingParams,
                      which_mode: str = "a") -> dict:
    """rotate's row of the kick D(i eps), in its columns: eps itself, theta =
    2 alpha eps (alpha the named mode's amplitude), both code branches'
    fidelities against the ideal rx(theta) and the law exp(-eps^2)."""
    basis = logical_basis(which_mode, params)
    theta = 2.0 * params.amplitude(which_mode) * eps
    if not isfinite(theta):
        raise ValueError(f"epsilon = {eps!r} makes the angle 2 alpha epsilon "
                         "overflow")
    kick = bosonic.displacement_action(1j * eps, params.mode(which_mode))
    tgt0 = StateVector(basis.zero.layout,
                       cos(theta) * basis.zero.amps + 1j * sin(theta) * basis.one.amps)
    tgt1 = StateVector(basis.zero.layout,
                       1j * sin(theta) * basis.zero.amps + cos(theta) * basis.one.amps)
    f0 = state_fidelity(tgt0, StateVector(tgt0.layout, kick(basis.zero.amps)))
    f1 = state_fidelity(tgt1, StateVector(tgt1.layout, kick(basis.one.amps)))
    return {"epsilon": eps, "theta": theta, "f_zero": f0, "f_one": f1,
            "analytic": exp(-eps * eps)}
