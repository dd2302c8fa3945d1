"""Shared fixtures, test helpers and the acceptance summary block.

The acceptance tests record one verdict line per criterion in
ACCEPTANCE_LINES; a terminal-summary hook prints them after the run so
the verdicts stay visible regardless of output capture.

The helpers build states and operators that the library has no use for
but several tests do; test modules import them with `from conftest import`.
Among them are the dense states and readouts that no command runs:
mixed_bell, the delta mixture as a density matrix, partial_trace,
state_fidelity, the Uhlmann dm_fidelity, mixed_bell_fidelity, the closed
form that the pipeline's electronic_fidelity is held to, and bell_block
and block_reference_fidelity, the same closed form read from the directly
projected Bell block.  numpy_populations, numpy_counts and
numpy_sampled_chsh are the sampled readout in numpy's arrays, whose bits
bell.tensor_chsh's Python floats are held to.

The Fock reference, at the end, is the differential reference of
catbell.coherent: the preparation, the code rotations and the gate steps
on truncated Fock arrays that prepare, swap-report and full-pipeline ran
before every command ran in coherent states (coherent, the Schmidt-form
SchmidtState and its builders, displacement_action, code_rotate, the gate
steps, Exchange and u_swap, fock_report).  fock_stages runs
catbell.coherent.stages's chain on it, with the Hadamard's matrix, the
logical Bell target (bell_target_schmidt) and the Gram-table reduction to
the ions (reduced_electronic_schmidt).
"""

from __future__ import annotations

import os
import cmath
from dataclasses import dataclass
from functools import lru_cache, partial
from math import cos, pi, prod, sin, sqrt
from pathlib import Path

import numpy as np
import pytest
from hypothesis import settings

from catbell.bell import (
    OUTCOME_SIGNS,
    BellOutcome,
    _readings,
    block_fidelity,
    correlation_tensor,
)
from catbell.bosonic import _coherent_amps, cat
from catbell.coherent import (
    EXCITED_PHASE,
    PARITIES,
    RX_HALF_PI,
    _kick_scale,
    exchange,
)
from catbell.encoding import (
    BELL_KINDS,
    ION_1,
    ION_2,
    MODE_A,
    MODE_B,
    LogicalBasis,
    _on_ion_ground,
    full_layout,
    logical_basis,
)
from catbell.errors import CapacityError
from catbell.gates import PAIR_LABELS, _mode
from catbell.hilbert import (
    SIGMA_X,
    SIGMA_Y,
    DensityMatrix,
    OperatorMatrix,
    SpaceLayout,
    StateVector,
    apply,
    band_eigh,
    tensor,
)
from catbell.params import (
    EV_VARIANTS,
    EVEN,
    ODD,
    VE_VARIANTS,
    EncodingParams,
    ModeParams,
    cat_norm,
    check_unit,
    required_cutoff,
)
from catbell.reference import coherent_amplitudes, entangled_amplitudes, read_fixture

GOLDEN_DIR = Path(__file__).resolve().parent / "golden"
SRC_DIR = Path(__file__).resolve().parent.parent / "src"

ACCEPTANCE_LINES: dict[str, str] = {}

EXCITED = np.diag([0.0, 1.0]).astype(np.complex128)
HERM_TOL = 1e-12

settings.register_profile("suite", deadline=None, derandomize=True)
settings.load_profile("suite")


def pytest_terminal_summary(terminalreporter, exitstatus, config) -> None:
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for key in sorted(ACCEPTANCE_LINES):
            terminalreporter.write_line(ACCEPTANCE_LINES[key])


def child_env(**extra: str) -> dict[str, str]:
    """The environment for a child Python process, with extra set and src
    first on PYTHONPATH, so that the child imports the catbell under test
    without an install.  A numpy RuntimeWarning is an error in the child,
    as pyproject's filter makes it in this process."""
    env = dict(os.environ, PYTHONWARNINGS="error::RuntimeWarning", **extra)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC_DIR)] + [p for p in [env.get("PYTHONPATH")] if p])
    return env


@pytest.fixture(scope="session")
def acceptance_log() -> dict[str, str]:
    return ACCEPTANCE_LINES


@pytest.fixture(scope="session")
def enc2() -> EncodingParams:
    return EncodingParams.for_amplitudes(2.0)


@pytest.fixture(scope="session")
def enc3() -> EncodingParams:
    return EncodingParams.for_amplitudes(3.0)


@pytest.fixture(scope="session")
def golden():
    """Load a frozen fixture file from tests/golden by name."""

    def load(name: str):
        return read_fixture(GOLDEN_DIR / name)

    return load


def basis_state(layout: SpaceLayout, occupations: tuple[int, ...]) -> StateVector:
    """Product basis vector |n1, n2, ...>, the tensor of one unit vector per factor."""
    if len(occupations) != layout.nsites:
        raise ValueError("need one occupation per factor")
    parts = []
    for n, d in zip(occupations, layout.dims):
        unit = np.zeros(d, dtype=np.complex128)
        unit[n] = 1.0
        parts.append(StateVector(SpaceLayout((d,)), unit))
    return tensor(parts)


def readouts(rho: np.ndarray) -> tuple[float, complex, float]:
    """<n>, <a> and parity of a one-mode rho, read directly off its
    diagonals 0 and -1: the heating checks' readouts of noise.propagate."""
    k = np.arange(rho.shape[0])
    diag = np.diagonal(rho).real
    return (float((k * diag).sum()),
            complex((np.sqrt(k[1:]) * np.diagonal(rho, -1)).sum()),
            float(((-1.0) ** k * diag).sum()))


def expectation(op: OperatorMatrix, state: StateVector) -> complex:
    """<op> in a pure state; complex, imaginary part ~0 for Hermitian op."""
    return complex(np.vdot(state.amps, apply(op, state).amps))


def embed(op: OperatorMatrix) -> OperatorMatrix:
    """Materialize the full matrix of ``op`` over its whole layout, the
    oracle of hilbert.apply.

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


def displacement(beta: complex, mode: ModeParams) -> OperatorMatrix:
    """D(beta) as a dense d x d operator: bosonic.displacement_action run on
    the identity, for the dense checks."""
    act = displacement_action(beta, mode)
    return OperatorMatrix(SpaceLayout((mode.cutoff,)), (0,), act(np.eye(mode.cutoff)))


def electronic_bell(kind: str) -> StateVector:
    """|phi+> = (|00> + |11>)/sqrt(2) or |psi+> = (|01> + |10>)/sqrt(2)."""
    if kind not in BELL_KINDS:
        raise ValueError(f"kind must be one of {BELL_KINDS}, got {kind!r}")
    amps = [1.0, 0.0, 0.0, 1.0] if kind == "phi_plus" else [0.0, 1.0, 1.0, 0.0]
    return StateVector(SpaceLayout((2, 2)),
                       np.array(amps, dtype=np.complex128) / sqrt(2.0))


def mixed_bell(delta: float) -> DensityMatrix:
    """The electronic mixture (1-delta)|phi+><phi+| + delta|psi+><psi+| as a
    density matrix: the state whose correlation tensor bell-scan reads in
    closed form, bell.mixed_tensor(PHI_PLUS_T, PSI_PLUS_T, delta)."""
    if not 0.0 <= delta <= 1.0:
        raise ValueError(f"delta must be in [0, 1], got {delta}")
    phi, psi = (electronic_bell(kind).amps for kind in BELL_KINDS)
    m = ((1.0 - delta) * np.outer(phi, phi.conj())
         + delta * np.outer(psi, psi.conj()))
    return DensityMatrix(SpaceLayout((2, 2)), m)


def parity_projectors(mode: ModeParams) -> tuple[OperatorMatrix, OperatorMatrix]:
    """(even, odd) projectors; they sum to the identity exactly."""
    n = np.arange(mode.cutoff)
    even = np.diag(((n + 1) % 2).astype(np.float64))
    odd = np.diag((n % 2).astype(np.float64))
    layout = SpaceLayout((mode.cutoff,))
    return OperatorMatrix(layout, (0,), even), OperatorMatrix(layout, (0,), odd)


def parity_op(mode: ModeParams) -> OperatorMatrix:
    """Phonon parity (-1)^n, the difference of the two parity projectors."""
    even, odd = parity_projectors(mode)
    return OperatorMatrix(even.layout, (0,), even.matrix - odd.matrix)


def subspace_unitary(basis: LogicalBasis, m2: np.ndarray) -> OperatorMatrix:
    """A 2x2 unitary lifted to the mode: act on the code, fix the rest."""
    layout = basis.zero.layout
    return OperatorMatrix(layout, (0,), code_rotate(basis, m2, np.eye(layout.total_dim)))


def fourier_pair(basis: LogicalBasis) -> tuple[StateVector, StateVector]:
    """(|0_L> + |1_L>)/sqrt(2) and (|0_L> - |1_L>)/sqrt(2), near |+alpha>
    and |-alpha>."""
    zero, one = basis.zero.amps, basis.one.amps
    return (StateVector(basis.zero.layout, (zero + one) / np.sqrt(2.0)),
            StateVector(basis.zero.layout, (zero - one) / np.sqrt(2.0)))


def on_register(op: OperatorMatrix, slot: int, params: EncodingParams) -> OperatorMatrix:
    """A single-factor operator placed at one slot of the four-factor register."""
    return OperatorMatrix(full_layout(params), (slot,), op.matrix)


def lift_pair(gate: OperatorMatrix, which_mode: str,
              params: EncodingParams) -> OperatorMatrix:
    """A [mode, ion] pair operator placed on the full register layout."""
    slots = (MODE_A, ION_1) if which_mode == "a" else (MODE_B, ION_2)
    return OperatorMatrix(full_layout(params), slots, gate.matrix)


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


def norm(state: StateVector) -> float:
    """The 2-norm of a state's amplitudes."""
    return float(np.linalg.norm(state.amps))


def check_normalized(state: DensityMatrix | StateVector, what: str) -> None:
    """ContractError unless the trace of a DensityMatrix, or the norm of a
    StateVector, is 1 within params.NORM_TOL."""
    check_unit(complex(np.trace(state.matrix))
               if isinstance(state, DensityMatrix) else norm(state), what)


def state_fidelity(a: StateVector, b: StateVector) -> float:
    """|<a|b>|^2 for unit-norm states; unnormalized input is an error."""
    if a.layout != b.layout:
        raise ValueError("states live on different layouts")
    check_unit(norm(a), "first state")
    check_unit(norm(b), "second state")
    return float(abs(np.vdot(a.amps, b.amps)) ** 2)


def _psd_sqrt(m: np.ndarray) -> np.ndarray:
    w, v = np.linalg.eigh((m + m.conj().T) / 2)
    w = np.clip(w, 0.0, None)
    return (v * np.sqrt(w)) @ v.conj().T


def dm_fidelity(rho: DensityMatrix, sigma: DensityMatrix | StateVector) -> float:
    """Uhlmann fidelity; against a pure state it reduces to <psi|rho|psi>.

    Against a rank-deficient mixed target the clipped square roots of
    near-zero eigenvalues add about sqrt(machine eps) to the trace, so the
    result is good to about 1e-7: against the rank-2 mixed_bell(delta) it
    was off the closed form by up to 6.1e-8 over 12,000 random two-qubit
    states (ranks 1 to 4, mixed with the target).  mixed_bell_fidelity is
    the closed form for the parity-flip mixture.
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


def mixed_bell_fidelity(rho: DensityMatrix, delta: float) -> float:
    """Uhlmann fidelity of a two-qubit state to mixed_bell(delta), in
    closed form: bell.block_fidelity of its correlation tensor.  Same
    normalization contract as dm_fidelity.
    """
    if rho.layout.dims != (2, 2):
        raise ValueError("states live on different layouts")
    check_normalized(rho, "first state")
    return block_fidelity(correlation_tensor(rho), delta)


def bell_block(rho: np.ndarray) -> np.ndarray:
    """M_ij = <b_i|rho|b_j> on b = (phi+, psi+): the 2 x 2 complex block of a
    two-qubit density matrix rho (4 x 4), projected directly."""
    bells = [electronic_bell(kind).amps for kind in BELL_KINDS]
    return np.array([[np.vdot(bi, rho @ bj) for bj in bells] for bi in bells])


def block_reference_fidelity(rho: DensityMatrix, delta: float) -> float:
    """bell.block_fidelity's closed form F = tr B + 2 sqrt(det B), B_ij =
    sqrt(w_i w_j) M_ij, on the Bell block M of bell_block rather than of T."""
    w0, w1 = 1.0 - delta, delta
    (m00, m01), (_, m11) = bell_block(rho.matrix).tolist()
    b00, b01, b11 = sqrt(w0 * w0) * m00, sqrt(w0 * w1) * m01, sqrt(w1 * w1) * m11
    det = (b00 * b11).real - abs(b01) ** 2
    return (b00 + b11).real + 2.0 * sqrt(max(det, 0.0))


def numpy_populations(t00: float, readings: list) -> np.ndarray:
    """(k, 4) outcome populations of the settings' readings
    (bell._readings) as numpy computes them: bell._populations's clip,
    normalization and rounding to 12 decimals, in np.maximum, p.sum and
    np.round."""
    p = np.maximum([((t00 + ra + rb + e) / 4, (t00 + ra - rb - e) / 4,
                     (t00 - ra + rb - e) / 4, (t00 - ra - rb + e) / 4)
                    for ra, rb, e in readings], 0.0)
    p = np.round(p / p.sum(axis=1, keepdims=True), 12)
    return p / p.sum(axis=1, keepdims=True)


def numpy_counts(p: np.ndarray, shots: int, rng: np.random.Generator) -> np.ndarray:
    """(k, 4) counts: numpy's one multinomial draw of shots per row of p."""
    return rng.multinomial(shots, p)


def numpy_sampled_chsh(t: tuple, angles, shots: int, seed) -> BellOutcome:
    """bell.tensor_chsh(t, angles, "sampled", shots, seed) in numpy: the
    counts of numpy_counts from numpy_populations, and each correlator
    float(counts @ OUTCOME_SIGNS) / shots."""
    counts = numpy_counts(numpy_populations(*_readings(t, angles)), shots,
                          np.random.default_rng(seed))
    signs = np.array(OUTCOME_SIGNS)
    es = [float(c @ signs) / shots for c in counts]
    err = sqrt(sum(sqrt(max(1.0 - e * e, 0.0) / shots) ** 2 for e in es))
    return BellOutcome(abs(es[0] + es[1] + es[2] - es[3]), tuple(es), err)


def reduced_electronic(state: StateVector) -> DensityMatrix:
    """The four-factor register traced down to the two electronic qubits."""
    return partial_trace(state, (ION_1, ION_2))


def reference_preparation(params: EncodingParams) -> StateVector:
    """The chi_t = pi preparation on the register, both ions in |0>, from
    the independent reference.entangled_amplitudes."""
    grid = entangled_amplitudes(params.alpha, params.beta,
                                params.mode_a.cutoff, params.mode_b.cutoff)
    ions = np.array([1.0, 0.0, 0.0, 0.0])
    return StateVector(full_layout(params), np.kron(grid.reshape(-1), ions))


def overlap(a: StateVector, b: StateVector) -> complex:
    """<a|b> with no normalization contract, for phase-sensitive checks."""
    if a.layout != b.layout:
        raise ValueError("states live on different layouts")
    return complex(np.vdot(a.amps, b.amps))


def matrix_exp(op: OperatorMatrix, scale: complex = 1.0) -> OperatorMatrix:
    """exp(scale * op) for anti-Hermitian scale * op, on the same subsystems.

    An eigendecomposition of the Hermitian i * scale * op keeps the result
    unitary to machine precision; any other argument is a ValueError.
    """
    m = np.asarray(scale, dtype=np.complex128) * op.matrix
    scale_norm = max(float(np.abs(m).max()), 1.0)
    if np.abs(m + m.conj().T).max() > HERM_TOL * scale_norm:
        raise ValueError("matrix_exp needs an anti-Hermitian scale * op")
    h = (1j * m + (1j * m).conj().T) / 2
    w, v = np.linalg.eigh(h)
    exp_m = (v * np.exp(-1j * w)) @ v.conj().T
    return OperatorMatrix(op.layout, op.acts_on, exp_m)


def number_op(mode: ModeParams) -> OperatorMatrix:
    layout = SpaceLayout((mode.cutoff,))
    return OperatorMatrix(layout, (0,), np.diag(np.arange(mode.cutoff, dtype=np.float64)))


def pair_op(which_mode: str, params: EncodingParams, step) -> OperatorMatrix:
    """A Fock gate step (flip_step, phase_kick) as a dense [mode, ion] operator: the
    step run on the pair identity (pair_matrix)."""
    layout = pair_layout(which_mode, params)
    return OperatorMatrix(layout, (0, 1), pair_matrix(layout, step))


def u_ve_ideal(which_mode: str, params: EncodingParams) -> OperatorMatrix:
    """CNOT with phonon parity as control: flip the ion on odd parity."""
    return pair_op(which_mode, params, flip_step)


def u_ve_literal(which_mode: str, params: EncodingParams) -> OperatorMatrix:
    """The two-exponential construction evaluated exactly as written."""
    mode = params.mode(which_mode)
    n = number_op(mode).matrix
    layout = pair_layout(which_mode, params)
    first = matrix_exp(
        OperatorMatrix(layout, (0, 1), np.kron(n, SIGMA_Y)), scale=-1j * pi
    )
    second = matrix_exp(
        OperatorMatrix(layout, (0, 1), np.kron(n, EXCITED)), scale=1j * pi
    )
    return OperatorMatrix(layout, (0, 1), first.matrix @ second.matrix)


def u_ev(which_mode: str, params: EncodingParams) -> OperatorMatrix:
    """CNOT with the ion as control, realized by a conditional displacement."""
    kick = kick_action(which_mode, params, "displacement")  # D(i eps)
    return pair_op(which_mode, params, partial(phase_kick, kick=kick))


def exchange_op(which_mode: str, params: EncodingParams, ve_variant: str,
                ev_variant: str) -> OperatorMatrix:
    """u_swap's exchange as a dense pair operator: its apply run on the pair
    identity."""
    gate = u_swap(which_mode, params, ve_variant, ev_variant)
    return pair_op(which_mode, params,
                   partial(gate.apply, mode_axis=0, ion_axis=1))


def rx_matrix(theta: float) -> np.ndarray:
    """The logical x rotation [[cos, i sin], [i sin, cos]] at theta."""
    return np.array([[cos(theta), 1j * sin(theta)], [1j * sin(theta), cos(theta)]],
                    dtype=np.complex128)


def hadamard_matrix() -> np.ndarray:
    return np.array([[1, 1], [1, -1]], dtype=np.complex128) / sqrt(2.0)


def bell_target_schmidt(kind: str, params: EncodingParams) -> SchmidtState:
    """Logical Bell state of the two modes, ions in |00>, as two Schmidt
    terms of truncated Fock factors."""
    if kind not in BELL_KINDS:
        raise ValueError(f"kind must be one of {BELL_KINDS}, got {kind!r}")
    a = logical_basis("a", params)
    b = logical_basis("b", params)
    right = (b.zero.amps, b.one.amps) if kind == "phi_plus" \
        else (b.one.amps, b.zero.amps)
    return SchmidtState(full_layout(params),
                        _on_ion_ground(a.zero.amps, a.one.amps) / sqrt(2.0),
                        _on_ion_ground(*right))


def reduced_electronic_schmidt(state: SchmidtState) -> DensityMatrix:
    """The two electronic qubits of a Schmidt-form register, the modes
    traced out, at O(d K^2) with no register built.

    rho = sum_kl G^L_kl (x) G^R_kl, with G^L_kl = tr_a |L_k><L_l| the 2x2
    ion-1 Gram table of the left factor and G^R_kl that of the right.
    """
    gl = np.einsum("aik,ajl->ijkl", state.left, state.left.conj())
    gr = np.einsum("aik,ajl->ijkl", state.right, state.right.conj())
    rho = np.einsum("ijkl,mnkl->imjn", gl, gr)
    return DensityMatrix(SpaceLayout((2, 2)), rho.reshape(4, 4))


def fock_stages(enc: EncodingParams, ve_variant: str, ev_variant: str
                ) -> tuple[float, float, tuple, tuple]:
    """catbell.coherent.stages on truncated Fock factors at enc's cutoffs:
    the preparation and Hadamard fidelities and the kept and flipped
    branches' correlation tensors.  The chain that full-pipeline ran
    before it ran in coherent states; its results differ from the
    engine's by the truncation, which leak_tol bounds."""
    psi = prepare_entangled_schmidt(enc)
    prep = schmidt_fidelity(psi, entangled_target_schmidt(enc))
    code_a = logical_basis("a", enc)
    left = code_rotate(code_a, hadamard_matrix(), psi.left)
    psi = SchmidtState(psi.layout, left, psi.right)
    had = schmidt_fidelity(psi, bell_target_schmidt("phi_plus", enc))
    swap_a = u_swap("a", enc, ve_variant, ev_variant)
    swap_b = u_swap("b", enc, ve_variant, ev_variant)
    right = swap_b.apply(psi.right, 0, 1)
    tensors = [correlation_tensor(reduced_electronic_schmidt(
        SchmidtState(psi.layout, swap_a.apply(branch, 0, 1), right)))
        for branch in (left, code_rotate(code_a, SIGMA_X, left))]
    return prep, had, tensors[0], tensors[1]


def superposition_transfer(params: EncodingParams, which_mode: str = "a",
                           ev_variant: str = "displacement") -> float:
    """|<C+ (|0> + |1>) / sqrt(2)|S|(C+ + C-) / sqrt(2), |0>>|^2 for the
    engine's exchange S of one mode and its ion (coherent.exchange, the
    ideal u_ve): the code superposition moved onto the ion."""
    mode = _mode(which_mode, params)
    plus = {(0.0, s): sqrt(2.0) * mode.norms[s] for s in PARITIES}
    zero, one = exchange(mode, [(plus, {})], False, ev_variant == "ideal")[0]
    code = {(0.0, 1): 2.0 * mode.norms[1]}
    return abs((mode.inner(code, zero) + mode.inner(code, one)) / sqrt(2.0)) ** 2


def ket_in_fock(mode, ket: dict, dim: int) -> np.ndarray:
    """A ket of catbell.coherent, sum c D(i eta) E_s, on dim Fock levels:
    D(i eta) E_s = (e^{i eta a}|a + i eta> + s e^{-i eta a}|-a + i eta>) / 2,
    with reference.coherent_amplitudes' series."""
    a = mode.amplitude
    out = np.zeros(dim, dtype=np.complex128)
    for (eta, s), c in ket.items():
        out += c / 2.0 * (cmath.exp(1j * eta * a)
                          * coherent_amplitudes(complex(a, eta), dim)
                          + s * cmath.exp(-1j * eta * a)
                          * coherent_amplitudes(complex(-a, eta), dim))
    return out


def register_in_fock(mode_a, mode_b, register: tuple,
                     params: EncodingParams) -> StateVector:
    """A register of catbell.coherent (left terms, right terms, each term a
    pair of kets on ion |0> and ion |1>) on the cutoffs of params."""
    da, db = params.mode_a.cutoff, params.mode_b.cutoff
    amps = np.zeros((da, db, 2, 2), dtype=np.complex128)
    for left, right in zip(*register):
        for i in (0, 1):
            for j in (0, 1):
                amps[:, :, i, j] += np.outer(ket_in_fock(mode_a, left[i], da),
                                             ket_in_fock(mode_b, right[j], db))
    return StateVector(full_layout(params), amps)


# ------------------------------------------------------ the Fock reference ---
# prepare, swap-report and full-pipeline once ran these on truncated Fock
# arrays; each protocol now runs catbell.coherent, and the tests hold the
# engine to this path at cutoffs that hold its states (fock_stages,
# fock_report) and hold this path to the dense oracles of catbell.reference.

def coherent(alpha: complex, mode: ModeParams) -> StateVector:
    """Normalized coherent state |alpha> truncated to the mode's cutoff; a
    CapacityError if the cutoff drops more than leak_tol of it."""
    layout = SpaceLayout((mode.cutoff,))
    c = _coherent_amps(alpha, mode.cutoff)
    kept = float(np.vdot(c, c).real)
    if 1.0 - kept > mode.leak_tol:
        raise CapacityError(
            f"cutoff {mode.cutoff} drops {1.0 - kept:.3e} of the coherent state "
            f"for alpha = {alpha}; need cutoff >= "
            f"{required_cutoff(alpha, mode.leak_tol)}")
    return StateVector(layout, c / sqrt(kept))


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


def displacement_action(beta: complex, mode: ModeParams):
    """x -> D(beta) x on axis 0 of x, D(beta) = exp(beta a† - beta* a) on the
    truncated basis; further axes of x ride along, and a new array is returned.

    The generator is R (i |beta| X) R† with X = a + a† real symmetric
    tridiagonal and R = diag(e^{i (arg beta - pi/2) n}), so the
    eigendecomposition X = V diag(w) Vᵀ gives D = R V diag(e^{i |beta| w}) Vᵀ R†,
    unitary to machine precision at any cutoff; only its action on states
    near the cutoff degrades.  D is never formed: the real V acts on the
    float view of the complex columns.  A beta that is not finite is a
    ValueError, and a finite one whose phases |beta| w pass the float range
    an OverflowError, both when the action is built.
    """
    if not cmath.isfinite(beta):
        raise ValueError(f"displacement beta must be finite, got {beta}")
    dim = SpaceLayout((mode.cutoff,)).total_dim  # held to the size cap first
    w, v = _position_eigenbasis(dim)
    size = abs(complex(beta))
    # Python floats: a product past the float range is inf, with no warning
    if not cmath.isfinite(size * float(max(w[-1], -w[0]))):
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


def unitarity_residual(m: np.ndarray) -> float:
    """max |U†U - 1| of a square array U, as two real einsums (no BLAS)."""
    p = np.concatenate([m.real.T, m.imag.T], axis=1)
    q = np.concatenate([m.imag.T, -m.real.T], axis=1)
    re = np.einsum("ik,jk->ij", p, p)
    re -= np.eye(m.shape[0])
    return float(np.hypot(re, np.einsum("ik,jk->ij", p, q)).max())


def code_rotate(basis: LogicalBasis, m2: np.ndarray, x: np.ndarray) -> np.ndarray:
    """The lifted 2x2 unitary m2 on axis 0 of x: (1 - B B^dag) x + B m2
    B^dag x with B = [zero, one], a rank-2 update that acts on the code and
    fixes the rest; further axes of x ride along.  Returns a new array."""
    m2 = np.asarray(m2, dtype=np.complex128)
    b = np.column_stack([basis.zero.amps, basis.one.amps])
    flat = np.asarray(x, dtype=np.complex128).reshape(b.shape[0], -1)
    out = flat + b @ ((m2 - np.eye(2)) @ (b.conj().T @ flat))
    return out.reshape(np.shape(x))


@dataclass
class SchmidtState:
    """Register state kept as K products across the cut (mode a, ion 1) | (mode b, ion 2).

    psi[n_a, n_b, i_1, i_2] = sum_k left[n_a, i_1, k] right[n_b, i_2, k],
    on the full register's layout, so a state too large for the size cap
    cannot be made.
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
        """The register this form stands for, 4 d_a d_b amplitudes."""
        amps = np.einsum("aik,bjk->abij", self.left, self.right)
        return StateVector(self.layout, amps)


def schmidt_fidelity(a: SchmidtState, b: SchmidtState) -> float:
    """|<a|b>|^2 for unit-norm states; unnormalized input is an error."""
    check_unit(a.norm, "first state")
    check_unit(b.norm, "second state")
    return float(abs(a.inner(b)) ** 2)


def prepare_entangled_schmidt(params: EncodingParams) -> SchmidtState:
    """exp(-i pi n_a n_b) on |alpha>|beta>, both ions in |0>, as two Schmidt
    terms: ((-1)^n_a)^n_b leaves |beta> on the even Fock rows of |alpha>
    and takes it to (-1)^n_b |beta> = |-beta> on the odd rows, a row mask
    and a sign flip that are exact in floating point."""
    ca = coherent(params.alpha, params.mode_a).amps
    cb = coherent(params.beta, params.mode_b).amps
    odd = np.arange(ca.size) % 2 == 1
    left = _on_ion_ground(np.where(odd, 0.0, ca), np.where(odd, ca, 0.0))
    right = _on_ion_ground(cb, (-1.0) ** np.arange(cb.size) * cb)
    return SchmidtState(full_layout(params), left, right)


def entangled_target_schmidt(params: EncodingParams) -> SchmidtState:
    """(|a,b> + |-a,b> + |a,-b> - |-a,-b>)/2, ions in |0>, as the two
    Schmidt terms (|a> + |-a>)|b>/2 + (|a> - |-a>)|-b>/2, normalized."""
    ca_p = coherent(params.alpha, params.mode_a).amps
    ca_m = coherent(-params.alpha, params.mode_a).amps
    cb_p = coherent(params.beta, params.mode_b).amps
    cb_m = coherent(-params.beta, params.mode_b).amps
    psi = SchmidtState(full_layout(params),
                       _on_ion_ground(0.5 * (ca_p + ca_m), 0.5 * (ca_p - ca_m)),
                       _on_ion_ground(cb_p, cb_m))
    return SchmidtState(psi.layout, psi.left / psi.norm, psi.right)


def entangled_target_cat_form(params: EncodingParams, side: str = "b") -> SchmidtState:
    """The same pair with cats on one side and coherent kets on the other,
    the cat weights 0.5 / N+- on the mode-a factor; normalized."""
    other = "b" if side == "a" else "a"
    amp, ket = params.amplitude(side), params.amplitude(other)
    cats = [cat(amp, p, params.mode(side)).amps for p in (EVEN, ODD)]
    kets = [coherent(k, params.mode(other)).amps for k in (ket, -ket)]
    left, right = (cats, kets) if side == "a" else (kets, cats)
    weights = [0.5 / cat_norm(amp, p) for p in (EVEN, ODD)]
    psi = SchmidtState(full_layout(params),
                       _on_ion_ground(*(w * x for w, x in zip(weights, left))),
                       _on_ion_ground(*right))
    return SchmidtState(psi.layout, psi.left / psi.norm, psi.right)


def pair_layout(which_mode: str, params: EncodingParams) -> SpaceLayout:
    return SpaceLayout((params.mode(which_mode).cutoff, 2))


def flip_step(x: np.ndarray, literal: bool = False) -> np.ndarray:
    """u_ve on axes (mode, ion) of x, in place, by indexing the odd Fock rows."""
    if literal:
        x[1::2, 0] *= -1.0  # diag((-1)^n, 1) on the ion
    else:
        x[1::2] = x[1::2, ::-1]  # swap the two ion slices
    return x


def phase_kick(x: np.ndarray, kick) -> np.ndarray:
    """u_ev on axes (mode, ion) of x, in place: the electronic phase and then
    the kick on the ion-|1> half."""
    x[:, 1] = kick(EXCITED_PHASE * x[:, 1])
    return x


def pair_matrix(layout: SpaceLayout, step) -> np.ndarray:
    """The dense pair matrix of a step: the step run on the pair identity."""
    d = layout.dims[0]
    eye = np.eye(2 * d, dtype=np.complex128).reshape(d, 2, 2 * d)
    return step(eye).reshape(2 * d, 2 * d)


def kick_action(which_mode: str, params: EncodingParams, ev_variant: str):
    """The action x -> K x on the mode axis that u_ev applies on the ion's
    |1> half: D(i eps) in its cached eigenbasis for the displacement build,
    the code-space rx(pi/2) for the ideal build."""
    if ev_variant == "ideal":
        return partial(code_rotate, logical_basis(which_mode, params), RX_HALF_PI)
    epsilon = _kick_scale(params, params.amplitude(which_mode))
    return displacement_action(1j * epsilon, params.mode(which_mode))


@dataclass(frozen=True)
class Exchange:
    """u_ve u_ev u_ve for one mode on truncated Fock factors, its factors
    kept apart: kick is u_ev's action on the mode axis, literal selects the
    u_ve build."""

    kick: object
    literal: bool = False

    def apply(self, psi: np.ndarray, mode_axis: int, ion_axis: int) -> np.ndarray:
        """u_ve u_ev u_ve on the (mode_axis, ion_axis) pair of a state tensor;
        further axes ride along.  Returns a new tensor of the same shape."""
        t = np.moveaxis(psi, (mode_axis, ion_axis), (0, 1))
        shape = t.shape
        x = np.array(t, dtype=np.complex128, order="C").reshape(shape[0], 2, -1)
        x = flip_step(x, self.literal)
        x = phase_kick(x, self.kick)
        x = flip_step(x, self.literal)
        return np.moveaxis(x.reshape(shape), (0, 1), (mode_axis, ion_axis))


def u_swap(which_mode: str, params: EncodingParams, ve_variant: str,
           ev_variant: str) -> Exchange:
    """The three-step exchange of the mode qubit and its ion qubit."""
    if ve_variant not in VE_VARIANTS:
        raise ValueError(f"ve_variant must be one of {VE_VARIANTS}")
    if ev_variant not in EV_VARIANTS:
        raise ValueError(f"ev_variant must be one of {EV_VARIANTS}")
    return Exchange(kick_action(which_mode, params, ev_variant),
                    literal=ve_variant == "literal")


def fock_report(step, which_mode: str, params: EncodingParams,
                table: list[tuple[str, str]]) -> list[float]:
    """The fidelities |<target|step|input>|^2 of a Fock step over the rows
    of a truth table of catbell.gates, on the pair inputs |C+->|i> of the
    truncated code basis: the rows that swap-report once wrote."""
    layout = pair_layout(which_mode, params)
    basis = logical_basis(which_mode, params)
    states = np.zeros(layout.dims + (len(PAIR_LABELS),), dtype=np.complex128)
    for k, label in enumerate(PAIR_LABELS):
        code = basis.zero if label[:2] == "0L" else basis.one
        states[:, int(label[3]), k] = code.amps
    out = step(states.copy()).reshape(layout.total_dim, -1)
    states = states.reshape(layout.total_dim, -1)
    col = PAIR_LABELS.index
    return [float(abs(np.vdot(states[:, col(tgt)], out[:, col(inp)])) ** 2)
            for inp, tgt in table]
