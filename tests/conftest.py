"""Shared fixtures, test helpers and the acceptance summary block.

The acceptance tests record one verdict line per criterion in
ACCEPTANCE_LINES; a terminal-summary hook prints them after the run so
the verdicts stay visible regardless of output capture.

The helpers build states and operators that the library has no use for
but several tests do; test modules import them with `from conftest import`.
Among them are the dense readouts that no command runs: partial_trace, the
Uhlmann dm_fidelity, mixed_bell_fidelity, the closed form that the
pipeline's electronic_fidelity is held to, and bell_block and
block_reference_fidelity, the same closed form read from the directly
projected Bell block.
"""

from __future__ import annotations

import os
from functools import partial
from math import pi, prod, sqrt
from pathlib import Path

import numpy as np
import pytest
from hypothesis import settings

from catbell.bell import block_fidelity, correlation_tensor
from catbell.bosonic import displacement_action
from catbell.encoding import (
    BELL_KINDS,
    ION_1,
    ION_2,
    MODE_A,
    MODE_B,
    LogicalBasis,
    full_layout,
)
from catbell.gates import (
    _flip,
    _kick,
    _pair_matrix,
    _phase_kick,
    pair_layout,
    u_swap,
)
from catbell.hilbert import (
    SIGMA_Y,
    DensityMatrix,
    OperatorMatrix,
    StateVector,
    apply,
    check_unit,
    tensor,
)
from catbell.params import EncodingParams, ModeParams, SpaceLayout
from catbell.reference import entangled_amplitudes, read_fixture

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
    return OperatorMatrix(mode.layout, (0,), act(np.eye(mode.cutoff)))


def electronic_bell(kind: str) -> StateVector:
    """|phi+> = (|00> + |11>)/sqrt(2) or |psi+> = (|01> + |10>)/sqrt(2)."""
    if kind not in BELL_KINDS:
        raise ValueError(f"kind must be one of {BELL_KINDS}, got {kind!r}")
    amps = [1.0, 0.0, 0.0, 1.0] if kind == "phi_plus" else [0.0, 1.0, 1.0, 0.0]
    return StateVector(SpaceLayout((2, 2)),
                       np.array(amps, dtype=np.complex128) / sqrt(2.0))


def parity_projectors(mode: ModeParams) -> tuple[OperatorMatrix, OperatorMatrix]:
    """(even, odd) projectors; they sum to the identity exactly."""
    n = np.arange(mode.cutoff)
    even = np.diag(((n + 1) % 2).astype(np.float64))
    odd = np.diag((n % 2).astype(np.float64))
    return (OperatorMatrix(mode.layout, (0,), even),
            OperatorMatrix(mode.layout, (0,), odd))


def parity_op(mode: ModeParams) -> OperatorMatrix:
    """Phonon parity (-1)^n, the difference of the two parity projectors."""
    even, odd = parity_projectors(mode)
    return OperatorMatrix(mode.layout, (0,), even.matrix - odd.matrix)


def subspace_unitary(basis: LogicalBasis, m2: np.ndarray) -> OperatorMatrix:
    """A 2x2 unitary lifted to the mode: act on the code, fix the rest."""
    layout = basis.zero.layout
    return OperatorMatrix(layout, (0,), basis.rotate(m2, np.eye(layout.total_dim)))


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


def check_normalized(state: DensityMatrix | StateVector, what: str) -> None:
    """ContractError unless the trace of a DensityMatrix, or the norm of a
    StateVector, is 1 within hilbert.NORM_TOL."""
    check_unit(complex(np.trace(state.matrix))
               if isinstance(state, DensityMatrix) else state.norm, what)


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
    """Uhlmann fidelity of a two-qubit state to bell.mixed_bell(delta), in
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
    layout = mode.layout
    return OperatorMatrix(layout, (0,), np.diag(np.arange(mode.cutoff, dtype=np.float64)))


def pair_op(which_mode: str, params: EncodingParams, step) -> OperatorMatrix:
    """A gate step of catbell.gates as a dense [mode, ion] operator: the
    step run on the pair identity (gates._pair_matrix)."""
    layout = pair_layout(which_mode, params)
    return OperatorMatrix(layout, (0, 1), _pair_matrix(layout, step))


def u_ve_ideal(which_mode: str, params: EncodingParams) -> OperatorMatrix:
    """CNOT with phonon parity as control: flip the ion on odd parity."""
    return pair_op(which_mode, params, _flip)


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
    kick = _kick(which_mode, params, "displacement")  # D(i eps)
    return pair_op(which_mode, params, partial(_phase_kick, kick=kick))


def exchange_op(which_mode: str, params: EncodingParams, ve_variant: str,
                ev_variant: str) -> OperatorMatrix:
    """u_swap's exchange as a dense pair operator: its apply run on the pair
    identity."""
    gate = u_swap(which_mode, params, ve_variant, ev_variant)
    return pair_op(which_mode, params,
                   partial(gate.apply, mode_axis=0, ion_axis=1))
