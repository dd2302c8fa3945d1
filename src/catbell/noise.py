"""Heating of a vibrational mode and its effect on the encoded Bell pair.

The reservoir model is the balanced pair of dissipators
gamma (D[a] + D[a+]), which leaves the mean amplitude <a> constant while the
occupancy grows linearly, d<n>/dt = gamma.  Unraveled as jumps, it is a pair
of point processes: upward events a+ at rate gamma <a a+> and downward events
a at rate gamma <a+ a>.  Either event flips the phonon-number parity, so a
cat-encoded Bell pair decays toward an incoherent parity-flipped mixture; the
small-probability single-jump picture gives the standard two-component
mixture used by the correlation tests.

In the truncated Fock basis the generator is banded and costs O(d^2), not
the O(d^3) of dense ladder products.  With a|k> = sqrt(k)|k-1>:

- a rho a+ is rho shifted one step up its diagonal, weighted by
  sqrt(i+1) sqrt(j+1); a+ rho a is the same shift downward.
- n + a a+ is diagonal with entries s_k = 2k + 1, except s_{d-1} = d - 1 on
  the top level: the truncated ladder has (a a+)_{d-1} = 0 there.

So gamma (D[a] + D[a+]) rho is two shifted Hadamard products plus the
diagonal scaling -gamma/2 (s_i + s_j) rho_ij.

The jump sampler views the register as (pre, d, post) around the heated
mode, so it moves no axis.  It computes <n> in one pass over the amplitudes
for each state it visits (only for the input under constant_rate), and each
jump writes one new register.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from math import ceil, exp, isfinite, prod

import numpy as np

from .errors import CapacityError, ContractError
from .hilbert import DensityMatrix, SpaceLayout, StateVector

TRACE_TOL = 1e-6
# evolve_lindblad refuses more integration steps than this, given or from
# auto_steps: it keeps four traces of steps + 1 entries (40 MB at the limit),
# and the largest count a test, demo or benchmark op runs is under 10^3
MAX_STEPS = 10 ** 6


@dataclass(frozen=True)
class HeatingParams:
    """Reservoir strength and integration settings."""

    gamma: float
    duration: float
    steps: int | None = None          # None picks a step count from the size
    constant_rate: bool = False       # freeze jump rates at their initial values

    def __post_init__(self) -> None:
        if not isfinite(self.gamma):
            raise ValueError(f"gamma must be finite, got {self.gamma}")
        if not isfinite(self.duration):
            raise ValueError(f"duration must be finite, got {self.duration}")
        if self.gamma < 0:
            raise ValueError("gamma must be nonnegative")
        if self.duration < 0:
            raise ValueError("duration must be nonnegative")
        if self.steps is not None and self.steps < 1:
            raise ValueError("steps must be positive")


def _require_single_mode(layout: SpaceLayout) -> int:
    if layout.nsites != 1:
        raise ValueError(
            "the integrator works on a single-mode layout; "
            "trajectories support embedded modes via mode_index"
        )
    return layout.dims[0]


def _generator_weights(dim: int, gamma: float,
                       dtype: np.dtype) -> tuple[np.ndarray, np.ndarray]:
    """Banded gamma (D[a] + D[a+]) as weights on the flattened d x d matrix.

    In row-major order a one-step diagonal shift of rho is a shift of
    d + 1 in its flat index.  gain holds gamma sqrt(i j) for the pair
    rho[i-1, j-1] <-> rho[i, j] at the flat index of rho[i-1, j-1], and
    zero on the last column, whose flat shift would wrap into the next row.
    decay holds -gamma/2 (s_i + s_j) with the truncation-edge s.
    """
    k = np.arange(dim, dtype=np.float64)
    s = 2.0 * k + 1.0
    s[-1] = dim - 1.0
    root = np.sqrt(k[1:])
    gain = np.zeros((dim, dim), dtype=dtype)
    gain[:-1, :-1] = gamma * np.outer(root, root)
    decay = (-0.5 * gamma) * np.add.outer(s, s)
    return gain.reshape(-1)[:-(dim + 1)], decay.reshape(-1).astype(dtype)


def _apply_generator(rho: np.ndarray, gain: np.ndarray, decay: np.ndarray,
                     out: np.ndarray) -> np.ndarray:
    """out = L rho for the weights of _generator_weights; out is C-contiguous."""
    shift = rho.shape[0] + 1
    flat = rho.reshape(-1)
    acc = out.reshape(-1)
    np.multiply(decay, flat, out=acc)
    acc[:-shift] += gain * flat[shift:]   # a rho a+
    acc[shift:] += gain * flat[:-shift]   # a+ rho a
    return out


def lindblad_rhs(rho: np.ndarray, gamma: float) -> np.ndarray:
    """Right-hand side of the balanced heating master equation.

    Banded, O(d^2): gamma (a rho a+ + a+ rho a) - gamma/2 {n + a a+, rho}.
    a rho a+ is rho shifted one step up its diagonal and weighted by
    sqrt(i+1) sqrt(j+1); a+ rho a is the same shift downward.  n + a a+ is
    diagonal with entries 2k + 1, except d - 1 on the top level, where the
    truncated ladder has (a a+)_{d-1} = 0.  rho is not modified.
    """
    dtype = np.result_type(rho, np.float64)
    gain, decay = _generator_weights(rho.shape[0], gamma, dtype)
    return _apply_generator(rho, gain, decay, np.empty(rho.shape, dtype))


def auto_steps(gamma: float, duration: float, dim: int) -> float:
    """Step count that keeps the integration inside its contract.

    The fourth-order error is about (gamma (2 dim + 2) h)^5 per step; this
    keeps the accumulated error orders below the 1e-6 trace tolerance.  A
    float, integral unless it overflows to inf; evolve_lindblad holds it
    to MAX_STEPS before converting it.
    """
    count = 200.0 * gamma * duration * (2 * dim + 2)
    return max(100.0, float(ceil(count))) if isfinite(count) else count


@dataclass
class NoiseResult:
    """Deterministic evolution record."""

    final: DensityMatrix
    times: np.ndarray
    n_trace: np.ndarray
    a_trace: np.ndarray
    parity_trace: np.ndarray
    trace_drift: float


def evolve_lindblad(rho0: DensityMatrix, params: HeatingParams) -> NoiseResult:
    """Fixed-step fourth-order integration of the heating equation."""
    dim = _require_single_mode(rho0.layout)
    steps = params.steps or auto_steps(params.gamma, params.duration, dim)
    if not steps <= MAX_STEPS:
        raise CapacityError(
            f"{steps:.4g} integration steps exceed the limit {MAX_STEPS}; "
            "lower noise.gamma, noise.duration or noise.steps")
    steps = int(steps)
    h = params.duration / steps
    n_diag = np.arange(dim, dtype=np.float64)
    root_n = np.sqrt(n_diag[1:])
    parity_diag = (-1.0) ** np.arange(dim)

    rho = rho0.matrix.copy()
    gain, decay = _generator_weights(dim, params.gamma, rho.dtype)
    k1, k2, k3, k4, stage = (np.empty_like(rho) for _ in range(5))
    times = np.linspace(0.0, params.duration, steps + 1)
    n_trace = np.empty(steps + 1)
    a_trace = np.empty(steps + 1, dtype=np.complex128)
    p_trace = np.empty(steps + 1)

    def record(i: int) -> None:
        d = np.diagonal(rho).real
        n_trace[i] = (n_diag * d).sum()
        a_trace[i] = (np.diagonal(rho, -1) * root_n).sum()
        p_trace[i] = (parity_diag * d).sum()

    record(0)
    for i in range(steps):
        _apply_generator(rho, gain, decay, k1)
        np.multiply(k1, 0.5 * h, out=stage)
        stage += rho
        _apply_generator(stage, gain, decay, k2)
        np.multiply(k2, 0.5 * h, out=stage)
        stage += rho
        _apply_generator(stage, gain, decay, k3)
        np.multiply(k3, h, out=stage)
        stage += rho
        _apply_generator(stage, gain, decay, k4)
        # rho += h/6 (k1 + 2 k2 + 2 k3 + k4), accumulated in k1
        k2 += k3
        k2 *= 2.0
        k1 += k2
        k1 += k4
        k1 *= h / 6.0
        rho += k1
        record(i + 1)

    drift = abs(float(np.trace(rho).real) - 1.0)
    if not np.isfinite(drift) or drift > TRACE_TOL:
        raise ContractError(
            f"trace drifted by {drift:.3e} over the integration; "
            f"increase steps (used {steps})"
        )
    return NoiseResult(DensityMatrix(rho0.layout, rho), times,
                       n_trace, a_trace, p_trace, drift)


def delta_of(gamma: float, alpha: float, duration: float) -> float:
    """Single-jump probability scale delta = gamma |alpha|^2 t."""
    return gamma * abs(alpha) ** 2 * duration


def parity_flip_probability(gamma: float, alpha: float, duration: float) -> float:
    """Odd-total-jump probability of the merged up/down processes.

    Both processes run at about gamma |alpha|^2, so the merged intensity is
    close to 2 gamma |alpha|^2 t = 2 delta, and a parity flip needs an odd
    number of events.
    """
    lam = 2.0 * gamma * abs(alpha) ** 2 * duration
    return (1.0 - exp(-2.0 * lam)) / 2.0


@dataclass
class TrajectoryResult:
    final: StateVector
    jumps: list  # list of (time, '+') for a+ events, (time, '-') for a
    parity_flipped: bool

    @property
    def n_jumps(self) -> int:
        return len(self.jumps)


def sample_trajectory(state: StateVector, params: HeatingParams,
                      seed_or_rng, mode_index: int = 0) -> TrajectoryResult:
    """One jump-process realization of the heating channel.

    Between jumps the state is left unchanged (the no-jump drift is dropped,
    consistent with the small gamma*t regime the model is built for).  Rates
    are recomputed from the current state after every jump unless
    constant_rate froze them at their initial values.  A downward event drawn
    against a state with no support above the vacuum would annihilate it;
    such events are resampled (skipped), which only matters under frozen
    rates.  Deterministic for a given seed.

    The register is viewed as (pre, d, post) around the heated mode, so
    neither the occupancy nor a jump moves an axis.  <n> takes one pass over
    the amplitudes per visited state: once for the input and once after each
    jump (never after a jump under constant_rate).  A jump writes one new
    register.  The input is not modified and the result never shares its
    memory.
    """
    layout = state.layout
    if not 0 <= mode_index < layout.nsites:
        raise ValueError(
            f"mode_index must be in [0, {layout.nsites}) for a "
            f"{layout.nsites}-factor layout, got {mode_index}"
        )
    rng = (seed_or_rng if isinstance(seed_or_rng, np.random.Generator)
           else np.random.default_rng(seed_or_rng))
    dims = layout.dims
    dim = dims[mode_index]
    shape = (prod(dims[:mode_index]), dim, prod(dims[mode_index + 1:]))
    levels = np.arange(dim, dtype=np.float64)
    sq = np.sqrt(levels[1:])[:, None]

    def occupancy(amps: np.ndarray) -> float:
        # sum over pre and post of |amps|^2 as re^2 + im^2 of the float view
        f = amps.view(np.float64)
        return float(levels @ np.einsum("pkq,pkq->k", f, f))

    def jump(amps: np.ndarray, up: bool) -> np.ndarray | None:
        out = np.zeros_like(amps)
        if up:
            np.multiply(sq, amps[:, :-1], out=out[:, 1:])
        else:
            np.multiply(sq, amps[:, 1:], out=out[:, :-1])
        nrm = np.linalg.norm(out)
        if nrm == 0.0:
            return None
        out /= nrm
        return out

    def rates(n_mean: float) -> tuple[float, float]:
        if params.constant_rate:
            return params.gamma * n_mean, params.gamma * n_mean
        return params.gamma * (n_mean + 1.0), params.gamma * n_mean

    psi = state.amps.reshape(shape)
    n0 = occupancy(psi)
    if params.gamma * params.duration * n0 >= 0.5:
        warnings.warn(
            f"gamma*duration*<n> = {params.gamma * params.duration * n0:.3g} "
            "is not small; single-jump statistics are unreliable at this depth",
            stacklevel=2,
        )
    r_up, r_down = rates(n0)
    jumps: list = []
    t = 0.0
    while True:
        total = r_up + r_down
        if total <= 0.0:
            break
        t += rng.exponential(1.0 / total)
        if t >= params.duration:
            break
        up = rng.random() < r_up / total
        kicked = jump(psi, up)
        if kicked is None:
            continue
        psi = kicked
        jumps.append((t, "+" if up else "-"))
        if not params.constant_rate:
            r_up, r_down = rates(occupancy(psi))
    final = psi.reshape(-1) if jumps else state.amps.copy()
    return TrajectoryResult(StateVector(layout, final), jumps, len(jumps) % 2 == 1)


def trajectory_rng(master_seed: int, index: int) -> np.random.Generator:
    """Independent per-trajectory stream keyed by (master seed, index)."""
    return np.random.default_rng([master_seed, index])
