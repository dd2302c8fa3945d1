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

So the generator maps each diagonal m of rho, rho[n, n+m] for
n = 0..d-m-1, to itself, as a real symmetric tridiagonal matrix: entries
-gamma (s_n + s_{n+m}) / 2 on its diagonal and gamma sqrt(n (n+m)) between
positions n - 1 and n.  The same matrix acts on diagonal -m.
evolve_lindblad therefore needs no integrator: one eigendecomposition
V diag(w) V^T per diagonal gives exp(tL) = V diag(e^{tw}) V^T exactly.  The
<n>, parity and trace readouts are linear in diagonal 0 and <a> in diagonal
-1, so the traces of a run take two decompositions; the final rho, which
takes all d of them, is built only when it is read.

The jump sampler views the register as (pre, d, post) around the heated
mode, so it moves no axis.  It computes <n> in one pass over the amplitudes
for each state it visits (only for the input under constant_rate), and each
jump writes one new register.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from functools import cached_property
from math import exp, isfinite, prod

import numpy as np
from scipy.linalg import eigh_tridiagonal

from .errors import CapacityError, ContractError
from .hilbert import DensityMatrix, SpaceLayout, StateVector

TRACE_TOL = 1e-6
# evolve_lindblad refuses more recorded steps than this: it keeps three
# traces and the times of steps + 1 points (40 MB at the limit), and the
# largest count a test, demo or benchmark op asks for is under 10^5
MAX_STEPS = 10 ** 6
# evolve_lindblad evaluates its traces this many entries (times x levels) at
# a time, so their memory stays O(steps + d^2)
_TABLE_ENTRIES = 2 ** 14


@dataclass(frozen=True)
class HeatingParams:
    """Reservoir strength, duration and record grid."""

    gamma: float
    duration: float
    steps: int | None = None          # record grid; None records the endpoints
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
            "the master equation is solved on a single-mode layout; "
            "trajectories support embedded modes via mode_index"
        )
    return layout.dims[0]


def _anticommutator_diagonal(dim: int) -> np.ndarray:
    """s_k of n + a a+ on the truncated ladder: 2k + 1, and d - 1 on top."""
    s = 2.0 * np.arange(dim, dtype=np.float64) + 1.0
    s[-1] = dim - 1.0
    return s


def lindblad_rhs(rho: np.ndarray, gamma: float) -> np.ndarray:
    """Right-hand side of the balanced heating master equation.

    Banded, O(d^2): gamma (a rho a+ + a+ rho a) - gamma/2 {n + a a+, rho}.
    a rho a+ is rho shifted one step up its diagonal and weighted by
    sqrt(i+1) sqrt(j+1); a+ rho a is the same shift downward.  n + a a+ is
    diagonal with entries 2k + 1, except d - 1 on the top level, where the
    truncated ladder has (a a+)_{d-1} = 0.  rho is not modified.
    """
    s = _anticommutator_diagonal(rho.shape[0])
    root = np.sqrt(np.arange(1, rho.shape[0], dtype=np.float64))
    gain = gamma * np.outer(root, root)
    out = (-0.5 * gamma) * np.add.outer(s, s) * rho
    out[:-1, :-1] += gain * rho[1:, 1:]   # a rho a+
    out[1:, 1:] += gain * rho[:-1, :-1]   # a+ rho a
    return out


def _diagonal_block(dim: int, m: int) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues w and orthonormal eigenvectors V of the generator on
    diagonal m of a d x d rho, per unit gamma: L = gamma V diag(w) V^T.

    Position n stands for rho[n, n+m] (and rho[n+m, n]), n = 0..d-m-1.  The
    block is scaled by gamma outside, so it is finite for every finite gamma.
    """
    s = _anticommutator_diagonal(dim)
    n = np.arange(1, dim - m, dtype=np.float64)
    return eigh_tridiagonal(-0.5 * (s[:dim - m] + s[m:]), np.sqrt(n * (n + m)))


@dataclass
class NoiseResult:
    """Exact evolution record: traces on the record grid and the final rho.

    final is built on first read, from a private copy of the input, and is
    then kept; it shares no memory with the input or the traces.
    """

    times: np.ndarray
    n_trace: np.ndarray
    a_trace: np.ndarray
    parity_trace: np.ndarray
    trace_drift: float
    _initial: DensityMatrix = field(repr=False)
    _rate: float = field(repr=False)   # gamma * duration

    @cached_property
    def final(self) -> DensityMatrix:
        rho = self._initial.matrix
        if self._rate == 0.0:
            return DensityMatrix(self._initial.layout, rho.copy())
        dim = rho.shape[0]
        out = np.empty_like(rho)
        for m in range(dim):
            w, v = _diagonal_block(dim, m)
            pair = np.stack([rho.diagonal(m), rho.diagonal(-m)], axis=1)
            pair = v @ (np.exp(self._rate * w)[:, None] * (v.T @ pair))
            rows, cols = np.arange(dim - m), np.arange(m, dim)
            out[rows, cols], out[cols, rows] = pair[:, 0], pair[:, 1]
        return DensityMatrix(self._initial.layout, out)


def evolve_lindblad(rho0: DensityMatrix, params: HeatingParams) -> NoiseResult:
    """Exact solution of the heating equation on the record grid.

    times is linspace(0, duration, steps + 1), or the two endpoints when
    params.steps is None; the values at a time do not depend on the grid.
    Diagonals 0 and -1 of rho are propagated in the eigenbasis of their
    blocks (_diagonal_block): a readout c . rho(t) of diagonal m is
    sum_j e^{gamma t w_j} (V^T c)_j (V^T x)_j for the diagonal x of rho0, so
    every trace is one einsum of e^{gamma t w} with a fixed coefficient
    vector.  The table is evaluated a bounded number of rows at a time, so
    memory is O(steps + d^2).  einsum calls no BLAS, so the traces do not
    depend on the BLAS thread count.  rho0 is not modified, and the result
    shares no memory with it.
    """
    dim = _require_single_mode(rho0.layout)
    steps = params.steps or 1
    if steps > MAX_STEPS:
        raise CapacityError(
            f"{steps:.4g} recorded steps exceed the limit {MAX_STEPS}; "
            "lower noise.steps")
    times = np.linspace(0.0, params.duration, steps + 1)
    rho = rho0.matrix
    levels = np.arange(dim, dtype=np.float64)
    w0, v0 = _diagonal_block(dim, 0)
    w1, v1 = _diagonal_block(dim, 1)
    x0 = np.einsum("nj,n->j", v0, rho.diagonal().real)
    # coefficients of <n>, parity and the trace on diagonal 0, <a> on -1
    readouts = np.stack([levels, (-1.0) ** levels, np.ones(dim)])
    c0 = np.einsum("nj,cn->cj", v0, readouts) * x0
    c1 = (np.einsum("nj,n->j", v1, np.sqrt(levels[1:]))
          * np.einsum("nj,n->j", v1, rho.diagonal(-1)))

    n_trace = np.empty(steps + 1)
    a_trace = np.empty(steps + 1, dtype=np.complex128)
    p_trace = np.empty(steps + 1)
    rows = max(1, _TABLE_ENTRIES // dim)
    # far past any physical gamma * t the exponentials overflow; the trace
    # guard below turns that into a named error
    with np.errstate(over="ignore", invalid="ignore"):
        rates = params.gamma * times
        for start in range(0, steps + 1, rows):
            span = slice(start, start + rows)
            table = np.exp(np.multiply.outer(rates[span], w0))
            np.einsum("ij,j->i", table, c0[0], out=n_trace[span])
            np.einsum("ij,j->i", table, c0[1], out=p_trace[span])
            table = np.exp(np.multiply.outer(rates[span], w1))
            np.einsum("ij,j->i", table, c1, out=a_trace[span])
        drift = abs(float(np.einsum("j,j->", np.exp(rates[-1] * w0), c0[2])) - 1.0)
    if not drift <= TRACE_TOL:
        raise ContractError(
            f"trace drifted by {drift:.3e} at gamma*duration = {rates[-1]:.3g}; "
            "lower noise.gamma or noise.duration")
    initial = DensityMatrix(rho0.layout, rho.copy())
    return NoiseResult(times, n_trace, a_trace, p_trace, drift,
                       initial, float(rates[-1]))


def delta_of(gamma: float, alpha: float, duration: float) -> float:
    """Single-jump probability scale delta = gamma |alpha|^2 t.

    A single-jump approximation: the exact channel flips an even cat's
    parity with probability gamma (2 nbar + 1) t at small gamma t, nbar the
    cat's <n>, which is 2.1 to 2.4 times delta for alpha = 3 to 1.5.
    """
    return gamma * abs(alpha) ** 2 * duration


def parity_flip_probability(gamma: float, alpha: float, duration: float) -> float:
    """Odd-total-jump probability of the merged up/down processes.

    Both processes run at about gamma |alpha|^2, so the merged intensity is
    close to 2 gamma |alpha|^2 t = 2 delta, and a parity flip needs an odd
    number of events.  Like delta_of, a single-jump approximation: the
    exact merged rate is gamma (nbar + 1) + gamma nbar, so the exact flip
    probability gamma (2 nbar + 1) t is 1.06 to 1.2 times this at
    alpha = 3 to 1.5.
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
