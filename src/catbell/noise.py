"""Heating of a vibrational mode and its effect on the encoded Bell pair.

The reservoir model is the balanced pair of dissipators
gamma (D[a] + D[a+]), which leaves the mean amplitude <a> constant while the
occupancy grows linearly, d<n>/dt = gamma.  Unraveled as jumps, it is a pair
of point processes: upward events a+ at rate gamma <a a+> and downward events
a at rate gamma <a+ a>.  Either event flips the phonon-number parity, so a
cat-encoded Bell pair decays toward an incoherent parity-flipped mixture; the
small-probability single-jump picture gives the standard two-component
mixture used by the correlation tests.

In the truncated Fock basis the generator is banded.  With
a|k> = sqrt(k)|k-1>:

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
blocks do not depend on gamma, so each (d, m) is decomposed once per process
and kept (_diagonal_block).  The <n>, parity and trace readouts are linear in
diagonal 0 and <a> in diagonal -1, so the traces of every run at one cutoff
share two decompositions.  evolve_lindblad runs in two stages:
trace_coefficients folds rho0 into one coefficient vector per readout, free
of gamma and t, and evaluate_traces sums each against e^{gamma t w} at the
record times.  A caller that evaluates one rho0 again and again keeps the
coefficients (pipeline's heat-sweep memo) and may ask for one time alone.
rho itself, which takes all d blocks, comes from propagate.

The jump sampler views the register as (pre, d, post) around the heated
mode, so it moves no axis.  It draws the first waiting time before it looks
at the state.  Under state-following rates, a trajectory whose first wait
ends past the duration even at the rates of the bound
<n> <= (d - 1) ||psi||^2 (one dot over the register) cannot jump, and it
returns without computing <n>; the draws and the output are those of the
loop alone, bit for bit.  Every other trajectory computes <n> in one pass
over the amplitudes for each state it visits (only for the input under
constant_rate), and each jump writes one new register, scaling the float
view of the amplitudes by the real ladder column.

Each trajectory's stream is np.random.default_rng([master_seed, index]),
bit for bit (trajectory_rng).  Building a SeedSequence per key costs more
than most trajectories, so numpy's entropy hash is ported to uint32 array
arithmetic and run over an aligned block of 512 indices at once
(_seed_state, _seed_block); a generator is then PCG64 seeded from its row
of the block's words.
"""

from __future__ import annotations

import operator
import warnings
from dataclasses import dataclass
from functools import lru_cache
from math import exp, isfinite, prod

import numpy as np

from .errors import CapacityError, ContractError
from .hilbert import DensityMatrix, SpaceLayout, StateVector, _count, band_eigh

TRACE_TOL = 1e-6
# record_steps refuses more recorded steps than this: evolve_lindblad keeps
# three traces and the times of steps + 1 points (40 MB at the limit), and
# the largest count a test, demo or benchmark op asks for is under 10^5
MAX_STEPS = 10 ** 6
# evaluate_traces evaluates its traces this many entries (times x levels) at
# a time, so their memory stays O(steps + d^2)
_TABLE_ENTRIES = 2 ** 14
# machine epsilon and the smallest subnormal, for _occupancy_bound's margin
_EPS = float(np.finfo(np.float64).eps)
_TINY = float(np.finfo(np.float64).smallest_subnormal)
# numpy's SeedSequence: pool size, the two hashes' constants, the mix's
# multipliers (numpy/random/bit_generator.pyx)
_POOL = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = np.uint32(0xCA01F9DD), np.uint32(0x4973F715)
_WORD = 0xFFFFFFFF
# trajectory keys hashed at once, an aligned run of indices; a power of two
# below 2^32, so a block never straddles a change of word count
_SEED_BLOCK = 512


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


# a heat-sweep reads blocks m = 0, 1 of its cutoff and propagate all d of
# them, so 256 entries keep propagate's blocks at d <= 128 and the sweeps of
# other cutoffs; an entry of n = d - m levels is 8 n (n + 1) bytes, at most
# 256 * 8 * 128 * 129 B = 34 MB in all at d <= 128
@lru_cache(maxsize=256)
def _diagonal_block(dim: int, m: int) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues w and orthonormal eigenvectors V of the generator on
    diagonal m of a d x d rho, per unit gamma: L = gamma V diag(w) V^T.

    Position n stands for rho[n, n+m] (and rho[n+m, n]), n = 0..d-m-1.  The
    block is scaled by gamma outside, so it is finite for every finite gamma.
    Memoized per (dim, m); both arrays are read-only.

    Block 0 conserves the trace: its rows sum to zero, so ones / sqrt(d) is
    an exact eigenvector with w = 0, the largest eigenvalue.  The
    eigensolver (hilbert.band_eigh) rounds that w to about 1e-15, which
    would make the trace drift linearly in gamma t, so the known pair is
    written in exactly and the other eigenvectors are projected off it.
    """
    # s_k of n + a a+ on the truncated ladder: 2k + 1, and d - 1 on top
    s = 2.0 * np.arange(dim, dtype=np.float64) + 1.0
    s[-1] = dim - 1.0
    n = np.arange(1, dim - m, dtype=np.float64)
    w, v = band_eigh(-0.5 * (s[:dim - m] + s[m:]), np.sqrt(n * (n + m)))
    if m == 0:
        null = np.full(dim, 1.0 / np.sqrt(dim))
        v -= np.outer(null, null @ v)  # the others, orthogonal to it exactly
        w[-1] = 0.0
        v[:, -1] = null
    w.flags.writeable = False
    v.flags.writeable = False
    return w, v


@dataclass
class NoiseResult:
    """Exact evolution record: the traces on the record grid."""

    times: np.ndarray
    n_trace: np.ndarray
    a_trace: np.ndarray
    parity_trace: np.ndarray
    trace_drift: float


def propagate(rho0: DensityMatrix, params: HeatingParams) -> DensityMatrix:
    """rho at params.duration under the heating channel, exactly.

    Diagonals m and -m of rho0 go through V diag(e^{gamma t w}) V^T of block
    m (_diagonal_block, all d blocks).  Linear and with no trace check, so
    rho0 may be any operator on a single-mode layout, a traceless one too.
    An exact copy at gamma t = 0; rho0 is not modified and shares no memory
    with the result.
    """
    dim = _require_single_mode(rho0.layout)
    rho = rho0.matrix
    rate = params.gamma * params.duration
    if not isfinite(rate):
        raise ContractError(f"cannot propagate at gamma*duration = {rate}")
    if rate == 0.0:
        return DensityMatrix(rho0.layout, rho.copy())
    out = np.empty_like(rho)
    for m in range(dim):
        w, v = _diagonal_block(dim, m)
        pair = np.stack([rho.diagonal(m), rho.diagonal(-m)], axis=1)
        pair = v @ (np.exp(rate * w)[:, None] * (v.T @ pair))
        rows, cols = np.arange(dim - m), np.arange(m, dim)
        out[rows, cols], out[cols, rows] = pair[:, 0], pair[:, 1]
    return DensityMatrix(rho0.layout, out)


def record_steps(params: HeatingParams) -> int:
    """The step count of params' record grid, 1 when params.steps is None;
    a CapacityError past MAX_STEPS."""
    steps = params.steps or 1
    if steps > MAX_STEPS:
        raise CapacityError(
            f"{_count(steps)} recorded steps exceed the limit {MAX_STEPS}; "
            "lower noise.steps")
    return steps


@dataclass(frozen=True)
class TraceCoefficients:
    """The gamma- and t-free part of the heating traces of one rho0.

    At rate r = gamma t, <n>, parity and the trace are sum_j e^{r w0_j}
    c0[k, j] for k = 0, 1, 2, and <a> is sum_j e^{r w1_j} c1_j.  w0 and w1
    are the eigenvalues of blocks 0 and 1 (_diagonal_block); every array is
    read-only, so one instance can be shared.
    """

    w0: np.ndarray
    c0: np.ndarray
    w1: np.ndarray
    c1: np.ndarray


def trace_coefficients(rho0: DensityMatrix) -> TraceCoefficients:
    """The coefficients of evolve_lindblad's traces from rho0.

    A readout c . rho(t) of diagonal m is sum_j e^{gamma t w_j} (V^T c)_j
    (V^T x)_j for the diagonal x of rho0, (w, V) the block of diagonal m:
    diagonal 0 gives <n>, parity and the trace, diagonal -1 gives <a>.  The
    blocks are decomposed on the first run at this cutoff and reused by
    every later one.  rho0 is not modified, and the result shares no memory
    with it.
    """
    dim = _require_single_mode(rho0.layout)
    rho = rho0.matrix
    levels = np.arange(dim, dtype=np.float64)
    w0, v0 = _diagonal_block(dim, 0)
    w1, v1 = _diagonal_block(dim, 1)
    x0 = np.einsum("nj,n->j", v0, rho.diagonal().real)
    readouts = np.stack([levels, (-1.0) ** levels, np.ones(dim)])
    c0 = np.einsum("nj,cn->cj", v0, readouts) * x0
    c1 = (np.einsum("nj,n->j", v1, np.sqrt(levels[1:]))
          * np.einsum("nj,n->j", v1, rho.diagonal(-1)))
    c0.flags.writeable = False
    c1.flags.writeable = False
    return TraceCoefficients(w0, c0, w1, c1)


def evaluate_traces(coeffs: TraceCoefficients, gamma: float,
                    times: np.ndarray) -> NoiseResult:
    """The traces of coeffs at gamma and each of the (nonempty) times.

    Each trace is one einsum of e^{gamma t w} with a coefficient vector.
    The table is evaluated a bounded number of rows at a time, so memory is
    O(len(times) + d^2).  einsum calls no BLAS, so the traces do not depend
    on the BLAS thread count, and a time's values do not depend on the
    other times.  The trace drift is read at the last time.
    """
    w0, c0, w1, c1 = coeffs.w0, coeffs.c0, coeffs.w1, coeffs.c1
    count = times.size
    n_trace = np.empty(count)
    a_trace = np.empty(count, dtype=np.complex128)
    p_trace = np.empty(count)
    rows = max(1, _TABLE_ENTRIES // w0.size)
    # every w is <= 0, so a finite gamma * t cannot overflow; an infinite one
    # (gamma * duration past 1.8e308) makes inf * 0 = nan on the steady
    # state, and the trace guard below turns that into a named error
    with np.errstate(over="ignore", invalid="ignore"):
        rates = gamma * times
        for start in range(0, count, rows):
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
    return NoiseResult(times, n_trace, a_trace, p_trace, drift)


def evolve_lindblad(rho0: DensityMatrix, params: HeatingParams) -> NoiseResult:
    """Exact solution of the heating equation on the record grid.

    times is linspace(0, duration, steps + 1), or the two endpoints when
    params.steps is None; the values at a time do not depend on the grid.
    The traces are trace_coefficients(rho0) evaluated at each time
    (evaluate_traces); more than MAX_STEPS steps are refused
    (record_steps).  rho0 is not modified, and the result shares no memory
    with it.
    """
    coeffs = trace_coefficients(rho0)
    times = np.linspace(0.0, params.duration, record_steps(params) + 1)
    return evaluate_traces(coeffs, params.gamma, times)


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


# one entry per (layout, heated mode), 16 d bytes of arrays each: at most
# 32 * 16 * 128 B = 64 KB at d <= 128
@lru_cache(maxsize=32)
def _mode_view(dims: tuple[int, ...], mode_index: int
               ) -> tuple[tuple[int, int, int], np.ndarray, np.ndarray]:
    """The (pre, d, post) view shape of a register around one mode, its
    levels 0..d-1 and the column sqrt(1..d-1) of the ladder.

    Memoized per (dims, mode_index); both arrays are read-only.
    """
    dim = dims[mode_index]
    shape = (prod(dims[:mode_index]), dim, prod(dims[mode_index + 1:]))
    levels = np.arange(dim, dtype=np.float64)
    root = np.sqrt(levels[1:])[:, None]
    levels.flags.writeable = False
    root.flags.writeable = False
    return shape, levels, root


def _occupancy(psi: np.ndarray, levels: np.ndarray) -> float:
    """<n> of the (pre, d, post) view psi, unnormalized: the sum over pre
    and post of |psi|^2 as re^2 + im^2 of the float view."""
    f = psi.view(np.float64)
    return float(levels @ np.einsum("pkq,pkq->k", f, f))


def _occupancy_bound(amps: np.ndarray, dim: int) -> float:
    """An upper bound on _occupancy of any d-level mode of the register.

    <n> <= (d - 1) ||psi||^2, and ||psi||^2 is one dot of the float view.
    The factor 1 + 4 N eps, for N floats, dominates the relative rounding
    of both sums (each is within about N eps/2 of its exact value, in any
    order of summation); the N + 2 smallest subnormals dominate the
    absolute rounding of products that underflow.
    """
    f = amps.view(np.float64)
    n = f.size
    return (dim - 1) * (float(f @ f) * (1.0 + 4.0 * n * _EPS) + (n + 2) * _TINY)


def _jump(psi: np.ndarray, up: bool, root: np.ndarray) -> np.ndarray | None:
    """a+ psi (up) or a psi on the middle axis of the view, normalized; None
    when the event annihilates psi.

    The ladder column is real, so it scales the float view of psi, and only
    the vacated edge level is zeroed.  Scaling by 1 / nrm is what numpy's
    complex division by a real nrm computes, so every nonzero amplitude has
    the bits of the complex products and division; a zero may differ from
    them in its sign.
    """
    out = np.empty_like(psi)
    f, src = out.view(np.float64), psi.view(np.float64)
    if up:
        np.multiply(root, src[:, :-1], out=f[:, 1:])
        f[:, 0] = 0.0
    else:
        np.multiply(root, src[:, 1:], out=f[:, :-1])
        f[:, -1] = 0.0
    nrm = np.linalg.norm(out)
    if nrm == 0.0:
        return None
    f *= 1.0 / nrm
    return out


def _rates(params: HeatingParams, n_mean: float) -> tuple[float, float]:
    """Upward and downward jump rates at occupancy n_mean; both are
    nondecreasing in n_mean."""
    if params.constant_rate:
        return params.gamma * n_mean, params.gamma * n_mean
    return params.gamma * (n_mean + 1.0), params.gamma * n_mean


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

    Each wait is (1 / total rate) E for a standard exponential E, which is
    what Generator.exponential(1 / total rate) returns, bit for bit.  When
    gamma > 0 and the rates follow the state, the loop's first step always
    draws one E, so it is drawn up front.  If even the rates of the bound
    (d - 1) ||psi||^2 >= <n> (_occupancy_bound, one dot over the register)
    make that wait end past the duration, so do the true rates, because the
    rates, the division and the product all round monotonically: the record
    is empty, and <n> is never computed.  This exit is taken only when the
    bound is also below the depth warning's threshold, so the warning is
    decided on the true <n>.  Otherwise the loop runs, its first wait uses
    the drawn E, and <n> takes one pass over the amplitudes per visited
    state: once for the input and once after each jump (never after a jump
    under constant_rate).  Either way the draws, the record and the final
    amplitudes are those of the loop alone.

    The register is viewed as (pre, d, post) around the heated mode, so
    neither the occupancy nor a jump moves an axis, and a jump writes one
    new register.  The input is not modified and the result never shares
    its memory.
    """
    layout = state.layout
    if not 0 <= mode_index < layout.nsites:
        raise ValueError(
            f"mode_index must be in [0, {layout.nsites}) for a "
            f"{layout.nsites}-factor layout, got {mode_index}"
        )
    rng = (seed_or_rng if isinstance(seed_or_rng, np.random.Generator)
           else np.random.default_rng(seed_or_rng))
    shape, levels, root = _mode_view(layout.dims, mode_index)
    psi = state.amps.reshape(shape)
    depth = params.gamma * params.duration
    draw = None
    if params.gamma > 0.0 and not params.constant_rate:
        # the loop's first step would draw exactly this E
        draw = rng.standard_exponential()
        n_hi = _occupancy_bound(state.amps, levels.size)
        up_hi, down_hi = _rates(params, n_hi)
        if depth * n_hi < 0.5 and (1.0 / (up_hi + down_hi)) * draw >= params.duration:
            return TrajectoryResult(StateVector(layout, state.amps.copy()), [], False)
    n0 = _occupancy(psi, levels)
    if depth * n0 >= 0.5:
        warnings.warn(
            f"gamma*duration*<n> = {depth * n0:.3g} "
            "is not small; single-jump statistics are unreliable at this depth",
            stacklevel=2,
        )
    r_up, r_down = _rates(params, n0)
    jumps: list = []
    t = 0.0
    while True:
        total = r_up + r_down
        if total <= 0.0:
            break
        if draw is None:
            draw = rng.standard_exponential()
        t += (1.0 / total) * draw
        draw = None
        if t >= params.duration:
            break
        up = rng.random() < r_up / total
        kicked = _jump(psi, up, root)
        if kicked is None:
            continue
        psi = kicked
        jumps.append((t, "+" if up else "-"))
        if not params.constant_rate:
            r_up, r_down = _rates(params, _occupancy(psi, levels))
    final = psi.reshape(-1) if jumps else state.amps.copy()
    return TrajectoryResult(StateVector(layout, final), jumps, len(jumps) % 2 == 1)


def _uint32_words(value: int) -> list[int]:
    """The 32-bit words of a non-negative integer, least significant first,
    one zero word for 0: numpy's coercion of an integer seed."""
    words = [value & _WORD]
    value >>= 32
    while value:
        words.append(value & _WORD)
        value >>= 32
    return words


def _hash_constants(init: int, mult: int, count: int) -> np.ndarray:
    """init * mult^j mod 2^32 for j = 0..count, as uint32: call j of a
    SeedSequence hash xors with entry j and multiplies by entry j + 1."""
    out = [init]
    for _ in range(count):
        out.append(out[-1] * mult & _WORD)
    return np.array(out, dtype=np.uint32)


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    out = x * _MIX_MULT_L - y * _MIX_MULT_R
    return out ^ (out >> 16)


def _seed_state(entropy: np.ndarray) -> np.ndarray:
    """SeedSequence(words).generate_state(4, np.uint64) for every column of
    the (L, n) uint32 entropy, as an (n, 4) C-ordered uint64 array.

    numpy's mix_entropy and generate_state, each hash a uint32 array
    operation over the n keys: the first four words (zeros past the
    entropy) are hashed into the pool, every pool word is mixed into every
    other in order, and each later word into all four.  The eight output
    words are the pool, cycled, through the second hash; word pairs are
    little-endian 64-bit words.
    """
    length, n = entropy.shape
    h = _hash_constants(_INIT_A, _MULT_A,
                        _POOL * _POOL + _POOL * max(0, length - _POOL))
    pool = np.zeros((_POOL, n), dtype=np.uint32)
    pool[:length] = entropy[:_POOL]
    pool = (pool ^ h[:_POOL, None]) * h[1:_POOL + 1, None]
    pool ^= pool >> 16
    j = _POOL
    for src in range(_POOL):
        for dst in range(_POOL):
            if dst != src:
                x = (pool[src] ^ h[j]) * h[j + 1]
                pool[dst] = _mix(pool[dst], x ^ (x >> 16))
                j += 1
    for word in entropy[_POOL:]:
        x = (word ^ h[j:j + _POOL, None]) * h[j + 1:j + _POOL + 1, None]
        pool = _mix(pool, x ^ (x >> 16))
        j += _POOL
    g = _hash_constants(_INIT_B, _MULT_B, 2 * _POOL)
    out = (np.tile(pool, (2, 1)) ^ g[:-1, None]) * g[1:, None]
    out = (out ^ (out >> 16)).astype(np.uint64)
    return np.ascontiguousarray((out[0::2] | (out[1::2] << 32)).T)


# an ensemble that runs its indices in order needs one entry at a time; an
# entry is 512 x 4 uint64 = 16 KB, 8 * 16 KB = 128 KB in all
@lru_cache(maxsize=8)
def _seed_block(master_seed: int, block: int) -> np.ndarray:
    """PCG64 seed words of the keys [master_seed, i] for i in
    [block * B, (block + 1) * B), B = _SEED_BLOCK: an (B, 4) read-only
    uint64 array, row i - block * B of which is what
    SeedSequence([master_seed, i]).generate_state(4, np.uint64) returns.

    B divides 2^32, so the indices of a block share their word count and
    every word but the lowest, which is the first index's plus 0..B-1 with
    no carry.
    """
    index_words = _uint32_words(block * _SEED_BLOCK)
    words = _uint32_words(master_seed) + index_words
    entropy = np.repeat(np.array(words, dtype=np.uint32)[:, None], _SEED_BLOCK, axis=1)
    entropy[-len(index_words)] += np.arange(_SEED_BLOCK, dtype=np.uint32)
    state = _seed_state(entropy)
    state.flags.writeable = False
    return state


@lru_cache(maxsize=1)
def _seed_words_class() -> type:
    """An ISeedSequence that holds a precomputed seed for PCG64: its
    generate_state returns the four 64-bit words PCG64 asks for, and
    nothing else.  Defined on first use, so that importing catbell does not
    import numpy.random (5 MB and 13 ms)."""
    from numpy.random.bit_generator import ISeedSequence

    class SeedWords(ISeedSequence):
        def __init__(self, words: np.ndarray) -> None:
            self.words = words

        def generate_state(self, n_words: int, dtype=np.uint32) -> np.ndarray:
            if n_words != 4 or np.dtype(dtype) != np.uint64:
                raise ValueError("holds only the four uint64 words PCG64 reads")
            return self.words

    return SeedWords


def trajectory_rng(master_seed: int, index: int) -> np.random.Generator:
    """Independent per-trajectory stream keyed by (master seed, index).

    The stream is that of np.random.default_rng([master_seed, index]), bit
    for bit, for every pair of non-negative integers, but no SeedSequence
    is built: the seed words come from the hash of the key's block
    (_seed_block), memoized per (master_seed, index // 512).  So
    bit_generator.seed_seq is not a SeedSequence, and Generator.spawn is
    not offered; nothing in catbell spawns.  A negative key raises
    ValueError and a key that is not an integer TypeError.
    """
    master_seed, index = operator.index(master_seed), operator.index(index)
    if master_seed < 0 or index < 0:
        raise ValueError(f"trajectory keys must be non-negative, got "
                         f"({master_seed}, {index})")
    block, row = divmod(index, _SEED_BLOCK)
    words = _seed_block(master_seed, block)[row]
    return np.random.Generator(np.random.PCG64(_seed_words_class()(words)))
