"""Heating of a vibrational mode and its effect on the encoded Bell pair.

The reservoir model is the balanced pair of dissipators
gamma (D[a] + D[a+]), which leaves the mean amplitude <a> constant while the
occupancy grows linearly, d<n>/dt = gamma.  Unraveled as jumps, it is a pair
of point processes at the current state's rates, read after every jump:
upward events a+ at gamma <a a+> and downward events a at gamma <a+ a>.
Either event flips the phonon-number parity, so a cat-encoded Bell pair
decays toward an incoherent parity-flipped mixture; the small-probability
single-jump picture gives the standard two-component mixture used by the
correlation tests.

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
mode, so it moves no axis.  a and a+ act on that mode alone and the rates
read only <n>, so a jump record is a chain on the mode's d level weights
w_k = ||psi[:, k, :]||^2: the sampler reads the amplitudes once, for w,
and a jump updates a length-d real column and a level shift, O(d).  With
the no-jump drift dropped, the column, the shift, the <n> after a jump,
whether a kick annihilates the state, and the final register depend on
the word of up and down jumps alone, never on gamma, the duration or the
jump times.  A trajectory that jumped writes its final register once,
scaling the float view of the input by its word's column.  A register
whose amplitudes are read-only down their .base chain is immutable: one
entry per heated mode is kept on the state, with the view, w, the chain's
root and its two one-jump words (_Node), each with its read-only final; a
trajectory with no jump returns the state itself, and a longer word is
recomputed on each visit.  So an ensemble of one register (bell_target's,
shared across calls, say) pays for the pass once, and a trajectory of at
most one jump, nearly every one at small gamma T <n>, costs only its
draws.

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
from .hilbert import (DensityMatrix, SpaceLayout, StateVector, _count, _integer,
                      band_eigh)

TRACE_TOL = 1e-6
# record_steps refuses more recorded steps than this: evolve_lindblad keeps
# three traces and the times of steps + 1 points (40 MB at the limit), and
# the largest count a test, demo or benchmark op asks for is under 10^5
MAX_STEPS = 10 ** 6
# evaluate_traces evaluates its traces this many entries (times x levels) at
# a time, so their memory stays O(steps + d^2)
_TABLE_ENTRIES = 2 ** 14
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
    """Reservoir strength, duration and record grid.  The jump rates follow
    the state; constant_rate stays, as False only, for callers that pass it."""

    gamma: float
    duration: float
    steps: int | None = None          # record grid; None records the endpoints
    constant_rate: bool = False       # must be False

    def __post_init__(self) -> None:
        if self.constant_rate is not False:  # frozen jump rates are retired
            raise ValueError(f"constant_rate must be False, got {self.constant_rate!r}")
        if not isfinite(self.gamma):
            raise ValueError(f"gamma must be finite, got {self.gamma}")
        if not isfinite(self.duration):
            raise ValueError(f"duration must be finite, got {self.duration}")
        if self.gamma < 0:
            raise ValueError("gamma must be nonnegative")
        if self.duration < 0:
            raise ValueError("duration must be nonnegative")
        if self.steps is not None and _integer(self.steps, "steps") < 1:
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


def record_steps(steps: int | None) -> int:
    """The step count of a record grid: steps, or 1 when it is None; a
    CapacityError past MAX_STEPS."""
    steps = steps or 1
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
    """The traces of coeffs at gamma and each of the times (none: ValueError).

    Each trace is one einsum of e^{gamma t w} with a coefficient vector.
    The table is evaluated a bounded number of rows at a time, so memory is
    O(len(times) + d^2).  einsum calls no BLAS, so the traces do not depend
    on the BLAS thread count, and a time's values do not depend on the
    other times.  The trace drift is read at the last time.
    """
    count = times.size
    if count == 0:
        raise ValueError("evaluate_traces needs at least one time")
    w0, c0, w1, c1 = coeffs.w0, coeffs.c0, coeffs.w1, coeffs.c1
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
    times = np.linspace(0.0, params.duration, record_steps(params.steps) + 1)
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


def _mode_view(dims: tuple[int, ...], mode_index: int
               ) -> tuple[tuple[int, int, int], np.ndarray, np.ndarray, np.ndarray]:
    """The (pre, d, post) view shape of a register around one mode, its
    levels 0..d-1, and two lines over the shifted levels m = -d..2d-1:
    span[d + m] = m, and ladder[d + m] = sqrt(m) on the register's levels
    0 <= m < d and 0 off them."""
    dim = dims[mode_index]
    shape = (prod(dims[:mode_index]), dim, prod(dims[mode_index + 1:]))
    levels = np.arange(dim, dtype=np.float64)
    span = np.arange(-dim, 2 * dim, dtype=np.float64)
    ladder = np.zeros(3 * dim)
    ladder[dim:2 * dim] = np.sqrt(levels)
    return shape, levels, span, ladder


def _level_weights(psi: np.ndarray) -> np.ndarray:
    """w_k = sum over pre and post of |psi[:, k, :]|^2 of the (pre, d, post)
    view psi, as re^2 + im^2 of the float view; read-only."""
    f = psi.view(np.float64)
    w = np.einsum("pkq,pkq->k", f, f)
    w.flags.writeable = False
    return w


def _immutable(amps: np.ndarray) -> bool:
    """True when amps and every array in its .base chain are read-only,
    which sample_trajectory takes to mean that its values never change."""
    while isinstance(amps, np.ndarray):
        if amps.flags.writeable:
            return False
        amps = amps.base
    return amps is None


def _place(psi: np.ndarray, col: np.ndarray, shift: int) -> np.ndarray:
    """The register sum_k col_k psi[:, k, :] |k + shift>, a new (pre, d,
    post) array: input level k lands on level k + shift, and the levels no
    input reaches are zero.

    col is real, so it scales the float view of psi in one multiply.  Every
    nonzero amplitude has the bits of the complex product with col_k; a
    zero may differ from it in its sign.
    """
    dim = psi.shape[1]
    lo, hi = max(0, -shift), min(dim, dim - shift)
    out = np.zeros_like(psi)
    np.multiply(psi.view(np.float64)[:, lo:hi], col[lo:hi, None],
                out=out.view(np.float64)[:, lo + shift:hi + shift])
    return out


class _Node:
    """A word of jumps on the chain over a register's level weights w.

    The state after the word is sum_k col_k psi_k |k + shift>, normalized,
    psi_k the input's level-k part, and n_mean is its <n>.  final is the
    register of a one-jump word of an immutable input, written once and
    read-only.
    """

    __slots__ = ("col", "shift", "n_mean", "final")

    def __init__(self, col: np.ndarray, shift: int, n_mean: float) -> None:
        self.col, self.shift, self.n_mean = col, shift, n_mean
        self.final = None


def _kick(node: _Node, up: bool, w: np.ndarray, span: np.ndarray,
          ladder: np.ndarray) -> _Node | None:
    """The node one a+ (up) or a jump on from node, or None where the kick
    maps the state to zero: O(d)."""
    dim = w.size
    # input level k sits on k + shift; a+ weighs it sqrt(k + shift + 1),
    # a sqrt(k + shift), and 0 off the ladder
    edge = dim + node.shift + up
    kicked = node.col * ladder[edge:edge + dim]
    # col_k^2 w_k <= 1 after each renormalization, so kicked * w cannot
    # overflow where kicked * kicked could, on a subnormal w_k
    p = kicked * w * kicked
    norm2 = float(p.sum())
    if norm2 == 0.0:
        return None
    shift = node.shift + (1 if up else -1)
    moved = span[dim + shift:2 * dim + shift]
    return _Node(kicked / np.sqrt(norm2), shift, float(p @ moved) / norm2)


def _chain(amps: np.ndarray, dims: tuple[int, ...], mode_index: int) -> tuple:
    """What the sampler derives from one register and heated mode: the
    (pre, d, post) view shape, the shifted levels and the ladder
    (_mode_view), w, the chain's root, and a dict from a kick (True for
    a+) to its one-jump node, or None where it annihilates, filled on
    use."""
    shape, levels, span, ladder = _mode_view(dims, mode_index)
    w = _level_weights(amps.reshape(shape))
    # a level of weight 0 stays off the column: its amplitudes are zero or
    # too small to square, and no norm would bound its entry
    root = _Node((w > 0.0).astype(np.float64), 0, float(levels @ w))
    return shape, span, ladder, w, root, {}


def sample_trajectory(state: StateVector, params: HeatingParams,
                      seed_or_rng, mode_index: int = 0) -> TrajectoryResult:
    """One jump-process realization of the heating channel.

    Between jumps the state is left unchanged (the no-jump drift is dropped,
    consistent with the small gamma*t regime the model is built for).  The
    rates, gamma (<n> + 1) for a+ and gamma <n> for a, are read before every
    draw from the <n> after the jumps so far.  An a+ from a state all on the
    truncated ladder's top level maps it to zero; that event is skipped.
    Deterministic for a given seed.  Each wait is (1 / total rate) E for a
    standard exponential E: Generator.exponential(1 / total), bit for bit.
    A state whose <n> is not finite (a NaN or infinite amplitude) is a
    ContractError before any draw.

    a and a+ act on the heated mode alone, so the state after any jumps is
    sum_k col_k psi_k |k + shift>, psi_k the input's level-k part: the
    record is a chain on the input's level weights w_k = ||psi_k||^2.  The
    sampler reads the amplitudes once, for w (one pass over the (pre, d,
    post) view, which moves no axis), and <n> = levels . w.  A jump
    updates the real column col and the net shift, renormalized, and takes
    the next <n> and the annihilation test (a zero norm) from col^2 w:
    O(d) per jump (_kick).  A trajectory that jumped writes its final
    register once (_place).  The input is not modified.

    If the input's amplitudes are read-only down their .base chain, the
    state is immutable: what the sampler derives from it and the heated
    mode (_chain: the view, w, the root and the two one-jump words) is
    kept on it (StateVector), per (state, mode_index).  A one-jump word
    computes its column once and keeps its final, read-only and shared by
    every trajectory that ends on it; a jump-free trajectory returns the
    state itself, and a word of two or more jumps is recomputed on each
    call.  Any other input derives the entry on every call and never
    shares its memory with the result.  The draws, record, warning and
    final amplitudes are the same either way.
    """
    layout = state.layout
    if not 0 <= mode_index < layout.nsites:
        raise ValueError(
            f"mode_index must be in [0, {layout.nsites}) for a "
            f"{layout.nsites}-factor layout, got {mode_index}"
        )
    rng = (seed_or_rng if isinstance(seed_or_rng, np.random.Generator)
           else np.random.default_rng(seed_or_rng))
    amps = state.amps
    immutable = _immutable(amps)
    if immutable and state.__dict__.get("_jump_chains", (None,))[0] is not amps:
        state._jump_chains = (amps, {})
    kept = state._jump_chains[1] if immutable else {}
    if mode_index not in kept:
        kept[mode_index] = _chain(amps, layout.dims, mode_index)
    shape, span, ladder, w, root, first = kept[mode_index]
    n0 = root.n_mean
    if not isfinite(n0):
        raise ContractError(f"the heated mode's <n> is {n0}: the register holds "
                            "a non-finite amplitude, or one too large to square")
    gamma = params.gamma
    depth = gamma * params.duration
    if depth * n0 >= 0.5:
        warnings.warn(
            f"gamma*duration*<n> = {depth * n0:.3g} "
            "is not small; single-jump statistics are unreliable at this depth",
            stacklevel=2,
        )
    node = root
    jumps: list = []
    t = 0.0
    while True:
        r_up, r_down = gamma * (node.n_mean + 1.0), gamma * node.n_mean
        total = r_up + r_down
        if total <= 0.0:
            break
        t += (1.0 / total) * rng.standard_exponential()
        if t >= params.duration:
            break
        up = rng.random() < r_up / total
        if node is not root:
            nxt = _kick(node, up, w, span, ladder)
        elif up in first:
            nxt = first[up]
        else:
            nxt = first[up] = _kick(root, up, w, span, ladder)
        if nxt is None:
            continue
        node = nxt
        jumps.append((t, "+" if up else "-"))
    if node is root:
        final = state if immutable else StateVector(layout, amps.copy())
    elif node.final is not None:
        final = node.final
    else:
        out = _place(amps.reshape(shape), node.col, node.shift)
        keep = immutable and len(jumps) == 1
        out.flags.writeable = not keep
        final = StateVector(layout, out.reshape(-1))
        if keep:
            node.final = final
    return TrajectoryResult(final, jumps, len(jumps) % 2 == 1)


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
