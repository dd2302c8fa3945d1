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

The channel is a Gaussian random displacement: e^{tL} rho is the average of
D(beta) rho D(beta)+ over a complex Gaussian beta with <|beta|^2> = s =
gamma t (Serafini, Quantum Continuous Variables, 2017).  Its dual maps n to
n + s, the parity (-1)^n to x^n / (1 + 2s) with x = (2s - 1) / (2s + 1),
and a to a.  So <n>, <a> and the parity after any duration are O(d) sums
over the populations p_k of a one-mode state (params.heated_moments, in
Python floats), read as a state of the untruncated ladder: the law never
meets a truncation edge.

rho itself comes from propagate, on the truncated Fock basis, where the
generator is banded.  With a|k> = sqrt(k)|k-1>:

- a rho a+ is rho shifted one step up its diagonal, weighted by
  sqrt(i+1) sqrt(j+1); a+ rho a is the same shift downward.
- n + a a+ is diagonal with entries s_k = 2k + 1, except s_{d-1} = d - 1 on
  the top level: the truncated ladder has (a a+)_{d-1} = 0 there.

So the generator maps each diagonal m of rho, rho[n, n+m] for
n = 0..d-m-1, to itself, as a real symmetric tridiagonal matrix: entries
-gamma (s_n + s_{n+m}) / 2 on its diagonal and gamma sqrt(n (n+m)) between
positions n - 1 and n.  The same matrix acts on diagonal -m.  propagate
therefore needs no integrator: one eigendecomposition V diag(w) V^T per
diagonal gives exp(tL) = V diag(e^{tw}) V^T exactly (_diagonal_block).
On a state whose top levels are empty, the truncated and untruncated
channels differ by about the weight heating carries up to them.

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
from math import isfinite, prod

import numpy as np

from .errors import ContractError
from .hilbert import DensityMatrix, StateVector, band_eigh
from .params import SpaceLayout, _integer

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
    """Reservoir strength and duration.

    steps and constant_rate keep their places as the third and fourth
    positional fields for callers that pass them, as
    HeatingParams(gamma, T, None, False): nothing reads steps, and the jump
    rates follow the state, so constant_rate must be False.
    """

    gamma: float
    duration: float
    steps: int | None = None          # read by nothing
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


def _diagonal_block(dim: int, m: int) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues w and orthonormal eigenvectors V of the generator on
    diagonal m of a d x d rho, per unit gamma: L = gamma V diag(w) V^T.

    Position n stands for rho[n, n+m] (and rho[n+m, n]), n = 0..d-m-1.  The
    block is scaled by gamma outside, so it is finite for every finite gamma.

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
    return w, v


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
