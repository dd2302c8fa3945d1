"""The sampled readout's draw: exact multinomial counts on Python's Mersenne
Twister, in Python ints and floats, with no numpy.

The uniforms are those of random.Random(seed_key(seed)).random(): MT19937,
written in C, seeded by init_by_array from the 32-bit words of a
non-negative int.  The notes on reproducibility of Python's random module
keep that sequence for a given seed across versions.  No other method of
Random is read, because their algorithms may change.

A seed is a non-negative int or a list or tuple of them.  seed_key packs
it into one int: each key as its 32-bit word count followed by its words,
low word first (0 is one word), the keys in order, and a word 1 on top.
The top word marks where the packing ends and each count where its key
ends, so the map is injective.  An int s is the key list [s], so s and [s]
share a stream.

A setting's four counts are three conditional binomials in index order, as
numpy's multinomial draws them: outcome j gets Binomial(shots left, p_j /
mass left), with mass left = 1 - p_0 - ... - p_{j-1} subtracted in floats,
and the last outcome gets the shots left.  binomial draws p > 1/2 as n -
Binomial(n, 1 - p).  p <= 0 gives 0 and p >= 1 gives n, so a ratio that
rounds past 1 is safe.  Below n p = 10 it inverts waiting times: the gaps
between successes, floor(log(1 - U) / log(1 - p)) failures each, until
they pass n.  From n p = 10 on it is BTRS, the transformed rejection with
squeeze of Hörmann (J. Stat. Comput. Simul. 46, 101 (1993)), whose
acceptance test reads log f(k) / f(m) in a form that cancels no large
terms.  Both are exact up to the rounding of their floats for n up to
2**53.  Above that BTRS's floats quantize k, as numpy's BTPE does, and the
counts still sum to n and stay in [0, n], up to n = 2**63 - 1.

The module is imported by the sampled readout alone, so an exact run never
compiles it.
"""

from __future__ import annotations

from math import floor, lgamma, log, log1p, pi, sqrt
from random import Random

_HALF_LOG_2PI = 0.5 * log(2.0 * pi)
# below x = 20 the Stirling remainder of log x! is read from lgamma: its
# four-term series is off by up to 1 / (1188 (x + 1)^9), 1.1e-15 at x = 20
_SMALL_TAILS = tuple(lgamma(x + 1.0) - (x + 0.5) * log(x + 1.0) + (x + 1.0) - _HALF_LOG_2PI
                     for x in range(20))


def seed_key(seed) -> int:
    """The int that seeds seed's stream (see the module docstring).  A seed
    that is not an int, list or tuple (a bool, a float, a numpy Generator
    or SeedSequence), or that holds a key that is not an int or is
    negative, is refused before any draw."""
    if type(seed) is int:
        keys = (seed,)
    elif type(seed) is list or type(seed) is tuple:
        keys = seed
    else:
        raise TypeError("seed must be a non-negative int or a list or tuple of "
                        f"them, got {type(seed).__name__}")
    packed, shift = 0, 0
    for key in keys:
        if type(key) is not int:
            raise TypeError(f"seed keys must be ints, got {type(key).__name__}")
        if key < 0:
            raise ValueError(f"seed keys must be non-negative, got {key}")
        words = (key.bit_length() + 31) >> 5 or 1
        packed |= (words | key << 32) << shift
        shift += 32 * (words + 1)
    return packed | 1 << shift


def _tail(x: int) -> float:
    """log x! - ((x + 1/2) log(x + 1) - (x + 1) + log(2 pi) / 2)."""
    if x < 20:
        return _SMALL_TAILS[x]
    z = x + 1.0
    zz = z * z
    return (1.0 / 12.0 - (1.0 / 360.0 - (1.0 / 1260.0 - 1.0 / 1680.0 / zz) / zz) / zz) / z


def _log_ratio(n: int, k: int, m: int, p: float, q: float) -> float:
    """log f(k) / f(m) for the Binomial(n, p) pmf f, q = 1 - p: Stirling's
    form of log m! (n - m)! / (k! (n - k)!) + (k - m) log(p / q), with its
    terms of size n log n cancelled by hand."""
    d = k - m
    return (d * log((n - k + 1) * p / ((k + 1) * q))
            - (m + 0.5) * log1p(d / (m + 1))
            + (n - m + 0.5) * log1p(d / (n - k + 1))
            + _tail(m) - _tail(k) + _tail(n - m) - _tail(n - k))


def _waiting(n: int, p: float, uniform) -> int:
    """Binomial(n, p), 0 < p <= 1/2: the successes whose geometric waiting
    times, drawn by inversion, fit in n trials."""
    q = log1p(-p)
    k, left = 0, n
    while True:
        # failures before the next success, as a real; 1 - U is in (0, 1]
        g = log(1.0 - uniform()) / q
        if g >= left:
            return k
        left -= floor(g) + 1
        k += 1


def _btrs(n: int, p: float, uniform) -> int:
    """Binomial(n, p), 0 < p <= 1/2 and n p >= 10: Hörmann's BTRS."""
    q = 1.0 - p
    spq = sqrt(n * p * q)
    b = 1.15 + 2.53 * spq
    a = -0.0873 + 0.0248 * b + 0.01 * p
    c = n * p + 0.5
    v_r = 0.92 - 4.2 / b
    m = None
    while True:
        u = uniform() - 0.5
        v = uniform()
        us = 0.5 - abs(u)
        if us == 0.0:
            continue   # k would be floor(-inf): rejected
        k = floor((2.0 * a / us + b) * u + c)
        if us >= 0.07 and v <= v_r:
            return k
        if k < 0 or k > n:
            continue
        if m is None:
            alpha = (2.83 + 5.1 / b) * spq
            m = floor((n + 1) * p)
        v = v * alpha / (a / (us * us) + b)
        # log 0 is -inf, which every k passes
        if v == 0.0 or log(v) <= _log_ratio(n, k, m, p, q):
            return k


def binomial(n: int, p: float, uniform) -> int:
    """One Binomial(n, p) count from the uniforms of uniform(), in [0, 1)."""
    if n == 0 or p <= 0.0:
        return 0
    if p >= 1.0:
        return n
    if p > 0.5:
        return n - binomial(n, 1.0 - p, uniform)
    return _waiting(n, p, uniform) if n * p < 10.0 else _btrs(n, p, uniform)


def draw(rows: list, shots: int, seed) -> list[list[int]]:
    """The counts of each row of outcome populations, as Python ints: one
    multinomial draw of shots per row, in row order, from seed's stream."""
    key = seed_key(seed)
    if shots < 1:
        raise ValueError("shots must be positive")
    uniform = Random(key).random
    counts = []
    for row in rows:
        left, mass, row_counts = shots, 1.0, []
        for pj in row[:-1]:
            # mass > 0 while shots are left: a mass that reaches 0 follows
            # a ratio of at least 1, which took them all
            c = binomial(left, pj / mass, uniform) if left else 0
            row_counts.append(c)
            left -= c
            mass -= pj
        row_counts.append(left)
        counts.append(row_counts)
    return counts
