"""catbell.sampler, the sampled readout's draw: its seed contract, its
counts frozen in tests/golden/sampled_counts.json and held to the
independent oracle of catbell.reference, and its laws.

The law tests draw one count per seed over many seeds and compare the
histogram with scipy's pmf by Pearson's chi-square, bins of expected count
below 5 pooled.  The seeds are fixed, so each test is deterministic; a
sampler that draws the law fails one such test with probability
FALSE_ALARM, the rate at which a correct sampler would be refused.
"""

from __future__ import annotations

import itertools
import random
from math import floor, sqrt

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import stats

from catbell import sampler
from catbell.bell import PHI_PLUS_T, PSI_PLUS_T, mixed_tensor, tensor_chsh
from catbell.reference import (
    MT19937,
    binomial_draw,
    binomial_log_ratio,
    multinomial_counts,
    seed_words,
)
from catbell.sampler import _log_ratio, binomial, draw, seed_key

FALSE_ALARM = 1e-6
LAW_DRAWS = 4000
SHOT_COUNTS = (1, 7, 20, 4096, 10 ** 6, 2 ** 53 + 1, 2 ** 63 - 1)
# bell-scan's seeds [seed, i] at the ends of the config's seed range
SCAN_SEEDS = (0, 1, 2 ** 32 - 1, 2 ** 32, 2 ** 63, 2 ** 64 - 1)


def unpack(packed: int) -> list[int]:
    """The key list that seed_key packed into packed: read the words from
    the low end, a count then that many words per key, up to the top word 1."""
    words = []
    while packed:
        words.append(packed & 0xFFFFFFFF)
        packed >>= 32
    assert words.pop() == 1
    keys, i = [], 0
    while i < len(words):
        count = words[i]
        keys.append(sum(w << 32 * j for j, w in enumerate(words[i + 1:i + 1 + count])))
        i += 1 + count
    return keys


class TestSeedContract:
    ROWS = [(0.25, 0.25, 0.25, 0.25)]

    @pytest.mark.parametrize("seed,error,message", [
        (True, TypeError, "seed must be a non-negative int or a list or tuple of them, got bool"),
        (1.0, TypeError, "seed must be a non-negative int or a list or tuple of them, got float"),
        (None, TypeError, "seed must be a non-negative int or a list or tuple of them, got NoneType"),
        (np.int64(3), TypeError, "seed must be a non-negative int or a list or tuple of them, got int64"),
        (np.random.default_rng(0), TypeError,
         "seed must be a non-negative int or a list or tuple of them, got Generator"),
        (np.random.SeedSequence(0), TypeError,
         "seed must be a non-negative int or a list or tuple of them, got SeedSequence"),
        (-1, ValueError, "seed keys must be non-negative, got -1"),
        ([3, -2], ValueError, "seed keys must be non-negative, got -2"),
        ([3, 1.5], TypeError, "seed keys must be ints, got float"),
        ((False, 1), TypeError, "seed keys must be ints, got bool"),
        ([np.uint32(4)], TypeError, "seed keys must be ints, got uint32"),
    ])
    def test_a_bad_seed_is_refused_before_any_draw(self, monkeypatch, seed, error, message):
        def refuse(*args):
            raise AssertionError("a stream was seeded")

        monkeypatch.setattr(sampler, "Random", refuse)
        with pytest.raises(error) as info:
            draw(self.ROWS, 10, seed)
        assert str(info.value) == message
        with pytest.raises(error) as info:
            tensor_chsh(PHI_PLUS_T, method="sampled", shots=10, seed=seed)
        assert str(info.value) == message

    def test_shots_below_one_are_refused(self):
        with pytest.raises(ValueError, match="^shots must be positive$"):
            draw(self.ROWS, 0, 3)

    def test_the_packing_reads_back(self):
        for keys in ([0], [5], [2 ** 32], [0, 0], [2 ** 64 - 1, 7], [], [1, 2 ** 200, 0]):
            assert unpack(seed_key(keys)) == keys
            assert unpack(seed_key(tuple(keys))) == keys

    @settings(max_examples=300)
    @given(st.lists(st.integers(0, 2 ** 130), max_size=5))
    def test_the_packing_is_injective(self, keys):
        assert unpack(seed_key(keys)) == keys

    def test_the_programs_keys_are_distinct(self):
        # the ints of full-pipeline and bell-scan's [seed, i] over long grids
        keys = [s for s in SCAN_SEEDS] + [[s, i] for s in SCAN_SEEDS for i in range(256)]
        packed = [seed_key(k) for k in keys]
        assert len(set(packed)) == len(packed)

    def test_an_int_and_its_one_key_list_share_a_stream(self):
        for s in SCAN_SEEDS:
            assert seed_key(s) == seed_key([s]) == seed_key((s,))
            assert draw(self.ROWS, 4096, s) == draw(self.ROWS, 4096, [s])

    def test_the_scan_points_draw_distinct_streams(self):
        for s in SCAN_SEEDS:
            heads = {tuple(itertools.islice(iter(random.Random(seed_key([s, i])).random, None), 4))
                     for i in range(64)}
            assert len(heads) == 64
            t = mixed_tensor(PHI_PLUS_T, PSI_PLUS_T, 0.25)
            outs = {tensor_chsh(t, method="sampled", shots=4096, seed=[s, i]).correlations
                    for i in range(16)}
            assert len(outs) == 16

    def test_the_stream_is_the_reference_twister(self):
        for seed in (0, 7, 2 ** 64 - 1, [0, 0], [2 ** 64 - 1, 255], (1, 2, 3)):
            fast = random.Random(seed_key(seed)).random
            slow = MT19937(seed_words(seed)).genrand_res53
            assert [fast() for _ in range(1300)] == [slow() for _ in range(1300)]


class TestFrozenCounts:
    def test_counts_are_the_fixtures(self, golden):
        cases = golden("sampled_counts.json")
        assert len(cases) == 8
        for name, rec in cases.items():
            c = rec.config
            assert draw(c["rows"], c["shots"], c["seed"]) == rec.value, name

    def test_the_fixture_covers_the_branches(self, golden):
        rows = [(c.config["shots"], r) for c in golden("sampled_counts.json").values()
                for r in c.config["rows"]]
        assert {shots for shots, _ in rows} == {1, 7, 4096, 2 ** 53 + 1}
        assert any(0.0 in r for _, r in rows) and any(0.5 in r for _, r in rows)
        assert any(r[0] == 1.0 for _, r in rows)
        assert any(r[2] > 1.0 - r[0] - r[1] > 0.0 for _, r in rows)


# outcome populations as the readout makes them (normalized, some zero) and
# as no readout makes them: tiny, and summing to 1 within rounding
POPULATION = st.one_of(st.floats(0.0, 1.0), st.sampled_from((0.0, 0.5, 1.0, 1e-12, 5e-324)))
ROWS = st.lists(st.lists(POPULATION, min_size=4, max_size=4).filter(lambda r: sum(r) > 0.0)
                .map(lambda r: [x / sum(r) for x in r]), min_size=1, max_size=4)
SEEDS = st.one_of(st.integers(0, 2 ** 64 - 1),
                  st.lists(st.integers(0, 2 ** 64 - 1), min_size=2, max_size=2))


class TestAgainstTheOracle:
    @settings(max_examples=300)
    @given(rows=ROWS, shots=st.sampled_from(SHOT_COUNTS), seed=SEEDS)
    @example(rows=[[0.20653979926290988, 0.4723600995629812, 0.321100101174109, 0.0]],
             shots=4096, seed=0)
    def test_counts_are_the_oracles(self, rows, shots, seed):
        assert draw(rows, shots, seed) == multinomial_counts(rows, shots, seed)

    @settings(max_examples=200)
    @given(n=st.sampled_from((10, 20, 21, 64, 4096, 10 ** 6, 2 ** 53 - 1)),
           p=st.floats(0.0, 1.0), seed=st.integers(0, 2 ** 32 - 1))
    def test_binomials_are_the_oracles(self, n, p, seed):
        fast = random.Random(seed_key(seed)).random
        slow = MT19937(seed_words(seed)).genrand_res53
        assert [binomial(n, p, fast) for _ in range(8)] == [binomial_draw(n, p, slow)
                                                             for _ in range(8)]


class TestAcceptanceRatio:
    """BTRS accepts k when log v <= log f(k) / f(m), read in floats
    (sampler._log_ratio).  Every pair of uniforms gives log v >= -107 (v >=
    2^-53 alpha / (a 2^106 + b)), so below -120 no draw reads the ratio;
    above, it is the exact law's within 1e-13 per standard deviation."""

    @pytest.mark.parametrize("n", (20, 64, 4096, 10 ** 6, 10 ** 12, 2 ** 53))
    @pytest.mark.parametrize("p", (0.5, 0.3, 0.01))
    def test_the_ratio_is_the_exact_laws(self, n, p):
        p = max(p, 10.0 / n)
        m = floor((n + 1) * p)
        sd = sqrt(n * p * (1.0 - p))
        ks = set(range(min(n, 24) + 1)) | {n} | {
            min(n, max(0, m + int(j * sd))) for j in range(-14, 15)}
        read = 0
        for k in sorted(ks):
            exact = binomial_log_ratio(n, k, m, p)
            if exact < -120:
                continue
            assert abs(float(exact) - _log_ratio(n, k, m, p, 1.0 - p)) <= 1e-13 * max(1.0, sd)
            read += 1
        assert read >= 10


def chi_square_p(counts: list[int], pmf) -> float:
    """Pearson's p-value of counts against pmf(k), k = 0, 1, ..., the bins
    of expected count below 5 pooled into their neighbours."""
    hist = np.bincount(counts)
    probs = pmf(np.arange(len(hist)))
    probs[-1] += max(1.0 - probs.sum(), 0.0)   # the tail above the top count
    observed, expected = [], []
    run_o, run_e = 0, 0.0
    for o, p in zip(hist, probs):
        run_o += o
        run_e += p * len(counts)
        if run_e >= 5.0:
            observed.append(run_o)
            expected.append(run_e)
            run_o, run_e = 0, 0.0
    if observed:
        observed[-1] += run_o
        expected[-1] += run_e
    if len(observed) < 2:
        return 1.0
    expected = np.array(expected) * sum(observed) / sum(expected)
    return stats.chisquare(observed, expected).pvalue


class TestBinomialLaw:
    """One Binomial(n, p) count per seed [case, i], over LAW_DRAWS seeds."""

    @pytest.mark.parametrize("n,p", [
        (20, 0.5),                # n p = 10: BTRS from its first n p
        (20, 0.5 - 2 ** -40),     # just below: waiting times
        (1000, 0.01),             # n p = 10 at small p
        (1000, 0.0099),
        (7, 0.3), (1, 0.5), (4096, 0.4268), (4096, 0.073),
        (4096, 0.9),              # p > 1/2 by symmetry, n (1 - p) = 409.6
        (64, 0.95),               # symmetry into waiting times, n (1 - p) = 3.2
        (10 ** 6, 0.3), (10 ** 6, 1e-6),
        (100, 1e-12),             # tiny p: almost every count is 0
    ])
    def test_counts_follow_the_binomial_law(self, n, p):
        case = int(n * 1000 + p * 1e6)
        counts = [binomial(n, p, random.Random(seed_key([case, i])).random)
                  for i in range(LAW_DRAWS)]
        assert all(0 <= k <= n for k in counts)
        assert chi_square_p(counts, lambda k: stats.binom.pmf(k, n, p)) > FALSE_ALARM

    @pytest.mark.parametrize("p,want", [(0.0, 0), (-0.0, 0), (1.0, 5), (1.0 + 2 ** -52, 5),
                                        (float("inf"), 5)])
    def test_certain_outcomes_draw_nothing(self, p, want):
        def refuse():
            raise AssertionError("a uniform was drawn")

        assert binomial(5, p, refuse) == want
        assert binomial(0, 0.3, refuse) == 0

    def test_a_ratio_past_one_takes_the_shots_left(self):
        row = [0.20653979926290988, 0.4723600995629812, 0.321100101174109, 0.0]
        assert row[2] / (1.0 - row[0] - row[1]) > 1.0
        for seed in range(50):
            (counts,) = draw([row], 4096, seed)
            assert counts[3] == 0 and sum(counts) == 4096


class TestMultinomialLaw:
    def test_small_shot_compositions_follow_the_law(self):
        # every composition of 6 shots into 4 outcomes is a bin
        p, shots = (0.1, 0.2, 0.3, 0.4), 6
        comps = [c for c in itertools.product(range(shots + 1), repeat=4) if sum(c) == shots]
        index = {c: i for i, c in enumerate(comps)}
        draws = [index[tuple(draw([p], shots, [66, i])[0])] for i in range(LAW_DRAWS)]
        pmf = np.array([stats.multinomial.pmf(c, shots, p) for c in comps])
        order = np.argsort(-pmf)   # pool the rare compositions together
        ranks = np.empty_like(order)
        ranks[order] = np.arange(len(order))
        assert chi_square_p([int(ranks[d]) for d in draws],
                            lambda k: pmf[order][k]) > FALSE_ALARM

    @pytest.mark.parametrize("j", range(4))
    def test_each_outcome_is_binomial(self, j):
        p, shots = (0.426776695297, 0.073223304703, 0.073223304703, 0.426776695297), 4096
        counts = [draw([p], shots, [j, i])[0][j] for i in range(LAW_DRAWS)]
        assert chi_square_p(counts, lambda k: stats.binom.pmf(k, shots, p[j])) > FALSE_ALARM


class TestRange:
    @pytest.mark.parametrize("shots", SHOT_COUNTS + (2 ** 53, 2 ** 62))
    def test_counts_sum_to_shots_and_stay_in_range(self, shots):
        rows = [(0.5, 0.5, 0.0, 0.0), (0.25, 0.25, 0.25, 0.25), (1e-12, 0.3, 0.2, 0.499999999999),
                (0.426776695297, 0.073223304703, 0.073223304703, 0.426776695297),
                (0.0, 0.0, 1.0, 0.0), (5e-324, 0.0, 0.0, 1.0)]
        for seed in range(20):
            for counts in draw(rows, shots, seed):
                assert sum(counts) == shots
                assert all(type(c) is int and 0 <= c <= shots for c in counts)

    def test_large_counts_are_near_their_means(self):
        # above 2**53 the floats of BTRS quantize k, but each count stays
        # within a few standard deviations of n p
        n = 2 ** 63 - 1
        for p in (0.5, 0.3, 1e-12):
            sd = (n * p * (1 - p)) ** 0.5
            for seed in range(20):
                k = binomial(n, p, random.Random(seed).random)
                assert abs(k - n * p) < 7 * sd
