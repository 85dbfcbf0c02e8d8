from __future__ import annotations

import itertools
import math
import tracemalloc

import numpy as np
import pytest

from layoutstress import ConstantSeriesError, average_ranks, isotonic_regression, spearman
from layoutstress.stats import (
    _RANK_CHUNK,
    rank_correlation,
    rank_correlation_with_codes,
    ranks_from_order,
)

from conftest import isotonic_by_enumeration


class TestAverageRanks:
    def test_distinct(self):
        assert average_ranks([10, 20, 30]).tolist() == [1, 2, 3]

    def test_pair_tie(self):
        assert average_ranks([5, 5]).tolist() == [1.5, 1.5]

    def test_mixed_ties(self):
        assert average_ranks([1, 2, 2, 3]).tolist() == [1, 2.5, 2.5, 4]

    def test_order_independent_of_position(self):
        assert average_ranks([2, 2, 1]).tolist() == [2.5, 2.5, 1]

    def test_ranks_sum_invariant(self):
        rng = np.random.default_rng(2)
        for _ in range(50):
            n = int(rng.integers(1, 40))
            vals = rng.integers(0, 6, size=n).astype(float)
            ranks = average_ranks(vals)
            assert ranks.sum() == pytest.approx(n * (n + 1) / 2)
            # equal values share a rank
            for a, b in itertools.combinations(range(n), 2):
                if vals[a] == vals[b]:
                    assert ranks[a] == ranks[b]

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            average_ranks([1.0, np.inf])

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            average_ranks([])

    def test_exact_against_counting_oracle(self):
        # rank = 1 + #smaller + (#equal - 1) / 2, compared with ==
        rng = np.random.default_rng(4)
        for k in range(300):
            n = int(rng.integers(1, 60))
            vals = rng.integers(0, 1 + k % 7, size=n) if k % 2 else rng.random(n)
            vals = vals.astype(float)
            smaller = (vals[None, :] < vals[:, None]).sum(axis=1)
            equal = (vals[None, :] == vals[:, None]).sum(axis=1)
            expected = 1.0 + smaller + (equal - 1) / 2.0
            assert np.array_equal(average_ranks(vals), expected)
            # any order that sorts the values gives the same ranks
            stable = np.argsort(vals, kind="stable")
            assert np.array_equal(ranks_from_order(vals, stable), expected)

    @pytest.mark.parametrize(
        "size", [_RANK_CHUNK - 1, _RANK_CHUNK, _RANK_CHUNK + 1, 2 * _RANK_CHUNK + 1]
    )
    @pytest.mark.parametrize("ties", ["none", "few", "many"])
    def test_ranks_from_order_across_chunks(self, size, ties):
        # groups that straddle a chunk boundary keep one rank
        rng = np.random.default_rng(size)
        vals = rng.permutation(size).astype(float)
        if ties == "few":
            # the two largest, which straddle a chunk boundary at C + 1 and 2C + 1
            vals[vals == size - 1] = size - 2.0
        elif ties == "many":
            vals //= 7.0
        expected = average_ranks(vals)
        if ties == "none":
            assert np.array_equal(expected, vals + 1.0)
        for kind in ("quicksort", "stable"):
            order = np.argsort(vals, kind=kind)
            assert np.array_equal(ranks_from_order(vals, order), expected)

    @pytest.mark.parametrize("ties", ["none", "many"])
    def test_ranks_from_order_frees_the_gather_before_the_ranks(self, ties):
        # the sorted gather and the ranks are never alive together: beyond
        # the ranks and the byte mask, only two vectors of the group count
        # and short chunk temporaries
        size = 1_000_000
        vals = np.random.default_rng(4).permutation(size).astype(float)
        if ties == "many":
            vals //= 7.0
        order = np.argsort(vals)
        groups = 0 if ties == "none" else np.unique(vals).size
        tracemalloc.start()
        try:
            ranks_from_order(vals, order)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 9 * size + 16 * groups + (1 << 20)

    def test_matches_scipy_rankdata_on_ties(self):
        stats = pytest.importorskip("scipy.stats")
        rng = np.random.default_rng(3)
        inputs = [
            rng.integers(0, 5, size=1000),
            rng.integers(-3, 3, size=57).astype(float) / 4.0,
            np.round(rng.normal(size=5000), 1),
            np.full(9, 2.5),
        ]
        for x in inputs:
            ranks = average_ranks(x)
            assert np.array_equal(ranks, stats.rankdata(x, method="average"))


class TestRankCorrelationWithCodes:
    """Bit-equal to rank_correlation against the codes' average ranks."""

    @staticmethod
    def _expected(rx, codes):
        return rank_correlation(rx.copy(), average_ranks(codes))

    def test_matches_average_ranks(self):
        rng = np.random.default_rng(5)
        for k in range(50):
            size = 1 + k % 9
            codes = np.repeat(np.arange(size), rng.integers(1, 20, size=size))
            codes = rng.permutation(codes).astype(np.uint8)
            if k % 3:
                rx = average_ranks(rng.normal(size=codes.size))
            else:
                rx = average_ranks(rng.integers(0, 4, size=codes.size))
            if np.all(codes == codes[0]) or np.all(rx == rx[0]):
                continue
            assert rank_correlation_with_codes(rx.copy(), codes) == self._expected(rx, codes)

    def test_hop_count_sized(self):
        rng = np.random.default_rng(6)
        codes = rng.integers(0, 12, size=300_000).astype(np.uint8)
        rx = average_ranks(rng.normal(size=codes.size) + codes)
        assert rank_correlation_with_codes(rx.copy(), codes) == self._expected(rx, codes)

    @pytest.mark.parametrize("dtype", [np.uint8, np.uint16])
    def test_identical_and_mirrored_rankings_are_exact(self, dtype):
        codes = np.random.default_rng(7).integers(0, 300, size=5000).astype(dtype)
        codes = np.flatnonzero(np.bincount(codes)).searchsorted(codes).astype(dtype)
        ranks = average_ranks(codes)
        assert rank_correlation_with_codes(ranks.copy(), codes) == 1.0
        assert rank_correlation_with_codes(codes.size + 1.0 - ranks, codes) == -1.0
        assert self._expected(ranks, codes) == 1.0

    @pytest.mark.parametrize("dtype", [np.uint8, np.uint16, np.uint32])
    @pytest.mark.parametrize("size", [2, _RANK_CHUNK, 3 * _RANK_CHUNK + 5])
    def test_codes_with_empty_bins(self, dtype, size):
        # only multiples of 3 are drawn, so most codes are empty bins
        rng = np.random.default_rng(size)
        codes = (3 * rng.integers(0, 80, size=size)).astype(dtype)
        codes[:2] = (0, 3)
        rx = average_ranks(rng.normal(size=size))
        assert rank_correlation_with_codes(rx.copy(), codes) == self._expected(rx, codes)

    def test_traced_peak_is_one_pair_vector(self):
        # beyond rx and the codes: bincount's intp copy, then the products
        rng = np.random.default_rng(2)
        codes = rng.integers(0, 5000, size=2_000_000).astype(np.uint16)
        rx = average_ranks(rng.normal(size=codes.size))
        tracemalloc.start()
        try:
            rank_correlation_with_codes(rx, codes)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1.25 * 8 * codes.size

    def test_constant_series_rejected(self):
        codes = np.array([0, 1, 2, 1], dtype=np.uint8)
        with pytest.raises(ConstantSeriesError):
            rank_correlation_with_codes(np.full(4, 2.5), codes)
        with pytest.raises(ConstantSeriesError):
            rank_correlation_with_codes(np.arange(1.0, 5.0), np.zeros(4, dtype=np.uint8))


class TestSpearman:
    def test_monotone(self):
        assert spearman([1, 2, 3], [2, 4, 6]) == 1.0

    def test_reversed(self):
        assert spearman([1, 2, 3], [3, 2, 1]) == -1.0

    def test_tie_case_hand_value(self):
        # ranks [1, 2.5, 2.5, 4] vs [1, 2, 3, 4]
        assert spearman([1, 2, 2, 3], [1, 2, 3, 4]) == pytest.approx(0.9486832980505138)

    def test_symmetry_and_self(self):
        rng = np.random.default_rng(4)
        for _ in range(20):
            xs = rng.normal(size=12)
            ys = rng.normal(size=12)
            assert spearman(xs, ys) == pytest.approx(spearman(ys, xs), abs=1e-15)
            assert spearman(xs, xs) == 1.0

    def test_invariant_under_increasing_transform(self):
        rng = np.random.default_rng(5)
        xs = rng.normal(size=15)
        ys = rng.normal(size=15)
        base = spearman(xs, ys)
        assert spearman(np.exp(xs), ys) == pytest.approx(base, abs=1e-12)
        assert spearman(xs, 3 * ys + 7) == pytest.approx(base, abs=1e-12)

    def test_constant_series_rejected(self):
        with pytest.raises(ConstantSeriesError):
            spearman([1, 1, 1], [1, 2, 3])
        with pytest.raises(ConstantSeriesError):
            spearman([1, 2, 3], [5, 5, 5])

    def test_length_checks(self):
        with pytest.raises(ValueError):
            spearman([1, 2], [1, 2, 3])
        with pytest.raises(ValueError):
            spearman([1], [2])

    @pytest.mark.parametrize(
        "kind, n",
        [("distinct", 500), ("tie-heavy", 500), ("distinct", 2_000_000)],
        ids=["distinct", "tie-heavy", "distinct-2e6"],
    )
    def test_identical_and_mirrored_rankings_are_exact(self, kind, n):
        # no short-circuit: the Pearson arithmetic itself must give exactly
        # 1 and -1 on average ranks
        rng = np.random.default_rng(n)
        xs = rng.normal(size=n) if kind == "distinct" else rng.integers(0, 7, size=n) / 3.0
        ranks = average_ranks(xs)
        assert rank_correlation(ranks, ranks.copy()) == 1.0
        assert rank_correlation(ranks, n + 1.0 - ranks) == -1.0
        assert spearman(xs, xs) == 1.0
        assert spearman(xs, -xs) == -1.0

    def test_inputs_left_unchanged(self):
        rng = np.random.default_rng(7)
        xs = rng.normal(size=300)
        ys = rng.integers(0, 5, size=300).astype(float)
        xs0, ys0 = xs.copy(), ys.copy()
        average_ranks(xs)
        spearman(xs, ys)
        assert np.array_equal(xs, xs0) and np.array_equal(ys, ys0)

    def test_bounded(self):
        rng = np.random.default_rng(6)
        for _ in range(50):
            xs = rng.integers(0, 4, size=10).astype(float)
            ys = rng.integers(0, 4, size=10).astype(float)
            if len(set(xs)) == 1 or len(set(ys)) == 1:
                continue
            assert -1.0 <= spearman(xs, ys) <= 1.0


def pava_reference(ys) -> np.ndarray:
    """Isotonic fit by textbook pool-adjacent-violators: merge the first pair
    of neighbouring blocks whose means decrease, step back one block, and
    go on. O(n^2); each block mean divides the correctly rounded sum
    (math.fsum) by the block's length."""
    blocks = [[y] for y in map(float, ys)]

    def mean(block):
        return math.fsum(block) / len(block)

    i = 0
    while i + 1 < len(blocks):
        if mean(blocks[i + 1]) < mean(blocks[i]):
            blocks[i : i + 2] = [blocks[i] + blocks[i + 1]]
            i = max(i - 1, 0)
        else:
            i += 1
    return np.concatenate([np.full(len(block), mean(block)) for block in blocks])


def _long_pools(seed: int) -> np.ndarray:
    """Ascending runs of 20 to 300 values, each starting below where the
    one before it ends, so a block pools long stretches of one run: leftward
    over the tail above a drop, rightward over the values after it."""
    rng = np.random.default_rng(seed)
    parts = []
    offset = 0.0
    for _ in range(int(rng.integers(2, 6))):
        parts.append(offset + np.sort(rng.uniform(0.0, 1.0, size=int(rng.integers(20, 301)))))
        offset += rng.uniform(-1.5, 0.5)
    return np.concatenate(parts)


class TestIsotonicRegression:
    def test_already_monotone(self):
        assert isotonic_regression([1, 2, 3]).tolist() == [1, 2, 3]

    def test_full_pool(self):
        assert isotonic_regression([3, 1, 2]).tolist() == [2, 2, 2]

    def test_middle_violation(self):
        assert isotonic_regression([1, 3, 2, 4]).tolist() == [1, 2.5, 2.5, 4]

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            isotonic_regression([])

    def test_non_finite_input_rejected(self):
        with pytest.raises(ValueError):
            isotonic_regression([3.0, np.nan, 1.0])

    def test_fit_is_monotone_and_blockwise_mean(self):
        rng = np.random.default_rng(8)
        for _ in range(60):
            n = int(rng.integers(1, 30))
            ys = rng.normal(size=n)
            fit = isotonic_regression(ys)
            assert np.all(np.diff(fit) >= 0)
            # each constant block averages its inputs
            start = 0
            for k in range(1, n + 1):
                if k == n or fit[k] != fit[start]:
                    block_mean = np.mean(ys[start:k])
                    assert fit[start] == pytest.approx(block_mean, rel=1e-12)
                    start = k

    def test_matches_enumeration_oracle_small(self):
        rng = np.random.default_rng(9)
        for _ in range(40):
            n = int(rng.integers(1, 7))
            ys = rng.integers(0, 3, size=n).astype(float)
            expected = isotonic_by_enumeration(ys)
            assert isotonic_regression(ys) == pytest.approx(expected, abs=1e-10)

    def test_residual_optimality_under_perturbation(self):
        rng = np.random.default_rng(10)
        for _ in range(30):
            n = int(rng.integers(2, 20))
            ys = rng.normal(size=n)
            fit = isotonic_regression(ys)
            best = float(np.sum((ys - fit) ** 2))
            # nudge each block up/down where monotonicity allows
            blocks = []
            start = 0
            for k in range(1, n + 1):
                if k == n or fit[k] != fit[start]:
                    blocks.append((start, k))
                    start = k
            for idx, (a, b) in enumerate(blocks):
                for eps in (1e-3, -1e-3):
                    cand = fit.copy()
                    cand[a:b] += eps
                    if np.all(np.diff(cand) >= 0):
                        obj = float(np.sum((ys - cand) ** 2))
                        assert obj >= best - 1e-12

    @pytest.mark.parametrize(
        "ys, expected",
        [
            ([-1e17, 5.0, 6.0, 7.0, 3.0, 4.0, 10.0], [-1e17] + [5.0] * 5 + [10.0]),
            (
                [-1e17, 5.0, 6.0, 6.0, 7.0, 3.0, 3.0, 3.0, 4.0, 10.0],
                [-1e17] + [37.0 / 8.0] * 8 + [10.0],
            ),
        ],
        ids=["distinct", "repeated"],
    )
    def test_huge_earlier_value_does_not_steer_pooling(self, ys, expected):
        # doubles near 1e17 are 16 apart, so sums that start at the first
        # value cannot tell 5, 6, 7, 3 and 4 apart
        np.testing.assert_array_equal(isotonic_regression(ys), expected)

    @pytest.mark.parametrize("repeated", [False, True])
    def test_huge_first_value_leaves_long_runs_alone(self, repeated):
        rng = np.random.default_rng(12)
        rest = np.concatenate(
            (np.linspace(5.0, 7.0, 300), np.sort(rng.uniform(3.0, 8.0, 300)), [4.0, 10.0])
        )
        if repeated:
            rest = np.repeat(rest, rng.integers(1, 4, size=rest.size))
        fit = isotonic_regression(np.concatenate(([-1e17], rest)))
        assert fit[0] == -1e17
        np.testing.assert_allclose(fit[1:], isotonic_regression(rest), rtol=1e-12, atol=0.0)

    def test_fit_is_exactly_monotone_on_ties(self):
        rng = np.random.default_rng(4)
        for _ in range(2000):
            n = int(rng.integers(2, 100))
            ys = np.round(rng.normal(size=n) * 3.0) / 7.0
            assert np.all(np.diff(isotonic_regression(ys)) >= 0.0)

    @pytest.mark.parametrize("runs", [1, 2, 12, 200])
    @pytest.mark.parametrize("repeated", [False, True])
    def test_matches_scipy_on_long_runs(self, runs, repeated):
        optimize = pytest.importorskip("scipy.optimize")
        rng = np.random.default_rng(1000 * runs + repeated)
        n = int(rng.integers(10_000, 100_001))
        # runs of even length >= 2, each spanning [offset, offset + 1] and
        # starting below where the one before it ends
        cuts = 2 * np.sort(rng.choice(np.arange(1, n // 2), size=runs - 1, replace=False))
        parts = []
        offset = 0.0
        for m in np.diff(np.concatenate(([0], cuts, [n]))):
            part = offset + np.sort(rng.uniform(0.0, 1.0, size=m))
            part[0], part[-1] = offset, offset + 1.0
            parts.append(part)
            offset += rng.uniform(-1.5, 0.9)
        ys = np.concatenate(parts)
        if repeated:
            ys = np.repeat(ys, rng.integers(1, 4, size=n))
        assert np.count_nonzero(ys[1:] < ys[:-1]) == runs - 1
        want = optimize.isotonic_regression(ys).x
        np.testing.assert_allclose(isotonic_regression(ys), want, rtol=0.0, atol=1e-9)

    @pytest.mark.parametrize(
        "ys",
        [
            # one drop after a long run: a leftward pool of 299 values
            np.concatenate((np.linspace(5.0, 6.0, 300), [0.0])),
            # one high value before a long run: a rightward pool of about 200
            np.concatenate(([10.0], np.linspace(0.0, 9.0, 400))),
            # a long plateau tail above a drop, then a long run below it
            np.concatenate((np.full(40, 10.0), np.linspace(0.0, 9.0, 100))),
            *(_long_pools(seed) for seed in range(6)),
        ],
        ids=["leftward", "rightward", "both", *(f"runs-{seed}" for seed in range(6))],
    )
    def test_long_pools_match_pava_reference(self, ys):
        # pools of more than _SCALAR_POOL_STEPS values go through the
        # numpy windows of _pool_run, in both directions
        np.testing.assert_allclose(isotonic_regression(ys), pava_reference(ys), rtol=0.0, atol=1e-12)

    def test_pava_reference_matches_enumeration(self):
        rng = np.random.default_rng(14)
        for _ in range(40):
            ys = rng.integers(0, 4, size=int(rng.integers(1, 8))).astype(float)
            np.testing.assert_allclose(pava_reference(ys), isotonic_by_enumeration(ys), atol=1e-12)

    @pytest.mark.parametrize(
        "ys",
        [
            np.arange(20_000, 0, -1.0),
            np.full(20_000, 1.5),
            np.concatenate((np.linspace(0.0, 1.0, 20_000), [-1000.0])),
        ],
        ids=["strictly-decreasing", "constant", "drop-at-end"],
    )
    def test_matches_scipy_edge_cases(self, ys):
        optimize = pytest.importorskip("scipy.optimize")
        got = isotonic_regression(ys)
        np.testing.assert_allclose(got, optimize.isotonic_regression(ys).x, rtol=0.0, atol=1e-9)
