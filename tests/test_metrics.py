from __future__ import annotations

import dataclasses
import itertools
import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import layoutstress
from layoutstress import (
    ConstantSeriesError,
    DegenerateLayoutError,
    DistanceMatrix,
    KKParams,
    Layout,
    METRIC_IDS,
    SizeGuardError,
    apsp,
    circle_layout,
    compute_metric,
    distance_ratio_stress,
    isotonic_regression,
    kk_stress,
    metric_alpha_min,
    nonmetric_stress,
    normalized_stress,
    ns_quadratic,
    pairwise_distances,
    random_layout,
    raw_stress,
    raw_stress_quadratic,
    scale_layout,
    scale_normalized_stress,
    shepard_constant_stress,
    shepard_goodness,
    spearman,
    stress_curve,
)
from layoutstress.experiment import bench_graph
from layoutstress.metrics import DRS_MAX_VERTICES, METRICS, _nonmetric_from_pairs
from layoutstress.metrics import _pair_vectors, _tied_groups, score_layout

from conftest import (
    as_layout_distances,
    complete_graph,
    drs_quadruple_loop,
    grid_graph,
    path_graph,
    random_instance,
)

ALPHAS = (1e-2, 0.5, 2.0, 1e3)
#: a log grid that keeps the half and the double
LOG_ALPHAS = (1e-2, 0.1, 0.5, 1.0, 2.0, 10.0, 1e2, 1e3)


def _rel_close(a, b, tol):
    return abs(a - b) <= tol * (1.0 + abs(a))


@pytest.mark.parametrize("n", [2, 3, 64, 300])
def test_pair_vectors_match_triu_indices(n):
    rng = np.random.default_rng(n)
    e = pairwise_distances(random_layout(n, n))
    # distinct distances, so a pair out of order cannot go unseen
    upper = np.triu(rng.uniform(1.0, 5.0, size=(n, n)), 1)
    d = DistanceMatrix.from_square(upper + upper.T)
    iu = np.triu_indices(n, 1)
    ev, dv = _pair_vectors(e, d)
    assert np.array_equal(ev, e.e[iu]) and np.array_equal(dv, d.d[iu])


class TestRawStress:
    def test_perfect_layout_zero(self, p3):
        assert raw_stress(p3["e_perfect"], p3["d"]) == 0.0

    def test_doubled_hand_value(self, p3):
        assert raw_stress(p3["e_doubled"], p3["d"]) == pytest.approx(6.0)

    def test_layout_vs_itself(self):
        rng = np.random.default_rng(0)
        _, d, _ = random_instance(rng)
        e = as_layout_distances(d.d)
        assert raw_stress(e, d) == 0.0

    def test_dimension_mismatch(self, p3, p2):
        with pytest.raises(ValueError, match="vertices"):
            raw_stress(p2["e1"], p3["d"])


class TestQuadraticForms:
    def test_rs_hand_coefficients(self, p3):
        q = raw_stress_quadratic(p3["e_perfect"], p3["d"])
        assert (q.a, q.b, q.c) == (6.0, -12.0, 6.0)
        assert q.evaluate(1.0) == 0.0

    def test_rs_evaluate_at_zero_is_sum_d_squared(self):
        rng = np.random.default_rng(1)
        for _ in range(10):
            _, d, layout = random_instance(rng)
            q = raw_stress_quadratic(pairwise_distances(layout), d)
            iu = np.triu_indices(d.n, 1)
            assert q.evaluate(0.0) == pytest.approx(float(np.sum(d.d[iu] ** 2)), rel=1e-12)

    def test_ns_hand_coefficients(self, p3):
        q = ns_quadratic(p3["e_perfect"], p3["d"])
        assert (q.a, q.b, q.c) == (3.0, -6.0, 3.0)

    def test_ns_evaluate_at_zero_is_pair_count(self):
        rng = np.random.default_rng(2)
        for _ in range(10):
            _, d, layout = random_instance(rng)
            q = ns_quadratic(pairwise_distances(layout), d)
            assert q.evaluate(0.0) == d.n * (d.n - 1) / 2

    @pytest.mark.parametrize("alphas,quad_of", [((0.3, 1.0, 7.0), "rs"), ((0.2, 1.0, 5.0), "ns")])
    def test_quadratic_matches_direct_reevaluation(self, alphas, quad_of):
        rng = np.random.default_rng(3)
        for _ in range(15):
            _, d, layout = random_instance(rng)
            e = pairwise_distances(layout)
            q = raw_stress_quadratic(e, d) if quad_of == "rs" else ns_quadratic(e, d)
            metric = raw_stress if quad_of == "rs" else normalized_stress
            for alpha in alphas:
                direct = metric(pairwise_distances(scale_layout(layout, alpha)), d)
                assert _rel_close(direct, q.evaluate(alpha), 1e-12)

    def test_quadratic_consistency_over_instances(self):
        rng = np.random.default_rng(4)
        for _ in range(100):
            _, d, layout = random_instance(rng, n_min=4, n_max=16)
            e = pairwise_distances(layout)
            qr = raw_stress_quadratic(e, d)
            qn = ns_quadratic(e, d)
            for alpha in (0.1, 1.0, 10.0):
                se = pairwise_distances(scale_layout(layout, alpha))
                assert _rel_close(raw_stress(se, d), qr.evaluate(alpha), 1e-9)
                assert _rel_close(normalized_stress(se, d), qn.evaluate(alpha), 1e-9)

    @pytest.mark.parametrize("quad_fn", [raw_stress_quadratic, ns_quadratic])
    def test_crossing_symmetric_bitwise(self, quad_fn):
        rng = np.random.default_rng(13)
        crossed = 0
        for _ in range(50):
            _, d, lay1 = random_instance(rng)
            lay2 = Layout(rng.random((d.n, 2)) * rng.uniform(0.5, 20.0))
            q1, q2 = quad_fn(pairwise_distances(lay1), d), quad_fn(pairwise_distances(lay2), d)
            alpha = q1.crossing(q2)
            assert alpha == q2.crossing(q1)
            crossed += alpha is not None
        assert crossed >= 10

    @pytest.mark.parametrize("quad_fn", [raw_stress_quadratic, ns_quadratic])
    def test_crossing_identical_none_collapsed_raises(self, p3, quad_fn):
        q = quad_fn(p3["e_doubled"], p3["d"])
        assert q.crossing(quad_fn(p3["e_doubled"], p3["d"])) is None
        collapsed = quad_fn(as_layout_distances(np.zeros((3, 3))), p3["d"])
        for first, second in ((q, collapsed), (collapsed, q)):
            with pytest.raises(DegenerateLayoutError):
                first.crossing(second)
        with pytest.raises(DegenerateLayoutError):
            collapsed.minimum

    def test_minimum_is_sns_and_reevaluated_rs(self):
        rng = np.random.default_rng(14)
        for _ in range(30):
            _, d, layout = random_instance(rng)
            e = pairwise_distances(layout)
            assert ns_quadratic(e, d).minimum == scale_normalized_stress(e, d)
            q = raw_stress_quadratic(e, d)
            direct = raw_stress(pairwise_distances(scale_layout(layout, q.alpha_min)), d)
            assert abs(q.minimum - direct) <= 1e-9 * abs(direct)


class TestAlphaMin:
    def test_perfect_layout_alpha_one(self, p3):
        assert raw_stress_quadratic(p3["e_perfect"], p3["d"]).alpha_min == pytest.approx(1.0)
        assert ns_quadratic(p3["e_perfect"], p3["d"]).alpha_min == pytest.approx(1.0)

    def test_doubled_hand_values(self, p3):
        # 12 / 24 and 6 / 12
        assert raw_stress_quadratic(p3["e_doubled"], p3["d"]).alpha_min == pytest.approx(0.5)
        assert ns_quadratic(p3["e_doubled"], p3["d"]).alpha_min == pytest.approx(0.5)

    def test_beats_grid_search(self):
        rng = np.random.default_rng(6)
        for _ in range(10):
            _, d, layout = random_instance(rng)
            e = pairwise_distances(layout)
            for quad_fn in (raw_stress_quadratic, ns_quadratic):
                q = quad_fn(e, d)
                alpha = q.alpha_min
                grid = np.linspace(alpha * 2 / 10_000, 2 * alpha, 10_000)
                values = q.a * grid**2 + q.b * grid + q.c
                step = grid[1] - grid[0]
                assert abs(grid[np.argmin(values)] - alpha) <= step + 1e-15

    def test_optimality_on_dense_grid(self):
        rng = np.random.default_rng(7)
        _, d, layout = random_instance(rng)
        e = pairwise_distances(layout)
        for metric, alpha in (
            (raw_stress, raw_stress_quadratic(e, d).alpha_min),
            (normalized_stress, ns_quadratic(e, d).alpha_min),
        ):
            best = metric(pairwise_distances(scale_layout(layout, alpha)), d)
            for a in np.linspace(alpha / 500, 3 * alpha, 1000):
                value = metric(pairwise_distances(scale_layout(layout, float(a))), d)
                assert best <= value + 1e-9 * (1 + value)

    def test_degenerate_layout_rejected(self):
        d = apsp(path_graph(3))
        collapsed = as_layout_distances(np.zeros((3, 3)))
        with pytest.raises(DegenerateLayoutError):
            raw_stress_quadratic(collapsed, d).alpha_min
        with pytest.raises(DegenerateLayoutError):
            ns_quadratic(collapsed, d).alpha_min

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_closed_forms_bit_equal_to_direct_sums(self, seed):
        n = 40
        d = apsp(bench_graph(n, np.random.default_rng(seed)))
        e = pairwise_distances(random_layout(n, seed))
        ev, dv = _pair_vectors(e, d)
        ratio = ev / dv
        num, den = float(np.sum(ratio)), float(np.sum(ratio * ratio))
        rs_alpha = float(np.sum(ev * dv)) / float(np.sum(ev * ev))
        assert raw_stress_quadratic(e, d).alpha_min == rs_alpha
        assert ns_quadratic(e, d).alpha_min == num / den
        assert scale_normalized_stress(e, d) == max(n * (n - 1) / 2.0 - num * num / den, 0.0)


def _crossing(quad_fn, e1, e2, d):
    return quad_fn(e1, d).crossing(quad_fn(e2, d))


class TestAlphaIntersection:
    def test_identical_layouts_none(self, p2):
        assert _crossing(raw_stress_quadratic, p2["e1"], p2["e1"], p2["d"]) is None
        assert _crossing(ns_quadratic, p2["e1"], p2["e1"], p2["d"]) is None

    def test_p2_hand_value(self, p2):
        assert _crossing(raw_stress_quadratic, p2["e1"], p2["e2"], p2["d"]) == pytest.approx(0.5)
        assert _crossing(ns_quadratic, p2["e1"], p2["e2"], p2["d"]) == pytest.approx(0.5)

    def test_crossing_equalizes_stress(self):
        rng = np.random.default_rng(8)
        found = 0
        while found < 60:
            n = int(rng.integers(4, 18))
            g_d = random_instance(rng, n_min=n, n_max=n)
            _, d, lay1 = g_d
            lay2 = Layout(rng.random((n, 2)) * rng.uniform(0.5, 10.0))
            e1, e2 = pairwise_distances(lay1), pairwise_distances(lay2)
            for quad_fn, metric in (
                (raw_stress_quadratic, raw_stress),
                (ns_quadratic, normalized_stress),
            ):
                alpha = _crossing(quad_fn, e1, e2, d)
                if alpha is None:
                    continue
                v1 = metric(pairwise_distances(scale_layout(lay1, alpha)), d)
                v2 = metric(pairwise_distances(scale_layout(lay2, alpha)), d)
                assert abs(v1 - v2) <= 1e-9 * (1 + v1)
                found += 1

    def test_non_positive_root_gives_none(self):
        # engineered: second drawing proportional to d, first not, with the
        # proportionality constant chosen between the two critical values so
        # the curves cross only at negative alpha
        rng = np.random.default_rng(9)
        _, d, layout = random_instance(rng, n_min=8, n_max=8)
        e1 = pairwise_distances(layout)
        iu = np.triu_indices(8, 1)
        ev1, dv = e1.e[iu], d.d[iu]
        c_low = float(np.sum(dv * ev1) / np.sum(dv * dv))
        c_high = float(np.sqrt(np.sum(ev1 * ev1) / np.sum(dv * dv)))
        assert c_low < c_high  # strict unless e1 proportional to d
        c = 0.5 * (c_low + c_high)
        e2 = as_layout_distances(c * d.d)
        assert _crossing(raw_stress_quadratic, e1, e2, d) is None

    def test_degenerate_rejected(self, p2):
        collapsed = as_layout_distances(np.zeros((2, 2)))
        with pytest.raises(DegenerateLayoutError):
            _crossing(raw_stress_quadratic, collapsed, p2["e1"], p2["d"])
        with pytest.raises(DegenerateLayoutError):
            _crossing(ns_quadratic, p2["e1"], collapsed, p2["d"])

    def test_curves_of_different_graphs_refused(self):
        # P3 drawn at unit spacing and K3 drawn at spacing 3: the formula that
        # ignores c would give 0.25, where the curves read 3.375 and 0.375
        q1 = raw_stress_quadratic(
            pairwise_distances(Layout(np.array([[0.0, 0.0], [1.0, 0.0], [2.0, 0.0]]))),
            apsp(path_graph(3)),
        )
        q2 = raw_stress_quadratic(
            pairwise_distances(Layout(np.array([[0.0, 0.0], [3.0, 0.0], [6.0, 0.0]]))),
            apsp(complete_graph(3)),
        )
        assert (q1.a, q1.b, q1.c) == (6.0, -12.0, 6.0)
        assert (q2.a, q2.b, q2.c) == (54.0, -24.0, 3.0)
        for first, second in ((q1, q2), (q2, q1)):
            with pytest.raises(ValueError, match="not of drawings of one graph under one metric"):
                first.crossing(second)


class TestKKStress:
    def test_proportional_layout_zero(self, p3):
        # doubled layout: span 4, L = 2, every term vanishes
        assert kk_stress(p3["e_doubled"], p3["d"]) == pytest.approx(0.0)

    def test_stretched_hand_value(self, p3):
        # spans: layout 3, graph 2 -> L = 1.5
        assert kk_stress(p3["e_stretched"], p3["d"]) == pytest.approx(0.5)

    def test_quadratic_scaling_with_rederived_span(self, p3):
        base = kk_stress(p3["e_stretched"], p3["d"])
        for alpha in (0.5, 2.0):
            scaled = pairwise_distances(scale_layout(p3["stretched"], alpha))
            assert kk_stress(scaled, p3["d"]) == pytest.approx(alpha**2 * base, rel=1e-9)

    def test_frozen_span_changes_value(self, p3):
        default = kk_stress(p3["e_stretched"], p3["d"])
        frozen = kk_stress(p3["e_stretched"], p3["d"], KKParams(l0=6.0))
        assert frozen != pytest.approx(default)

    def test_bad_params(self):
        with pytest.raises(ValueError):
            KKParams(l0=0.0)
        with pytest.raises(ValueError):
            KKParams(l0=math.inf)

    @pytest.mark.parametrize("metric", [kk_stress, shepard_constant_stress], ids=["kks", "scs"])
    def test_coincident_points_refused(self, metric):
        e = pairwise_distances(Layout(np.zeros((3, 2))))
        with pytest.raises(DegenerateLayoutError) as info:
            metric(e, apsp(path_graph(3)))
        assert str(info.value) == "all points coincide; drawing span is zero"


class TestNormalizedStress:
    def test_perfect_zero(self, p3):
        assert normalized_stress(p3["e_perfect"], p3["d"]) == 0.0

    def test_doubled_hand_value(self, p3):
        assert normalized_stress(p3["e_doubled"], p3["d"]) == pytest.approx(3.0)

    def test_unit_square_beats_blown_up_layout(self):
        # the scale inversion: a random unit-square drawing scores better
        # than a stress-optimized drawing at span 800
        from layoutstress import optimize_layout, scale_to_max_distance
        from layoutstress.experiment import corpus_graph

        rng = np.random.default_rng(10)
        wins = 0
        for k in range(10):
            g = corpus_graph(int(rng.integers(20, 50)), 0.083, rng)
            d = apsp(g)
            optimized = scale_to_max_distance(
                optimize_layout(d, seed=k, iterations=60), 800.0
            )
            rand = random_layout(g.vertex_count, k)
            wins += normalized_stress(pairwise_distances(rand), d) < normalized_stress(
                pairwise_distances(optimized), d
            )
        assert wins >= 9


class TestScaleNormalizedStress:
    def test_doubled_restores_perfection(self, p3):
        assert ns_quadratic(p3["e_doubled"], p3["d"]).alpha_min == pytest.approx(0.5)
        assert scale_normalized_stress(p3["e_doubled"], p3["d"]) == 0.0

    def test_definitional_invariance(self):
        rng = np.random.default_rng(11)
        _, d, layout = random_instance(rng)
        base = scale_normalized_stress(pairwise_distances(layout), d)
        for alpha in (0.01, 3.0, 1000.0):
            scaled = pairwise_distances(scale_layout(layout, alpha))
            value = scale_normalized_stress(scaled, d)
            assert _rel_close(value, base, 1e-9)

    def test_bounded_by_ns_and_scs(self):
        rng = np.random.default_rng(12)
        for _ in range(30):
            _, d, layout = random_instance(rng)
            e = pairwise_distances(layout)
            sns = scale_normalized_stress(e, d)
            assert 0.0 <= sns <= normalized_stress(e, d) + 1e-12
            assert sns <= shepard_constant_stress(e, d) + 1e-12

    def test_degenerate_rejected(self):
        d = apsp(path_graph(3))
        with pytest.raises(DegenerateLayoutError):
            scale_normalized_stress(as_layout_distances(np.zeros((3, 3))), d)


class TestShepardGoodness:
    def test_perfect_is_one(self, p3):
        assert shepard_goodness(p3["e_perfect"], p3["d"]) == 1.0

    def test_collinear_path_is_exactly_one(self):
        # 199 tie groups among 19,900 pairs, ranked identically on both sides
        n = 200
        layout = Layout(np.column_stack((2.5 * np.arange(n), np.zeros(n))))
        assert shepard_goodness(pairwise_distances(layout), apsp(path_graph(n))) == 1.0

    def test_exact_rank_invariance_under_scaling(self):
        rng = np.random.default_rng(13)
        _, d, layout = random_instance(rng)
        base = shepard_goodness(pairwise_distances(layout), d)
        for alpha in ALPHAS:
            scaled = pairwise_distances(scale_layout(layout, alpha))
            assert shepard_goodness(scaled, d) == base

    def test_constant_graph_distances_rejected(self):
        g = complete_graph(4)
        d = apsp(g)
        e = pairwise_distances(random_layout(4, 0))
        with pytest.raises(ConstantSeriesError):
            shepard_goodness(e, d)

    def test_constant_drawing_distances_rejected(self):
        # an equilateral triangle: every drawing distance is 1
        e = as_layout_distances(np.ones((3, 3)) - np.eye(3))
        with pytest.raises(ConstantSeriesError):
            shepard_goodness(e, apsp(path_graph(3)))

    def test_needs_three_vertices(self, p2):
        with pytest.raises(ValueError):
            shepard_goodness(p2["e1"], p2["d"])


class TestShepardConstantStress:
    def test_doubled_hand_value(self, p3):
        # beta = 2/4 = 0.5 restores the perfect drawing
        assert shepard_constant_stress(p3["e_doubled"], p3["d"]) == pytest.approx(0.0)

    def test_invariance(self):
        rng = np.random.default_rng(14)
        _, d, layout = random_instance(rng)
        base = shepard_constant_stress(pairwise_distances(layout), d)
        for alpha in (0.01, 1000.0):
            scaled = pairwise_distances(scale_layout(layout, alpha))
            assert _rel_close(shepard_constant_stress(scaled, d), base, 1e-9)

    def test_degenerate_rejected(self):
        d = apsp(path_graph(3))
        with pytest.raises(DegenerateLayoutError):
            shepard_constant_stress(as_layout_distances(np.zeros((3, 3))), d)


class TestDistanceRatioStress:
    def test_perfect_zero(self, p3):
        assert distance_ratio_stress(p3["e_perfect"], p3["d"]) == 0.0

    def test_scale_invariant_exactly_by_ratios(self, p3):
        assert distance_ratio_stress(p3["e_doubled"], p3["d"]) == pytest.approx(0.0, abs=1e-12)

    def test_stretched_matches_quadruple_loop(self, p3):
        expected = drs_quadruple_loop(p3["e_stretched"].e, p3["d"].d)
        value = distance_ratio_stress(p3["e_stretched"], p3["d"])
        assert _rel_close(value, expected, 1e-12)

    def test_oracle_equivalence_random(self):
        rng = np.random.default_rng(15)
        for _ in range(10):
            _, d, layout = random_instance(rng, n_min=4, n_max=10)
            e = pairwise_distances(layout)
            assert _rel_close(
                distance_ratio_stress(e, d), drs_quadruple_loop(e.e, d.d), 1e-12
            )

    def test_size_guard(self):
        rng = np.random.default_rng(16)
        n = 70
        d = apsp(path_graph(n))
        e = pairwise_distances(Layout(rng.random((n, 2))))
        with pytest.raises(SizeGuardError):
            distance_ratio_stress(e, d)
        assert distance_ratio_stress(e, d, force=True) > 0.0

    def test_coincident_points_rejected(self):
        d = apsp(path_graph(3))
        e = pairwise_distances(Layout(np.array([[0.0, 0.0], [0.0, 0.0], [1.0, 0.0]])))
        with pytest.raises(DegenerateLayoutError):
            distance_ratio_stress(e, d)


class TestNonmetricStress:
    def test_perfect_zero(self, p3):
        assert nonmetric_stress(p3["e_perfect"], p3["d"]) == 0.0

    def test_invariance(self):
        rng = np.random.default_rng(17)
        _, d, layout = random_instance(rng)
        base = nonmetric_stress(pairwise_distances(layout), d)
        for alpha in (0.01, 1000.0):
            scaled = pairwise_distances(scale_layout(layout, alpha))
            assert _rel_close(nonmetric_stress(scaled, d), base, 1e-9)

    def test_two_pair_hand_fixture(self):
        # anti-monotone pair values pool to their mean: fit (1.5, 1.5),
        # stress sqrt(0.5 / 5)
        ev, codes = np.array([2.0, 1.0]), np.array([0, 1], dtype=np.uint8)
        value = _nonmetric_from_pairs(ev, codes)
        assert value == pytest.approx(math.sqrt(0.5 / 5))

    def test_tie_order_matches_pair_index_order(self):
        # circle drawings tie many drawing distances within each graph
        # distance; pairs tied on both are interchangeable, so ordering by
        # (d, e) alone matches the (d, e, i, j) order
        n = 300
        d = apsp(bench_graph(n, np.random.default_rng(0)))
        e = pairwise_distances(circle_layout(n))
        i, j = np.triu_indices(n, 1)
        ev, dv = e.e[i, j], d.d[i, j]
        y = ev[np.lexsort((j, i, ev, dv))]
        resid = y - isotonic_regression(y)
        expected = math.sqrt(np.sum(resid * resid) / np.sum(ev * ev))
        assert abs(nonmetric_stress(e, d) - expected) <= 1e-12 * expected

    def test_bounded_unit_interval(self):
        rng = np.random.default_rng(18)
        for _ in range(30):
            _, d, layout = random_instance(rng)
            assert 0.0 <= nonmetric_stress(pairwise_distances(layout), d) <= 1.0

    def test_degenerate_rejected(self):
        d = apsp(path_graph(3))
        with pytest.raises(DegenerateLayoutError):
            nonmetric_stress(as_layout_distances(np.zeros((3, 3))), d)


def _nms_by_float_sort(ev, dv):
    """nms ordered by argsort(ev), then a stable argsort of the float d."""
    order = np.argsort(ev)
    order = order[np.argsort(dv[order], kind="stable")]
    y = ev[order]
    resid = y - isotonic_regression(y)
    return float(np.sqrt(np.sum(resid * resid) / np.sum(ev * ev)))


class TestSharedRankTables:
    """sgs and nms from the cached pair_codes are bit-equal to spearman and
    to an nms that sorts the float distances."""

    @staticmethod
    def _check(e, d):
        assert shepard_goodness(e, d) == spearman(e.pairs, d.pairs)
        assert nonmetric_stress(e, d) == _nms_by_float_sort(e.pairs, d.pairs)

    @pytest.mark.parametrize("drawing", ["random", "circle"])
    def test_hop_distances(self, drawing):
        n = 300
        d = apsp(bench_graph(n, np.random.default_rng(0)))
        layout = random_layout(n, 1) if drawing == "random" else circle_layout(n)
        assert d.pair_codes.dtype == np.uint8
        self._check(pairwise_distances(layout), d)

    @pytest.mark.parametrize("n, dtype", [(40, np.uint16), (400, np.uint32)])
    def test_real_distances(self, n, dtype):
        # every distance between random points is distinct: 780 and 79,800
        d = DistanceMatrix.from_square(pairwise_distances(random_layout(n, 2)).e)
        assert d.pair_codes.dtype == dtype
        assert int(d.pair_codes.max()) + 1 == n * (n - 1) // 2
        for layout in (random_layout(n, 3), circle_layout(n)):
            self._check(pairwise_distances(layout), d)

    def test_inputs_left_unchanged(self):
        n = 200
        d = apsp(bench_graph(n, np.random.default_rng(1)))
        e = pairwise_distances(random_layout(n, 4))
        arrays = (e.e, e.pairs, d.pairs, d.pair_codes)
        before = [a.copy() for a in arrays]
        first = (shepard_goodness(e, d), nonmetric_stress(e, d))
        assert all(np.array_equal(a, b) for a, b in zip(arrays, before))
        assert (shepard_goodness(e, d), nonmetric_stress(e, d)) == first

    def test_tied_groups_are_the_code_groups(self):
        # path P5: four pairs at distance 1, three at 2, two at 3, one at 4
        d = apsp(path_graph(5))
        assert _tied_groups(d.pair_codes) == [(0, 4), (4, 7), (7, 9)]

    @pytest.mark.parametrize("dtype", [np.uint8, np.uint16, np.uint32])
    def test_tied_groups_skip_empty_codes(self, dtype):
        # only multiples of 3 are drawn, so most codes are empty bins; the
        # last code is drawn once and makes no group
        codes = (3 * np.random.default_rng(8).integers(0, 80, size=500)).astype(dtype)
        codes[-1] = 243
        expected, start = [], 0
        for _, run in itertools.groupby(sorted(codes.tolist())):
            stop = start + len(list(run))
            if stop - start > 1:
                expected.append((start, stop))
            start = stop
        assert expected[-1][1] == codes.size - 1
        assert _tied_groups(codes) == expected

    def test_all_distinct_distances_sort_no_group(self):
        d = DistanceMatrix.from_square(pairwise_distances(random_layout(200, 2)).e)
        assert _tied_groups(d.pair_codes) == []
        e = pairwise_distances(circle_layout(200))
        assert nonmetric_stress(e, d) == _nms_by_float_sort(e.pairs, d.pairs)

    @pytest.mark.parametrize("metric", [shepard_goodness, nonmetric_stress])
    @pytest.mark.parametrize("drawing", ["random", "circle"])
    def test_traced_peak_stays_below_two_and_a_half_vectors(self, metric, drawing):
        # beyond its inputs a rank metric holds at most two pair-length
        # vectors, a byte per pair and short temporaries
        n = 600
        d = apsp(bench_graph(n, np.random.default_rng(3)))
        layout = random_layout(n, 5) if drawing == "random" else circle_layout(n)
        e = pairwise_distances(layout)
        assert e.pairs.size == d.pair_codes.size  # the cached inputs, built before tracing
        tracemalloc.start()
        try:
            metric(e, d)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2.5 * 8 * (n * (n - 1) // 2)


@pytest.mark.parametrize("drawing", ["random", "circle"])
@pytest.mark.parametrize(
    "graph, dtype",
    # the path's levels reach 299, whose square overflows uint16
    [(path_graph(300), np.uint16), (grid_graph(5, 8), np.uint8)],
    ids=["path-300", "grid-5x8"],
)
def test_integer_levels_score_as_floats(graph, dtype, drawing):
    """Every metric, value, optimal scale and scale quadratic, scores apsp's
    integer levels exactly as the same distances in float64; drs where its
    guard lets it."""
    levels = apsp(graph)
    floats = DistanceMatrix.from_square(levels.d)
    assert levels.pairs.dtype == dtype and floats.pairs.dtype == np.float64
    n = graph.vertex_count
    layout = random_layout(n, 7) if drawing == "random" else circle_layout(n)
    got, want = (score_layout(layout, d, METRIC_IDS) for d in (levels, floats))
    assert got.skipped == want.skipped == (() if n <= DRS_MAX_VERTICES else ("drs",))
    assert got.scores == want.scores
    assert got.alpha_min == want.alpha_min
    assert got.max_distance == want.max_distance
    e = pairwise_distances(layout)
    for record in METRICS.values():
        if record.quadratic is not None:
            assert record.quadratic(e, levels) == record.quadratic(e, floats)


def test_scoring_never_imports_numpy_ma():
    # np.unique imports numpy.ma (about 1 MB) on first use; the rank tables
    # are built without it
    code = (
        "import sys\n"
        "import numpy as np\n"
        "from layoutstress import METRIC_IDS, apsp, random_layout\n"
        "from layoutstress.experiment import bench_graph\n"
        "from layoutstress.metrics import score_layout\n"
        "d = apsp(bench_graph(30, np.random.default_rng(0)))\n"
        "ids = [m for m in METRIC_IDS if m != 'drs']\n"
        "scored = score_layout(random_layout(30, 1), d, ids)\n"
        "assert sorted(scored.scores) == sorted(ids)\n"
        "print('numpy.ma' in sys.modules)\n"
    )
    src = str(Path(layoutstress.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    result = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert result.stdout.strip() == "False"


@pytest.mark.parametrize("metric_id", METRIC_IDS)
def test_scale_class(metric_id):
    """Each metric answers a uniform scaling of a drawing as its record's
    scale class says. It has an optimal scale exactly when its record has a
    quadratic, and there it takes the quadratic's minimum. The drawings are random, so no two distances tie; n <= 14
    bounds drs's quartic cost. sgs on drawings with tied distances is left
    out (ROADMAP.md, "sgs sees the ties a drawing has"): scaling reorders
    their rounding noise."""
    record = METRICS[metric_id]
    rng = np.random.default_rng(19)
    for _ in range(5):
        _, d, layout = random_instance(rng, n_min=6, n_max=14)
        e = pairwise_distances(layout)
        base = compute_metric(metric_id, e, d)
        alpha_min = metric_alpha_min(metric_id, e, d)
        assert (alpha_min is None) == (record.quadratic is None)
        if alpha_min is not None:
            at_min = compute_metric(metric_id, pairwise_distances(scale_layout(layout, alpha_min)), d)
            assert _rel_close(at_min, record.quadratic(e, d).minimum, 1e-9)
        for alpha in LOG_ALPHAS:
            value = compute_metric(metric_id, pairwise_distances(scale_layout(layout, alpha)), d)
            if metric_id == "sgs":
                assert value == base  # ranks, so bit-equal
            elif record.scale == "invariant":
                assert _rel_close(value, base, 1e-9)
            elif record.scale == "quadratic":
                assert _rel_close(value, record.quadratic(e, d).evaluate(alpha), 1e-9)
            else:
                assert record.scale == "homogeneous"
                assert _rel_close(value, alpha * alpha * base, 1e-12)


class TestCrossMetricInvariants:

    def test_scale_sensitivity_witnesses(self, p3):
        d = p3["d"]
        e1, e2 = p3["e_stretched"], pairwise_distances(scale_layout(p3["stretched"], 2.0))
        assert raw_stress(e2, d) != pytest.approx(raw_stress(e1, d))
        assert normalized_stress(e2, d) != pytest.approx(normalized_stress(e1, d))
        assert kk_stress(e2, d) == pytest.approx(4 * kk_stress(e1, d), rel=1e-9)

    def test_zero_at_perfection_all_metrics(self):
        d = apsp(path_graph(5))
        e = as_layout_distances(d.d)
        for m in METRIC_IDS:
            value = compute_metric(m, e, d)
            if m == "sgs":
                assert value == 1.0
            else:
                assert value == pytest.approx(0.0, abs=1e-12)

    def test_range_conformance(self):
        rng = np.random.default_rng(20)
        for _ in range(20):
            g, d, layout = random_instance(rng, n_min=5, n_max=12)
            e = pairwise_distances(layout)
            complete = d.max_distance == 1.0  # sgs is undefined there
            for m in METRIC_IDS:
                if m == "sgs" and complete:
                    with pytest.raises(ConstantSeriesError):
                        compute_metric(m, e, d)
                    continue
                value = compute_metric(m, e, d)
                if m == "sgs":
                    assert -1.0 <= value <= 1.0
                elif m == "nms":
                    assert 0.0 <= value <= 1.0
                else:
                    assert value >= 0.0

    def test_metric_alpha_min_mapping(self, p3):
        e, d = p3["e_doubled"], p3["d"]
        assert metric_alpha_min("rs", e, d) == pytest.approx(0.5)
        assert metric_alpha_min("ns", e, d) == pytest.approx(0.5)
        assert metric_alpha_min("sns", e, d) == pytest.approx(0.5)
        for m in ("kks", "sgs", "scs", "drs", "nms"):
            assert metric_alpha_min(m, e, d) is None
        with pytest.raises(ValueError, match="unknown metric id 'bogus'"):
            metric_alpha_min("bogus", e, d)

    def test_metrics_share_one_pair_vector(self, p3):
        e, d = p3["e_doubled"], p3["d"]
        ev, dv = _pair_vectors(e, d)
        assert ev is e.pairs and dv is d.pairs

    def test_score_layout_guards_drs_unless_forced(self):
        n = 65
        d = apsp(path_graph(n))
        layout = random_layout(n, 3)
        e = pairwise_distances(layout)
        scored = score_layout(layout, d, ("drs", "ns"))
        assert scored.skipped == ("drs",) and list(scored.scores) == ["ns"]
        assert scored.scores["ns"] == normalized_stress(e, d) and scored.seconds["ns"] >= 0.0
        assert scored.alpha_min == {"ns": ns_quadratic(e, d).alpha_min}
        assert scored.max_distance == e.max_distance
        scored = score_layout(layout, d, ("drs",), force=True)
        assert scored.skipped == () and list(scored.scores) == ["drs"]
        assert scored.scores["drs"] > 0.0 and scored.alpha_min == {}

    def test_unknown_metric_rejected(self, p3):
        with pytest.raises(ValueError, match="unknown metric"):
            compute_metric("bogus", p3["e_perfect"], p3["d"])


class TestStressCurve:
    def test_sns_curve_constant(self, p3):
        points = stress_curve(p3["doubled"], p3["d"], "sns", [0.1, 0.5, 1.0, 4.0])
        values = [v for _, v in points]
        assert max(values) - min(values) <= 1e-9 * (1 + abs(values[0]))

    def test_ns_curve_convex(self):
        rng = np.random.default_rng(21)
        _, d, layout = random_instance(rng)
        grid = np.linspace(0.05, 5.0, 40)
        values = np.array([v for _, v in stress_curve(layout, d, "ns", grid)])
        second = values[2:] - 2 * values[1:-1] + values[:-2]
        assert second.min() >= -1e-9 * (1 + np.abs(values).max())

    def test_ns_minimum_matches_alpha_min(self, p3):
        d = p3["d"]
        alpha = ns_quadratic(p3["e_doubled"], d).alpha_min
        grid = np.linspace(0.01, 4 * alpha, 10_000)
        points = stress_curve(p3["doubled"], d, "ns", grid)
        values = [v for _, v in points]
        best = grid[int(np.argmin(values))]
        assert abs(best - alpha) <= grid[1] - grid[0]

    def test_kks_curve_scales_quadratically_by_default(self, p3):
        points = stress_curve(p3["stretched"], p3["d"], "kks", [0.5, 1.0, 2.0, 4.0])
        values = [v for _, v in points]
        for k in range(len(values) - 1):
            assert values[k + 1] == pytest.approx(4 * values[k], rel=1e-9)

    def test_kks_curve_frozen_span_not_quadratic(self, p3):
        points = stress_curve(
            p3["stretched"], p3["d"], "kks", [1.0, 2.0], kk_params=KKParams(l0=3.0)
        )
        values = [v for _, v in points]
        assert values[1] != pytest.approx(4 * values[0], rel=1e-6)

    @pytest.mark.parametrize("metric_id,direct", [("rs", "raw_stress"), ("ns", "normalized_stress")])
    def test_quadratic_cross_check_fires(self, p3, monkeypatch, metric_id, direct):
        record = METRICS[metric_id]
        assert record.kernel is getattr(layoutstress.metrics, direct)
        off_by_one = dataclasses.replace(record, kernel=lambda e, d: record.kernel(e, d) + 1.0)
        monkeypatch.setitem(METRICS, metric_id, off_by_one)
        with pytest.raises(RuntimeError, match=rf"failed for {metric_id} at alpha=2\.0:"):
            stress_curve(p3["stretched"], p3["d"], metric_id, [2.0, 0.5])
        # sns and kks have no quadratic to check against
        for other in ("sns", "kks"):
            assert len(stress_curve(p3["stretched"], p3["d"], other, [0.5, 2.0])) == 2

    def test_rejects_bad_input(self, p3):
        with pytest.raises(ValueError, match="unknown metric"):
            stress_curve(p3["perfect"], p3["d"], "nope", [1.0])
        with pytest.raises(ValueError):
            stress_curve(p3["perfect"], p3["d"], "ns", [])
        with pytest.raises(ValueError):
            stress_curve(p3["perfect"], p3["d"], "ns", [0.0, 1.0])


class TestDrawingPairsLifetime:
    """score_layout and stress_curve free a drawing's n x n distances before
    the first metric runs; the metrics read its pair vector alone."""

    @staticmethod
    def count_alive_in_metrics(monkeypatch, census) -> list[int]:
        seen = []
        for name in ("compute_metric", "metric_alpha_min"):
            original = getattr(layoutstress.metrics, name)

            def counting(*args, _original=original, **kwargs):
                seen.append(census.alive())
                return _original(*args, **kwargs)

            monkeypatch.setattr(layoutstress.metrics, name, counting)
        return seen

    def test_no_square_alive_while_score_layout_scores(self, monkeypatch, live_drawings):
        seen = self.count_alive_in_metrics(monkeypatch, live_drawings)
        d = apsp(grid_graph(4, 5))
        score_layout(random_layout(20, 1), d, ("rs", "kks", "ns", "sns", "sgs", "scs", "nms"))
        assert len(seen) == 14 and max(seen) == 0, seen

    @pytest.mark.parametrize("metric_id", ["rs", "kks", "nms"])
    def test_no_square_alive_while_stress_curve_scores(self, monkeypatch, live_drawings, metric_id):
        seen = self.count_alive_in_metrics(monkeypatch, live_drawings)
        stress_curve(circle_layout(20), apsp(grid_graph(4, 5)), metric_id, [0.5, 1.0, 3.0])
        assert len(seen) == 3 and max(seen) == 0, seen

    def test_traced_peak_below_square_plus_two_pair_vectors(self):
        n = 600
        d = apsp(bench_graph(n, np.random.default_rng(3)))
        layout = random_layout(n, 5)
        assert d.pair_codes is d.pairs  # the graph's inputs, built before tracing
        tracemalloc.start()
        try:
            score_layout(layout, d, ("rs", "kks", "ns", "sns", "sgs", "scs", "nms"))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 8 * n * n + 2 * 8 * (n * (n - 1) // 2)
