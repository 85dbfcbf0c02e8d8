from __future__ import annotations

import math

import numpy as np
import pytest

from layoutstress import (
    Layout,
    ParseError,
    apsp,
    circle_layout,
    optimize_layout,
    pairwise_distances,
    random_layout,
    read_layout_csv,
    scale_layout,
    scale_normalized_stress,
    scale_to_max_distance,
    write_layout_csv,
)

from layoutstress.experiment import corpus_graph

from conftest import complete_graph, gnp_connected, path_graph


class TestLayoutType:
    def test_shape_validation(self):
        with pytest.raises(ValueError):
            Layout(np.zeros((3, 3)))

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError, match="finite"):
            Layout(np.array([[0.0, np.nan]]))

    def test_positions_immutable(self):
        lay = Layout(np.zeros((2, 2)))
        with pytest.raises(ValueError):
            lay.positions[0, 0] = 1.0


class TestPairwiseDistances:
    def test_345_triangle(self):
        e = pairwise_distances(Layout(np.array([[0.0, 0.0], [3.0, 4.0]])))
        assert e.e[0, 1] == 5.0

    def test_collinear(self):
        e = pairwise_distances(Layout(np.array([[0.0, 0.0], [1.0, 0.0], [2.0, 0.0]])))
        assert e.e.tolist() == [[0, 1, 2], [1, 0, 1], [2, 1, 0]]

    def test_against_naive_oracle(self):
        rng = np.random.default_rng(3)
        pts = rng.normal(size=(100, 2)) * 50
        e = pairwise_distances(Layout(pts)).e
        for i in range(100):
            for j in range(i + 1, 100):
                ref = math.hypot(pts[i, 0] - pts[j, 0], pts[i, 1] - pts[j, 1])
                assert abs(e[i, j] - ref) <= 1e-12 * ref

    def test_pairs_cached_and_read_only(self):
        e = pairwise_distances(Layout(np.array([[0.0, 0.0], [3.0, 4.0], [6.0, 8.0]])))
        assert e.pairs is e.pairs
        assert e.pairs.tolist() == [5.0, 10.0, 5.0]
        with pytest.raises(ValueError, match="read-only"):
            e.pairs[0] = 1.0

    def test_pair_order_cached_and_read_only(self):
        # pairs: 5, sqrt(117), 1, sqrt(34), sqrt(18), 10
        e = pairwise_distances(Layout(np.array([[0.0, 0.0], [3.0, 4.0], [6.0, 9.0], [0.0, 1.0]])))
        assert e.pair_order is e.pair_order
        assert e.pair_order.tolist() == [2, 4, 0, 3, 5, 1]
        with pytest.raises(ValueError, match="read-only"):
            e.pair_order[0] = 1

    def test_single_point_rejected(self):
        with pytest.raises(ValueError):
            pairwise_distances(Layout(np.zeros((1, 2))))

    @pytest.mark.parametrize("kind", ["random", "circle", "wide"])
    def test_bit_equal_to_difference_tensor(self, kind):
        rng = np.random.default_rng(5)
        if kind == "random":
            pts = random_layout(300, 9).positions
        elif kind == "circle":
            pts = circle_layout(257).positions
        else:
            signs = rng.choice([-1.0, 1.0], size=(200, 2))
            pts = signs * 10.0 ** rng.uniform(-100, 100, size=(200, 2))
        diff = pts[:, None, :] - pts[None, :, :]
        e = pairwise_distances(Layout(pts)).e
        assert np.array_equal(e, np.sqrt(np.sum(diff * diff, axis=-1)))
        assert np.array_equal(e, e.T)


class TestScaling:
    def test_identity(self):
        lay = Layout(np.array([[0.5, 0.5], [1.0, 2.0]]))
        assert np.array_equal(scale_layout(lay, 1.0).positions, lay.positions)

    def test_doubling(self):
        lay = Layout(np.array([[0.0, 0.0], [1.0, 0.0]]))
        assert scale_layout(lay, 2.0).positions.tolist() == [[0, 0], [2, 0]]

    def test_composition(self):
        lay = Layout(np.array([[0.25, -1.5], [3.0, 0.75]]))
        twice = scale_layout(scale_layout(lay, 0.5), 0.5)
        once = scale_layout(lay, 0.25)
        assert np.array_equal(twice.positions, once.positions)

    @pytest.mark.parametrize("alpha", [0.0, -2.0, math.inf, math.nan])
    def test_bad_alpha_rejected(self, alpha):
        with pytest.raises(ValueError):
            scale_layout(Layout(np.zeros((2, 2))), alpha)

    def test_distances_scale_exactly(self):
        rng = np.random.default_rng(9)
        lay = Layout(rng.random((40, 2)))
        e = pairwise_distances(lay).e
        mask = ~np.eye(40, dtype=bool)
        for alpha in (0.01, 0.5, 2.0, 1000.0):
            scaled = pairwise_distances(scale_layout(lay, alpha)).e
            rel = np.abs(scaled[mask] - alpha * e[mask]) / (alpha * e[mask])
            assert rel.max() <= 1e-12

    def test_scale_to_max_distance(self):
        lay = Layout(np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 3.0]]))
        rescaled = scale_to_max_distance(lay, 800.0)
        assert pairwise_distances(rescaled).max_distance == pytest.approx(800.0, abs=1e-9)


class TestRandomLayout:
    def test_deterministic(self):
        a = random_layout(20, 42)
        b = random_layout(20, 42)
        assert np.array_equal(a.positions, b.positions)

    def test_unit_square(self):
        lay = random_layout(1000, 5)
        assert lay.positions.min() >= 0.0 and lay.positions.max() <= 1.0

    def test_streams_differ_across_seeds(self):
        seen = {random_layout(10, s).positions.tobytes() for s in range(100)}
        assert len(seen) == 100

    def test_max_distance_matches_reference_scale(self):
        # mean max pairwise distance for n=47 unit-square layouts sits
        # between 1.0 and sqrt(2)
        maxima = [
            pairwise_distances(random_layout(47, seed)).max_distance
            for seed in range(100)
        ]
        assert 1.0 <= float(np.mean(maxima)) <= math.sqrt(2)


class TestCircleLayout:
    def test_square(self):
        e = pairwise_distances(circle_layout(4)).e
        assert e[0, 1] == pytest.approx(math.sqrt(2))
        assert e[0, 2] == pytest.approx(2.0)

    def test_two_points(self):
        pos = circle_layout(2).positions
        assert pos[0] == pytest.approx([1.0, 0.0])
        assert pos[1] == pytest.approx([-1.0, 0.0], abs=1e-15)

    def test_hexagon_chord(self):
        e = pairwise_distances(circle_layout(6)).e
        assert e[0, 1] == pytest.approx(2 * math.sin(math.pi / 6))  # == 1

    def test_too_small(self):
        with pytest.raises(ValueError):
            circle_layout(1)


class TestOptimizeLayout:
    def test_p3_converges(self):
        g = path_graph(3)
        d = apsp(g)
        lay = optimize_layout(d, seed=0, iterations=100)
        sns = scale_normalized_stress(pairwise_distances(lay), d)
        assert sns < 0.05

    def test_k3_equilateral(self):
        g = complete_graph(3)
        d = apsp(g)
        lay = optimize_layout(d, seed=0, iterations=100)
        e = pairwise_distances(lay).e
        vals = e[np.triu_indices(3, 1)]
        assert vals.max() / vals.min() < 1.1

    def test_zero_iterations_rejected(self):
        g = path_graph(3)
        d = apsp(g)
        with pytest.raises(ValueError, match="iterations"):
            optimize_layout(d, seed=0, iterations=0)

    def test_deterministic(self):
        g = gnp_connected(15, 0.3, np.random.default_rng(1))
        d = apsp(g)
        a = optimize_layout(d, seed=4, iterations=30)
        b = optimize_layout(d, seed=4, iterations=30)
        assert np.array_equal(a.positions, b.positions)

    def test_improves_over_initialization(self):
        rng = np.random.default_rng(21)
        improved = 0
        runs = 40
        for k in range(runs):
            n = int(rng.integers(8, 30))
            g = gnp_connected(n, 0.3, rng)
            d = apsp(g)
            seed = int(rng.integers(2**31))
            init = random_layout(n, seed)
            final = optimize_layout(d, seed=seed, iterations=100)
            s0 = scale_normalized_stress(pairwise_distances(init), d)
            s1 = scale_normalized_stress(pairwise_distances(final), d)
            improved += s1 < s0
        assert improved >= 0.95 * runs

    def test_stress_never_increases(self):
        # stress majorization guarantees a monotone raw stress; check it
        # iteration by iteration against the d^-2-weighted definition
        for k in range(10):
            rng = np.random.default_rng(k)
            g = corpus_graph(int(rng.integers(20, 61)), 0.083, rng)
            distances = apsp(g)
            d = distances.d
            iu = np.triu_indices(g.vertex_count, 1)
            stress = []
            for iterations in range(1, 61):
                e = pairwise_distances(optimize_layout(distances, k, iterations)).e
                stress.append(float(np.sum((e[iu] - d[iu]) ** 2 / d[iu] ** 2)))
            for before, after in zip(stress, stress[1:]):
                assert after <= before * (1 + 1e-12)


class TestLayoutCsv:
    def test_roundtrip_bit_identical(self):
        rng = np.random.default_rng(17)
        lay = Layout(rng.normal(size=(25, 2)) * 1e3)
        back = read_layout_csv(write_layout_csv(lay))
        assert np.array_equal(back.positions, lay.positions)

    def test_header_required(self):
        with pytest.raises(ParseError, match="header"):
            read_layout_csv("x,y,id\n0,0,0\n")

    def test_missing_vertex_named(self):
        text = "id,x,y\n0,0.0,0.0\n2,1.0,1.0\n"
        with pytest.raises(ParseError, match="vertex id 1"):
            read_layout_csv(text)

    def test_duplicate_vertex_rejected(self):
        text = "id,x,y\n0,0.0,0.0\n0,1.0,1.0\n"
        with pytest.raises(ParseError, match="duplicate"):
            read_layout_csv(text)

    def test_malformed_row_names_line(self):
        with pytest.raises(ParseError, match="line 2"):
            read_layout_csv("id,x,y\n0,oops,0.0\n")
