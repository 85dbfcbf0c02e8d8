from __future__ import annotations

import itertools

import numpy as np
import pytest

from layoutstress import (
    DisconnectedGraphError,
    DistanceMatrix,
    Graph,
    ParseError,
    apsp,
    connected_components,
    largest_connected_component,
    parse_edge_list,
    parse_matrix_market,
    serialize_edge_list,
)

from conftest import complete_graph, cycle_graph, floyd_warshall, gnp_connected, grid_graph, path_graph


class TestGraphType:
    def test_rejects_self_loop(self):
        with pytest.raises(ValueError, match="self-loop"):
            Graph(3, ((1, 1),))

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            Graph(2, ((0, 2),))

    def test_rejects_duplicate(self):
        with pytest.raises(ValueError, match="duplicate"):
            Graph(3, ((0, 1), (0, 1)))

    def test_rejects_unsorted_edges(self):
        with pytest.raises(ValueError, match=r"edges must be sorted: \(0, 1\) follows \(1, 2\)"):
            Graph(3, ((1, 2), (0, 1)))

    def test_from_edges_normalizes(self):
        g = Graph.from_edges(3, [(2, 0), (0, 2), (1, 0)])
        assert g.edges == ((0, 1), (0, 2))

    def test_adjacency_symmetric(self):
        g = Graph.from_edges(4, [(0, 1), (1, 2), (1, 3)])
        assert g.adjacency[1] == (0, 2, 3)
        assert g.adjacency[3] == (1,)
        assert g.has_edge(3, 1) and g.has_edge(1, 3)
        assert not g.has_edge(0, 3)


class TestDistanceMatrix:
    def test_pairs_cached_and_read_only(self):
        d = apsp(path_graph(3))
        assert d.pairs is d.pairs
        assert d.pairs.tolist() == [1.0, 2.0, 1.0]
        with pytest.raises(ValueError, match="read-only"):
            d.pairs[0] = 5.0

    @pytest.mark.parametrize("off", [0.0, -1.0])
    def test_rejects_non_positive_off_diagonal(self, off):
        d = np.array([[0.0, 1.0, 2.0], [1.0, 0.0, off], [2.0, off, 0.0]])
        with pytest.raises(ValueError, match="off-diagonal distances must be positive"):
            DistanceMatrix(d)


class TestParseEdgeList:
    def test_path(self):
        parsed = parse_edge_list("0 1\n1 2")
        assert parsed.graph.vertex_count == 3
        assert parsed.graph.edges == ((0, 1), (1, 2))

    def test_dedup_and_loop_rules(self):
        parsed = parse_edge_list("0 1\n1 0\n0 0")
        assert parsed.graph.vertex_count == 2
        assert parsed.graph.edges == ((0, 1),)
        assert parsed.self_loops_dropped == 1
        assert parsed.duplicates_collapsed == 1

    def test_comments_and_blank_lines(self):
        parsed = parse_edge_list("# header\n\n0 1  # trailing\n  1 2\n")
        assert parsed.graph.edges == ((0, 1), (1, 2))

    def test_grid_fixture(self):
        g = grid_graph(10, 10)
        parsed = parse_edge_list(serialize_edge_list(g))
        assert parsed.graph.vertex_count == 100
        assert parsed.graph.edge_count == 180  # 2 * 10 * 9

    def test_malformed_token_names_line(self):
        with pytest.raises(ParseError, match="line 2"):
            parse_edge_list("0 1\n1 x")

    def test_wrong_token_count_names_line(self):
        with pytest.raises(ParseError, match="line 1"):
            parse_edge_list("0 1 2")

    def test_negative_id_rejected(self):
        with pytest.raises(ParseError, match="negative"):
            parse_edge_list("0 -1")

    def test_roundtrip_random_graphs(self):
        rng = np.random.default_rng(7)
        for _ in range(25):
            n = int(rng.integers(2, 30))
            g = gnp_connected(n, 0.3, rng)
            assert parse_edge_list(serialize_edge_list(g)).graph == g


class TestParseMatrixMarket:
    def test_pattern_symmetric_path(self):
        text = "%%MatrixMarket matrix coordinate pattern symmetric\n3 3 2\n1 2\n2 3\n"
        g = parse_matrix_market(text)
        assert g.vertex_count == 3
        assert g.edges == ((0, 1), (1, 2))

    def test_symmetrization(self):
        text = "%%MatrixMarket matrix coordinate real general\n2 2 2\n2 1 5.0\n1 2 7.5\n"
        g = parse_matrix_market(text)
        assert g.edges == ((0, 1),)

    def test_diagonal_ignored(self):
        text = "%%MatrixMarket matrix coordinate integer general\n4 4 4\n1 1 1\n2 2 1\n3 3 1\n4 4 1\n"
        g = parse_matrix_market(text)
        assert g.vertex_count == 4
        assert g.edges == ()

    def test_non_square_rejected(self):
        with pytest.raises(ParseError, match="square"):
            parse_matrix_market("%%MatrixMarket matrix coordinate pattern general\n3 4 1\n1 2\n")

    def test_unsupported_format_rejected(self):
        with pytest.raises(ParseError, match="unsupported"):
            parse_matrix_market("%%MatrixMarket matrix array real general\n2 2\n1.0\n")
        with pytest.raises(ParseError, match="unsupported"):
            parse_matrix_market("%%MatrixMarket matrix coordinate complex general\n2 2 1\n1 2 1 0\n")

    def test_comments_skipped(self):
        text = "%%MatrixMarket matrix coordinate pattern general\n% a comment\n3 3 1\n1 3\n"
        assert parse_matrix_market(text).edges == ((0, 2),)

    def test_entry_out_of_bounds(self):
        with pytest.raises(ParseError, match="line 3"):
            parse_matrix_market("%%MatrixMarket matrix coordinate pattern general\n2 2 1\n1 5\n")


class TestLargestComponent:
    def test_connected_identity(self):
        g = path_graph(4)
        sub, new_to_old = largest_connected_component(g)
        assert sub == g
        assert new_to_old == (0, 1, 2, 3)

    def test_picks_larger(self):
        g = Graph.from_edges(5, [(0, 1), (1, 2), (3, 4)])
        sub, new_to_old = largest_connected_component(g)
        assert sub.vertex_count == 3
        assert new_to_old == (0, 1, 2)

    def test_tie_goes_to_smallest_id(self):
        g = Graph.from_edges(4, [(0, 1), (2, 3)])
        sub, new_to_old = largest_connected_component(g)
        assert new_to_old == (0, 1)

    def test_empty_graph_errors(self):
        with pytest.raises(ValueError, match="empty"):
            largest_connected_component(Graph(0, ()))

    def test_remap_preserves_structure(self):
        g = Graph.from_edges(6, [(5, 3), (3, 1), (0, 2)])
        sub, new_to_old = largest_connected_component(g)
        assert sub.vertex_count == 3
        # component {1, 3, 5} renumbered 0, 1, 2 keeping relative order
        assert new_to_old == (1, 3, 5)
        assert sub.edges == ((0, 1), (1, 2))

    def test_components_partition_vertices(self):
        g = Graph.from_edges(7, [(0, 1), (2, 3), (3, 4)])
        comps = connected_components(g)
        flat = sorted(v for c in comps for v in c)
        assert flat == list(range(7))


def _assert_disconnected(g: Graph, missing: int) -> None:
    with pytest.raises(DisconnectedGraphError) as excinfo:
        apsp(g)
    assert str(excinfo.value) == (
        f"graph is disconnected: no path between vertices 0 and {missing}"
    )


class TestApsp:
    def test_path3(self, p3):
        assert p3["d"].d.tolist() == [[0, 1, 2], [1, 0, 1], [2, 1, 0]]

    def test_triangle_all_ones(self):
        d = apsp(complete_graph(3))
        off = d.d[~np.eye(3, dtype=bool)]
        assert np.all(off == 1.0)

    def test_cycle4(self):
        d = apsp(cycle_graph(4)).d
        assert d[0, 2] == 2 and d[0, 1] == 1 and d[0, 3] == 1

    def test_disconnected_names_pair(self):
        g = Graph.from_edges(4, [(0, 1), (2, 3)])
        with pytest.raises(DisconnectedGraphError, match=r"vertices 0 and 2"):
            apsp(g)

    def test_too_small(self):
        with pytest.raises(ValueError):
            apsp(Graph(1, ()))

    def test_matrix_immutable(self, p3):
        with pytest.raises(ValueError):
            p3["d"].d[0, 1] = 9.0

    def test_properties_over_random_graphs(self):
        rng = np.random.default_rng(11)
        for _ in range(100):
            n = int(rng.integers(2, 24))
            g = gnp_connected(n, 0.35, rng)
            d = apsp(g).d
            assert np.array_equal(d, d.T)
            assert np.all(np.diagonal(d) == 0)
            off = d[~np.eye(n, dtype=bool)]
            if n > 1:
                assert np.all(off >= 1.0)
            # triangle inequality
            assert np.all(d[:, None, :] + d[None, :, :] >= d[:, :, None] - 1e-12)

    def test_matches_floyd_warshall_exhaustive_small(self):
        # every labeled graph on up to 5 vertices
        for n in range(2, 6):
            pairs = list(itertools.combinations(range(n), 2))
            for bits in range(2 ** len(pairs)):
                edges = [p for k, p in enumerate(pairs) if bits >> k & 1]
                g = Graph.from_edges(n, edges)
                fw = floyd_warshall(g)
                if np.isinf(fw).any():
                    outside = set(range(n)) - set(connected_components(g)[0])
                    _assert_disconnected(g, min(outside))
                else:
                    assert np.array_equal(apsp(g).d, fw)

    def test_matches_floyd_warshall_sampled(self):
        rng = np.random.default_rng(13)
        for _ in range(150):
            n = int(rng.integers(6, 9))
            g = gnp_connected(n, 0.4, rng)
            assert np.array_equal(apsp(g).d, floyd_warshall(g))

    @pytest.mark.parametrize("n", [63, 64, 65, 128, 129])
    def test_matches_floyd_warshall_at_word_boundaries(self, n):
        # one bit per source, 64 sources to a word: sizes on either side
        # of one and two full words
        rng = np.random.default_rng(n)
        for _ in range(2):
            # a random tree, each vertex hung from an earlier one, plus n/2
            # random chords: sparse, connected, and several levels deep
            tree = [(int(rng.integers(k)), k) for k in range(1, n)]
            chords = [tuple(map(int, rng.choice(n, 2, replace=False))) for _ in range(n // 2)]
            g = Graph.from_edges(n, tree + chords)
            assert np.array_equal(apsp(g).d, floyd_warshall(g))

    @pytest.mark.parametrize(
        "g",
        [path_graph(129), Graph.from_edges(70, [(0, k) for k in range(1, 70)]), complete_graph(70)],
        ids=["path129", "star70", "k70"],
    )
    def test_matches_floyd_warshall_extreme_shapes(self, g):
        # 128 levels; two levels from every leaf; one level
        assert np.array_equal(apsp(g).d, floyd_warshall(g))

    def test_isolated_vertex_zero(self):
        _assert_disconnected(Graph.from_edges(4, [(1, 2), (2, 3)]), 1)

    def test_isolated_last_vertex_in_second_word(self):
        _assert_disconnected(Graph(65, path_graph(64).edges), 64)

    def test_two_vertices_no_edge(self):
        _assert_disconnected(Graph(2, ()), 1)

    def test_components_straddling_a_word(self):
        # 0..39 and 40..99: the second component spans words 0 and 1
        edges = [(i, i + 1) for i in range(39)] + [(i, i + 1) for i in range(40, 99)]
        _assert_disconnected(Graph.from_edges(100, edges), 40)
        # the component of 0 spans both words, vertex 70 sits alone
        edges = [(i, i + 1) for i in range(69)] + [(69, 71), (71, 72)]
        _assert_disconnected(Graph.from_edges(73, edges), 70)
