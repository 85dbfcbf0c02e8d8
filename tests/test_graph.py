from __future__ import annotations

import itertools
import re
import tracemalloc

import numpy as np
import pytest

from layoutstress import (
    DisconnectedGraphError,
    DistanceMatrix,
    Graph,
    LayoutDistances,
    ParseError,
    apsp,
    circle_layout,
    connected_components,
    largest_connected_component,
    nonmetric_stress,
    pairwise_distances,
    parse_edge_list,
    parse_matrix_market,
    random_layout,
    serialize_edge_list,
    shepard_goodness,
)
from layoutstress.experiment import bench_graph
from layoutstress.graph import read_graph_file, upper_pairs

from conftest import complete_graph, cycle_graph, floyd_warshall, gnp_connected, grid_graph, path_graph


def _p3_square(*edits) -> np.ndarray:
    """The path P3's distance matrix with (i, j, value) entries overwritten."""
    m = np.array([[0.0, 1.0, 2.0], [1.0, 0.0, 1.0], [2.0, 1.0, 0.0]])
    for i, j, value in edits:
        m[i, j] = value
    return m


class TestGraphType:
    def test_rejects_self_loop(self):
        with pytest.raises(ValueError, match="self-loop"):
            Graph(3, ((1, 1),))

    def test_rejects_negative_vertex_count(self):
        with pytest.raises(ValueError) as info:
            Graph(-1, ())
        assert str(info.value) == "vertex_count must be nonnegative"

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
        nbr, starts = g.neighbours
        # every vertex lists itself beside its neighbours
        assert set(nbr[starts[1]:starts[2]].tolist()) == {0, 1, 2, 3}
        assert set(nbr[starts[3]:].tolist()) == {1, 3}
        for table in (nbr, starts):
            with pytest.raises(ValueError, match="read-only"):
                table[0] = 0


class TestDistanceMatrix:
    def test_pairs_cached_and_read_only(self):
        d = apsp(path_graph(3))
        assert d.pairs is d.pairs
        assert d.pairs.tolist() == [1.0, 2.0, 1.0]
        with pytest.raises(ValueError, match="read-only"):
            d.pairs[0] = 5.0

    def test_pair_codes_are_the_levels(self):
        d = apsp(path_graph(4))
        assert d.pairs.tolist() == [1, 2, 3, 1, 2, 1]
        assert d.pair_codes is d.pairs
        assert d.pair_codes.dtype == np.uint8
        with pytest.raises(ValueError, match="read-only"):
            d.pair_codes[0] = 1

    @pytest.mark.parametrize("distinct, dtype", [(256, np.uint8), (257, np.uint16)])
    def test_pair_codes_take_the_smallest_unsigned_dtype(self, distinct, dtype):
        n = 24  # 276 pairs
        i, j = np.triu_indices(n, 1)
        ranks = np.minimum(np.random.default_rng(0).permutation(i.size), distinct - 1)
        m = np.zeros((n, n))
        m[i, j] = m[j, i] = 0.5 * ranks + 1.0
        d = DistanceMatrix.from_square(m)
        assert d.pair_codes.dtype == dtype
        assert d.pair_codes.tolist() == ranks.tolist()

    def test_integer_levels_with_gaps_score_as_floats(self):
        n = 8  # levels {1, 3, 7}, all below n, so the levels are the codes
        i, j = np.triu_indices(n, 1)
        m = np.zeros((n, n), dtype=np.int64)
        m[i, j] = m[j, i] = np.array([1, 3, 7])[np.arange(i.size) % 3]
        levels, floats = DistanceMatrix.from_square(m), DistanceMatrix.from_square(m.astype(float))
        assert levels.pair_codes is levels.pairs and levels.pairs.dtype == np.uint8
        assert floats.pair_codes.tolist() == np.searchsorted([1, 3, 7], m[i, j]).tolist()
        for layout in (random_layout(n, 0), circle_layout(n)):
            e = pairwise_distances(layout)
            assert shepard_goodness(e, levels) == shepard_goodness(e, floats)
            assert nonmetric_stress(e, levels) == nonmetric_stress(e, floats)

    @pytest.mark.parametrize(
        "dtype, kept", [(np.float64, np.float64), (np.int64, np.uint8)], ids=["float64", "int64"]
    )
    def test_integer_distances_from_n_up_are_sorted(self, dtype, kept):
        # levels at or above n are coded by the sort
        d = DistanceMatrix.from_square(_p3_square((0, 2, 9), (2, 0, 9)).astype(dtype))
        assert d.pairs.tolist() == [1, 9, 1] and d.pairs.dtype == kept
        assert d.pair_codes is not d.pairs
        assert d.pair_codes.tolist() == [0, 1, 0]

    @pytest.mark.parametrize("kind", ["random", "circle", "rounded"])
    def test_float_pair_codes_are_the_distinct_value_indices(self, kind):
        # of the 1,770 pairs, random's are all distinct, the circle's chords
        # tie by symmetry (245 distinct), and rounding leaves 13 distinct
        n = 60
        positions = circle_layout(n).positions if kind == "circle" else random_layout(n, 4).positions
        m = np.sqrt(((positions[:, None, :] - positions[None, :, :]) ** 2).sum(-1))
        if kind == "rounded":
            m = np.where(np.eye(n, dtype=bool), 0.0, np.round(m, 1) + 0.05)
        d = DistanceMatrix.from_square(m)
        assert d.pairs.dtype == np.float64
        # each pair's index in the sorted distinct values
        index = {value: k for k, value in enumerate(sorted(set(d.pairs.tolist())))}
        assert d.pair_codes.tolist() == [index[p] for p in d.pairs.tolist()]

    @pytest.mark.parametrize("n", [2, 64, 129])
    def test_keeps_only_the_condensed_pairs(self, n):
        d = apsp(path_graph(n))

        def arrays():
            return [v for v in vars(d).values() if isinstance(v, np.ndarray)]

        assert sum(a.nbytes for a in arrays()) == n * (n - 1) // 2
        assert d.pair_codes is d.pairs
        assert all(a.shape != (n, n) for a in arrays())

    def test_square_matrix_is_rebuilt_read_only(self):
        g = grid_graph(4, 5)
        d = apsp(g)
        assert d.d is not d.d
        assert np.array_equal(d.d, floyd_warshall(g))
        with pytest.raises(ValueError, match="read-only"):
            d.d[0, 1] = 9.0
        assert np.array_equal(DistanceMatrix.from_square(d.d).pairs, d.pairs)

    def test_does_not_alias_the_input(self):
        m = np.array([[0.0, 1.0, 2.0], [1.0, 0.0, 1.0], [2.0, 1.0, 0.0]])
        d = DistanceMatrix.from_square(m)
        m[0, 1] = m[1, 0] = 5.0
        assert d.pairs.tolist() == [1.0, 2.0, 1.0]

    @pytest.mark.parametrize(
        "cls, m, message",
        [
            (DistanceMatrix.from_square, _p3_square((1, 2, 0.0), (2, 1, 0.0)), "off-diagonal distances must be positive"),
            (DistanceMatrix.from_square, _p3_square((1, 2, -1.0), (2, 1, -1.0)), "off-diagonal distances must be positive"),
            (DistanceMatrix.from_square, _p3_square((1, 2, -1), (2, 1, -1)).astype(np.int64), "off-diagonal distances must be positive"),
            (DistanceMatrix.from_square, np.zeros((2, 3)), "must be square"),
            (DistanceMatrix.from_square, _p3_square((0, 1, np.nan), (1, 0, np.nan)), "non-finite"),
            (DistanceMatrix.from_square, _p3_square((1, 1, 1.0)), "diagonal must be zero"),
            (DistanceMatrix.from_square, _p3_square((0, 1, 3.0)), "must be symmetric"),
            (LayoutDistances, np.zeros((2, 3)), "must be square"),
            (LayoutDistances, _p3_square((0, 1, np.inf), (1, 0, np.inf)), "non-finite"),
            (LayoutDistances, _p3_square((1, 1, 1.0)), "nonnegative with zero diagonal"),
            (LayoutDistances, _p3_square((0, 1, 3.0)), "must be symmetric"),
            (LayoutDistances, _p3_square((1, 2, -1.0), (2, 1, -1.0)), "nonnegative with zero diagonal"),
        ],
        ids=["0.0", "-1.0", "int64_-1", "non_square", "non_finite", "nonzero_diagonal", "asymmetric",
             "layout-non_square", "layout-non_finite", "layout-nonzero_diagonal",
             "layout-asymmetric", "layout-negative"],
    )
    def test_rejects_non_positive_off_diagonal(self, cls, m, message):
        """Every refusal of a malformed square matrix, by DistanceMatrix and by
        LayoutDistances; the first two cases are the non-positive off-diagonal."""
        with pytest.raises(ValueError, match=message):
            cls(m)

    @pytest.mark.parametrize(
        "edits, message",
        [(((1, 1, np.nan),), "diagonal must be zero"), (((2, 0, np.nan),), "must be symmetric")],
        ids=["diagonal", "below"],
    )
    def test_nan_outside_the_upper_pairs_is_refused(self, edits, message):
        """The pair checks scan only the entries i < j; from_square's diagonal
        and symmetry checks refuse a NaN anywhere else, in one line."""
        with pytest.raises(ValueError, match=message) as excinfo:
            DistanceMatrix.from_square(_p3_square(*edits))
        assert "\n" not in str(excinfo.value)

    @pytest.mark.parametrize(
        "n, pairs, message",
        [
            (3, np.array([1, 2], np.uint8), "3 vertices need 3 pairs, got shape"),
            (3, np.array([1, 0, 1], np.uint8), "must be positive"),
            (3, np.array([1.0, np.nan, 1.0]), "non-finite"),
            (3, np.array([1.0, np.inf, 1.0]), "non-finite"),
        ],
        ids=["wrong_length", "zero_level", "nan", "inf"],
    )
    def test_from_pairs_refuses_a_malformed_vector(self, n, pairs, message):
        with pytest.raises(ValueError, match=message) as excinfo:
            DistanceMatrix(n, pairs)
        assert "\n" not in str(excinfo.value)

    @pytest.mark.parametrize("dtype", [np.uint16, np.int64, np.float32])
    def test_from_pairs_keeps_the_square_paths_dtype(self, dtype):
        square = _p3_square().astype(dtype)
        pairs = upper_pairs(square).copy()
        d = DistanceMatrix(3, pairs)
        assert d.pairs.dtype == DistanceMatrix.from_square(square).pairs.dtype
        assert np.array_equal(d.pairs, DistanceMatrix.from_square(square).pairs)
        assert not d.pairs.flags.writeable and pairs.flags.writeable

    @pytest.mark.parametrize("dtype", [np.uint8, np.uint16, np.int64, np.float32])
    @pytest.mark.parametrize(
        "edits, message",
        [
            (((1, 2, 0), (2, 1, 0)), "off-diagonal distances must be positive"),
            (((1, 1, 1),), "diagonal must be zero"),
            (((0, 1, 3),), "must be symmetric"),
        ],
        ids=["zero", "nonzero_diagonal", "asymmetric"],
    )
    def test_integer_and_float_squares_checked_in_their_own_dtype(self, dtype, edits, message):
        with pytest.raises(ValueError, match=message):
            DistanceMatrix.from_square(_p3_square(*edits).astype(dtype))

    def test_apsp_pairs_are_read_only_uint8(self):
        g = grid_graph(4, 5)
        d = apsp(g)
        assert d.pairs.dtype == np.uint8 and not d.pairs.flags.writeable
        assert np.array_equal(d.pairs, DistanceMatrix.from_square(floyd_warshall(g)).pairs)

    @pytest.mark.parametrize("n, dtype", [(256, np.uint8), (257, np.uint16)])
    def test_apsp_pairs_take_the_smallest_unsigned_dtype(self, n, dtype):
        # a path on n vertices has levels 1 .. n - 1
        d = apsp(path_graph(n))
        assert d.pairs.dtype == dtype and int(d.pairs.max()) == n - 1
        assert d.pair_codes is d.pairs


class TestDistanceMatrixStorage:
    """A read-only vector that owns its data and has the kept dtype is kept;
    any other is copied, so no later write of the caller's reaches it."""

    def test_read_only_owner_kept(self):
        p = np.array([1, 2, 1], dtype=np.uint8)
        p.setflags(write=False)
        assert DistanceMatrix(3, p).pairs is p

    def test_writeable_vector_copied(self):
        p = np.array([1.0, 2.0, 1.0])
        d = DistanceMatrix(3, p)
        assert d.pairs is not p
        assert not d.pairs.flags.writeable
        p[1] = 0.0
        assert d.pairs.tolist() == [1.0, 2.0, 1.0]

    def test_read_only_view_copied(self):
        base = np.array([1.0, 2.0, 1.0, 5.0])
        view = base[:3]
        view.setflags(write=False)
        d = DistanceMatrix(3, view)
        assert d.pairs is not view
        assert d.pairs.base is None
        base[1] = -4.0
        assert d.pairs.tolist() == [1.0, 2.0, 1.0]

    def test_narrowed_vector_copied_once(self):
        # int64 levels of 800 vertices narrow to uint8: one copy holds
        # C(800, 2) bytes, two would hold twice that at once
        pairs = np.ones(800 * 799 // 2, dtype=np.int64)
        tracemalloc.start()
        try:
            d = DistanceMatrix(800, pairs)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert d.pairs.dtype == np.uint8 and not d.pairs.flags.writeable
        assert peak < 2 * d.pairs.nbytes, peak


class TestReadGraphFile:
    def test_matrix_market_by_suffix(self, tmp_path):
        path = tmp_path / "g.MM"
        path.write_text("%%MatrixMarket matrix coordinate pattern symmetric\n3 3 2\n1 2\n2 3\n")
        parsed = read_graph_file(path)
        assert parsed.graph.edges == ((0, 1), (1, 2))
        assert (parsed.self_loops_dropped, parsed.duplicates_collapsed) == (0, 0)

    def test_matrix_market_reports_dropped_loop(self, tmp_path):
        path = tmp_path / "d.mtx"
        path.write_text("%%MatrixMarket matrix coordinate pattern general\n3 3 3\n1 2\n2 3\n1 1\n")
        assert read_graph_file(path).self_loops_dropped == 1

    @pytest.mark.parametrize(
        "data, message",
        [(None, "No such file"), (b"0 1\n\xff\n", "can't decode"),
         (b"0 x\n", "line 1: malformed integer"), (b"# no edges\n", "graph has no vertices")],
        ids=["missing", "non_utf8", "malformed", "empty"],
    )
    def test_refusal_names_the_file(self, tmp_path, data, message):
        path = tmp_path / "g.txt"
        if data is not None:
            path.write_bytes(data)
        with pytest.raises(ParseError, match=f"^{re.escape(str(path))}: .*{message}"):
            read_graph_file(path)


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


_MM_HEADER = "%%MatrixMarket matrix coordinate pattern general\n"


class TestParseMatrixMarket:
    def test_pattern_symmetric_path(self):
        text = "%%MatrixMarket matrix coordinate pattern symmetric\n3 3 2\n1 2\n2 3\n"
        g = parse_matrix_market(text).graph
        assert g.vertex_count == 3
        assert g.edges == ((0, 1), (1, 2))

    def test_symmetrization(self):
        text = "%%MatrixMarket matrix coordinate real general\n2 2 2\n2 1 5.0\n1 2 7.5\n"
        g = parse_matrix_market(text).graph
        assert g.edges == ((0, 1),)

    def test_diagonal_ignored(self):
        text = "%%MatrixMarket matrix coordinate integer general\n4 4 4\n1 1 1\n2 2 1\n3 3 1\n4 4 1\n"
        g = parse_matrix_market(text).graph
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
        assert parse_matrix_market(text).graph.edges == ((0, 2),)

    def test_entry_out_of_bounds(self):
        with pytest.raises(ParseError, match="line 3"):
            parse_matrix_market("%%MatrixMarket matrix coordinate pattern general\n2 2 1\n1 5\n")

    @pytest.mark.parametrize(
        "text, message",
        [
            ("", "empty Matrix Market input"),
            ("3 3 1\n1 2\n", "line 1: not a Matrix Market matrix header: '3 3 1'"),
            (_MM_HEADER.replace("general", "hermitian") + "2 2 1\n1 2\n",
             "unsupported Matrix Market symmetry 'hermitian'"),
            (_MM_HEADER + "2 2\n1 2\n", "line 2: expected 'rows cols nnz' size line"),
            (_MM_HEADER + "2 2 x\n1 2\n", "line 2: malformed size line '2 2 x'"),
            (_MM_HEADER + "2 2 1\n1\n", "line 3: expected 'i j [value]' entry"),
            (_MM_HEADER + "2 2 1\n1 b\n", "line 3: malformed coordinate entry '1 b'"),
            (_MM_HEADER + "% only a comment\n", "missing Matrix Market size line"),
        ],
        ids=["empty", "no_header", "symmetry", "size_tokens", "size_malformed", "entry_tokens",
             "entry_malformed", "no_size_line"],
    )
    def test_refusal_messages(self, text, message):
        with pytest.raises(ParseError) as info:
            parse_matrix_market(text)
        assert str(info.value) == message

    def test_loops_and_duplicates_counted(self):
        text = "%%MatrixMarket matrix coordinate pattern general\n3 3 5\n1 2\n2 3\n1 1\n2 1\n3 3\n"
        parsed = parse_matrix_market(text)
        assert parsed.graph.edges == ((0, 1), (1, 2))
        assert (parsed.self_loops_dropped, parsed.duplicates_collapsed) == (2, 1)

    @pytest.mark.parametrize("entries", ["1 2\n2 3\n1 1\n", "1 2\n2 3\n1 1\n1 3\n2 1\n3 2\n"],
                             ids=["truncated", "excess"])
    def test_entry_count_must_match_size_line(self, entries):
        text = f"%%MatrixMarket matrix coordinate pattern general\n% c\n3 3 5\n{entries}"
        found = entries.count("\n")
        with pytest.raises(ParseError, match=f"^line 3: size line declares 5 entries, file has {found}$"):
            parse_matrix_market(text)


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

    def test_components_ordered_by_smallest_vertex(self):
        g = Graph.from_edges(5, [(0, 4), (4, 2), (1, 3)])
        assert connected_components(g) == [[0, 2, 4], [1, 3]]

    def test_isolated_vertices_are_singletons(self):
        g = Graph.from_edges(6, [(1, 4)])
        assert connected_components(g) == [[0], [1, 4], [2], [3], [5]]

    def test_no_vertices_no_components(self):
        assert connected_components(Graph(0, ())) == []

    def test_matches_union_find_on_random_sparse_graphs(self):
        rng = np.random.default_rng(17)
        for _ in range(300):
            n = int(rng.integers(1, 41))
            m = int(rng.integers(0, n + 1))
            pairs = rng.integers(n, size=(m, 2)).tolist()
            g = Graph.from_edges(n, [(u, v) for u, v in pairs if u != v])
            expected = _union_find_components(g)
            assert connected_components(g) == expected
            best = max(expected, key=lambda c: (len(c), -c[0]))
            sub, new_to_old = largest_connected_component(g)
            assert new_to_old == tuple(best)
            old_to_new = {old: new for new, old in enumerate(best)}
            assert sub == Graph.from_edges(len(best), [
                (old_to_new[u], old_to_new[v]) for u, v in g.edges if u in old_to_new
            ])

    @pytest.mark.parametrize("numbering", ["in_order", "random"])
    def test_long_path(self, numbering):
        ids = list(range(20_000))
        if numbering == "random":
            ids = np.random.default_rng(5).permutation(20_000).tolist()
        g = Graph.from_edges(20_000, zip(ids, ids[1:]))
        sub, new_to_old = largest_connected_component(g)
        assert new_to_old == tuple(range(20_000))
        assert sub == g

    def test_one_edge_among_many_isolated_vertices(self):
        sub, new_to_old = largest_connected_component(Graph(20_000, ((7_000, 19_999),)))
        assert new_to_old == (7_000, 19_999)
        assert sub == Graph(2, ((0, 1),))

    def test_sparse_ids_far_beyond_any_array(self):
        far = 10**15
        g = Graph(far + 2, ((0, 1), (far, far + 1)))
        assert largest_connected_component(g) == (Graph(2, ((0, 1),)), (0, 1))
        g = Graph(far + 2, ((1, 2), (2, 3), (far, far + 1)))
        assert largest_connected_component(g) == (Graph(3, ((0, 1), (1, 2))), (1, 2, 3))
        # without edges every component is one vertex, and vertex 0 wins the tie
        assert largest_connected_component(Graph(far, ())) == (Graph(1, ()), (0,))


def _union_find_components(g: Graph) -> list[list[int]]:
    """Components from the edge list by union-find, ordered by smallest vertex."""
    parent = list(range(g.vertex_count))

    def root(v: int) -> int:
        while parent[v] != v:
            v = parent[v]
        return v

    for u, v in g.edges:
        ru, rv = root(u), root(v)
        parent[max(ru, rv)] = min(ru, rv)
    groups: dict[int, list[int]] = {}
    for v in range(g.vertex_count):
        groups.setdefault(root(v), []).append(v)
    return [groups[r] for r in sorted(groups)]


def _ring_with_chords(n: int) -> Graph:
    """A ring on n vertices with n // 8 random chords: connected and several
    levels deep."""
    rng = np.random.default_rng(n)
    chords = [tuple(map(int, rng.choice(n, 2, replace=False))) for _ in range(n // 8)]
    return Graph.from_edges(n, [(i, (i + 1) % n) for i in range(n)] + chords)


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

    @pytest.mark.parametrize(
        "g",
        [_ring_with_chords(192), _ring_with_chords(193), path_graph(300), path_graph(200)],
        ids=["ring192", "ring193", "path300", "path200"],
    )
    def test_pairs_equal_floyd_warshall_across_blocks(self, g):
        # three full blocks of 64 sources, and one source over; uint16
        # levels; twice vertex 0's eccentricity (398) above uint8 while the
        # diameter (199) is not
        want = DistanceMatrix.from_square(floyd_warshall(g).astype(np.int64)).pairs
        got = apsp(g).pairs
        assert got.dtype == want.dtype and np.array_equal(got, want)

    def test_holds_no_square(self):
        # the pair vector is C(n, 2) bytes of uint8 levels; an n x n level
        # array alone would be 2 * n^2 bytes of uint16
        n = 2000
        g = bench_graph(n, np.random.default_rng(97))
        tracemalloc.start()
        try:
            d = apsp(g)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert d.pairs.dtype == np.uint8
        assert peak < 4 * (n * (n - 1) // 2), peak

    def test_keeps_its_pair_vector_without_a_copy(self):
        # the vector goes to DistanceMatrix read-only, so it is kept as it
        # is; a copy would hold two vectors at once
        g = bench_graph(2000, np.random.default_rng(97))
        tracemalloc.start()
        try:
            d = apsp(g)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 * d.pairs.nbytes, peak

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
