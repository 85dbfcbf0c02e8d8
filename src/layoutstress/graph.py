"""Graph ingestion and all-pairs shortest paths.

Graphs are undirected, simple, unweighted, with contiguous vertex ids.
Graph-theoretic distances are hop counts, kept condensed: one integer level
per unordered vertex pair, in the pair order of upper_pairs. apsp writes
them one block of 64 breadth-first sources at a time: it holds the C(V, 2)
pair vector and, per block, the k x V levels of its k sources, never a
V x V array. A DistanceMatrix is the record of V and that pair vector,
checked once; keep says what it, Layout and LayoutDistances hold.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from pathlib import Path

import numpy as np

from .errors import DisconnectedGraphError, ParseError


@dataclass(frozen=True)
class Graph:
    """Undirected simple graph on vertex ids 0..vertex_count-1.

    Edges are stored once as (u, v) with u < v, sorted.
    """

    vertex_count: int
    edges: tuple[tuple[int, int], ...]

    def __post_init__(self) -> None:
        if self.vertex_count < 0:
            raise ValueError("vertex_count must be nonnegative")
        previous = (-1, -1)
        for u, v in self.edges:
            if u == v:
                raise ValueError(f"self-loop at vertex {u}")
            if not (0 <= u < v < self.vertex_count):
                raise ValueError(
                    f"edge ({u}, {v}) invalid for {self.vertex_count} vertices"
                    " (endpoints must satisfy 0 <= u < v < vertex_count)"
                )
            if (u, v) <= previous:
                if (u, v) == previous:
                    raise ValueError(f"duplicate edge ({u}, {v})")
                raise ValueError(f"edges must be sorted: ({u}, {v}) follows {previous}")
            previous = (u, v)

    @classmethod
    def from_edges(cls, vertex_count: int, edges) -> Graph:
        """Build a Graph from any iterable of (u, v) pairs.

        Orientation is normalized and duplicates are collapsed; self-loops
        are rejected.
        """
        normalized = {(u, v) if u < v else (v, u) for u, v in edges}
        return cls(vertex_count, tuple(sorted(normalized)))

    @property
    def edge_count(self) -> int:
        return len(self.edges)

    @cached_property
    def neighbours(self) -> tuple[np.ndarray, np.ndarray]:
        """Read-only neighbour table (nbr, starts), built once: vertex v's run
        nbr[starts[v]:starts[v + 1]] (to the end for the last) lists v itself
        and its neighbours in no set order, so ufunc.reduceat(x[nbr], starts)
        reduces x over every closed neighbourhood."""
        ends = np.array(self.edges, dtype=np.intp).reshape(-1, 2)
        vertices = np.arange(self.vertex_count)
        tails = np.concatenate([vertices, ends[:, 0], ends[:, 1]])
        heads = np.concatenate([vertices, ends[:, 1], ends[:, 0]])
        order = np.argsort(tails)
        nbr = heads[order]
        starts = np.searchsorted(tails[order], vertices)
        nbr.setflags(write=False)
        starts.setflags(write=False)
        return nbr, starts


def keep(a: np.ndarray, dtype) -> np.ndarray:
    """a if it is read-only, owns its data and has the dtype, else a read-only copy."""
    if a.dtype != dtype or a.flags.writeable or a.base is not None:
        a = a.astype(dtype)
        a.setflags(write=False)
    return a


def upper_pairs(m: np.ndarray) -> np.ndarray:
    """Read-only vector of m[i, j] over the pairs i<j in row-major order.

    This is the pair order of every metric; apsp writes the same one row by
    row, and TestApsp::test_pairs_equal_floyd_warshall_across_blocks and
    test_metrics.py::test_pair_vectors_match_triu_indices pin the two equal.
    The n x n mask is built per call, as a cached one would outlive m.
    """
    pairs = m[~np.tri(m.shape[0], dtype=bool)]
    pairs.setflags(write=False)
    return pairs


@dataclass(frozen=True, eq=False)
class DistanceMatrix:
    """Positive distances of n vertices, kept condensed: pairs holds them in
    the pair order of upper_pairs, as apsp builds them, and the constructor
    checks it once (C(n, 2) finite, positive entries). Integer pairs, such as
    apsp's hop levels, are kept in the smallest unsigned dtype that holds the
    largest one (1 B per pair up to 255, so 2 MB at n = 2000), float pairs as
    float64 (8 B per pair), by the rule of keep: apsp's read-only vector
    without a copy. from_square builds one from an n x n matrix. The
    metrics read only pairs and the rank table pair_codes; d rebuilds the
    square matrix for the callers that want one.
    """

    n: int
    pairs: np.ndarray = field(repr=False)

    def __post_init__(self) -> None:
        n, pairs = self.n, np.asarray(self.pairs)
        if n < 0 or pairs.shape != (n * (n - 1) // 2,):
            raise ValueError(f"{n} vertices need {n * (n - 1) // 2} pairs, got shape {pairs.shape}")
        # min and max reductions make no pair-length temporary, and NaN
        # propagates through both
        low, high = pairs.min(initial=1), pairs.max(initial=1)
        if not (np.isfinite(low) and np.isfinite(high)):
            raise ValueError("distances contain non-finite entries")
        if low <= 0:
            raise ValueError("off-diagonal distances must be positive")
        dtype = np.min_scalar_type(high) if pairs.dtype.kind in "iu" else float
        object.__setattr__(self, "pairs", keep(pairs, dtype))

    @classmethod
    def from_square(cls, m) -> DistanceMatrix:
        """The distances in a symmetric n x n matrix with a zero diagonal,
        checked in its own dtype: the shape, the pairs i < j through the
        constructor, then the diagonal and the symmetry."""
        if not (isinstance(m, np.ndarray) and m.dtype.kind in "iuf"):
            m = np.asarray(m, dtype=float)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise ValueError(f"distance matrix must be square, got shape {m.shape}")
        # upper_pairs copies, so the caller's matrix is not kept
        distances = cls(m.shape[0], upper_pairs(m))
        if np.any(np.diagonal(m) != 0):
            raise ValueError("distance matrix diagonal must be zero")
        if not np.array_equal(m, m.T):
            raise ValueError("distance matrix must be symmetric")
        return distances

    @property
    def d(self) -> np.ndarray:
        """The symmetric n x n float64 matrix, rebuilt read-only from pairs on
        each access (32 MB at n = 2000)."""
        mask = ~np.tri(self.n, dtype=bool)
        d = np.zeros((self.n, self.n))
        d[mask] = self.pairs
        d.T[mask] = self.pairs
        d.setflags(write=False)
        return d

    @property
    def max_distance(self) -> float:
        return float(self.pairs.max(initial=0))

    @cached_property
    def pair_codes(self) -> np.ndarray:
        """Read-only codes of the pairs that sort and tie as the distances do.

        Unsigned integer pairs below n, as apsp's levels are, are their own
        codes (a level no pair has is an empty bin of a per-code table). The
        dtype decides, not the values: other pairs, a float square of whole
        numbers too, get each one's index among the distinct values
        (np.unique), cached in the smallest unsigned dtype that holds them."""
        pairs = self.pairs
        if pairs.dtype.kind == "u" and self.max_distance < self.n:
            return pairs
        codes = np.unique(pairs, return_inverse=True)[1]
        codes = codes.astype(np.min_scalar_type(int(codes.max(initial=0))))
        codes.setflags(write=False)
        return codes


@dataclass(frozen=True)
class ParsedGraph:
    """Result of graph-file parsing, with counts of discarded input entries."""

    graph: Graph
    self_loops_dropped: int
    duplicates_collapsed: int


def _parsed_graph(vertex_count: int, pairs: list[tuple[int, int]]) -> ParsedGraph:
    """The graph of the (u, v) pairs as read: self-loops are dropped and
    repeats of an edge, in either orientation, collapse to one; both counted."""
    edges = [(u, v) for u, v in pairs if u != v]
    graph = Graph.from_edges(vertex_count, edges)
    return ParsedGraph(graph, len(pairs) - len(edges), len(edges) - graph.edge_count)


def parse_edge_list(text: str) -> ParsedGraph:
    """Parse a plain edge list: one "u v" pair per line.

    '#' starts a comment (whole line or trailing). Blank lines are skipped.
    Duplicate edges (in either orientation) collapse to one; self-loops are
    dropped and counted. vertex_count is 1 + the largest id seen.
    """
    pairs: list[tuple[int, int]] = []
    max_id = -1
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        tokens = line.split()
        if len(tokens) != 2:
            raise ParseError(
                f"line {lineno}: expected two integer tokens, got {len(tokens)}: {raw!r}"
            )
        try:
            u, v = int(tokens[0]), int(tokens[1])
        except ValueError:
            raise ParseError(f"line {lineno}: malformed integer token in {raw!r}") from None
        if u < 0 or v < 0:
            raise ParseError(f"line {lineno}: negative vertex id in {raw!r}")
        max_id = max(max_id, u, v)
        pairs.append((u, v))
    return _parsed_graph(max_id + 1, pairs)


def serialize_edge_list(graph: Graph) -> str:
    """Inverse of parse_edge_list (up to dropped loops/duplicates)."""
    return "".join(f"{u} {v}\n" for u, v in graph.edges)


_MM_FIELDS = {"real", "integer", "pattern"}
_MM_SYMMETRIES = {"general", "symmetric", "skew-symmetric"}


def parse_matrix_market(text: str) -> ParsedGraph:
    """Interpret a Matrix Market coordinate file as an undirected graph.

    One vertex per row/column index; every off-diagonal nonzero becomes an
    edge (symmetrized), and diagonal entries and numeric values are ignored.
    Loops and duplicates are counted as in parse_edge_list, so the transpose
    of an entry already read counts as a duplicate. The number of entries
    must match the size line's nnz.
    """
    lines = iter(enumerate(text.splitlines(), start=1))
    try:
        _, header = next(lines)
    except StopIteration:
        raise ParseError("empty Matrix Market input") from None
    tokens = header.lower().split()
    if len(tokens) < 4 or tokens[0] != "%%matrixmarket" or tokens[1] != "matrix":
        raise ParseError(f"line 1: not a Matrix Market matrix header: {header!r}")
    fmt = tokens[2]
    field = tokens[3]
    symmetry = tokens[4] if len(tokens) > 4 else "general"
    if fmt != "coordinate":
        raise ParseError(f"unsupported Matrix Market format {fmt!r} (need coordinate)")
    if field not in _MM_FIELDS:
        raise ParseError(f"unsupported Matrix Market field {field!r}")
    if symmetry not in _MM_SYMMETRIES:
        raise ParseError(f"unsupported Matrix Market symmetry {symmetry!r}")

    size: tuple[int, int, int] | None = None
    pairs: list[tuple[int, int]] = []
    for lineno, raw in lines:
        line = raw.strip()
        if not line or line.startswith("%"):
            continue
        tokens = line.split()
        if size is None:
            if len(tokens) != 3:
                raise ParseError(f"line {lineno}: expected 'rows cols nnz' size line")
            try:
                rows, cols, nnz = (int(t) for t in tokens)
            except ValueError:
                raise ParseError(f"line {lineno}: malformed size line {raw!r}") from None
            if rows != cols:
                raise ParseError(f"matrix is {rows}x{cols}; only square matrices map to graphs")
            size = (rows, nnz, lineno)
            continue
        if len(tokens) < 2:
            raise ParseError(f"line {lineno}: expected 'i j [value]' entry")
        try:
            i, j = int(tokens[0]), int(tokens[1])
        except ValueError:
            raise ParseError(f"line {lineno}: malformed coordinate entry {raw!r}") from None
        n = size[0]
        if not (1 <= i <= n and 1 <= j <= n):
            raise ParseError(f"line {lineno}: entry ({i}, {j}) outside {n}x{n} matrix")
        pairs.append((i - 1, j - 1))
    if size is None:
        raise ParseError("missing Matrix Market size line")
    n, nnz, size_lineno = size
    if len(pairs) != nnz:
        raise ParseError(
            f"line {size_lineno}: size line declares {nnz} entries, file has {len(pairs)}"
        )
    return _parsed_graph(n, pairs)


def read_graph_file(path) -> ParsedGraph:
    """Read a graph file: Matrix Market by suffix (.mtx/.mm), else an edge list.

    Raises ParseError naming the file when it cannot be read or decoded as
    UTF-8 (a leading byte-order mark is skipped), does not parse, or holds
    no vertices.
    """
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8-sig")
        if path.suffix.lower() in (".mtx", ".mm"):
            parsed = parse_matrix_market(text)
        else:
            parsed = parse_edge_list(text)
    except (OSError, ValueError) as exc:
        raise ParseError(f"{path}: {exc}") from exc
    if parsed.graph.vertex_count == 0:
        raise ParseError(f"{path}: graph has no vertices")
    return parsed


def connected_components(graph: Graph) -> list[list[int]]:
    """Vertex sets of the connected components, each sorted ascending.

    Components come in the order of their smallest vertex; an isolated
    vertex is a component of its own, and a graph without vertices has none.
    Every vertex starts labelled with itself. A round takes the smallest
    label of each neighbourhood in Graph.neighbours, lowers each label to
    the smallest its vertices saw (Shiloach-Vishkin hooking) and gives each
    vertex its label's label (a pointer jump), until no label changes: a
    randomly numbered 20,000-vertex path takes 13 rounds. Its arrays are
    sized by vertex_count, so a parsed graph with sparse ids goes through
    largest_connected_component first.
    """
    nbr, starts = graph.neighbours
    label = np.arange(graph.vertex_count)
    while True:
        seen = np.minimum.reduceat(label[nbr], starts)
        smallest = seen.copy()
        np.minimum.at(smallest, label, seen)
        jumped = smallest[smallest]
        if np.array_equal(jumped, label):
            break
        label = jumped
    # grouped by label and ascending within a group, which opens with its label
    order = np.argsort(label, kind="stable")
    vertices = order.tolist()
    bounds = np.flatnonzero(label[order] == order).tolist() + [len(vertices)]
    return [vertices[a:b] for a, b in zip(bounds, bounds[1:])]


def largest_connected_component(graph: Graph) -> tuple[Graph, tuple[int, ...]]:
    """Induced subgraph on the largest component, ids renumbered contiguously.

    Returns (subgraph, new_to_old) where new_to_old[k] is the original id of
    the vertex now numbered k. Ties between equal-size components go to the
    one containing the smallest original id.
    """
    if graph.vertex_count == 0:
        raise ValueError("empty graph has no components")
    # only edge endpoints are searched (vertex 0 when there are none), as no
    # isolated vertex outgrows a component with an edge; so ids may be sparse
    carriers = sorted({v for edge in graph.edges for v in edge}) or [0]
    position = {v: k for k, v in enumerate(carriers)}
    edges = tuple((position[u], position[v]) for u, v in graph.edges)
    components = connected_components(Graph(len(carriers), edges))
    best = [carriers[k] for k in max(components, key=lambda c: (len(c), -c[0]))]
    old_to_new = {old: new for new, old in enumerate(best)}
    # renumbering keeps id order, so the edges stay sorted with u < v
    edges = tuple((old_to_new[u], old_to_new[v]) for u, v in graph.edges if u in old_to_new)
    return Graph(len(best), edges), tuple(best)


def _level_blocks(graph: Graph):
    """Hop levels from one block of 64 sources at a time (the last block
    holds the rest): yields (first, levels) in source order, levels[s, v]
    being the hop count from source first + s to vertex v in the smallest
    unsigned type that holds the block's largest level.

    A block runs its sources' breadth-first searches together, one bit per
    source in a uint64 word per vertex (the multi-source BFS of Then et al.,
    VLDB 2014): bit s of vertex v's frontier word is set while v is in
    source first + s's frontier, and of its unreached word until that search
    reaches v. A level ORs the frontier words over the neighbour table
    Graph.neighbours, in which every vertex also lists itself, and ORs the
    new frontier into one bit plane for each binary digit of the level's
    number; the levels are unpacked from the planes at the block's end. A
    block holds V words each of frontier, unreached sources and planes,
    V + 2E gathered words, and k x V levels and unpacked bits for its k
    sources: O(diam*(V+E)*ceil(V/64)) word operations and O(log(diam)*V^2)
    unpacked bits over all blocks.

    Raises DisconnectedGraphError naming vertex 0 and the smallest vertex
    it cannot reach, from the first block, if the graph is not connected.
    """
    n = graph.vertex_count
    nbr, starts = graph.neighbours
    for first in range(0, n, 64):
        k = min(64, n - first)
        bits = np.left_shift(np.uint64(1), np.arange(k, dtype=np.uint64))
        # little-endian words, so byte b of a word holds bits 8b to 8b + 7
        frontier = np.zeros(n, "<u8")
        frontier[first : first + k] = bits
        unreached = np.full(n, np.bitwise_or.reduce(bits), "<u8")
        unreached[first : first + k] ^= bits
        # planes[p]: bit p of the level at which each search reached each vertex
        planes = []
        level = 0
        while unreached.any():
            level += 1
            np.bitwise_and(np.bitwise_or.reduceat(frontier[nbr], starts), unreached, out=frontier)
            if not frontier.any():
                missing = int(np.flatnonzero(unreached & 1)[0])
                raise DisconnectedGraphError(
                    f"graph is disconnected: no path between vertices 0 and {missing}"
                )
            unreached ^= frontier
            if level.bit_length() > len(planes):
                planes.append(np.zeros(n, "<u8"))
            for p, plane in enumerate(planes):
                if level >> p & 1:
                    plane |= frontier
        # unpacked vertex-major, as the words lie, and yielded transposed
        levels = np.zeros((n, k), np.min_scalar_type(level))
        for p, plane in enumerate(planes):
            digit = np.unpackbits(
                plane.view(np.uint8).reshape(n, 8), axis=1, count=k, bitorder="little"
            )
            levels |= digit.astype(levels.dtype, copy=False) << p
        yield first, levels.T


def apsp(graph: Graph) -> DistanceMatrix:
    """All-pairs shortest-path hop counts, one block of 64 sources at a time.

    Each block of _level_blocks writes its sources' upper rows (the pairs
    i < j) into one pair vector of C(V, 2) levels, which becomes
    DistanceMatrix(V, pairs): no V x V array is built. The first block fixes
    the vector's type, the smallest unsigned one that holds twice vertex 0's
    eccentricity (a bound on the diameter, as d(u, v) <= d(u, 0) + d(0, v)),
    capped at V - 1, and handed over read-only: the constructor keeps it, or
    narrows it in one copy to the smallest type that holds the diameter (1 B
    per pair up to 255, 2 MB at V = 2000). Besides it apsp holds one block.

    Raises DisconnectedGraphError naming vertex 0 and the smallest vertex
    it cannot reach if the graph is not connected.
    """
    n = graph.vertex_count
    if n < 2:
        raise ValueError(f"shortest paths need at least 2 vertices, got {n}")
    pairs = None
    filled = 0
    for first, levels in _level_blocks(graph):
        if pairs is None:
            bound = min(2 * int(levels[0].max()), n - 1)
            pairs = np.empty(n * (n - 1) // 2, np.min_scalar_type(bound))
        for i, row in enumerate(levels, first):
            pairs[filled : filled + n - 1 - i] = row[i + 1 :]
            filled += n - 1 - i
    pairs.setflags(write=False)
    return DistanceMatrix(n, pairs)
