"""Graph ingestion and all-pairs shortest paths.

Graphs are undirected, simple, unweighted, with contiguous vertex ids.
Graph-theoretic distances are hop counts, stored as a dense symmetric
matrix of floats.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from functools import cached_property, lru_cache

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
        normalized = set()
        for u, v in edges:
            if u == v:
                raise ValueError(f"self-loop at vertex {u}")
            normalized.add((u, v) if u < v else (v, u))
        return cls(vertex_count, tuple(sorted(normalized)))

    @property
    def edge_count(self) -> int:
        return len(self.edges)

    @cached_property
    def adjacency(self) -> tuple[tuple[int, ...], ...]:
        neighbors: list[list[int]] = [[] for _ in range(self.vertex_count)]
        for u, v in self.edges:
            neighbors[u].append(v)
            neighbors[v].append(u)
        return tuple(tuple(sorted(ns)) for ns in neighbors)

    @cached_property
    def _edge_set(self) -> frozenset[tuple[int, int]]:
        return frozenset(self.edges)

    def has_edge(self, u: int, v: int) -> bool:
        if u > v:
            u, v = v, u
        return (u, v) in self._edge_set


@lru_cache(maxsize=128)
def _triu(n: int) -> np.ndarray:
    mask = np.triu(np.ones((n, n), dtype=bool), 1)
    mask.setflags(write=False)
    return mask


def upper_pairs(m: np.ndarray) -> np.ndarray:
    """Read-only vector of m[i, j] over the pairs i<j in row-major order.

    This is the one place the pair order of every metric is defined.
    """
    pairs = m[_triu(m.shape[0])]
    pairs.setflags(write=False)
    return pairs


@dataclass(frozen=True, eq=False)
class DistanceMatrix:
    """Symmetric matrix of positive pairwise distances, zero diagonal."""

    d: np.ndarray

    def __post_init__(self) -> None:
        d = np.asarray(self.d, dtype=float)
        if d.ndim != 2 or d.shape[0] != d.shape[1]:
            raise ValueError(f"distance matrix must be square, got shape {d.shape}")
        if not np.all(np.isfinite(d)):
            raise ValueError("distance matrix contains non-finite entries")
        if np.any(np.diagonal(d) != 0.0):
            raise ValueError("distance matrix diagonal must be zero")
        if not np.array_equal(d, d.T):
            raise ValueError("distance matrix must be symmetric")
        # the diagonal is zero, so exactly its n entries may be <= 0
        if np.count_nonzero(d <= 0.0) != d.shape[0]:
            raise ValueError("off-diagonal distances must be positive")
        d = d.copy()
        d.setflags(write=False)
        object.__setattr__(self, "d", d)

    @property
    def n(self) -> int:
        return self.d.shape[0]

    @property
    def max_distance(self) -> float:
        return float(self.d.max())

    @cached_property
    def pairs(self) -> np.ndarray:
        """Read-only d_ij over i<j in upper_pairs order, cached for the object's
        lifetime: one C(n, 2) float64 vector, 16 MB at n = 2000."""
        return upper_pairs(self.d)


@dataclass(frozen=True)
class ParsedGraph:
    """Result of edge-list parsing, with counts of discarded input lines."""

    graph: Graph
    self_loops_dropped: int
    duplicates_collapsed: int


def parse_edge_list(text: str) -> ParsedGraph:
    """Parse a plain edge list: one "u v" pair per line.

    '#' starts a comment (whole line or trailing). Blank lines are skipped.
    Duplicate edges (in either orientation) collapse to one; self-loops are
    dropped and counted. vertex_count is 1 + the largest id seen.
    """
    edges: set[tuple[int, int]] = set()
    max_id = -1
    loops = 0
    dups = 0
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
        if u == v:
            loops += 1
            continue
        edge = (u, v) if u < v else (v, u)
        if edge in edges:
            dups += 1
        else:
            edges.add(edge)
    graph = Graph(max_id + 1, tuple(sorted(edges)))
    return ParsedGraph(graph, self_loops_dropped=loops, duplicates_collapsed=dups)


def serialize_edge_list(graph: Graph) -> str:
    """Inverse of parse_edge_list (up to dropped loops/duplicates)."""
    return "".join(f"{u} {v}\n" for u, v in graph.edges)


_MM_FIELDS = {"real", "integer", "pattern"}
_MM_SYMMETRIES = {"general", "symmetric", "skew-symmetric"}


def parse_matrix_market(text: str) -> Graph:
    """Interpret a Matrix Market coordinate file as an undirected graph.

    One vertex per row/column index; every off-diagonal nonzero becomes an
    edge (symmetrized); diagonal entries and numeric values are ignored.
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
    edges: set[tuple[int, int]] = set()
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
            size = (rows, cols, nnz)
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
        if i == j:
            continue
        u, v = i - 1, j - 1
        edges.add((u, v) if u < v else (v, u))
    if size is None:
        raise ParseError("missing Matrix Market size line")
    return Graph(size[0], tuple(sorted(edges)))


def connected_components(graph: Graph) -> list[list[int]]:
    """Vertex sets of the connected components, each sorted ascending."""
    n = graph.vertex_count
    adjacency = graph.adjacency
    seen = [False] * n
    components: list[list[int]] = []
    for start in range(n):
        if seen[start]:
            continue
        seen[start] = True
        queue = deque([start])
        component = [start]
        while queue:
            u = queue.popleft()
            for v in adjacency[u]:
                if not seen[v]:
                    seen[v] = True
                    component.append(v)
                    queue.append(v)
        component.sort()
        components.append(component)
    return components


def largest_connected_component(graph: Graph) -> tuple[Graph, tuple[int, ...]]:
    """Induced subgraph on the largest component, ids renumbered contiguously.

    Returns (subgraph, new_to_old) where new_to_old[k] is the original id of
    the vertex now numbered k. Ties between equal-size components go to the
    one containing the smallest original id.
    """
    if graph.vertex_count == 0:
        raise ValueError("empty graph has no components")
    components = connected_components(graph)
    best = max(components, key=lambda c: (len(c), -c[0]))
    old_to_new = {old: new for new, old in enumerate(best)}
    keep = set(best)
    edges = [
        (old_to_new[u], old_to_new[v])
        for u, v in graph.edges
        if u in keep and v in keep
    ]
    return Graph.from_edges(len(best), edges), tuple(best)


def _pack_bits(bits: np.ndarray) -> np.ndarray:
    """Rows of booleans as little-endian uint64 words, column k at bit k."""
    return np.packbits(bits, axis=1, bitorder="little").view("<u8")


def apsp(graph: Graph) -> DistanceMatrix:
    """All-pairs shortest-path hop counts by one BFS from every vertex at once.

    The searches advance level by level together, one bit per source and
    64 sources to a uint64 word (the multi-source BFS of Then et al., VLDB
    2014). A level ORs the frontier words over a neighbour list in which
    every vertex also lists itself, and adds one unpacked bit per (vertex,
    source) pair still unreached to the distances: O(diam*(V+E)*ceil(V/64))
    word operations and O(diam*V^2) unpacked bits in all. Besides the V x V
    result it holds V x ceil(V/64) words of frontier and of unreached
    sources, (V+2E) x ceil(V/64) gathered words, and a V x V byte array of
    unpacked bits.

    Raises DisconnectedGraphError naming vertex 0 and the smallest vertex
    it cannot reach if the graph is not connected.
    """
    n = graph.vertex_count
    if n < 2:
        raise ValueError(f"shortest paths need at least 2 vertices, got {n}")
    ends = np.array(graph.edges, dtype=np.intp).reshape(-1, 2)
    vertices = np.arange(n)
    tails = np.concatenate([vertices, ends[:, 0], ends[:, 1]])
    heads = np.concatenate([vertices, ends[:, 1], ends[:, 0]])
    order = np.argsort(tails)
    nbr = heads[order]
    starts = np.searchsorted(tails[order], vertices)
    # row v, bit s: source s's search has v in its frontier / has not reached v
    sources = np.arange(-(-n // 64) * 64)
    frontier = _pack_bits(vertices[:, None] == sources)
    unreached = _pack_bits((vertices[:, None] != sources) & (sources < n))
    d = np.zeros((n, n))
    while unreached.any():
        d += np.unpackbits(unreached.view(np.uint8), axis=1, count=n, bitorder="little")
        np.bitwise_and(
            np.bitwise_or.reduceat(frontier[nbr], starts, axis=0), unreached, out=frontier
        )
        if not frontier.any():
            missing = int(np.flatnonzero(unreached[:, 0] & 1)[0])
            raise DisconnectedGraphError(
                f"graph is disconnected: no path between vertices 0 and {missing}"
            )
        unreached ^= frontier
    return DistanceMatrix(d)
