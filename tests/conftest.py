"""Shared fixtures and independent oracles used across the test suite."""

from __future__ import annotations

import itertools
import weakref

import numpy as np
import pytest

from layoutstress import Graph, Layout, LayoutDistances, apsp, pairwise_distances


# ---------------------------------------------------------------------------
# graph builders


def path_graph(n: int) -> Graph:
    return Graph.from_edges(n, [(i, i + 1) for i in range(n - 1)])


def cycle_graph(n: int) -> Graph:
    return Graph.from_edges(n, [(i, (i + 1) % n) for i in range(n)])


def complete_graph(n: int) -> Graph:
    return Graph.from_edges(n, itertools.combinations(range(n), 2))


def grid_graph(rows: int, cols: int) -> Graph:
    def vid(r, c):
        return r * cols + c

    edges = []
    for r in range(rows):
        for c in range(cols):
            if c + 1 < cols:
                edges.append((vid(r, c), vid(r, c + 1)))
            if r + 1 < rows:
                edges.append((vid(r, c), vid(r + 1, c)))
    return Graph.from_edges(rows * cols, edges)


def gnp_connected(n: int, p: float, rng: np.random.Generator) -> Graph:
    """Random G(n, p) conditioned on connectivity (retry sampling)."""
    while True:
        mask = rng.random((n, n)) < p
        edges = [(i, j) for i in range(n) for j in range(i + 1, n) if mask[i, j]]
        g = Graph.from_edges(n, edges)
        if _is_connected(g):
            return g


def _is_connected(g: Graph) -> bool:
    """Whether a search from vertex 0 reaches every vertex, over neighbours
    read from the edge list rather than from the graph module."""
    if g.vertex_count == 0:
        return False
    neighbours = [[] for _ in range(g.vertex_count)]
    for u, v in g.edges:
        neighbours[u].append(v)
        neighbours[v].append(u)
    seen = {0}
    stack = [0]
    while stack:
        u = stack.pop()
        for v in neighbours[u]:
            if v not in seen:
                seen.add(v)
                stack.append(v)
    return len(seen) == g.vertex_count


def random_instance(rng: np.random.Generator, n_min=5, n_max=25):
    """A connected graph, its distances, and a random layout for it."""
    n = int(rng.integers(n_min, n_max + 1))
    g = gnp_connected(n, min(0.9, 2.5 / n + 0.15), rng)
    d = apsp(g)
    layout = Layout(rng.random((n, 2)) * rng.uniform(0.5, 20.0))
    return g, d, layout


# ---------------------------------------------------------------------------
# independent oracles


def floyd_warshall(g: Graph) -> np.ndarray:
    n = g.vertex_count
    d = np.full((n, n), np.inf)
    np.fill_diagonal(d, 0.0)
    for u, v in g.edges:
        d[u, v] = d[v, u] = 1.0
    for k in range(n):
        # every i, j at once: row and column k do not change in step k
        d = np.minimum(d, d[:, k, None] + d[None, k, :])
    return d


def drs_quadruple_loop(e: np.ndarray, d: np.ndarray) -> float:
    """Literal four-index definition of distance-ratio stress."""
    n = e.shape[0]
    total = 0.0
    for i in range(n):
        for j in range(i + 1, n):
            for k in range(n):
                for l in range(k + 1, n):
                    total += (e[i, j] / e[k, l] - d[i, j] / d[k, l]) ** 2
    return total


def isotonic_by_enumeration(ys, weights=None) -> np.ndarray:
    """Exact isotonic fit by enumerating contiguous block partitions."""
    ys = np.asarray(ys, dtype=float)
    k = ys.size
    w = np.ones(k) if weights is None else np.asarray(weights, dtype=float)
    best_obj = np.inf
    best_fit = None
    for boundary_bits in range(2 ** (k - 1)):
        cuts = [0] + [i + 1 for i in range(k - 1) if boundary_bits >> i & 1] + [k]
        fit = np.empty(k)
        means = []
        for a, b in zip(cuts[:-1], cuts[1:]):
            m = float(np.sum(w[a:b] * ys[a:b]) / np.sum(w[a:b]))
            means.append(m)
            fit[a:b] = m
        if any(m2 < m1 for m1, m2 in zip(means, means[1:])):
            continue
        obj = float(np.sum(w * (ys - fit) ** 2))
        if obj < best_obj - 1e-15:
            best_obj = obj
            best_fit = fit
    return best_fit


# ---------------------------------------------------------------------------
# fixtures


@pytest.fixture(scope="session")
def p3():
    """Path graph 0-1-2, its distances, and hand-checked layouts."""
    g = path_graph(3)
    d = apsp(g)
    perfect = Layout(np.array([[0.0, 0.0], [1.0, 0.0], [2.0, 0.0]]))
    doubled = Layout(np.array([[0.0, 0.0], [2.0, 0.0], [4.0, 0.0]]))
    stretched = Layout(np.array([[0.0, 0.0], [1.0, 0.0], [3.0, 0.0]]))
    return {
        "graph": g,
        "d": d,
        "perfect": perfect,
        "doubled": doubled,
        "stretched": stretched,
        "e_perfect": pairwise_distances(perfect),
        "e_doubled": pairwise_distances(doubled),
        "e_stretched": pairwise_distances(stretched),
    }


@pytest.fixture(scope="session")
def p2():
    g = path_graph(2)
    d = apsp(g)
    unit = Layout(np.array([[0.0, 0.0], [1.0, 0.0]]))
    tripled = Layout(np.array([[0.0, 0.0], [3.0, 0.0]]))
    return {
        "graph": g,
        "d": d,
        "e1": pairwise_distances(unit),
        "e2": pairwise_distances(tripled),
    }


def as_layout_distances(matrix: np.ndarray):
    return LayoutDistances(np.asarray(matrix, dtype=float))


class DrawingCensus(list):
    """For each LayoutDistances built, how many built before it were still
    alive then; alive() counts those alive now."""

    def __init__(self):
        super().__init__()
        self.refs = []

    def alive(self) -> int:
        return sum(ref() is not None for ref in self.refs)


@pytest.fixture
def live_drawings(monkeypatch):
    """A DrawingCensus of the LayoutDistances built during the test."""
    census = DrawingCensus()
    original = LayoutDistances.__post_init__

    def tracked(self):
        census.append(census.alive())
        census.refs.append(weakref.ref(self))
        original(self)

    monkeypatch.setattr(LayoutDistances, "__post_init__", tracked)
    return census
