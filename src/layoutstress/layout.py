"""2D drawings: representation, scaling, distances, and generators.

The bundled optimizer is stress majorization (SMACOF) on the d^-2-weighted
raw stress, one dense Guttman transform per iteration: O(n^3) setup and
O(n^2) memory, for the harness's graphs of tens of vertices. It stands in
for an external stress-optimizing engine so the experiment harness has a
hermetic "good" layout source. External layouts enter via the id,x,y CSV
format.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import DegenerateLayoutError, ParseError
from .graph import DistanceMatrix, upper_pairs


@dataclass(frozen=True, eq=False)
class Layout:
    """Per-vertex 2D coordinates; row i is the position of vertex i."""

    positions: np.ndarray

    def __post_init__(self) -> None:
        p = np.asarray(self.positions, dtype=float)
        if p.ndim != 2 or p.shape[1] != 2:
            raise ValueError(f"positions must have shape (n, 2), got {p.shape}")
        if not np.all(np.isfinite(p)):
            raise ValueError("layout contains non-finite coordinates")
        p = p.copy()
        p.setflags(write=False)
        object.__setattr__(self, "positions", p)

    @property
    def n(self) -> int:
        return self.positions.shape[0]


@dataclass(frozen=True, eq=False)
class LayoutDistances:
    """Symmetric matrix of pairwise Euclidean distances of a drawing."""

    e: np.ndarray

    def __post_init__(self) -> None:
        e = np.asarray(self.e, dtype=float)
        if e.ndim != 2 or e.shape[0] != e.shape[1]:
            raise ValueError(f"distance matrix must be square, got shape {e.shape}")
        if not np.all(np.isfinite(e)):
            raise ValueError("layout distances contain non-finite entries")
        if np.any(np.diagonal(e) != 0.0) or np.any(e < 0.0):
            raise ValueError("layout distances must be nonnegative with zero diagonal")
        if not np.array_equal(e, e.T):
            raise ValueError("layout distances must be symmetric")
        e = e.copy()
        e.setflags(write=False)
        object.__setattr__(self, "e", e)

    @property
    def n(self) -> int:
        return self.e.shape[0]

    @property
    def max_distance(self) -> float:
        return float(self.e.max())

    @cached_property
    def pairs(self) -> np.ndarray:
        """Read-only e_ij over i<j in upper_pairs order, cached for the object's
        lifetime: one C(n, 2) float64 vector, 16 MB at n = 2000."""
        return upper_pairs(self.e)

    @cached_property
    def pair_order(self) -> np.ndarray:
        """Read-only argsort of pairs, cached for the object's lifetime: one
        C(n, 2) int64 vector, 8 B per pair (16 MB at n = 2000)."""
        order = np.argsort(self.pairs)
        order.setflags(write=False)
        return order


#: rows of dy^2 that pairwise_distances adds at a time (2 MB at n = 1000)
_ROW_BLOCK = 256


def pairwise_distances(layout: Layout) -> LayoutDistances:
    """Euclidean distance between every vertex pair.

    Computes sqrt(dx^2 + dy^2) in place, adding dy^2 in blocks of
    _ROW_BLOCK rows, so the one n x n float array it builds is alive at
    most together with the copy that LayoutDistances keeps.
    """
    n = layout.n
    if n < 2:
        raise ValueError(f"need at least 2 vertices, got {n}")
    x, y = layout.positions.T
    # an overflow gives inf, which LayoutDistances refuses in one error
    with np.errstate(over="ignore"):
        e = x[:, None] - x
        e *= e
        for start in range(0, n, _ROW_BLOCK):
            dy = y[start : start + _ROW_BLOCK, None] - y
            dy *= dy
            e[start : start + _ROW_BLOCK] += dy
        np.sqrt(e, out=e)
    return LayoutDistances(e)


def scale_layout(layout: Layout, alpha: float) -> Layout:
    """Multiply every coordinate by alpha (> 0, finite)."""
    if not (math.isfinite(alpha) and alpha > 0.0):
        raise ValueError(f"scale factor must be a positive finite real, got {alpha}")
    with np.errstate(over="ignore"):  # Layout refuses the inf in one error
        positions = layout.positions * alpha
    return Layout(positions)


def scale_to_max_distance(layout: Layout, target: float) -> Layout:
    """Rescale so the maximum pairwise drawing distance equals target."""
    if not (math.isfinite(target) and target > 0.0):
        raise ValueError(f"target distance must be positive and finite, got {target}")
    current = pairwise_distances(layout).max_distance
    if current == 0.0:
        raise DegenerateLayoutError("all points coincide; layout has no scale")
    return scale_layout(layout, target / current)


def random_layout(n: int, seed: int) -> Layout:
    """n points i.i.d. uniform on the unit square, deterministic per seed."""
    if n < 1:
        raise ValueError(f"need at least 1 vertex, got {n}")
    rng = np.random.default_rng(seed)
    return Layout(rng.random((n, 2)))


def circle_layout(n: int) -> Layout:
    """Vertex i at angle 2*pi*i/n on the unit circle."""
    if n < 2:
        raise ValueError(f"need at least 2 vertices, got {n}")
    angles = 2.0 * np.pi * np.arange(n) / n
    return Layout(np.column_stack([np.cos(angles), np.sin(angles)]))


def optimize_layout(distances: DistanceMatrix, seed: int = 0, iterations: int = 100) -> Layout:
    """Improve a random initial drawing by stress majorization (SMACOF).

    Starts from ``random_layout(n, seed)`` and minimizes the raw stress
    sum_{i<j} d_ij^-2 (e_ij - d_ij)^2, the weighting the stress metrics
    apply. One iteration is one Guttman transform

        X <- L^+ (diag(C 1) X - C X),  C_ij = d_ij^-1 / e_ij  (0 where e_ij = 0),

    where L is the Laplacian of the weights d_ij^-2 and L^+ its
    pseudo-inverse; the stress never increases from one iteration to the
    next (Gansner, Koren & North, GD 2004). Setup inverts an n x n matrix,
    O(n^3), and every iteration holds a few n x n arrays, O(n^2) memory:
    meant for harness-size graphs, not thousands of vertices.
    Deterministic for a fixed (distances, seed, iterations).
    """
    if iterations < 1:
        raise ValueError(f"iterations must be >= 1, got {iterations}")
    n = distances.n
    inv_d = np.divide(1.0, distances.d, out=np.zeros((n, n)), where=~np.eye(n, dtype=bool))
    weights = inv_d * inv_d
    laplacian = np.diag(weights.sum(axis=1)) - weights
    # every pair has a weight, so L + J/n is nonsingular and its inverse
    # minus J/n is the pseudo-inverse of L; inv avoids pinv's threaded SVD
    mean = np.full((n, n), 1.0 / n)
    laplacian_pinv = np.linalg.inv(laplacian + mean) - mean
    x = random_layout(n, seed).positions
    for _ in range(iterations):
        dx = x[:, 0, None] - x[None, :, 0]
        dy = x[:, 1, None] - x[None, :, 1]
        r = np.sqrt(dx * dx + dy * dy)
        c = np.divide(inv_d, r, out=np.zeros((n, n)), where=r > 0)
        x = laplacian_pinv @ (c.sum(axis=1)[:, None] * x - c @ x)
    return Layout(x)


LAYOUT_CSV_HEADER = "id,x,y"


def write_layout_csv(layout: Layout) -> str:
    """Serialize as id,x,y rows at full double precision (round-trips exactly)."""
    lines = [LAYOUT_CSV_HEADER]
    for i, (x, y) in enumerate(layout.positions.tolist()):
        lines.append(f"{i},{x!r},{y!r}")
    return "\n".join(lines) + "\n"


def read_layout_csv(text: str) -> Layout:
    """Parse the id,x,y format; ids must be exactly 0..n-1, each once."""
    lines = [ln.strip() for ln in text.splitlines()]
    rows = [ln for ln in lines if ln]
    if not rows or rows[0].replace(" ", "") != LAYOUT_CSV_HEADER:
        raise ParseError(f"layout CSV must start with header '{LAYOUT_CSV_HEADER}'")
    coords: dict[int, tuple[float, float]] = {}
    for lineno, row in enumerate(rows[1:], start=2):
        parts = [p.strip() for p in row.split(",")]
        if len(parts) != 3:
            raise ParseError(f"line {lineno}: expected 'id,x,y', got {row!r}")
        try:
            vid = int(parts[0])
            x, y = float(parts[1]), float(parts[2])
        except ValueError:
            raise ParseError(f"line {lineno}: malformed layout row {row!r}") from None
        if vid in coords:
            raise ParseError(f"line {lineno}: duplicate row for vertex id {vid}")
        coords[vid] = (x, y)
    n = len(coords)
    for vid in range(n):
        if vid not in coords:
            raise ParseError(f"layout is missing a row for vertex id {vid}")
    return Layout(np.array([coords[i] for i in range(n)], dtype=float))
