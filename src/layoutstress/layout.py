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
from .graph import DistanceMatrix, keep, upper_pairs


@dataclass(frozen=True, eq=False)
class Layout:
    """Per-vertex 2D coordinates (row i is vertex i), kept by graph.keep."""

    positions: np.ndarray

    def __post_init__(self) -> None:
        p = np.asarray(self.positions, dtype=float)
        if p.ndim != 2 or p.shape[1] != 2:
            raise ValueError(f"positions must have shape (n, 2), got {p.shape}")
        if not np.all(np.isfinite(p)):
            raise ValueError("layout contains non-finite coordinates")
        object.__setattr__(self, "positions", keep(p, float))

    @property
    def n(self) -> int:
        return self.positions.shape[0]


@dataclass(frozen=True, eq=False)
class LayoutDistances:
    """Symmetric matrix of a drawing's pairwise Euclidean distances, kept by graph.keep."""

    e: np.ndarray

    def __post_init__(self) -> None:
        e = np.asarray(self.e, dtype=float)
        if e.ndim != 2 or e.shape[0] != e.shape[1]:
            raise ValueError(f"distance matrix must be square, got shape {e.shape}")
        low, high = e.min(initial=0), e.max(initial=0)
        if not (np.isfinite(low) and np.isfinite(high)):
            raise ValueError("layout distances contain non-finite entries")
        if low < 0 or np.any(np.diagonal(e) != 0.0):
            raise ValueError("layout distances must be nonnegative with zero diagonal")
        if not np.array_equal(e, e.T):
            raise ValueError("layout distances must be symmetric")
        object.__setattr__(self, "e", keep(e, float))

    @property
    def n(self) -> int:
        return self.e.shape[0]

    @property
    def max_distance(self) -> float:
        return float(self.e.max())

    @cached_property
    def pairs(self) -> np.ndarray:
        """Read-only e_ij over i<j in upper_pairs order, cached for the object's
        lifetime: one C(n, 2) float64 vector, 16 MB at n = 2000. It is not a
        view of e, so it outlives the object."""
        return upper_pairs(self.e)


#: rows of dy^2 that _euclidean adds at a time (4 MB at n = 2000)
_ROW_BLOCK = 256


def _euclidean(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """sqrt((x_i - x_j)^2 + (y_i - y_j)^2) for every vertex pair, built in
    place in one n x n float array. dy^2 is added _ROW_BLOCK rows at a time,
    so beyond the result the kernel holds at most that many rows of it."""
    e = x[:, None] - x
    e *= e
    for start in range(0, x.size, _ROW_BLOCK):
        dy = y[start : start + _ROW_BLOCK, None] - y
        dy *= dy
        e[start : start + _ROW_BLOCK] += dy
    return np.sqrt(e, out=e)


def pairwise_distances(layout: Layout) -> LayoutDistances:
    """Euclidean distance between every vertex pair, as a read-only n x n
    array that LayoutDistances keeps without a copy."""
    n = layout.n
    if n < 2:
        raise ValueError(f"need at least 2 vertices, got {n}")
    # an overflow gives inf, which LayoutDistances refuses in one error
    with np.errstate(over="ignore"):
        e = _euclidean(*layout.positions.T)
    e.setflags(write=False)
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
        r = _euclidean(*x.T)
        c = np.divide(inv_d, r, out=r, where=r > 0)
        x = laplacian_pinv @ (c.sum(axis=1)[:, None] * x - c @ x)
    return Layout(x)


LAYOUT_CSV_HEADER = "id,x,y"


#: the characters that make csv_text quote a str cell
_CSV_QUOTED = frozenset(',"\r\n')


def _csv_cell(cell) -> str:
    if cell is None:
        return ""
    if not isinstance(cell, str):
        return repr(cell)
    if _CSV_QUOTED.isdisjoint(cell):
        return cell
    return '"' + cell.replace('"', '""') + '"'


def csv_text(rows) -> str:
    """Rows as CSV lines, the package's one cell rule: a str cell as it is,
    quoted with its quotes doubled when it holds a comma, a quote, a carriage
    return or a newline, None as an empty cell, anything else as its repr (a
    Python float round-trips). Written here rather than by csv.writer, which
    leaves a carriage return unquoted under a "\\n" line terminator."""
    return "".join(",".join(map(_csv_cell, row)) + "\n" for row in rows)


def write_layout_csv(layout: Layout) -> str:
    """Serialize as id,x,y rows at full double precision (round-trips exactly)."""
    rows = [(i, x, y) for i, (x, y) in enumerate(layout.positions.tolist())]
    return csv_text([LAYOUT_CSV_HEADER.split(","), *rows])


def read_layout_csv(text: str) -> Layout:
    """Parse the id,x,y format; ids must be exactly 0..n-1, each once."""
    lines = [(lineno, ln.strip()) for lineno, ln in enumerate(text.splitlines(), start=1)]
    rows = [(lineno, ln) for lineno, ln in lines if ln]
    if not rows or rows[0][1].replace(" ", "") != LAYOUT_CSV_HEADER:
        raise ParseError(f"layout CSV must start with header '{LAYOUT_CSV_HEADER}'")
    coords: dict[int, tuple[float, float]] = {}
    for lineno, row in rows[1:]:
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
