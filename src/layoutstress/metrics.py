"""Stress-based layout quality metrics and closed-form scale analysis.

Eight metrics over a drawing's pairwise distances e_ij and graph-theoretic
distances d_ij; METRICS holds one record per stable string id, in report
order, with its scale class, its response to a uniform scaling by alpha:

  rs   raw stress                 sum (e - d)^2               quadratic
  kks  Kamada-Kawai stress        sum d^-2 (e - L*d)^2        homogeneous
  ns   normalized stress          sum d^-2 (e - d)^2          quadratic
  sns  scale-normalized stress    ns at its optimal scale     invariant
  sgs  Shepard goodness score     Spearman corr of e vs d     invariant
  scs  Shepard constant stress    ns with e rescaled by beta  invariant
  drs  distance-ratio stress      sum over pair-pairs of
                                  (e_ij/e_kl - d_ij/d_kl)^2   invariant
  nms  non-metric stress          Kruskal stress-1 against
                                  isotonic disparities        invariant

kks is alpha^2 times its value while l0 comes from the drawing, and a
quadratic in alpha with a fixed l0. A drawing's QuadraticStressForm, built
by the records of rs, ns and sns, owns the closed forms: the optimal scale
(alpha_min), the stress there (minimum, which is sns for the ns quadratic)
and the scale at which two drawings' curves cross (crossing, alpha*).

All sums run over unordered pairs i<j in the row-major order of
graph.upper_pairs; numpy's pairwise accumulation bounds floating-point
drift. Each side keeps that vector for the object's lifetime:
DistanceMatrix.pairs, hop levels in the smallest unsigned dtype (2 MB at
n = 2000), is all a graph's distances keep, and LayoutDistances.pairs
(float64, 16 MB) is cached beside the drawing's n x n matrix. score_layout
and stress_curve take a drawing's pairs and free its matrix before the
first metric runs. The metrics of one drawing, and the drawings of one
graph, share the vectors, and no metric reads a square matrix. Each sum
metric works in place in one float64 temporary of the same length, to
which the levels promote exactly.

The rank metrics sgs and nms share one rank table the same way:
DistanceMatrix.pair_codes, for hop levels the pair vector itself. Each
metric sorts the drawing's pairs itself and drops the order when done, so
beyond its inputs it holds at most two pair-length vectors: sgs argsorts
the drawing's pairs to rank them and reads the graph's ranks from a table
per code, and nms orders the drawing's pairs by code (a radix sort) and
then sorts each group of equal graph distances in place.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import DegenerateLayoutError, SizeGuardError
from .graph import DistanceMatrix
from .layout import Layout, LayoutDistances, pairwise_distances, scale_layout
from .stats import isotonic_regression, rank_correlation_with_codes, ranks_from_order

#: drs touches ~n^4/4 pair-of-pair terms; refuse above this without force
DRS_MAX_VERTICES = 64


@dataclass(frozen=True)
class QuadraticStressForm:
    """Coefficients of stress(alpha) = a*alpha^2 + b*alpha + c."""

    a: float
    b: float
    c: float

    def evaluate(self, alpha: float) -> float:
        return (self.a * alpha + self.b) * alpha + self.c

    @property
    def alpha_min(self) -> float:
        """-b / 2a; a, a sum of squared drawing distances, is 0 when all points coincide."""
        if self.a <= 0.0:
            raise DegenerateLayoutError("all points coincide; optimal scale is undefined")
        return -self.b / (2.0 * self.a)

    @property
    def minimum(self) -> float:
        """c - (b/2)^2 / a, the stress at alpha_min, with fp wobble below 0 clamped."""
        if self.a <= 0.0:
            raise DegenerateLayoutError("all points coincide; optimal scale is undefined")
        half_b = self.b / 2.0
        return max(self.c - half_b * half_b / self.a, 0.0)

    def crossing(self, other: QuadraticStressForm) -> float | None:
        """Positive alpha where this curve meets other's (symmetric); None when
        the leading coefficients agree to 1e-12 relative or the root is not
        positive. ValueError when the constant terms c differ: only drawings of
        one graph under one metric are compared, and those share c."""
        if self.c != other.c:
            raise ValueError(
                f"constant terms differ ({self.c!r} vs {other.c!r}): the curves are not"
                " of drawings of one graph under one metric"
            )
        if min(self.a, other.a) <= 0.0:
            raise DegenerateLayoutError("degenerate drawing: all points coincide")
        den = self.a - other.a
        if abs(den) < 1e-12 * max(self.a, other.a):
            return None
        alpha = (other.b - self.b) / den
        return alpha if alpha > 0.0 else None


@dataclass(frozen=True)
class KKParams:
    """Display-length parameter: l0 is the layout span the metric assumes.

    When omitted, metrics derive l0 from the drawing being scored (its
    maximum pairwise distance).
    """

    l0: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.l0) and self.l0 > 0.0):
            raise ValueError(f"l0 must be a positive finite real, got {self.l0}")


@dataclass(frozen=True, eq=False)
class _DrawingPairs:
    """What the metrics read of a drawing: its vertex count and the read-only
    pair vector LayoutDistances.pairs, without the n x n matrix."""

    n: int
    pairs: np.ndarray

    @property
    def max_distance(self) -> float:
        return float(self.pairs.max())


def _drawing_pairs(layout: Layout) -> _DrawingPairs:
    """The drawing's pairs, taken from pairwise_distances' n x n matrix,
    which is freed on return."""
    e = pairwise_distances(layout)
    return _DrawingPairs(e.n, e.pairs)


def _pair_vectors(e: LayoutDistances, d: DistanceMatrix) -> tuple[np.ndarray, np.ndarray]:
    if e.n != d.n:
        raise ValueError(f"layout has {e.n} vertices but distance matrix has {d.n}")
    return e.pairs, d.pairs


def _relative_square_sum(r: np.ndarray, dv: np.ndarray) -> float:
    """Sum of (r / d)^2 over the pairs, dividing and squaring the float64
    difference vector r in place: the tail of ns, kks and scs."""
    r /= dv
    r *= r
    return float(np.sum(r))


def raw_stress(e: LayoutDistances, d: DistanceMatrix) -> float:
    """Unweighted sum of squared differences between e_ij and d_ij."""
    ev, dv = _pair_vectors(e, d)
    diff = ev - dv
    diff *= diff
    return float(np.sum(diff))


def raw_stress_quadratic(e: LayoutDistances, d: DistanceMatrix) -> QuadraticStressForm:
    """Raw stress of the drawing scaled by alpha, as a quadratic in alpha."""
    ev, dv = _pair_vectors(e, d)
    return QuadraticStressForm(
        a=float(np.sum(ev * ev)),
        b=-2.0 * float(np.sum(ev * dv)),
        c=float(np.sum(np.square(dv, dtype=float))),
    )


def kk_stress(
    e: LayoutDistances, d: DistanceMatrix, params: KKParams | None = None
) -> float:
    """Kamada-Kawai stress: graph distances rescaled into the drawing's span.

    Targets are L*d_ij with L = l0 / max(d); by default l0 is the drawing's
    own maximum pairwise distance.
    """
    ev, dv = _pair_vectors(e, d)
    l0 = params.l0 if params is not None else float(ev.max())
    if l0 <= 0.0:
        raise DegenerateLayoutError("all points coincide; drawing span is zero")
    factor = l0 / float(dv.max())
    r = factor * dv
    np.subtract(ev, r, out=r)
    return _relative_square_sum(r, dv)


def normalized_stress(e: LayoutDistances, d: DistanceMatrix) -> float:
    """Squared differences weighted by d^-2, balancing short and long pairs."""
    ev, dv = _pair_vectors(e, d)
    return _relative_square_sum(ev - dv, dv)


def ns_quadratic(e: LayoutDistances, d: DistanceMatrix) -> QuadraticStressForm:
    """Normalized stress under scaling by alpha, as a quadratic in alpha.

    The constant term is the number of vertex pairs C(n, 2).
    """
    ev, dv = _pair_vectors(e, d)
    ratio = ev / dv
    b = -2.0 * float(np.sum(ratio))
    ratio *= ratio
    n = e.n
    return QuadraticStressForm(a=float(np.sum(ratio)), b=b, c=n * (n - 1) / 2.0)


def scale_normalized_stress(e: LayoutDistances, d: DistanceMatrix) -> float:
    """Normalized stress at its closed-form optimal scale (scale-invariant).

    Costs O(n^2), the same as a single normalized-stress evaluation.
    """
    return ns_quadratic(e, d).minimum


def shepard_goodness(e: LayoutDistances, d: DistanceMatrix) -> float:
    """Spearman rank correlation between drawing and graph distances.

    Equal to stats.spearman(e.pairs, d.pairs), bit for bit: the drawing is
    ranked along an argsort of its pairs, dropped once the ranks are
    written, and the graph's ranks come from d.pair_codes without a sort.
    """
    if e.n < 3:
        raise ValueError(f"need at least 3 vertices for a rank correlation, got {e.n}")
    ev, _ = _pair_vectors(e, d)
    # built first, so building it never overlaps the order and the ranks
    codes = d.pair_codes
    order = np.argsort(ev)
    ranks = ranks_from_order(ev, order)
    del order
    return rank_correlation_with_codes(ranks, codes)


def shepard_constant_stress(e: LayoutDistances, d: DistanceMatrix) -> float:
    """Normalized stress after matching the two maximum distances.

    Drawing distances are rescaled by beta = max(d) / max(e) before scoring,
    which cancels any uniform scaling of the drawing.
    """
    ev, dv = _pair_vectors(e, d)
    max_e = float(ev.max())
    if max_e == 0.0:
        raise DegenerateLayoutError("all points coincide; drawing span is zero")
    beta = float(dv.max()) / max_e
    r = beta * ev
    r -= dv
    return _relative_square_sum(r, dv)


def distance_ratio_stress(
    e: LayoutDistances, d: DistanceMatrix, force: bool = False
) -> float:
    """Squared discrepancy between drawing and graph distance ratios.

    Sums (e_ij/e_kl - d_ij/d_kl)^2 over all ordered pairs of vertex pairs,
    so the cost is quartic in the vertex count. Inputs above
    DRS_MAX_VERTICES vertices are refused unless force is set.
    """
    if e.n > DRS_MAX_VERTICES and not force:
        raise SizeGuardError(
            f"distance-ratio stress on {e.n} vertices needs ~{e.n ** 4 // 4:.0g} terms;"
            f" pass force=True to compute anyway (limit {DRS_MAX_VERTICES})"
        )
    ev, dv = _pair_vectors(e, d)
    if np.any(ev == 0.0):
        raise DegenerateLayoutError(
            "coincident points give zero drawing distances; ratios are undefined"
        )
    # explicit loop over pair-of-pair terms: the quartic cost is the point
    # of the size guard, so keep per-term work visible rather than masking
    # it behind bulk array operations
    e_list = ev.tolist()
    d_list = dv.tolist()
    recip = list(zip((1.0 / ev).tolist(), (1.0 / dv).tolist()))
    total = 0.0
    for ep, dp in zip(e_list, d_list):
        subtotal = 0.0
        for inv_e, inv_d in recip:
            diff = ep * inv_e - dp * inv_d
            subtotal += diff * diff
        total += subtotal
    return total


def _tied_groups(codes: np.ndarray) -> list[tuple[int, int]]:
    """The sorted positions [start, stop) of each code that two or more
    pairs share, in code order; empty when every code is distinct."""
    sizes = np.bincount(codes)
    stops = np.cumsum(sizes)
    tied = np.flatnonzero(sizes > 1)
    return list(zip((stops[tied] - sizes[tied]).tolist(), stops[tied].tolist()))


def _nonmetric_from_pairs(ev: np.ndarray, codes: np.ndarray) -> float:
    """Stress of ev against unsigned codes that sort and tie as the graph
    distances do (DistanceMatrix.pair_codes)."""
    if not np.any(ev):
        raise DegenerateLayoutError("all drawing distances are zero")
    groups = _tied_groups(codes)
    # order by d, ties by e; pairs tied on both hold equal values, so any
    # order of them gives the same y. numpy's stable sort of uint8 or uint16
    # codes is a radix sort.
    y = ev[np.argsort(codes, kind="stable")]
    for start, stop in groups:
        y[start:stop].sort()
    resid = isotonic_regression(y)
    np.subtract(y, resid, out=resid)
    resid *= resid
    # y's buffer then takes ev * ev, summed in ev's order
    return float(np.sqrt(np.sum(resid) / np.sum(np.multiply(ev, ev, out=y))))


def nonmetric_stress(e: LayoutDistances, d: DistanceMatrix) -> float:
    """Kruskal stress-1 against monotone disparities, in [0, 1].

    Pairs are sorted by d, ties by e; disparities are the isotonic
    regression of the drawing distances in that order.
    """
    ev, _ = _pair_vectors(e, d)
    return _nonmetric_from_pairs(ev, d.pair_codes)


@dataclass(frozen=True)
class Metric:
    """One metric: its kernel, scale class ("quadratic", "homogeneous" or
    "invariant"), quadratic in alpha if any, and whether higher is better."""

    kernel: Callable[..., float]
    scale: str
    quadratic: Callable[[LayoutDistances, DistanceMatrix], QuadraticStressForm] | None = None
    higher_is_better: bool = False


#: the paper's taxonomy, in report order
METRICS = {
    "rs": Metric(raw_stress, "quadratic", raw_stress_quadratic),
    "kks": Metric(kk_stress, "homogeneous"),
    "ns": Metric(normalized_stress, "quadratic", ns_quadratic),
    "sns": Metric(scale_normalized_stress, "invariant", ns_quadratic),
    "sgs": Metric(shepard_goodness, "invariant", higher_is_better=True),
    "scs": Metric(shepard_constant_stress, "invariant"),
    "drs": Metric(distance_ratio_stress, "invariant"),
    "nms": Metric(nonmetric_stress, "invariant"),
}
METRIC_IDS = tuple(METRICS)
HIGHER_IS_BETTER = frozenset(m for m, record in METRICS.items() if record.higher_is_better)


def check_metric_ids(ids) -> tuple[str, ...]:
    """The ids as given, as a tuple; ValueError when a bare string, empty, or
    one is unknown or repeated."""
    if isinstance(ids, str):
        raise ValueError(f"'metric_ids' must be a list of metric ids, got {ids!r}")
    ids = tuple(ids)
    if not ids:
        raise ValueError("empty metric list")
    for metric_id in ids:
        if metric_id not in METRIC_IDS:
            raise ValueError(f"unknown metric id {metric_id!r} (known: {', '.join(METRIC_IDS)})")
        if ids.count(metric_id) > 1:
            raise ValueError(f"metric id {metric_id!r} is given more than once")
    return ids


def _metric(metric_id: str) -> Metric:
    """The record of metric_id; ValueError when the id is unknown."""
    return METRICS[check_metric_ids((metric_id,))[0]]


def compute_metric(
    metric_id: str,
    e: LayoutDistances,
    d: DistanceMatrix,
    *,
    kk_params: KKParams | None = None,
    force: bool = False,
) -> float:
    """Evaluate a metric by id on precomputed pairwise distances."""
    kernel = _metric(metric_id).kernel
    extra = {"kks": (kk_params,), "drs": (force,)}.get(metric_id, ())
    return kernel(e, d, *extra)


def metric_alpha_min(metric_id: str, e: LayoutDistances, d: DistanceMatrix) -> float | None:
    """Optimal scale factor of a metric whose record has a quadratic, else None."""
    quadratic = _metric(metric_id).quadratic
    return None if quadratic is None else quadratic(e, d).alpha_min


@dataclass(frozen=True)
class DrawingScores:
    """One drawing's scores: per scored metric its value, the seconds
    compute_metric took and, where its record has a quadratic, alpha_min;
    the drawing's maximum pairwise distance; the metrics the drs size guard skipped."""

    scores: dict[str, float]
    alpha_min: dict[str, float]
    seconds: dict[str, float]
    max_distance: float
    skipped: tuple[str, ...]


def score_layout(
    layout: Layout,
    d: DistanceMatrix,
    metric_ids,
    *,
    kk_params: KKParams | None = None,
    force: bool = False,
) -> DrawingScores:
    """Score one drawing under each metric of metric_ids.

    The drawing's n x n distances live only until their pair vector is
    taken, before the first metric runs, so no metric runs beside them and
    a caller scoring drawings in turn holds one drawing's n x n distances at
    a time. The metrics and the maximum distance read the pair vector.
    seconds times each compute_metric call alone, without the distances or
    their pair extraction; compute reports them, and bench
    (experiment.runtime_benchmark) samples them. drs is skipped when
    distance_ratio_stress refuses it (SizeGuardError: too many vertices and
    force not set). A metric list that check_metric_ids refuses raises its
    ValueError before anything is built.
    """
    metric_ids = check_metric_ids(metric_ids)
    e = _drawing_pairs(layout)
    scores, alpha_min, seconds, skipped = {}, {}, {}, []
    for metric_id in metric_ids:
        t0 = time.perf_counter()
        try:
            scores[metric_id] = compute_metric(metric_id, e, d, kk_params=kk_params, force=force)
        except SizeGuardError:
            skipped.append(metric_id)
            continue
        seconds[metric_id] = time.perf_counter() - t0
        alpha = metric_alpha_min(metric_id, e, d)
        if alpha is not None:
            alpha_min[metric_id] = alpha
    return DrawingScores(scores, alpha_min, seconds, e.max_distance, tuple(skipped))


def stress_curve(
    layout: Layout,
    d: DistanceMatrix,
    metric_id: str,
    alphas,
    *,
    kk_params: KKParams | None = None,
    force: bool = False,
) -> list[tuple[float, float]]:
    """Evaluate a metric on uniformly scaled copies of a drawing.

    Points of a "quadratic" metric are checked against its record's
    quadratic; a mismatch beyond 1e-9 relative raises RuntimeError. For kks
    without explicit params, l0 is rederived from each scaled drawing.
    scale_layout refuses a factor that is not a positive finite real.
    """
    record = _metric(metric_id)
    alphas = [float(a) for a in alphas]
    if not alphas:
        raise ValueError("need at least one scale factor")

    quad = None
    if record.scale == "quadratic":
        quad = record.quadratic(_drawing_pairs(layout), d)

    points: list[tuple[float, float]] = []
    for alpha in alphas:
        scaled = _drawing_pairs(scale_layout(layout, alpha))
        value = compute_metric(metric_id, scaled, d, kk_params=kk_params, force=force)
        if quad is not None:
            expected = quad.evaluate(alpha)
            if abs(value - expected) > 1e-9 * (1.0 + abs(value)):
                raise RuntimeError(
                    f"quadratic cross-check failed for {metric_id} at alpha={alpha}:"
                    f" direct={value!r} quadratic={expected!r}"
                )
        points.append((alpha, value))
    return points
