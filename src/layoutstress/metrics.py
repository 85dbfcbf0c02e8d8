"""Stress-based layout quality metrics and closed-form scale analysis.

Eight metrics over a drawing's pairwise distances e_ij and graph-theoretic
distances d_ij, identified by stable string ids:

  rs   raw stress                 sum (e - d)^2               scale-sensitive
  kks  Kamada-Kawai stress        sum d^-2 (e - L*d)^2        scale-sensitive
  ns   normalized stress          sum d^-2 (e - d)^2          scale-sensitive
  sns  scale-normalized stress    ns at its optimal scale     scale-invariant
  sgs  Shepard goodness score     Spearman corr of e vs d     scale-invariant
  scs  Shepard constant stress    ns with e rescaled by beta  scale-invariant
  drs  distance-ratio stress      sum over pair-pairs of
                                  (e_ij/e_kl - d_ij/d_kl)^2   scale-invariant
  nms  non-metric stress          Kruskal stress-1 against
                                  isotonic disparities        scale-invariant

rs and ns are quadratic polynomials in a uniform scale factor alpha. A
drawing's QuadraticStressForm owns the closed forms: the optimal scale
(alpha_min), the stress there (minimum, which is sns for the ns quadratic)
and the scale at which two drawings' curves cross (crossing, alpha*).

All sums run over unordered pairs i<j in the row-major order of
graph.upper_pairs; numpy's pairwise accumulation bounds floating-point
drift. Each side keeps that vector (one C(n, 2) float64 vector, 16 MB at
n = 2000) for the object's lifetime: DistanceMatrix.pairs is all a graph's
distances keep, and LayoutDistances.pairs is cached beside the drawing's
n x n matrix. The metrics of one drawing, and the drawings of one graph,
share them, and no metric reads a square matrix. Each sum metric works in
place in one temporary vector of the same length.

The rank metrics sgs and nms share two cached rank tables the same way:
LayoutDistances.pair_order, the argsort of the drawing's pairs (int64, 8 B
per pair), and DistanceMatrix.pair_codes, dense codes of the graph's
distinct distances (1 B per pair up to 256 distinct distances, so 2 MB at
n = 2000). The graph's average ranks are counted from its codes, without a
sort.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateLayoutError, SizeGuardError
from .graph import DistanceMatrix
from .layout import Layout, LayoutDistances, pairwise_distances, scale_layout
from .stats import isotonic_regression, rank_correlation, ranks_from_codes, ranks_from_order

METRIC_IDS = ("rs", "kks", "ns", "sns", "sgs", "scs", "drs", "nms")

#: metrics where a larger value means a better drawing
HIGHER_IS_BETTER = frozenset({"sgs"})

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


def _pair_vectors(e: LayoutDistances, d: DistanceMatrix) -> tuple[np.ndarray, np.ndarray]:
    if e.n != d.n:
        raise ValueError(f"layout has {e.n} vertices but distance matrix has {d.n}")
    return e.pairs, d.pairs


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
        c=float(np.sum(dv * dv)),
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
    r /= dv
    r *= r
    return float(np.sum(r))


def normalized_stress(e: LayoutDistances, d: DistanceMatrix) -> float:
    """Squared differences weighted by d^-2, balancing short and long pairs."""
    ev, dv = _pair_vectors(e, d)
    r = ev - dv
    r /= dv
    r *= r
    return float(np.sum(r))


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


#: the quadratic in alpha behind each metric with an optimal scale
SCALE_QUADRATICS = {"rs": raw_stress_quadratic, "ns": ns_quadratic, "sns": ns_quadratic}


def scale_normalized_stress(e: LayoutDistances, d: DistanceMatrix) -> float:
    """Normalized stress at its closed-form optimal scale (scale-invariant).

    Costs O(n^2), the same as a single normalized-stress evaluation.
    """
    return ns_quadratic(e, d).minimum


def shepard_goodness(e: LayoutDistances, d: DistanceMatrix) -> float:
    """Spearman rank correlation between drawing and graph distances.

    Equal to stats.spearman(e.pairs, d.pairs), from the shared rank tables:
    the drawing is ranked along e.pair_order, the graph from d.pair_codes.
    """
    if e.n < 3:
        raise ValueError(f"need at least 3 vertices for a rank correlation, got {e.n}")
    ev, _ = _pair_vectors(e, d)
    return rank_correlation(ranks_from_order(ev, e.pair_order), ranks_from_codes(d.pair_codes))


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
    r /= dv
    r *= r
    return float(np.sum(r))


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


def _nonmetric_from_pairs(ev: np.ndarray, order: np.ndarray, d_keys: np.ndarray) -> float:
    """Stress of ev, given an order that sorts it and keys that sort as d."""
    if not np.any(ev):
        raise DegenerateLayoutError("all drawing distances are zero")
    # order by d, ties by e; pairs tied on both are interchangeable. numpy's
    # stable sort of uint8 or uint16 codes is a radix sort.
    order = order[np.argsort(d_keys[order], kind="stable")]
    y = ev[order]
    del order
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
    return _nonmetric_from_pairs(ev, e.pair_order, d.pair_codes)


def check_metric_ids(ids) -> tuple[str, ...]:
    """The ids as given, as a tuple; ValueError when a bare string, empty or
    one is unknown."""
    if isinstance(ids, str):
        raise ValueError(f"'metric_ids' must be a list of metric ids, got {ids!r}")
    ids = tuple(ids)
    if not ids:
        raise ValueError("empty metric list")
    for metric_id in ids:
        if metric_id not in METRIC_IDS:
            raise ValueError(f"unknown metric id {metric_id!r} (known: {', '.join(METRIC_IDS)})")
    return ids


def compute_metric(
    metric_id: str,
    e: LayoutDistances,
    d: DistanceMatrix,
    *,
    kk_params: KKParams | None = None,
    force: bool = False,
) -> float:
    """Evaluate a metric by id on precomputed pairwise distances."""
    if metric_id == "rs":
        return raw_stress(e, d)
    if metric_id == "kks":
        return kk_stress(e, d, kk_params)
    if metric_id == "ns":
        return normalized_stress(e, d)
    if metric_id == "sns":
        return scale_normalized_stress(e, d)
    if metric_id == "sgs":
        return shepard_goodness(e, d)
    if metric_id == "scs":
        return shepard_constant_stress(e, d)
    if metric_id == "drs":
        return distance_ratio_stress(e, d, force=force)
    if metric_id == "nms":
        return nonmetric_stress(e, d)
    raise ValueError(f"unknown metric id {metric_id!r} (known: {', '.join(METRIC_IDS)})")


def metric_alpha_min(metric_id: str, e: LayoutDistances, d: DistanceMatrix) -> float | None:
    """Optimal scale factor for metrics that have one, else None."""
    quadratic = SCALE_QUADRATICS.get(metric_id)
    return None if quadratic is None else quadratic(e, d).alpha_min


@dataclass(frozen=True)
class DrawingScores:
    """One drawing's scores: per scored metric its value and the seconds
    compute_metric took, the optimal scale of rs, ns and sns, the drawing's
    maximum pairwise distance, and the metrics the drs size guard skipped."""

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

    The drawing's distances live only in this call, so a caller scoring
    drawings in turn holds one drawing's n x n distances at a time. drs is
    skipped when distance_ratio_stress refuses it (SizeGuardError: too many
    vertices and force not set).
    """
    e = pairwise_distances(layout)
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

    For rs and ns each point is cross-checked against the closed-form
    quadratic; a mismatch beyond 1e-9 relative raises RuntimeError. For kks
    without explicit params, l0 is rederived from each scaled drawing.
    """
    alphas = [float(a) for a in alphas]
    if not alphas:
        raise ValueError("need at least one scale factor")
    for a in alphas:
        if not (math.isfinite(a) and a > 0.0):
            raise ValueError(f"scale factors must be positive finite reals, got {a}")

    quad = None
    if metric_id in ("rs", "ns"):
        quad = SCALE_QUADRATICS[metric_id](pairwise_distances(layout), d)

    points: list[tuple[float, float]] = []
    for alpha in alphas:
        scaled = pairwise_distances(scale_layout(layout, alpha))
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
