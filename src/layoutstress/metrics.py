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

rs and ns are quadratic polynomials in a uniform scale factor alpha, which
gives closed forms for the optimal scale (alpha_min) and for the scale at
which two drawings' curves cross (alpha_intersection).

All sums run over unordered pairs i<j in the row-major order of
graph.upper_pairs; numpy's pairwise accumulation bounds floating-point
drift. DistanceMatrix.pairs and LayoutDistances.pairs keep that vector for
the object's lifetime (one C(n, 2) float64 vector, 16 MB at n = 2000), so
the metrics of one drawing, and the drawings of one graph, share it.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateLayoutError, SizeGuardError
from .graph import DistanceMatrix
from .layout import Layout, LayoutDistances, pairwise_distances, scale_layout
from .stats import isotonic_regression, spearman

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


@dataclass(frozen=True)
class ScaleAnalysis:
    """Optimal scale factor for a drawing and the stress attained there."""

    alpha_min: float
    stress_at_min: float
    quadratic: QuadraticStressForm


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
    return float(np.sum(diff * diff))


def raw_stress_quadratic(e: LayoutDistances, d: DistanceMatrix) -> QuadraticStressForm:
    """Raw stress of the drawing scaled by alpha, as a quadratic in alpha."""
    ev, dv = _pair_vectors(e, d)
    return QuadraticStressForm(
        a=float(np.sum(ev * ev)),
        b=-2.0 * float(np.sum(ev * dv)),
        c=float(np.sum(dv * dv)),
    )


def rs_alpha_min(e: LayoutDistances, d: DistanceMatrix) -> float:
    """Scale factor minimizing raw stress: sum(e*d) / sum(e^2)."""
    return raw_stress_quadratic(e, d).alpha_min


def rs_alpha_intersection(
    e1: LayoutDistances, e2: LayoutDistances, d: DistanceMatrix
) -> float | None:
    """Positive scale at which two drawings' raw-stress curves cross.

    Returns None when the curves share their leading coefficient (to within
    1e-12 relative) or when the crossing is not at a positive scale.
    """
    ev1, dv = _pair_vectors(e1, d)
    ev2, _ = _pair_vectors(e2, d)
    scale = float(np.sum(ev1 * ev1))
    if scale == 0.0 or not np.any(ev2):
        raise DegenerateLayoutError("degenerate drawing: all points coincide")
    num = 2.0 * float(np.sum(dv * (ev1 - ev2)))
    den = float(np.sum(ev1 * ev1 - ev2 * ev2))
    if abs(den) < 1e-12 * scale:
        return None
    alpha = num / den
    return alpha if alpha > 0.0 else None


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
    r = (ev - factor * dv) / dv
    return float(np.sum(r * r))


def normalized_stress(e: LayoutDistances, d: DistanceMatrix) -> float:
    """Squared differences weighted by d^-2, balancing short and long pairs."""
    ev, dv = _pair_vectors(e, d)
    r = (ev - dv) / dv
    return float(np.sum(r * r))


def ns_quadratic(e: LayoutDistances, d: DistanceMatrix) -> QuadraticStressForm:
    """Normalized stress under scaling by alpha, as a quadratic in alpha.

    The constant term is the number of vertex pairs C(n, 2).
    """
    ev, dv = _pair_vectors(e, d)
    ratio = ev / dv
    n = e.n
    return QuadraticStressForm(
        a=float(np.sum(ratio * ratio)),
        b=-2.0 * float(np.sum(ratio)),
        c=n * (n - 1) / 2.0,
    )


def ns_alpha_min(e: LayoutDistances, d: DistanceMatrix) -> float:
    """Scale factor minimizing normalized stress: sum(e/d) / sum(e^2/d^2)."""
    return ns_quadratic(e, d).alpha_min


def ns_alpha_intersection(
    e1: LayoutDistances, e2: LayoutDistances, d: DistanceMatrix
) -> float | None:
    """Positive scale where two drawings' normalized-stress curves cross."""
    ev1, dv = _pair_vectors(e1, d)
    ev2, _ = _pair_vectors(e2, d)
    r1 = ev1 / dv
    r2 = ev2 / dv
    scale = float(np.sum(r1 * r1))
    if scale == 0.0 or not np.any(ev2):
        raise DegenerateLayoutError("degenerate drawing: all points coincide")
    num = 2.0 * float(np.sum((ev1 - ev2) / dv))
    den = float(np.sum(r1 * r1 - r2 * r2))
    if abs(den) < 1e-12 * scale:
        return None
    alpha = num / den
    return alpha if alpha > 0.0 else None


def scale_normalized_stress(e: LayoutDistances, d: DistanceMatrix) -> ScaleAnalysis:
    """Normalized stress at its closed-form optimal scale (scale-invariant).

    Costs O(n^2), the same as a single normalized-stress evaluation.
    """
    quad = ns_quadratic(e, d)
    alpha = quad.alpha_min
    num = quad.b / -2.0  # exactly sum(e/d): b is -2 times it
    # c - num^2/a is mathematically >= 0; clamp fp wobble at perfection
    value = max(quad.c - num * num / quad.a, 0.0)
    return ScaleAnalysis(alpha_min=alpha, stress_at_min=value, quadratic=quad)


def shepard_goodness(e: LayoutDistances, d: DistanceMatrix) -> float:
    """Spearman rank correlation between drawing and graph distances."""
    if e.n < 3:
        raise ValueError(f"need at least 3 vertices for a rank correlation, got {e.n}")
    ev, dv = _pair_vectors(e, d)
    return spearman(ev, dv)


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
    r = (beta * ev - dv) / dv
    return float(np.sum(r * r))


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


def _nonmetric_from_pairs(ev: np.ndarray, dv: np.ndarray) -> float:
    if not np.any(ev):
        raise DegenerateLayoutError("all drawing distances are zero")
    # order by d, ties by e; pairs tied on both are interchangeable
    order = np.argsort(ev)
    order = order[np.argsort(dv[order], kind="stable")]
    y = ev[order]
    resid = y - isotonic_regression(y).fitted
    return float(np.sqrt(np.sum(resid * resid) / np.sum(ev * ev)))


def nonmetric_stress(e: LayoutDistances, d: DistanceMatrix) -> float:
    """Kruskal stress-1 against monotone disparities, in [0, 1].

    Pairs are sorted by d, ties by e; disparities are the isotonic
    regression of the drawing distances in that order.
    """
    return _nonmetric_from_pairs(*_pair_vectors(e, d))


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
        return scale_normalized_stress(e, d).stress_at_min
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
    if metric_id == "rs":
        return rs_alpha_min(e, d)
    if metric_id in ("ns", "sns"):
        return ns_alpha_min(e, d)
    return None


def score_layout(
    e: LayoutDistances,
    d: DistanceMatrix,
    metric_ids,
    *,
    kk_params: KKParams | None = None,
    force: bool = False,
) -> tuple[dict[str, tuple[float, float | None, float]], tuple[str, ...]]:
    """Score one drawing: {metric_id: (value, alpha_min, seconds)}, skipped ids.

    seconds times the metric alone. drs is skipped when the drawing has
    more than DRS_MAX_VERTICES vertices and force is not set.
    """
    scores: dict[str, tuple[float, float | None, float]] = {}
    skipped: list[str] = []
    for metric_id in metric_ids:
        if metric_id == "drs" and e.n > DRS_MAX_VERTICES and not force:
            skipped.append(metric_id)
            continue
        t0 = time.perf_counter()
        value = compute_metric(metric_id, e, d, kk_params=kk_params, force=force)
        seconds = time.perf_counter() - t0
        scores[metric_id] = (value, metric_alpha_min(metric_id, e, d), seconds)
    return scores, tuple(skipped)


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
    if metric_id not in METRIC_IDS:
        raise ValueError(f"unknown metric id {metric_id!r} (known: {', '.join(METRIC_IDS)})")
    alphas = [float(a) for a in alphas]
    if not alphas:
        raise ValueError("need at least one scale factor")
    for a in alphas:
        if not (math.isfinite(a) and a > 0.0):
            raise ValueError(f"scale factors must be positive finite reals, got {a}")

    base = pairwise_distances(layout)
    quad = None
    if metric_id == "rs":
        quad = raw_stress_quadratic(base, d)
    elif metric_id == "ns":
        quad = ns_quadratic(base, d)

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
