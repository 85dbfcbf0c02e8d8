"""Stress-based quality metrics for graph drawings.

Computes eight stress variants over a drawing and its graph's shortest-path
distances, exposes the closed-form optimal and crossing scale factors of the
quadratic ones through QuadraticStressForm, and ships a deterministic
experiment harness comparing layout sources of known relative quality.
"""

from .errors import (
    ConstantSeriesError,
    DegenerateLayoutError,
    DisconnectedGraphError,
    ParseError,
    SizeGuardError,
)
from .graph import (
    DistanceMatrix,
    Graph,
    ParsedGraph,
    apsp,
    connected_components,
    largest_connected_component,
    parse_edge_list,
    parse_matrix_market,
    serialize_edge_list,
)
from .layout import (
    Layout,
    LayoutDistances,
    circle_layout,
    optimize_layout,
    pairwise_distances,
    random_layout,
    read_layout_csv,
    scale_layout,
    scale_to_max_distance,
    write_layout_csv,
)
from .metrics import (
    DRS_MAX_VERTICES,
    HIGHER_IS_BETTER,
    METRIC_IDS,
    KKParams,
    QuadraticStressForm,
    compute_metric,
    distance_ratio_stress,
    kk_stress,
    metric_alpha_min,
    nonmetric_stress,
    normalized_stress,
    ns_quadratic,
    raw_stress,
    raw_stress_quadratic,
    scale_normalized_stress,
    shepard_constant_stress,
    shepard_goodness,
    stress_curve,
)
from .stats import average_ranks, isotonic_regression, spearman

__version__ = "0.1.0"

__all__ = [
    "ConstantSeriesError",
    "DegenerateLayoutError",
    "DisconnectedGraphError",
    "ParseError",
    "SizeGuardError",
    "DistanceMatrix",
    "Graph",
    "ParsedGraph",
    "apsp",
    "connected_components",
    "largest_connected_component",
    "parse_edge_list",
    "parse_matrix_market",
    "serialize_edge_list",
    "Layout",
    "LayoutDistances",
    "circle_layout",
    "optimize_layout",
    "pairwise_distances",
    "random_layout",
    "read_layout_csv",
    "scale_layout",
    "scale_to_max_distance",
    "write_layout_csv",
    "DRS_MAX_VERTICES",
    "HIGHER_IS_BETTER",
    "METRIC_IDS",
    "KKParams",
    "QuadraticStressForm",
    "compute_metric",
    "distance_ratio_stress",
    "kk_stress",
    "metric_alpha_min",
    "nonmetric_stress",
    "normalized_stress",
    "ns_quadratic",
    "raw_stress",
    "raw_stress_quadratic",
    "scale_normalized_stress",
    "shepard_constant_stress",
    "shepard_goodness",
    "stress_curve",
    "average_ranks",
    "isotonic_regression",
    "spearman",
]
