"""Reference values computed without layoutstress.

For the compute workloads: shortest paths come from scipy's csgraph,
drawing distances from ``pdist`` (condensed, in the same i<j row-major
order the package uses), and each metric from its textbook formula:
``scipy.stats.spearmanr`` for sgs, and ``scipy.optimize.isotonic_regression``
on the (d, e)-lexsorted pairs for nms.

For the experiment: the order frequencies, the correlations and the
verdicts of its summary, recomputed from the scores in its trials table.

scipy is a benchmark-only dependency.
"""

from __future__ import annotations

import numpy as np
from scipy.optimize import isotonic_regression
from scipy.sparse import coo_matrix
from scipy.sparse.csgraph import shortest_path
from scipy.spatial.distance import pdist
from scipy.stats import rankdata, spearmanr


def read_edges(path) -> np.ndarray:
    return np.loadtxt(path, dtype=np.int64, ndmin=2)


def drawing_distances(path) -> np.ndarray:
    """Condensed drawing distances e_ij, i<j, of an id,x,y layout file."""
    rows = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    return pdist(rows[np.argsort(rows[:, 0]), 1:])


def graph_distances(edges: np.ndarray, n: int) -> np.ndarray:
    """Condensed hop counts d_ij, i<j; raises if the graph is disconnected."""
    adjacency = coo_matrix((np.ones(len(edges)), (edges[:, 0], edges[:, 1])), shape=(n, n))
    full = shortest_path(adjacency.tocsr(), method="D", directed=False, unweighted=True)
    if not np.all(np.isfinite(full)):
        raise ValueError("reference graph is disconnected")
    return full[np.triu_indices(n, 1)]


def metric_values(ev: np.ndarray, dv: np.ndarray, metric_ids) -> dict:
    """{metric id: {"value": float, "alpha_min": float or None}}."""
    r = ev / dv
    sum_r, sum_r2 = float(np.sum(r)), float(np.sum(r * r))
    ns_alpha = sum_r / sum_r2
    pairs = ev.size
    out = {}
    for metric_id in metric_ids:
        alpha = None
        if metric_id == "rs":
            value = np.sum((ev - dv) ** 2)
            alpha = float(np.sum(ev * dv) / np.sum(ev * ev))
        elif metric_id == "kks":
            value = np.sum(((ev - ev.max() / dv.max() * dv) / dv) ** 2)
        elif metric_id == "ns":
            value = np.sum(((ev - dv) / dv) ** 2)
            alpha = ns_alpha
        elif metric_id == "sns":
            value = pairs - sum_r * sum_r / sum_r2
            alpha = ns_alpha
        elif metric_id == "sgs":
            value = spearmanr(ev, dv).statistic
        elif metric_id == "scs":
            value = np.sum(((dv.max() / ev.max() * ev - dv) / dv) ** 2)
        elif metric_id == "nms":
            y = ev[np.lexsort((ev, dv))]
            fit = isotonic_regression(y).x
            value = np.sqrt(np.sum((y - fit) ** 2) / np.sum(ev * ev))
        else:
            raise ValueError(f"no reference for metric {metric_id!r}")
        out[metric_id] = {"value": float(value), "alpha_min": alpha}
    return out


GROUND_TRUTH = ("optimized", "circle", "random")


def experiment_statistics(rows: list[dict]) -> dict:
    """Order frequencies, correlations and sgs means of a trials table.

    Scores are compared with sgs negated, so lower is better for every
    metric; exact ties are broken by source name. A correlation is the
    Spearman correlation of the per-graph ranks of the sources, pooled over
    graphs, as the summary defines it.
    """
    scores: dict[str, dict[str, dict[str, float]]] = {}
    for row in rows:
        value = float(row["value"])
        adjusted = -value if row["metric"] == "sgs" else value
        scores.setdefault(row["metric"], {}).setdefault(row["graph_id"], {})[row["source"]] = adjusted
    frequencies, ranks = {}, {}
    for metric_id, graphs in scores.items():
        orders = [tuple(sorted(v, key=lambda s: (v[s], s))) for v in graphs.values()]
        frequencies[metric_id] = {
            "ground_truth": sum(o == GROUND_TRUTH for o in orders) / len(orders),
            "random_best": sum(o[0] == "random" for o in orders) / len(orders),
            "ties": sum(len(set(v.values())) < len(v) for v in graphs.values()),
        }
        ranks[metric_id] = np.concatenate(
            [rankdata([graphs[g][s] for s in GROUND_TRUTH]) for g in sorted(graphs)]
        )
    ids = list(scores)
    correlations = {
        (a, b): float(spearmanr(ranks[a], ranks[b]).statistic)
        for i, a in enumerate(ids) for b in ids[i + 1:]
    }
    sgs = scores.get("sgs", {})
    sgs_means = {s: -float(np.mean([v[s] for v in sgs.values()])) for s in GROUND_TRUTH} if sgs else {}
    return {"order_frequencies": frequencies, "correlations": correlations, "sgs_means": sgs_means}


def experiment_verdicts(stats: dict) -> dict:
    """{verdict name: passed}, by the thresholds the experiment states."""
    freq = stats["order_frequencies"]
    corr = stats["correlations"]
    verdicts = {}
    for m in ("sns", "scs", "nms"):
        if m in freq:
            verdicts[f"{m}-ground-truth"] = freq[m]["ground_truth"] >= 0.90
    for m in ("rs", "ns", "kks"):
        if m in freq:
            verdicts[f"{m}-random-best"] = freq[m]["random_best"] >= 0.95
            verdicts[f"{m}-ground-truth-rare"] = freq[m]["ground_truth"] <= 0.05
    for a, b, sign, bound in (("rs", "ns", 1, 0.9), ("sns", "nms", 1, 0.8), ("rs", "sns", -1, -0.2)):
        rho = corr.get((a, b), corr.get((b, a)))
        if rho is not None:
            verdicts[f"corr-{a}-{b}"] = sign * rho >= sign * bound
    if stats["sgs_means"]:
        verdicts["sgs-optimized-high"] = stats["sgs_means"]["optimized"] > 0.8
        verdicts["sgs-random-low"] = stats["sgs_means"]["random"] < 0.4
    return verdicts
