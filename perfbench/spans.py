"""Span tracing of layoutstress from outside the package.

``install`` replaces each function in ``LAYERS`` with a wrapper in every
``layoutstress`` module namespace that holds it. The package's own modules
look these names up at call time, so the spans follow the real call path:
``experiment.apsp``, ``cli.compute_metric``, ``metrics.isotonic_regression``
and ``layout.pairwise_distances`` (which ``scale_to_max_distance`` calls)
are all caught. Spans stay in memory and are written out by the caller when
the pass ends. ``layer_metrics`` turns one pass's spans into the per-layer
metrics.

Peak-RSS growth of a span is the rise of the process's peak resident set
(``VmHWM``) while the span was open. Every pass runs in a fresh process, so
the first span to touch a new peak is the one charged for it.
"""

from __future__ import annotations

import functools
import inspect
import statistics
import sys
import time


def peak_rss_mb() -> float:
    """Peak resident set of this process since its last exec, in MB.

    ``ru_maxrss`` is not used: Linux carries it over exec from the process
    that forked this one, so a large parent would show as this one's peak.
    ``VmHWM`` belongs to the address space and starts afresh at exec.
    """
    with open("/proc/self/status") as status:
        for line in status:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("/proc/self/status has no VmHWM line")


# counters: (bound arguments, return value) -> {count name: int}


def _apsp_counts(args, result) -> dict:
    graph = args["graph"]
    return {"bfs_edge_visits": graph.vertex_count * 2 * graph.edge_count}


#: optimize_layout performs 15*n pair updates per iteration
PAIR_UPDATES_PER_VERTEX = 15


def _optimize_counts(args, result) -> dict:
    return {"pair_updates": args["iterations"] * PAIR_UPDATES_PER_VERTEX * args["distances"].n}


def _pairwise_counts(args, result) -> dict:
    arrays = getattr(result, "__dict__", {}).values()
    return {"bytes": sum(a.nbytes for a in arrays if hasattr(a, "nbytes"))}


def _metric_counts(args, result) -> dict:
    n = args["e"].n
    return {"pairs": n * (n - 1) // 2}


def _isotonic_counts(args, result) -> dict:
    return {"len": len(args["ys"])}


def _metric_span(args) -> str:
    return "metrics." + args["metric_id"]


#: (module, function, span name or args -> span name, counter or None)
LAYERS = (
    ("cli", "main", "cli.main", None),
    ("graph", "parse_edge_list", "graph.ingest", None),
    ("graph", "largest_connected_component", "graph.ingest", None),
    ("graph", "apsp", "graph.apsp", _apsp_counts),
    ("layout", "read_layout_csv", "layout.read_csv", None),
    ("layout", "pairwise_distances", "layout.pairwise", _pairwise_counts),
    ("layout", "optimize_layout", "layout.optimize", _optimize_counts),
    ("metrics", "compute_metric", _metric_span, _metric_counts),
    ("metrics", "metric_alpha_min", "metrics.alpha_min", None),
    ("stats", "isotonic_regression", "stats.isotonic", _isotonic_counts),
    ("stats", "spearman", "stats.spearman", None),
    ("experiment", "run_experiment", "experiment.run", None),
    ("experiment", "generate_corpus", "experiment.corpus", None),
    ("experiment", "run_trial", "experiment.trial", None),
    ("experiment", "order_frequencies", "experiment.aggregate", None),
    ("experiment", "metric_correlations", "experiment.aggregate", None),
    ("experiment", "experiment_verdicts", "experiment.aggregate", None),
    ("experiment", "write_tables", "experiment.write", None),
)

SUM_METRICS = ("rs", "kks", "ns", "sns", "scs")

#: (name, unit, better); the order is the order of BENCHMARK.json's per_layer
LAYER_METRICS = (
    ("layout.optimize_s", "s", "lower"),
    ("layout.optimize_calls", "count", "lower"),
    ("layout.pair_updates", "count", "lower"),
    ("metrics.nms_s", "s", "lower"),
    ("metrics.nms_self_s", "s", "lower"),
    ("stats.isotonic_s", "s", "lower"),
    ("stats.isotonic_len", "count", "lower"),
    ("metrics.sgs_s", "s", "lower"),
    ("stats.spearman_s", "s", "lower"),
    ("graph.apsp_s", "s", "lower"),
    ("graph.apsp_calls", "count", "lower"),
    ("graph.bfs_edge_visits", "count", "lower"),
    ("graph.apsp_rss_growth_mb", "MB", "lower"),
    ("layout.pairwise_s", "s", "lower"),
    ("layout.pairwise_calls", "count", "lower"),
    ("layout.pairwise_bytes", "B", "lower"),
    ("layout.pairwise_rss_growth_mb", "MB", "lower"),
    ("metrics.alpha_min_s", "s", "lower"),
    *((f"metrics.{m}_s", "s", "lower") for m in SUM_METRICS),
    ("metrics.pairs_scored", "count", "lower"),
    ("metrics.rss_growth_mb", "MB", "lower"),
    ("graph.ingest_s", "s", "lower"),
    ("layout.read_csv_s", "s", "lower"),
    ("experiment.corpus_s", "s", "lower"),
    ("experiment.trial_self_s", "s", "lower"),
    ("experiment.aggregate_s", "s", "lower"),
    ("experiment.write_s", "s", "lower"),
    ("experiment.bytes_written", "B", "lower"),
    ("cli.self_s", "s", "lower"),
    ("cli.report_bytes", "B", "lower"),
    ("experiment.trial_p50_s", "s", "lower"),
    ("experiment.trial_tail_s", "s", "lower"),
    ("process.cpu_s", "s", "lower"),
    ("trace.overhead_s", "s", "lower"),
    ("trace.top_spans_s", "s", "lower"),
    ("trace.unaccounted_s", "s", "lower"),
)

#: metrics that count work; they must repeat exactly on the same inputs.
#: cli.report_bytes is left out: the report carries per-metric timings.
EXACT_COUNTS = tuple(
    name for name, unit, _ in LAYER_METRICS if unit in ("count", "B") and name != "cli.report_bytes"
)


class Tracer:
    """Collects spans as [name, start, end, parent index, rss growth MB, counts]."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self._open: list[int] = []

    def wrap(self, fn, name, counter):
        signature = inspect.signature(fn)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            bound = signature.bind(*args, **kwargs)
            bound.apply_defaults()
            span = [name(bound.arguments) if callable(name) else name, 0.0, 0.0,
                    self._open[-1] if self._open else -1, 0.0, {}]
            self._open.append(len(self.spans))
            self.spans.append(span)
            rss0 = peak_rss_mb()
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                span[4] = peak_rss_mb() - rss0
                self._open.pop()
            if counter is not None:
                span[5] = counter(bound.arguments, result)
            return result

        return traced


def install(tracer: Tracer) -> None:
    """Wrap every function in LAYERS wherever a layoutstress module holds it.

    Raises LookupError when a listed function no longer exists, so a renamed
    layer shows as an error instead of as a zero.
    """
    modules = [m for key, m in list(sys.modules.items()) if key.split(".")[0] == "layoutstress"]
    for module_name, func_name, name, counter in LAYERS:
        home = sys.modules.get(f"layoutstress.{module_name}")
        original = getattr(home, func_name, None)
        if original is None:
            raise LookupError(f"layoutstress.{module_name}.{func_name} not found")
        wrapped = tracer.wrap(original, name, counter)
        for module in modules:
            for attr, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attr, wrapped)


def _tail(values: list[float]) -> float:
    """Highest percentile with at least 10 samples beyond it (the max below 11)."""
    ordered = sorted(values)
    return ordered[len(ordered) - 11] if len(ordered) > 10 else ordered[-1]


def layer_metrics(spans: list[list], bytes_written: int, kind: str) -> dict:
    """Per-layer metrics of one traced pass, except those the caller derives
    from several passes: process.cpu_s, trace.overhead_s, trace.unaccounted_s."""
    child_time = [0.0] * len(spans)
    for name, start, end, parent, _, _ in spans:
        if parent >= 0:
            child_time[parent] += end - start
    total: dict[str, float] = {}
    self_time: dict[str, float] = {}
    calls: dict[str, int] = {}
    counts: dict[str, int] = {}
    rss: dict[str, float] = {}
    top = 0.0
    trial_ends = []
    corpus_end = None
    for k, (name, start, end, parent, growth, span_counts) in enumerate(spans):
        total[name] = total.get(name, 0.0) + end - start
        self_time[name] = self_time.get(name, 0.0) + end - start - child_time[k]
        calls[name] = calls.get(name, 0) + 1
        rss[name] = rss.get(name, 0.0) + growth
        for key, value in span_counts.items():
            counts[f"{name}.{key}"] = counts.get(f"{name}.{key}", 0) + value
        if parent < 0:
            top += end - start
        if name == "experiment.trial":
            trial_ends.append(end)
        elif name == "experiment.corpus":
            corpus_end = end

    metric_spans = [n for n in total if n.startswith("metrics.")]
    # per-graph wall time: from the end of one trial (or of corpus
    # generation) to the end of the next, so apsp and the optimizer count
    trial_times = [b - a for a, b in zip([corpus_end] + trial_ends, trial_ends)] if corpus_end else []
    out = {
        "layout.optimize_s": total.get("layout.optimize", 0.0),
        "layout.optimize_calls": calls.get("layout.optimize", 0),
        "layout.pair_updates": counts.get("layout.optimize.pair_updates", 0),
        "metrics.nms_s": total.get("metrics.nms", 0.0),
        "metrics.nms_self_s": self_time.get("metrics.nms", 0.0),
        "stats.isotonic_s": total.get("stats.isotonic", 0.0),
        "stats.isotonic_len": counts.get("stats.isotonic.len", 0),
        "metrics.sgs_s": total.get("metrics.sgs", 0.0),
        "stats.spearman_s": total.get("stats.spearman", 0.0),
        "graph.apsp_s": total.get("graph.apsp", 0.0),
        "graph.apsp_calls": calls.get("graph.apsp", 0),
        "graph.bfs_edge_visits": counts.get("graph.apsp.bfs_edge_visits", 0),
        "graph.apsp_rss_growth_mb": rss.get("graph.apsp", 0.0),
        "layout.pairwise_s": total.get("layout.pairwise", 0.0),
        "layout.pairwise_calls": calls.get("layout.pairwise", 0),
        "layout.pairwise_bytes": counts.get("layout.pairwise.bytes", 0),
        "layout.pairwise_rss_growth_mb": rss.get("layout.pairwise", 0.0),
        "metrics.alpha_min_s": total.get("metrics.alpha_min", 0.0),
        **{f"metrics.{m}_s": total.get(f"metrics.{m}", 0.0) for m in SUM_METRICS},
        "metrics.pairs_scored": sum(v for k, v in counts.items() if k.endswith(".pairs")),
        "metrics.rss_growth_mb": sum(rss[n] for n in metric_spans),
        "graph.ingest_s": total.get("graph.ingest", 0.0),
        "layout.read_csv_s": total.get("layout.read_csv", 0.0),
        "experiment.corpus_s": total.get("experiment.corpus", 0.0),
        "experiment.trial_self_s": self_time.get("experiment.trial", 0.0),
        "experiment.aggregate_s": total.get("experiment.aggregate", 0.0),
        "experiment.write_s": total.get("experiment.write", 0.0),
        "experiment.bytes_written": bytes_written if kind == "experiment" else 0,
        "cli.self_s": self_time.get("cli.main", 0.0),
        "cli.report_bytes": bytes_written if kind == "compute" else 0,
        "experiment.trial_p50_s": statistics.median(trial_times) if trial_times else 0.0,
        "experiment.trial_tail_s": _tail(trial_times) if trial_times else 0.0,
        "trace.top_spans_s": top,
    }
    return out
