"""Command-line interface.

Subcommands:
  compute     score one graph's layouts with the requested metrics
  curve       metric value as a function of uniform scale (plot-ready CSV)
  experiment  run the full ordering/correlation protocol on a seeded corpus
  bench       measure metric runtimes over graph sizes

Exit codes: 0 success, 1 usage error, 2 input error, 3 failed acceptance
check in experiment mode. The LAYOUTSTRESS_OUT_DIR environment variable
redirects relative output paths.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from contextlib import contextmanager
from dataclasses import fields, replace
from pathlib import Path

import numpy as np

from . import experiment as exp
from .errors import SizeGuardError
from .graph import DistanceMatrix, Graph, apsp, largest_connected_component, read_graph_file
from .layout import Layout, csv_text, read_layout_csv
from .metrics import (
    DRS_MAX_VERTICES,
    METRIC_IDS,
    KKParams,
    check_metric_ids,
    score_layout,
    stress_curve,
)

OUT_DIR_ENV = "LAYOUTSTRESS_OUT_DIR"

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_INPUT = 2
EXIT_ACCEPTANCE = 3


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message: str):  # argparse defaults to exit code 2
        raise _UsageError(message)


def _parse_metric_list(text: str) -> tuple[str, ...]:
    try:
        return check_metric_ids(m.strip() for m in text.split(",") if m.strip())
    except ValueError as exc:
        raise _UsageError(str(exc)) from None


#: each sample scores a whole scaled drawing, so a plot needs far fewer
_MAX_ALPHA_SAMPLES = 100_000


def _parse_alpha_grid(text: str) -> list[float]:
    parts = [p.strip() for p in text.split(",")]
    if len(parts) != 4:
        raise _UsageError("alpha grid must be 'start,stop,count,log|linear'")
    try:
        start, stop = float(parts[0]), float(parts[1])
        count = int(parts[2])
    except ValueError:
        raise _UsageError(f"malformed alpha grid {text!r}") from None
    spacing = parts[3].lower()
    if spacing not in ("log", "linear"):
        raise _UsageError("alpha grid spacing must be 'log' or 'linear'")
    if not (start > 0 and stop > 0 and np.isfinite(start) and np.isfinite(stop)):
        raise _UsageError("alpha grid endpoints must be positive finite reals")
    if count < 2:
        raise _UsageError("alpha grid needs at least 2 samples")
    if count > _MAX_ALPHA_SAMPLES:
        raise _UsageError(f"alpha grid of {count} samples exceeds the limit of {_MAX_ALPHA_SAMPLES}")
    if spacing == "log":
        return np.geomspace(start, stop, count).tolist()
    return np.linspace(start, stop, count).tolist()


def _resolve_out(path_text: str | None) -> Path | None:
    if path_text is None or path_text == "-":
        return None
    path = Path(path_text)
    base = os.environ.get(OUT_DIR_ENV)
    if base and not path.is_absolute():
        path = Path(base) / path
    return path


def _write_report(args, report: dict, rows: list[tuple]) -> None:
    """Write the JSON report or the CSV rows (header first), as args.format
    asks, to args.out or stdout."""
    if args.format == "json":
        text = json.dumps(report, indent=2) + "\n"
    else:
        text = csv_text(rows)
    out = _resolve_out(args.out)
    if out is None:
        sys.stdout.write(text)
    else:
        out.parent.mkdir(parents=True, exist_ok=True)
        out.write_text(text)


def _load_graph(path_text: str) -> tuple[Graph, dict]:
    """Read a graph file and reduce it to its largest connected component."""
    parsed = read_graph_file(path_text)
    component, new_to_old = largest_connected_component(parsed.graph)
    info = {
        "path": str(Path(path_text)),
        "vertex_count": component.vertex_count,
        "edge_count": component.edge_count,
        "self_loops_dropped": parsed.self_loops_dropped,
        "duplicates_collapsed": parsed.duplicates_collapsed,
        "component_extracted": component.vertex_count != parsed.graph.vertex_count,
        "new_to_old": list(new_to_old),
    }
    return component, info


@contextmanager
def _memory_for(path_text: str, graph: Graph):
    """Turn a MemoryError, from the graph's pair vector or a drawing's n x n
    distances, into an input error naming the graph file and its size."""
    try:
        yield
    except MemoryError:
        raise ValueError(
            f"{path_text}: not enough memory for the distances of {graph.vertex_count} vertices"
        ) from None


def _distances(path_text: str, graph: Graph) -> DistanceMatrix:
    """apsp(graph); its refusal (fewer than 2 vertices) names the graph file."""
    try:
        return apsp(graph)
    except ValueError as exc:
        raise ValueError(f"{path_text}: {exc}") from exc


def _load_layout(path_text: str, graph: Graph) -> Layout:
    path = Path(path_text)
    try:
        layout = read_layout_csv(path.read_text(encoding="utf-8-sig"))
    except (OSError, ValueError) as exc:
        raise ValueError(f"{path}: {exc}") from exc
    if layout.n != graph.vertex_count:
        raise ValueError(
            f"{path}: layout has {layout.n} vertices but the graph (after component"
            f" extraction) has {graph.vertex_count}; ids must be 0..{graph.vertex_count - 1}"
        )
    return layout


# ---------------------------------------------------------------------------
# subcommands


def _cmd_compute(args) -> int:
    graph, graph_info = _load_graph(args.graph)
    metric_ids = _parse_metric_list(args.metrics)
    kk_params = KKParams(args.l0) if args.l0 is not None else None
    layouts = {}
    for layout_path in args.layouts:
        name = Path(layout_path).stem
        if name in layouts:
            raise ValueError(
                f"layout files {layouts[name][0]} and {layout_path} share the name {name!r};"
                " the report keys layouts by file stem"
            )
        layouts[name] = (layout_path, _load_layout(layout_path, graph))

    report_layouts = {}
    with _memory_for(args.graph, graph):
        d = _distances(args.graph, graph)
        for name, (layout_path, layout) in layouts.items():
            try:
                scored = score_layout(layout, d, metric_ids, kk_params=kk_params, force=args.force)
            except ValueError as exc:
                raise ValueError(f"{layout_path}: {exc}") from exc
            report_layouts[name] = {
                "path": layout_path,
                "max_drawing_distance": scored.max_distance,
                "metrics": {
                    m: {"value": v, "alpha_min": scored.alpha_min.get(m),
                        "seconds": scored.seconds[m]}
                    for m, v in scored.scores.items()
                },
                "skipped": scored.skipped,
            }

    report = {
        "command": "compute",
        "config": {
            "graph": args.graph,
            "layouts": list(args.layouts),
            "metrics": list(metric_ids),
            "l0": args.l0,
            "force": args.force,
        },
        "graph": graph_info,
        "layouts": report_layouts,
    }
    rows = [("layout", "metric", "value", "alpha_min", "seconds")]
    for name, entry in report_layouts.items():
        for metric_id, cell in entry["metrics"].items():
            rows.append((name, metric_id, cell["value"], cell["alpha_min"], cell["seconds"]))
    _write_report(args, report, rows)
    return EXIT_OK


def _cmd_curve(args) -> int:
    graph, _ = _load_graph(args.graph)
    layout = _load_layout(args.layout, graph)
    metric_ids = _parse_metric_list(args.metric)
    if len(metric_ids) != 1:
        raise _UsageError("curve takes exactly one metric")
    alphas = _parse_alpha_grid(args.alpha_grid)
    kk_params = KKParams(args.l0) if args.l0 is not None else None
    with _memory_for(args.graph, graph):
        d = _distances(args.graph, graph)
        try:
            points = stress_curve(
                layout, d, metric_ids[0], alphas, kk_params=kk_params, force=args.force
            )
        except SizeGuardError:
            # the graph's size is at fault, and the override is a flag here
            raise ValueError(
                f"{args.graph}: distance-ratio stress on {graph.vertex_count} vertices is refused"
                f" above {DRS_MAX_VERTICES}; pass --force to compute anyway"
            ) from None
        except ValueError as exc:
            raise ValueError(f"{args.layout}: {exc}") from exc
    report = {
        "command": "curve",
        "config": {
            "graph": args.graph,
            "layout": args.layout,
            "metric": metric_ids[0],
            "alpha_grid": args.alpha_grid,
            "l0": args.l0,
        },
        "points": [[a, v] for a, v in points],
    }
    _write_report(args, report, [("alpha", "value"), *points])
    return EXIT_OK


_CONFIG_KEYS = ("corpus", "metrics", "scale_policy", "optimizer_iterations", "drs_force")


def _read_config(path: Path) -> exp.ExperimentConfig:
    """The experiment config in a JSON file; the caller names the file in errors.
    Only the JSON shape is checked here; ExperimentConfig checks the values."""
    try:
        data = json.loads(path.read_text(encoding="utf-8-sig"))
    except json.JSONDecodeError as exc:
        raise ValueError(f"invalid JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise ValueError("config must be a JSON object")
    unknown = set(data) - set(_CONFIG_KEYS)
    if unknown:
        raise ValueError(f"unknown config keys {sorted(unknown)}")
    corpus = data.pop("corpus", {})
    if not isinstance(corpus, dict):
        raise ValueError("'corpus' must be an object")
    unknown = set(corpus) - {f.name for f in fields(exp.CorpusSpec)} - {"dir"}
    if unknown:
        raise ValueError(f"unknown corpus keys {sorted(unknown)}")
    corpus_dir = corpus.pop("dir", None)
    corpus = exp.CorpusSpec(**corpus)
    if "metrics" in data:
        if not isinstance(data["metrics"], list):
            raise ValueError("'metrics' must be a list of metric ids")
        data["metric_ids"] = data.pop("metrics")
    return exp.ExperimentConfig(corpus=corpus, corpus_dir=corpus_dir, **data)


def _experiment_config(args) -> exp.ExperimentConfig:
    config = exp.ExperimentConfig()
    if args.config is not None:
        try:
            config = _read_config(Path(args.config))
        except (OSError, ValueError) as exc:
            raise ValueError(f"{args.config}: {exc}") from exc
    if args.seed is not None:
        config = replace(config, corpus=replace(config.corpus, seed=args.seed))
    if args.scale_policy is not None:
        config = replace(config, scale_policy=args.scale_policy)
    return config


def _cmd_experiment(args) -> int:
    config = _experiment_config(args)
    result = exp.run_experiment(config)
    out_dir = _resolve_out(args.out_dir) or Path(args.out_dir)
    paths = exp.write_tables(result, out_dir)
    total = len(result.records) + len(result.failures)
    for graph_id, message in result.failures:
        print(f"trial {graph_id} failed: {message}", file=sys.stderr)
    for verdict in result.verdicts:
        status = "PASS" if verdict.passed else "FAIL"
        print(f"{status} {verdict.name}: {verdict.detail}")
    for path in paths:
        print(f"wrote {path}")
    if result.failures and len(result.failures) > 0.10 * total:
        print(f"{len(result.failures)}/{total} trials failed", file=sys.stderr)
        return EXIT_INPUT
    if any(not v.passed for v in result.verdicts):
        return EXIT_ACCEPTANCE
    return EXIT_OK


def _cmd_bench(args) -> int:
    try:
        sizes = [int(s) for s in args.sizes.split(",") if s.strip()]
    except ValueError:
        raise _UsageError(f"malformed size list {args.sizes!r}") from None
    metric_ids = _parse_metric_list(args.metrics)
    try:
        result = exp.runtime_benchmark(
            sizes, metric_ids, repetitions=args.reps, seed=args.seed, force=args.force
        )
    except SizeGuardError:
        # the override is a flag here, as in curve
        raise ValueError(
            f"drs is benchmarked only up to {exp.BENCH_DRS_MAX_VERTICES} vertices and --sizes"
            f" reaches {max(sizes)}; pass --force to measure anyway"
        ) from None
    report = {
        "command": "bench",
        "config": {
            "sizes": sizes,
            "metrics": list(metric_ids),
            "reps": args.reps,
            "seed": args.seed,
        },
        "rows": [
            {"n": r.n, "metric": r.metric_id, "median_seconds": r.median_seconds}
            for r in result.rows
        ],
        "slopes": result.slopes,
    }
    rows = [("n", "metric", "median_seconds", "loglog_slope")]
    for r in result.rows:
        rows.append((r.n, r.metric_id, r.median_seconds, result.slopes.get(r.metric_id)))
    _write_report(args, report, rows)
    return EXIT_OK


# ---------------------------------------------------------------------------
# parser


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="layoutstress", description=__doc__.split("\n\n")[0])
    sub = parser.add_subparsers(dest="command", required=True)

    compute = sub.add_parser("compute", help="score layouts of one graph")
    compute.add_argument("graph", help="edge-list file, or Matrix Market (.mtx)")
    compute.add_argument("layouts", nargs="+", help="layout CSV files (id,x,y)")
    compute.add_argument("--metrics", default=",".join(METRIC_IDS))
    compute.add_argument("--l0", type=float, default=None, help="freeze the kks span parameter")
    compute.add_argument("--force", action="store_true", help="override the drs size guard")
    compute.add_argument("--out", default=None, help="output path ('-' = stdout)")
    compute.add_argument("--format", choices=("json", "csv"), default="json")

    curve = sub.add_parser("curve", help="metric value vs uniform scale factor")
    curve.add_argument("graph")
    curve.add_argument("layout")
    curve.add_argument("--metric", required=True)
    curve.add_argument("--alpha-grid", default="0.1,10,50,log", help="start,stop,count,log|linear")
    curve.add_argument("--l0", type=float, default=None)
    curve.add_argument("--force", action="store_true")
    curve.add_argument("--out", default=None)
    curve.add_argument("--format", choices=("csv", "json"), default="csv")

    experiment = sub.add_parser("experiment", help="run the full evaluation protocol")
    experiment.add_argument("config", nargs="?", default=None, help="JSON config file")
    experiment.add_argument("--seed", type=int, default=None, help="override corpus seed")
    experiment.add_argument("--scale-policy", choices=exp.SCALE_POLICIES, default=None)
    experiment.add_argument("--out-dir", default="experiment-out")

    bench = sub.add_parser("bench", help="metric runtime scaling")
    bench.add_argument("--sizes", required=True, help="comma-separated vertex counts, ascending")
    bench.add_argument("--metrics", required=True)
    bench.add_argument("--reps", type=int, default=5)
    bench.add_argument("--seed", type=int, default=0)
    bench.add_argument("--force", action="store_true")
    bench.add_argument("--out", default=None)
    bench.add_argument("--format", choices=("csv", "json"), default="csv")

    return parser


_COMMANDS = {
    "compute": _cmd_compute,
    "curve": _cmd_curve,
    "experiment": _cmd_experiment,
    "bench": _cmd_bench,
}


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return _COMMANDS[args.command](args)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (ValueError, OSError) as exc:
        # domain errors (ParseError, size guards, degenerate layouts, ...)
        # and filesystem problems
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
