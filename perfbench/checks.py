"""Correctness gate for one pass, applied outside the timed section.

Each check returns a PassCheck: operations attempted and failed (for the
result's attempted/failed counts) and a list of problems. Any problem makes
the run incorrect, whether or not an operation failed.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import oracle
from spans import PAIR_UPDATES_PER_VERTEX

#: relative tolerance between the package's values and the references
REL_TOL = 1e-9

SOURCES = ("optimized", "circle", "random")


@dataclass
class PassCheck:
    attempted: int
    failed: int = 0
    problems: list[str] = field(default_factory=list)
    graphs: int = 0  # graphs scored
    vertices: int = 0  # vertices of the graphs scored
    pairs: int = 0  # vertex pairs processed: scored, plus optimizer pair updates
    digest: str = ""  # experiment: hash of the tables, which must repeat across passes
    verdicts: int = 0  # experiment: verdicts given
    findings: list[str] = field(default_factory=list)  # experiment: FAIL verdicts


def _close(value, ref) -> bool:
    if ref is None or value is None:
        return ref is None and value is None
    return math.isclose(value, ref, rel_tol=REL_TOL, abs_tol=0.0)


def check_compute(result: dict, report_path: Path, workload, reference: dict) -> PassCheck:
    """Exit code 0, every requested value present, values match the references."""
    check = PassCheck(attempted=len(workload.layouts) * len(workload.metrics))
    if result["exit_code"] != 0 or not report_path.is_file():
        check.failed = check.attempted
        check.problems.append(f"compute exited with {result['exit_code']}: {result['error']}")
        return check
    report = json.loads(report_path.read_text())
    n = reference["vertex_count"]
    for key in ("vertex_count", "edge_count"):
        if report["graph"][key] != reference[key]:
            check.problems.append(f"graph {key} {report['graph'][key]} != {reference[key]}")
    for layout in workload.layouts:
        entry = report["layouts"].get(layout, {"metrics": {}, "skipped": []})
        for metric_id in workload.metrics:
            cell = entry["metrics"].get(metric_id)
            if cell is None or metric_id in entry["skipped"]:
                check.failed += 1
                check.problems.append(f"{layout}/{metric_id}: missing or skipped")
                continue
            ref = reference["layouts"][layout][metric_id]
            for key in ("value", "alpha_min"):
                if not _close(cell[key], ref[key]):
                    check.problems.append(
                        f"{layout}/{metric_id} {key} = {cell[key]!r}, reference {ref[key]!r}"
                    )
    check.graphs = 1
    check.vertices = n
    check.pairs = len(workload.layouts) * n * (n - 1) // 2
    return check


def check_experiment(result: dict, tables_dir: Path, seed: int) -> PassCheck:
    """No failed trial, every score finite, and a summary that follows from the scores.

    A verdict is the experiment's finding about its random corpus, so a FAIL
    verdict is not a wrong output: it is reported in ``findings``. The
    verdicts and the figures behind them must match what ``oracle`` recomputes
    from the trials table.
    """
    summaries = sorted(tables_dir.glob("summary_*.json"))
    if result["exit_code"] != 0 or len(summaries) != 1:
        check = PassCheck(attempted=1, failed=1)
        check.problems.append(f"experiment did not complete: {result['error']}")
        return check
    summary = json.loads(summaries[0].read_text())
    config = summary["config"]
    corpus_size = config["corpus"]["graphs"]
    check = PassCheck(attempted=corpus_size, failed=len(summary["failures"]))
    if config["corpus"]["seed"] != seed:
        check.problems.append(f"corpus seed {config['corpus']['seed']} != {seed}")
    for failure in summary["failures"]:
        check.problems.append(f"trial {failure['graph_id']} failed: {failure['error']}")
    if summary["graphs_scored"] != corpus_size:
        check.problems.append(f"graphs_scored {summary['graphs_scored']} != {corpus_size}")

    trials = sorted(tables_dir.glob("trials_*.csv"))
    rows = list(csv.DictReader(trials[0].read_text().splitlines())) if len(trials) == 1 else []
    sizes = {row["graph_id"]: int(row["vertex_count"]) for row in rows}
    cells = {(row["graph_id"], row["source"], row["metric"]) for row in rows}
    expected = {(g, s, m) for g in sizes for s in SOURCES for m in config["metric_ids"]}
    if len(sizes) != summary["graphs_scored"] or cells != expected or len(rows) != len(cells):
        check.problems.append(
            f"trials table holds {len(rows)} rows for {len(sizes)} graphs;"
            f" expected one per (graph, source, metric) for {summary['graphs_scored']} graphs"
        )
    for row in rows:
        numbers = [row["value"], row["max_distance"]] + ([row["alpha_min"]] if row["alpha_min"] else [])
        if not all(math.isfinite(float(x)) for x in numbers):
            check.problems.append(f"non-finite score in trials row {row}")
    if not check.problems:
        check.problems += _summary_problems(summary, rows)
    check.findings = [f"FAIL {v['name']}: {v['detail']}" for v in summary["verdicts"] if not v["passed"]]
    check.verdicts = len(summary["verdicts"])
    check.graphs = summary["graphs_scored"]
    check.vertices = sum(sizes.values())
    # the optimizer's pair updates are most of the experiment's work, and
    # counting them keeps pairs_per_s from tracking the random corpus sizes
    updates = config["optimizer_iterations"] * PAIR_UPDATES_PER_VERTEX
    check.pairs = sum(len(SOURCES) * n * (n - 1) // 2 + updates * n for n in sizes.values())
    digest = hashlib.sha256()
    for path in sorted(tables_dir.iterdir()):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    check.digest = digest.hexdigest()
    return check


def _summary_problems(summary: dict, rows: list[dict]) -> list[str]:
    """Where the summary's frequencies, correlations or verdicts differ from the oracle's."""
    stats = oracle.experiment_statistics(rows)
    problems = []
    if set(summary["order_frequencies"]) != set(stats["order_frequencies"]):
        problems.append(f"order frequencies cover {sorted(summary['order_frequencies'])}")
    for metric_id, ref in stats["order_frequencies"].items():
        for key, value in summary["order_frequencies"].get(metric_id, {}).items():
            if not _close(value, ref[key]):
                problems.append(f"{metric_id} {key} frequency {value!r}, reference {ref[key]!r}")
    pairs = {tuple(key.split("|")): value for key, value in summary["correlations"].items()}
    if set(pairs) != set(stats["correlations"]):
        problems.append(f"correlations cover {sorted(summary['correlations'])}")
    for pair, value in pairs.items():
        ref = stats["correlations"].get(pair)
        if ref is not None and not math.isclose(value, ref, rel_tol=REL_TOL, abs_tol=1e-12):
            problems.append(f"spearman{pair} = {value!r}, reference {ref!r}")
    given = {v["name"]: v["passed"] for v in summary["verdicts"]}
    if given != oracle.experiment_verdicts(stats):
        problems.append(f"verdicts {given} differ from the reference {oracle.experiment_verdicts(stats)}")
    return problems
