"""Self-test of the benchmark itself. Run from the root of a checkout:

    python3 perfbench/selftest.py

Checks that BENCHMARK.json matches the code, that the correctness gate
rejects corrupted references and outputs, that traced counts repeat exactly
on the same seed, and that the benchmark refuses to run without the package
source. Takes about half a minute; writes only under .bench_build/.
"""

from __future__ import annotations

import csv
import json
import math
import shutil
import subprocess
import sys

import checks
import oracle
import spans
from run import BUILD, END_TO_END, HERE, ROOT, Run, count_problems
from workloads import WORKLOADS, Workload

SMALL = Workload(
    name="selftest-compute-n150",
    kind="compute",
    why="small compute input for the self-test",
    n=150,
    layouts=("random", "circle"),
    metrics=("rs", "kks", "ns", "sns", "sgs", "scs", "nms"),
)


def check_benchmark_json(tmp) -> None:
    data = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert set(data) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert data["command"] == ["python3", "perfbench/run.py"]
    assert data["paths"] == ["perfbench"]
    assert {w["name"]: w["why"] for w in data["workloads"]} == {n: w.why for n, w in WORKLOADS.items()}
    assert [(m["name"], m["unit"], m["better"], m["bound"]) for m in data["end_to_end"]] == list(END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in data["per_layer"]] == list(spans.LAYER_METRICS)
    setup_bound = dict((m["name"], m["bound"]) for m in data["end_to_end"])["setup_s"]
    assert all(m["bound"] <= setup_bound for m in data["end_to_end"])


def check_compute_gate(tmp) -> None:
    """A pass checked against a corrupted reference value fails."""
    run = Run(SMALL, seed=5, seconds=1, trace=False)
    run.dir = tmp
    (tmp / "spec.json").write_text(json.dumps({"workload": SMALL.to_json(), "seed": 5}))
    run.worker("prepare", str(tmp))
    run.worker("pass", str(tmp), str(tmp / "pass0"), "0")
    run.worker("reference", str(tmp))
    result = json.loads((tmp / "pass0" / "pass.json").read_text())
    reference = json.loads((tmp / "reference.json").read_text())
    report = tmp / "pass0" / "report.json"

    clean = checks.check_compute(result, report, SMALL, reference)
    assert not clean.problems and clean.failed == 0 and clean.attempted == 14, clean.problems

    for layout, metric_id, key, factor in (
        ("random", "nms", "value", 1 + 1e-8),
        ("circle", "sgs", "value", 1 - 1e-8),
        ("circle", "ns", "alpha_min", 1 + 1e-8),
    ):
        corrupted = json.loads(json.dumps(reference))
        corrupted["layouts"][layout][metric_id][key] *= factor
        bad = checks.check_compute(result, report, SMALL, corrupted)
        assert any(f"{layout}/{metric_id} {key}" in p for p in bad.problems), bad.problems

    data = json.loads(report.read_text())
    del data["layouts"]["circle"]["metrics"]["scs"]
    report.write_text(json.dumps(data))
    missing = checks.check_compute(result, report, SMALL, reference)
    assert missing.failed == 1 and missing.problems

    crashed = checks.check_compute({**result, "exit_code": 2}, report, SMALL, reference)
    assert crashed.failed == crashed.attempted and crashed.problems


def check_experiment_gate(tmp) -> None:
    """A real experiment-default pass is clean; corrupting its tables is caught."""
    workload = WORKLOADS["experiment-default"]
    run = Run(workload, seed=97, seconds=1, trace=False)
    run.dir = tmp
    (tmp / "spec.json").write_text(json.dumps({"workload": workload.to_json(), "seed": 97}))
    run.worker("pass", str(tmp), str(tmp / "pass0"), "0")
    result = json.loads((tmp / "pass0" / "pass.json").read_text())
    tables = tmp / "pass0" / "tables"
    clean = checks.check_experiment(result, tables, 97)
    assert not clean.problems and clean.failed == 0 and clean.attempted == 50, clean.problems
    assert checks.check_experiment(result, tables, 98).problems  # seed did not reach the program

    trials = next(tables.glob("trials_*.csv"))
    original = trials.read_text()
    rows = list(csv.DictReader(original.splitlines()))
    rows[7]["value"] = "nan"
    with trials.open("w", newline="") as handle:
        writer = csv.DictWriter(handle, fieldnames=list(rows[0]))
        writer.writeheader()
        writer.writerows(rows)
    assert any("non-finite" in p for p in checks.check_experiment(result, tables, 97).problems)
    trials.write_text("\n".join(original.splitlines()[:-3]) + "\n")
    assert any("trials table" in p for p in checks.check_experiment(result, tables, 97).problems)
    trials.write_text(original)

    summary_path = next(tables.glob("summary_*.json"))
    original_summary = summary_path.read_text()
    summary = json.loads(original_summary)
    summary["verdicts"][0]["passed"] = False
    summary["order_frequencies"]["nms"]["ground_truth"] = 0.5
    summary["failures"] = [{"graph_id": "g000", "error": "ValueError: injected"}]
    summary_path.write_text(json.dumps(summary))
    bad = checks.check_experiment(result, tables, 97)
    assert bad.failed == 1 and any("g000" in p for p in bad.problems), bad.problems
    summary["failures"] = []
    summary_path.write_text(json.dumps(summary))
    bad = checks.check_experiment(result, tables, 97)
    assert any(p.startswith("verdicts ") for p in bad.problems), bad.problems
    assert any(p.startswith("nms ground_truth frequency") for p in bad.problems), bad.problems

    # a FAIL verdict that follows from the scores is a finding, not a wrong output:
    # reverse the nms order of six graphs, and give the summary the figures that follow
    rows = list(csv.DictReader(original.splitlines()))
    reversed_graphs = sorted({row["graph_id"] for row in rows})[:6]
    for row in rows:
        if row["metric"] == "nms" and row["graph_id"] in reversed_graphs:
            row["value"] = {"optimized": "9.0", "random": "0.5"}.get(row["source"], row["value"])
    with trials.open("w", newline="") as handle:
        writer = csv.DictWriter(handle, fieldnames=list(rows[0]))
        writer.writeheader()
        writer.writerows(rows)
    stats = oracle.experiment_statistics(rows)
    summary = json.loads(original_summary)
    summary["order_frequencies"] = stats["order_frequencies"]
    summary["correlations"] = {f"{a}|{b}": rho for (a, b), rho in stats["correlations"].items()}
    for verdict in summary["verdicts"]:
        verdict["passed"] = oracle.experiment_verdicts(stats)[verdict["name"]]
    summary_path.write_text(json.dumps(summary))
    finding = checks.check_experiment(result, tables, 97)
    assert not finding.problems, finding.problems
    assert [f.split(":")[0] for f in finding.findings] == ["FAIL nms-ground-truth"], finding.findings


def check_traced_counts_repeat(tmp) -> None:
    """Traced passes on one seed agree on every count; values stay correct."""
    out, notes = Run(SMALL, seed=11, seconds=1, trace=True).execute()
    assert out["correct"], notes
    metrics = out["metrics"]
    assert set(metrics) == {name for name, _, _ in spans.LAYER_METRICS}
    n = SMALL.n
    assert metrics["graph.apsp_calls"]["value"] == 1
    assert metrics["layout.pairwise_calls"]["value"] == 2
    assert metrics["metrics.pairs_scored"]["value"] == 14 * n * (n - 1) // 2
    assert metrics["stats.isotonic_len"]["value"] == 2 * n * (n - 1) // 2
    assert metrics["layout.pairwise_bytes"]["value"] == 2 * 8 * n * n
    assert math.isfinite(metrics["trace.overhead_s"]["value"])

    layer = {name: 1 for name in spans.EXACT_COUNTS}
    assert not count_problems([layer, dict(layer)])
    problems = count_problems([layer, {**layer, "graph.apsp_calls": 2}])
    assert problems == ["graph.apsp_calls differs between traced passes: [1, 2]"], problems


def check_refuses_without_source(tmp) -> None:
    """With only BENCHMARK.json and perfbench/, the run fails and prints no result."""
    shutil.copy(ROOT / "BENCHMARK.json", tmp / "BENCHMARK.json")
    shutil.copytree(HERE, tmp / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "compute-rank-n2000",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0 and proc.stdout == "", (proc.returncode, proc.stdout)


def main() -> int:
    base = BUILD / "selftest"
    shutil.rmtree(base, ignore_errors=True)
    try:
        for name, test in (
            ("benchmark-json", check_benchmark_json),
            ("compute-gate", check_compute_gate),
            ("experiment-gate", check_experiment_gate),
            ("traced-counts-repeat", check_traced_counts_repeat),
            ("refuses-without-source", check_refuses_without_source),
        ):
            tmp = base / name
            tmp.mkdir(parents=True)
            test(tmp)
            print(f"ok {name}")
    finally:
        shutil.rmtree(base, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
