"""One step of a benchmark run, in a fresh process started by run.py.

    python3 perfbench/worker.py probe
    python3 perfbench/worker.py calibrate
    python3 perfbench/worker.py prepare   RUN_DIR
    python3 perfbench/worker.py pass      RUN_DIR PASS_DIR TRACE
    python3 perfbench/worker.py reference RUN_DIR

RUN_DIR holds spec.json (the workload and seed) written by run.py. ``probe``
and ``pass`` time the import of layoutstress first, before anything else
is imported, so the interpreter has not yet loaded modules the package
needs. ``calibrate`` times a fixed piece of the benchmark's own work.
Results go to stdout (probe, calibrate) or to files in RUN_DIR / PASS_DIR.
"""

import sys
import time


def _timed_import() -> float:
    t0 = time.perf_counter()
    import layoutstress  # noqa: F401
    import layoutstress.cli  # noqa: F401

    return time.perf_counter() - t0


def main(argv: list[str]) -> int:
    command = argv[0]
    if command == "calibrate":
        print(f'{{"calibration_s": {calibrate()!r}}}')
        return 0
    setup_s = _timed_import() if command in ("probe", "pass") else None

    import json
    from pathlib import Path

    import layoutstress

    src = Path(__file__).resolve().parent.parent / "src"
    if src not in Path(layoutstress.__file__).resolve().parents:
        print(f"layoutstress was imported from {layoutstress.__file__}, not from {src}", file=sys.stderr)
        return 2
    if command == "probe":
        import platform

        import numpy

        print(json.dumps({"setup_s": setup_s, "python": platform.python_version(), "numpy": numpy.__version__}))
        return 0

    from workloads import Workload

    run_dir = Path(argv[1])
    spec = json.loads((run_dir / "spec.json").read_text())
    workload = Workload.from_json(spec["workload"])
    if command == "prepare":
        prepare(run_dir, workload, spec["seed"])
    elif command == "reference":
        reference(run_dir, workload)
    elif command == "pass":
        result = timed_pass(run_dir, Path(argv[2]), workload, spec["seed"], argv[3] == "1")
        result["setup_s"] = setup_s
        (Path(argv[2]) / "pass.json").write_text(json.dumps(result))
    else:
        print(f"unknown command {command!r}", file=sys.stderr)
        return 2
    return 0


def prepare(run_dir, workload, seed: int) -> None:
    """Write the graph and layout files of a compute workload."""
    import numpy as np
    from layoutstress.experiment import bench_graph

    if workload.kind != "compute":
        return
    n = workload.n
    graph = bench_graph(n, np.random.default_rng(seed))
    (run_dir / "graph.txt").write_text("".join(f"{u} {v}\n" for u, v in graph.edges))
    angles = 2.0 * np.pi * np.arange(n) / n
    positions = {
        "random": np.random.default_rng([seed, 1]).random((n, 2)),
        "circle": np.column_stack([np.cos(angles), np.sin(angles)]),
    }
    for name in workload.layouts:
        rows = "".join(f"{i},{x!r},{y!r}\n" for i, (x, y) in enumerate(positions[name].tolist()))
        (run_dir / f"{name}.csv").write_text("id,x,y\n" + rows)


def reference(run_dir, workload) -> None:
    """Write reference.json: independent metric values for every layout."""
    import json

    import oracle

    edges = oracle.read_edges(run_dir / "graph.txt")
    n = int(edges.max()) + 1
    dv = oracle.graph_distances(edges, n)
    layouts = {}
    for name in workload.layouts:
        ev = oracle.drawing_distances(run_dir / f"{name}.csv")
        layouts[name] = oracle.metric_values(ev, dv, workload.metrics)
    out = {"vertex_count": n, "edge_count": len(edges), "layouts": layouts}
    (run_dir / "reference.json").write_text(json.dumps(out))


#: the calibration's loop length and array size; fixed, so that its time
#: follows only the speed of the machine
CALIBRATION_STEPS = 500_000
CALIBRATION_SIZE = 1 << 20


def calibrate() -> float:
    """Seconds this process takes for a fixed piece of the benchmark's own work.

    run.py scales the experiment's pass times by it, so that the speed
    changes of a shared host, which last for minutes and slow every pass
    alike, cancel out. Like the experiment it is mostly interpreter-bound: a
    scalar loop in the style of the optimizer's inner loop, then a numpy sort
    and elementwise passes over arrays larger than the caches. No package
    code runs in it, so a change to the package cannot move it.
    """
    import math

    import numpy as np

    rng = np.random.default_rng(0)
    a = rng.random(CALIBRATION_SIZE)
    b = rng.random(CALIBRATION_SIZE)
    xs = a[:1024].tolist()
    ys = b[:1024].tolist()
    t0 = time.perf_counter()
    for k in range(CALIBRATION_STEPS):
        i = k & 1023
        j = (k * 7 + 3) & 1023
        dx = xs[i] - xs[j]
        dy = ys[i] - ys[j]
        r = math.sqrt(dx * dx + dy * dy) + 1e-9
        shift = 0.001 * (r - 0.5) / r
        xs[i] -= shift * dx
        ys[i] -= shift * dy
        xs[j] += shift * dx
        ys[j] += shift * dy
    order = np.argsort(a)
    c = np.sqrt(a * a + b * b)
    float(np.sum((c[order] - b) ** 2))
    return time.perf_counter() - t0


def _cpu_s() -> float:
    import resource

    usage = resource.getrusage(resource.RUSAGE_SELF)
    return usage.ru_utime + usage.ru_stime


def timed_pass(run_dir, pass_dir, workload, seed: int, trace: bool) -> dict:
    """Run the workload once through the package's public entry points."""
    import layoutstress.cli as cli
    import layoutstress.experiment as exp

    import spans

    pass_dir.mkdir(parents=True, exist_ok=True)
    if workload.kind == "compute":
        out_path = pass_dir / "report.json"
        argv = ["compute", str(run_dir / "graph.txt")]
        argv += [str(run_dir / f"{name}.csv") for name in workload.layouts]
        argv += ["--metrics", ",".join(workload.metrics), "--out", str(out_path)]
    else:
        out_path = pass_dir / "tables"
        config = exp.ExperimentConfig(corpus=exp.CorpusSpec(seed=seed))
    tracer = spans.Tracer() if trace else None
    if tracer is not None:
        spans.install(tracer)

    exit_code, error = 0, None
    cpu0 = _cpu_s()
    t0 = time.perf_counter()
    try:
        if workload.kind == "compute":
            exit_code = cli.main(argv)
        else:
            exp.write_tables(exp.run_experiment(config), out_path)
    except Exception as exc:  # the pass fails; run.py counts and reports it
        exit_code, error = 1, f"{type(exc).__name__}: {exc}"
    wall_s = time.perf_counter() - t0
    cpu_s = _cpu_s() - cpu0
    peak_rss_mb = spans.peak_rss_mb()

    files = [out_path] if out_path.is_file() else sorted(out_path.glob("*"))
    return {
        "wall_s": wall_s,
        "cpu_s": cpu_s,
        "peak_rss_mb": peak_rss_mb,
        "exit_code": exit_code,
        "error": error,
        "bytes_written": sum(f.stat().st_size for f in files if f.is_file()),
        "spans": tracer.spans if tracer is not None else None,
    }


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
