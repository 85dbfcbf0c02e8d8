"""Benchmark of layoutstress: two workloads, checked, end to end or layer by layer.

    python3 perfbench/run.py --workload NAME|all --seed N --seconds S --trace 0|1

Run it from the root of a checkout; the package is imported from src/.
Each workload pass runs in a fresh process (worker.py), so every pass pays
the import and cold caches a command-line user pays. Passes repeat while
the next one should end within S seconds, and at least MIN_PASSES times.
Inputs come from the seed and are written before timing starts.

A shared host's speed drifts by tens of percent over minutes, and every
pass drifts with it. On the experiment, whose time is interpreter-bound like
the calibration's, a calibration (worker.calibrate, a fixed piece of the
benchmark's own work) runs before the first pass and after each pass, and
the times and rates are given at a reference speed: scaled by
REFERENCE_CALIBRATION_S over the median of the run's calibrations. Its wall
time is also scaled to a corpus of the mean size, as its work follows the
corpus size, which varies by seed. The unscaled times are on stderr.

With --trace 0 the last stdout line holds the end-to-end metrics, measured
without tracing. With --trace 1 it holds the per-layer metrics: passes
alternate traced and untraced, starting traced, and the difference of
their median wall times is trace.overhead_s. Every pass is checked for
correctness (checks.py); a wrong output makes the run incorrect and exit 1.
A readable summary, with nproc and the Python and numpy versions, goes to
stderr. Apart from Python's bytecode caches, everything the run writes goes
under .bench_build/, and its working directory is removed at the end.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import checks
import spans
from workloads import WORKLOADS, Workload

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "perfbench"

#: (name, unit, better, bound); the order is the order of BENCHMARK.json
#: The time bounds are wide because single passes on a shared 2-CPU machine
#: vary by up to ~25% in CPU time for identical work.
END_TO_END = (
    ("setup_s", "s", "lower", 0.25),
    ("wall_s", "s", "lower", 0.25),
    ("trials_per_s", "1/s", "higher", 0.25),
    ("pairs_per_s", "1/s", "higher", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.1),
)

MIN_PASSES = 3
#: import-only processes per run, on top of the one sample each pass gives
SETUP_PROBES = 4
#: calibration time (worker.calibrate) at the reference speed: about its
#: median on the 2-CPU machine the baseline was measured on. The experiment's
#: times are given at this speed: multiplied by REFERENCE_CALIBRATION_S over
#: the median of the run's calibrations. The compute workload's are not: its
#: time goes mostly to sorting large arrays, and in a ten-seed set on that
#: machine the scaling doubled its spread (IQR/median 0.066 unscaled, 0.15
#: scaled) while it cut the experiment's (0.098 to 0.068).
REFERENCE_CALIBRATION_S = 0.45
#: The experiment's work is linear in the vertex count of its corpus (the
#: optimizer makes 15n pair updates per iteration, and it takes ~90% of a
#: pass), and that count varies by seed. Its times are therefore given for a
#: corpus of the mean size: 50 graphs of 20 to 60 vertices, 2000 vertices.
EXPERIMENT_REFERENCE_VERTICES = 2000
#: a run ends within this many seconds, reference computation included
DEADLINE_S = 170.0
#: time kept free after the last pass for the reference and the checks
REFERENCE_RESERVE_S = 30.0


class RunError(Exception):
    """The benchmark could not produce a result."""


class Run:
    def __init__(self, workload: Workload, seed: int, seconds: int, trace: bool) -> None:
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.trace = trace
        self.deadline = time.monotonic() + DEADLINE_S
        self.dir = BUILD / f"{workload.name}-s{seed}-p{os.getpid()}"
        self.nproc = len(os.sched_getaffinity(0))
        self.env = {k: v for k, v in os.environ.items() if k != "LAYOUTSTRESS_OUT_DIR"}
        self.env["PYTHONPATH"] = os.pathsep.join(
            [str(ROOT / "src")] + [p for p in [os.environ.get("PYTHONPATH")] if p]
        )
        for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                    "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
            self.env[var] = str(self.nproc)

    def worker(self, *args: str) -> str:
        """Run one worker step to completion and return its stdout."""
        remaining = self.deadline - time.monotonic()
        if remaining <= 0:
            raise RunError(f"out of time before worker step {args[0]}")
        try:
            proc = subprocess.run(
                [sys.executable, str(HERE / "worker.py"), *args],
                cwd=ROOT, env=self.env, stdout=subprocess.PIPE, text=True, timeout=remaining,
            )
        except subprocess.TimeoutExpired:
            raise RunError(f"worker step {args[0]} did not end in time") from None
        if proc.returncode != 0 and args[0] != "pass":
            raise RunError(f"worker step {args[0]} exited with {proc.returncode}")
        return proc.stdout

    def calibrate(self) -> float:
        return json.loads(self.worker("calibrate"))["calibration_s"]

    def execute(self) -> tuple[dict, list[str]]:
        shutil.rmtree(self.dir, ignore_errors=True)
        self.dir.mkdir(parents=True)
        try:
            return self._execute()
        finally:
            shutil.rmtree(self.dir, ignore_errors=True)

    def _execute(self) -> tuple[dict, list[str]]:
        spec = {"workload": self.workload.to_json(), "seed": self.seed}
        (self.dir / "spec.json").write_text(json.dumps(spec))
        versions = json.loads(self.worker("probe"))  # warm-up: compiles bytecode, not counted
        setup = [json.loads(self.worker("probe"))["setup_s"] for _ in range(SETUP_PROBES)]
        self.worker("prepare", str(self.dir))

        passes: list[tuple[bool, dict, Path]] = []
        durations: list[float] = []
        started = time.monotonic()
        calibrations = [self.calibrate()] if self.workload.kind == "experiment" else []
        while len(passes) < MIN_PASSES or (
            # start another pass only if it should end within the measuring time
            time.monotonic() - started + statistics.median(durations) <= self.seconds
            and time.monotonic() + 1.5 * max(durations) + REFERENCE_RESERVE_S <= self.deadline
        ):
            traced = self.trace and len(passes) % 2 == 0
            pass_dir = self.dir / f"pass{len(passes)}"
            pass_dir.mkdir()
            t0 = time.monotonic()
            self.worker("pass", str(self.dir), str(pass_dir), "1" if traced else "0")
            if calibrations:
                calibrations.append(self.calibrate())
            durations.append(time.monotonic() - t0)
            result_path = pass_dir / "pass.json"
            result = json.loads(result_path.read_text()) if result_path.is_file() else {
                "exit_code": -1, "error": "worker died", "wall_s": 0.0}
            passes.append((traced, result, pass_dir))

        reference = None
        if self.workload.kind == "compute":
            self.worker("reference", str(self.dir))
            reference = json.loads((self.dir / "reference.json").read_text())
        checked = [self._check(result, pass_dir, reference) for _, result, pass_dir in passes]
        problems = [f"pass {k}: {p}" for k, c in enumerate(checked) for p in c.problems]
        digests = {c.digest for c in checked if c.digest}
        if len(digests) > 1:
            problems.append("experiment tables differ between passes of the same seed")
        ok = [(traced, r, c) for (traced, r, _), c in zip(passes, checked) if "setup_s" in r]
        setup += [r["setup_s"] for _, r, _ in ok]
        untraced = [(r, c) for traced, r, c in ok if not traced]
        if not untraced:
            raise RunError("no untraced pass completed")

        if self.trace:
            metrics, layer_problems = self._layer_metrics(ok, untraced)
            problems += layer_problems
            units = {name: unit for name, unit, _ in spans.LAYER_METRICS}
        else:
            speed = REFERENCE_CALIBRATION_S / statistics.median(calibrations) if calibrations else 1.0
            metrics = {
                "setup_s": statistics.median(setup),
                "wall_s": statistics.median(self._wall(r, c) * speed for r, c in untraced),
                "trials_per_s": statistics.median(c.graphs / (self._wall(r, c) * speed) for r, c in untraced),
                "pairs_per_s": statistics.median(c.pairs / (r["wall_s"] * speed) for r, c in untraced),
                "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r, _ in untraced),
            }
            units = {name: unit for name, unit, _, _ in END_TO_END}
        attempted = sum(c.attempted for c in checked)
        failed = sum(c.failed for c in checked)
        out = {
            "correct": not problems,
            "attempted": attempted,
            "failed": failed,
            "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
        }
        notes = [
            f"{self.workload.name} seed={self.seed} trace={int(self.trace)}: {len(passes)} passes"
            f" ({len(untraced)} untraced), correct={not problems}, failed {failed}/{attempted}"
            f" (fail_ratio {failed / attempted:.4g})",
            f"  setup_s is the median of {len(setup)} imports; wall_s and the rates are medians"
            f" of {len(untraced)} untraced passes" if not self.trace else
            f"  per-layer times are medians of {len(passes) - len(untraced)} traced passes",
            "  pass wall/cpu s (* traced): " + " ".join(
                f"{r.get('wall_s', 0.0):.3f}/{r.get('cpu_s', 0.0):.3f}{'*' if traced else ''}"
                for traced, r, _ in passes),
            f"  calibration s: {' '.join(f'{c:.4f}' for c in calibrations)}; times and rates are"
            f" scaled to a calibration of {REFERENCE_CALIBRATION_S} s; unscaled median wall"
            f" {statistics.median(r['wall_s'] for r, _ in untraced):.4f} s" if calibrations else
            "  times are unscaled",
            *(f"  {name:32s} {metrics[name]:>16.6g} {units[name]}" for name in metrics),
            f"  nproc={self.nproc} python={versions['python']} numpy={versions['numpy']}",
            *(f"  PROBLEM {p}" for p in problems),
        ]
        verdicts = next((c for c in checked if c.verdicts), None)
        if verdicts is not None:
            # a FAIL verdict is a finding about the seed's corpus, not a wrong output
            notes[1:1] = [
                f"  verdicts: {verdicts.verdicts - len(verdicts.findings)}/{verdicts.verdicts} PASS",
                *(f"  finding {f}" for f in verdicts.findings),
                f"  corpus of {verdicts.vertices} vertices; wall_s and trials_per_s are given for"
                f" {EXPERIMENT_REFERENCE_VERTICES}",
            ]
        return out, notes

    def _wall(self, result: dict, check: checks.PassCheck) -> float:
        """A pass's wall time, for the experiment at the reference corpus size.
        pairs_per_s needs no size scaling: it counts the work."""
        if self.workload.kind == "experiment" and check.vertices:
            return result["wall_s"] * EXPERIMENT_REFERENCE_VERTICES / check.vertices
        return result["wall_s"]

    def _check(self, result: dict, pass_dir: Path, reference: dict | None) -> checks.PassCheck:
        if self.workload.kind == "compute":
            return checks.check_compute(result, pass_dir / "report.json", self.workload, reference)
        return checks.check_experiment(result, pass_dir / "tables", self.seed)

    def _layer_metrics(self, ok, untraced) -> tuple[dict, list[str]]:
        per_pass = []
        for traced, result, _ in ok:
            if traced:
                layer = spans.layer_metrics(result["spans"], result["bytes_written"], self.workload.kind)
                layer["trace.unaccounted_s"] = result["wall_s"] - layer["trace.top_spans_s"]
                per_pass.append((result["wall_s"], layer))
        if not per_pass:
            raise RunError("no traced pass completed")
        metrics = {}
        for name, _, _ in spans.LAYER_METRICS:
            if name == "trace.overhead_s":
                untraced_wall = statistics.median(r["wall_s"] for r, _ in untraced)
                metrics[name] = statistics.median(w for w, _ in per_pass) - untraced_wall
            elif name == "process.cpu_s":
                metrics[name] = statistics.median(r["cpu_s"] for r, _ in untraced)
            elif name in spans.EXACT_COUNTS:
                metrics[name] = per_pass[0][1][name]
            else:
                metrics[name] = statistics.median(layer[name] for _, layer in per_pass)
        return metrics, count_problems([layer for _, layer in per_pass])


def count_problems(layers: list[dict]) -> list[str]:
    """Counts that differ between traced passes of the same inputs."""
    problems = []
    for name in spans.EXACT_COUNTS:
        values = {layer[name] for layer in layers}
        if len(values) > 1:
            problems.append(f"{name} differs between traced passes: {sorted(values)}")
    return problems


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=97)
    parser.add_argument("--seconds", type=int, default=40)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "layoutstress" / "__init__.py").is_file():
        print(f"perfbench: no package source at {ROOT / 'src' / 'layoutstress'}", file=sys.stderr)
        return 2
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    all_correct = True
    for name in names:
        try:
            out, notes = Run(WORKLOADS[name], args.seed, args.seconds, bool(args.trace)).execute()
        except RunError as exc:
            print(f"perfbench: {name}: {exc}", file=sys.stderr)
            return 2
        print("\n".join(notes), file=sys.stderr)
        print(json.dumps(out), flush=True)
        all_correct = all_correct and out["correct"]
    return 0 if all_correct else 1


if __name__ == "__main__":
    sys.exit(main())
