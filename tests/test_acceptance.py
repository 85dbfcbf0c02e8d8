"""Acceptance suite: every exit criterion at its stated tolerance.

Each test prints one `[criterion NN] PASS` line (run pytest with -s to see
them as they complete); a failing criterion fails its test with the
offending values in the assertion message.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import json
import time

import numpy as np
import pytest

from layoutstress import (
    DisconnectedGraphError,
    Graph,
    Layout,
    apsp,
    compute_metric,
    distance_ratio_stress,
    isotonic_regression,
    normalized_stress,
    ns_quadratic,
    optimize_layout,
    pairwise_distances,
    random_layout,
    raw_stress,
    raw_stress_quadratic,
    scale_layout,
    scale_normalized_stress,
)
from layoutstress.cli import main as cli_main
from layoutstress.experiment import (
    GROUND_TRUTH_ORDER,
    ExperimentConfig,
    corpus_graph,
    run_experiment,
    runtime_benchmark,
)

from conftest import drs_quadruple_loop, floyd_warshall, gnp_connected


def _ok(num: int, text: str) -> None:
    print(f"[criterion {num:02d}] PASS - {text}", flush=True)


def _rel_close(value: float, reference: float, tol: float) -> bool:
    return abs(value - reference) <= tol * (1.0 + abs(reference))


@pytest.fixture(scope="module")
def default_experiment():
    t0 = time.monotonic()
    result = run_experiment(ExperimentConfig())
    return result, time.monotonic() - t0


# ---------------------------------------------------------------------------


def test_criterion_01_scale_invariance_suite():
    t0 = time.monotonic()
    rng = np.random.default_rng(101)
    alphas = (1e-2, 0.5, 2.0, 1e3)
    counts = {"sns": 0, "scs": 0, "nms": 0, "sgs": 0, "drs": 0}
    for k in range(100):
        n = int(rng.integers(10, 61))
        g = corpus_graph(n, 0.083, rng)
        d = apsp(g)
        seeds = rng.integers(2**31, size=3)
        layouts = {
            "optimized": optimize_layout(d, int(seeds[0]), iterations=100),
            "halfway": optimize_layout(d, int(seeds[1]), iterations=8),
            "random": random_layout(n, int(seeds[2])),
        }
        for layout in layouts.values():
            e = pairwise_distances(layout)
            base = {m: compute_metric(m, e, d) for m in ("sns", "scs", "nms")}
            base_sgs = compute_metric("sgs", e, d)
            base_drs = compute_metric("drs", e, d) if n <= 40 else None
            for alpha in alphas:
                scaled = pairwise_distances(scale_layout(layout, alpha))
                for m in ("sns", "scs", "nms"):
                    value = compute_metric(m, scaled, d)
                    assert _rel_close(value, base[m], 1e-9), (m, k, alpha, value, base[m])
                    counts[m] += 1
                sgs = compute_metric("sgs", scaled, d)
                assert sgs == base_sgs, ("sgs", k, alpha, sgs, base_sgs)
                counts["sgs"] += 1
                if base_drs is not None:
                    value = compute_metric("drs", scaled, d)
                    assert _rel_close(value, base_drs, 1e-9), ("drs", k, alpha)
                    counts["drs"] += 1
    elapsed = time.monotonic() - t0
    assert elapsed <= 120.0, f"scale-invariance suite took {elapsed:.1f}s (budget 120s)"
    _ok(
        1,
        "scale invariance: sns/scs/nms<=1e-9 rel, sgs exact, drs(n<=40)<=1e-9 "
        f"over 100 graphs x 3 layouts x 4 scales ({counts['drs']} drs checks, {elapsed:.0f}s)",
    )


def test_criterion_02_scale_sensitivity_witnesses(p3):
    d = p3["d"]
    assert raw_stress(p3["e_perfect"], d) == 0.0
    assert normalized_stress(p3["e_perfect"], d) == 0.0
    assert raw_stress(p3["e_doubled"], d) == pytest.approx(6.0, rel=1e-12)
    assert normalized_stress(p3["e_doubled"], d) == pytest.approx(3.0, rel=1e-12)
    assert scale_normalized_stress(p3["e_doubled"], d) == pytest.approx(0.0, abs=1e-12)
    _ok(2, "P3 witnesses: RS(2X)=6, NS(2X)=3, SNS(2X)=0, RS(X)=NS(X)=0")


def test_criterion_03_closed_form_optimality():
    rng = np.random.default_rng(303)
    grid_points = 10_000
    for _ in range(100):
        n = int(rng.integers(5, 26))
        g = gnp_connected(n, min(0.9, 2.5 / n + 0.15), rng)
        d = apsp(g)
        layout = Layout(rng.random((n, 2)) * rng.uniform(0.5, 30.0))
        e = pairwise_distances(layout)
        for quad_fn, metric in (
            (raw_stress_quadratic, raw_stress),
            (ns_quadratic, normalized_stress),
        ):
            quad = quad_fn(e, d)
            alpha = quad.alpha_min
            grid = np.linspace(4 * alpha / grid_points, 4 * alpha, grid_points)
            values = quad.a * grid * grid + quad.b * grid + quad.c
            step = grid[1] - grid[0]
            at_min = quad.evaluate(alpha)
            assert at_min <= values.min() + 1e-12 * (1 + abs(at_min))
            assert abs(grid[int(np.argmin(values))] - alpha) <= step * (1 + 1e-9)
            for a in (0.1, 1.0, 10.0, alpha):
                direct = metric(pairwise_distances(scale_layout(layout, a)), d)
                assert _rel_close(direct, quad.evaluate(a), 1e-9)
    _ok(3, "rs/ns alpha_min beat 10^4-point grids over (0, 4*alpha_min]; "
           "quadratic forms match direct evaluation to 1e-9 rel (100 instances)")


def test_criterion_04_intersection_correctness(p2):
    for quad_fn in (raw_stress_quadratic, ns_quadratic):
        alpha = quad_fn(p2["e1"], p2["d"]).crossing(quad_fn(p2["e2"], p2["d"]))
        assert alpha == pytest.approx(0.5, rel=1e-12)
    rng = np.random.default_rng(404)
    found = 0
    attempts = 0
    while found < 100:
        attempts += 1
        assert attempts < 2000, "could not find enough positive intersections"
        n = int(rng.integers(4, 20))
        g = gnp_connected(n, min(0.9, 2.5 / n + 0.15), rng)
        d = apsp(g)
        lay1 = Layout(rng.random((n, 2)) * rng.uniform(0.5, 10.0))
        lay2 = Layout(rng.random((n, 2)) * rng.uniform(0.5, 10.0))
        e1, e2 = pairwise_distances(lay1), pairwise_distances(lay2)
        alpha = ns_quadratic(e1, d).crossing(ns_quadratic(e2, d))
        if alpha is None:
            continue
        v1 = normalized_stress(pairwise_distances(scale_layout(lay1, alpha)), d)
        v2 = normalized_stress(pairwise_distances(scale_layout(lay2, alpha)), d)
        assert abs(v1 - v2) <= 1e-9 * (1 + v1), (alpha, v1, v2)
        found += 1
    _ok(4, f"ns curves re-evaluated equal at alpha* for 100 layout pairs "
           f"({attempts} sampled); P2 analytic case = 0.5")


def test_criterion_05_ordering_reproduction(default_experiment):
    result, elapsed = default_experiment
    assert elapsed <= 300.0, f"experiment took {elapsed:.1f}s (budget 300s)"
    table = result.order_table
    lines = []
    for m in ("sns", "scs", "nms"):
        freq = table.triple_frequency(m, GROUND_TRUTH_ORDER)
        assert freq >= 0.90, (m, freq)
        lines.append(f"{m}={freq:.0%}")
    for m in ("rs", "ns", "kks"):
        best = table.best_frequency(m, "random")
        truth = table.triple_frequency(m, GROUND_TRUTH_ORDER)
        assert best >= 0.95, (m, best)
        assert truth <= 0.05, (m, truth)
        lines.append(f"{m}:random-best={best:.0%}")
    _ok(5, "ordering on 50-graph corpus (paper-like policy): " + ", ".join(lines)
           + f" ({elapsed:.0f}s)")


def test_criterion_06_correlation_structure(default_experiment):
    result, _ = default_experiment
    corr = result.correlation_table
    rs_ns = corr.get("rs", "ns")
    sns_nms = corr.get("sns", "nms")
    rs_sns = corr.get("rs", "sns")
    assert rs_ns >= 0.9, rs_ns
    assert sns_nms >= 0.8, sns_nms
    assert rs_sns <= -0.2, rs_sns
    _ok(6, f"correlations: rs-ns={rs_ns:.3f}>=0.9, sns-nms={sns_nms:.3f}>=0.8, "
           f"rs-sns={rs_sns:.3f}<=-0.2")


def _all_inputs(length: int, levels: int = 4) -> np.ndarray:
    grids = np.meshgrid(*[np.arange(levels)] * length, indexing="ij")
    return np.stack([g.ravel() for g in grids], axis=1).astype(float)


def _isotonic_oracle_batch(values: np.ndarray) -> np.ndarray:
    """Exhaustive monotone-fit oracle, vectorized over input rows."""
    count, length = values.shape
    best_obj = np.full(count, np.inf)
    best_fit = np.zeros_like(values)
    for bits in range(2 ** (length - 1)):
        cuts = [0] + [i + 1 for i in range(length - 1) if bits >> i & 1] + [length]
        fit = np.empty_like(values)
        means = []
        for a, b in zip(cuts[:-1], cuts[1:]):
            m = values[:, a:b].mean(axis=1)
            means.append(m)
            fit[:, a:b] = m[:, None]
        feasible = np.ones(count, dtype=bool)
        for m1, m2 in zip(means, means[1:]):
            feasible &= m2 >= m1 - 1e-12
        obj = np.sum((values - fit) ** 2, axis=1)
        better = feasible & (obj < best_obj - 1e-12)
        best_obj[better] = obj[better]
        best_fit[better] = fit[better]
    return best_fit


def test_criterion_07_oracle_equivalence():
    # distance-ratio stress vs the literal quadruple loop
    rng = np.random.default_rng(707)
    for n in range(3, 13):
        g = gnp_connected(n, 0.5, rng)
        d = apsp(g)
        e = pairwise_distances(Layout(rng.random((n, 2)) * 5.0))
        value = distance_ratio_stress(e, d)
        oracle = drs_quadruple_loop(e.e, d.d)
        assert _rel_close(value, oracle, 1e-12), (n, value, oracle)

    # isotonic regression vs exhaustive enumeration on every input of
    # length <= 8 over {0, 1, 2, 3}
    pava_checked = 0
    for length in range(1, 9):
        inputs = _all_inputs(length)
        expected = _isotonic_oracle_batch(inputs)
        for row, want in zip(inputs, expected):
            got = isotonic_regression(row)
            assert np.allclose(got, want, atol=1e-9), (row, got, want)
            pava_checked += 1

    # shortest paths vs Floyd-Warshall: exhaustive on <= 6 vertices,
    # seeded samples on 7 and 8 (full enumeration at 8 is ~2^28 graphs)
    apsp_checked = 0
    for n in range(2, 7):
        pairs = list(itertools.combinations(range(n), 2))
        for bits in range(2 ** len(pairs)):
            edges = [p for k, p in enumerate(pairs) if bits >> k & 1]
            g = Graph.from_edges(n, edges)
            fw = floyd_warshall(g)
            if np.isinf(fw).any():
                with pytest.raises(DisconnectedGraphError):
                    apsp(g)
            else:
                assert np.array_equal(apsp(g).d, fw)
            apsp_checked += 1
    sample_rng = np.random.default_rng(708)
    for _ in range(1500):
        n = int(sample_rng.integers(7, 9))
        g = gnp_connected(n, 0.4, sample_rng)
        assert np.array_equal(apsp(g).d, floyd_warshall(g))
        apsp_checked += 1
    _ok(7, f"oracles: drs==quadruple loop (n=3..12), pava==enumeration "
           f"({pava_checked} inputs), apsp==floyd-warshall ({apsp_checked} graphs; "
           "exhaustive n<=6, sampled n=7..8)")


def test_criterion_08_complexity_slopes():
    t0 = time.monotonic()
    quad = runtime_benchmark([100, 200, 400, 800], ["ns", "sns", "scs"], repetitions=5, seed=88)
    for metric_id in ("ns", "sns", "scs"):
        slope = quad.slopes[metric_id]
        assert 1.6 <= slope <= 2.4, (metric_id, slope)
    quartic = runtime_benchmark([10, 20, 30, 40, 50], ["drs"], repetitions=5, seed=88)
    drs_slope = quartic.slopes["drs"]
    assert 3.4 <= drs_slope <= 4.6, drs_slope
    elapsed = time.monotonic() - t0
    assert elapsed <= 600.0, f"benchmark took {elapsed:.1f}s (budget 600s)"
    slopes = {m: round(quad.slopes[m], 2) for m in ("ns", "sns", "scs")}
    _ok(8, f"log-log slopes {slopes} in [1.6, 2.4]; drs={drs_slope:.2f} in [3.4, 4.6] "
           f"({elapsed:.0f}s)")


def test_criterion_09_shepard_goodness_contrast(default_experiment):
    result, _ = default_experiment
    mean_opt = float(np.mean([r.sources["optimized"].scores["sgs"] for r in result.records]))
    mean_rand = float(np.mean([r.sources["random"].scores["sgs"] for r in result.records]))
    assert mean_opt > 0.8, mean_opt
    assert mean_rand < 0.4, mean_rand
    _ok(9, f"mean sgs: optimized={mean_opt:.3f}>0.8, random={mean_rand:.3f}<0.4")


def test_criterion_10_experiment_determinism(tmp_path):
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps({
        "corpus": {"graphs": 12, "n_min": 15, "n_max": 35, "seed": 77},
        "optimizer_iterations": 120,
    }))
    with contextlib.redirect_stdout(io.StringIO()):
        code1 = cli_main(["experiment", str(config_path), "--out-dir", str(tmp_path / "run1")])
        code2 = cli_main(["experiment", str(config_path), "--out-dir", str(tmp_path / "run2")])
    assert code1 == code2
    files1 = sorted((tmp_path / "run1").iterdir())
    files2 = sorted((tmp_path / "run2").iterdir())
    assert [f.name for f in files1] == [f.name for f in files2] and files1
    for f1, f2 in zip(files1, files2):
        assert f1.read_bytes() == f2.read_bytes(), f"{f1.name} differs between runs"
    _ok(10, f"cmd_experiment produced bit-identical tables across two runs "
            f"({len(files1)} files)")
