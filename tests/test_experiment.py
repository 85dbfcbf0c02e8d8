from __future__ import annotations

import itertools
import json
import multiprocessing
import os
from concurrent.futures.process import BrokenProcessPool

import numpy as np
import pytest

from layoutstress import (
    Layout,
    SizeGuardError,
    apsp,
    ns_quadratic,
    pairwise_distances,
    random_layout,
    scale_layout,
)
from layoutstress.experiment import (
    GROUND_TRUTH_ORDER,
    LAYOUT_SOURCES,
    CorpusSpec,
    ExperimentConfig,
    apply_scale_policy,
    corpus_graph,
    generate_corpus,
    load_corpus_dir,
    make_layouts,
    metric_correlations,
    order_frequencies,
    run_experiment,
    run_trial,
    runtime_benchmark,
    write_tables,
)
from layoutstress import experiment as exp_mod
from layoutstress import serialize_edge_list
from layoutstress.metrics import HIGHER_IS_BETTER

from conftest import _is_connected, path_graph


SMALL_CORPUS = CorpusSpec(graphs=10, n_min=15, n_max=35, seed=23)
SMALL_CONFIG = ExperimentConfig(corpus=SMALL_CORPUS, optimizer_iterations=150)


@pytest.fixture(scope="module")
def small_result():
    return run_experiment(SMALL_CONFIG)


class TestCorpus:
    def test_deterministic(self):
        a = generate_corpus(SMALL_CORPUS)
        b = generate_corpus(SMALL_CORPUS)
        assert [(gid, g.edges) for gid, g in a] == [(gid, g.edges) for gid, g in b]

    def test_connected_and_sized(self):
        for _, g in generate_corpus(CorpusSpec(graphs=20, seed=3)):
            assert _is_connected(g)
            assert 20 <= g.vertex_count <= 60

    def test_density_near_target(self):
        spec = CorpusSpec(graphs=20, seed=5)
        densities = [
            g.edge_count / (g.vertex_count * (g.vertex_count - 1) / 2)
            for _, g in generate_corpus(spec)
        ]
        assert 0.06 <= float(np.mean(densities)) <= 0.13

    def test_rejects_tiny(self):
        with pytest.raises(ValueError):
            corpus_graph(5, 0.2, np.random.default_rng(0))

    def test_load_corpus_dir(self, tmp_path):
        rng = np.random.default_rng(1)
        (tmp_path / "b.txt").write_text(serialize_edge_list(corpus_graph(12, 0.1, rng)))
        (tmp_path / "a.mtx").write_text(
            "%%MatrixMarket matrix coordinate pattern symmetric\n4 4 3\n1 2\n2 3\n3 4\n"
        )
        # disconnected file: reduced to its largest component
        (tmp_path / "c.edges").write_text("0 1\n1 2\n2 3\n5 6\n")
        corpus = load_corpus_dir(tmp_path)
        assert [gid for gid, _ in corpus] == ["a", "b", "c"]
        assert corpus[0][1].vertex_count == 4
        assert corpus[2][1].vertex_count == 4  # component {0,1,2,3}

    def test_load_corpus_dir_errors(self, tmp_path):
        with pytest.raises(ValueError, match="does not exist"):
            load_corpus_dir(tmp_path / "absent")
        empty = tmp_path / "empty"
        empty.mkdir()
        with pytest.raises(ValueError, match="no graph files"):
            load_corpus_dir(empty)

    def test_experiment_over_file_corpus(self, tmp_path):
        rng = np.random.default_rng(2)
        for k in range(3):
            g = corpus_graph(int(rng.integers(12, 25)), 0.1, rng)
            (tmp_path / f"g{k}.txt").write_text(serialize_edge_list(g))
        config = ExperimentConfig(
            corpus=CorpusSpec(seed=5),
            corpus_dir=str(tmp_path),
            optimizer_iterations=40,
        )
        result = run_experiment(config)
        assert [r.graph_id for r in result.records] == ["g0", "g1", "g2"]
        again = run_experiment(config)
        assert [r.sources["random"].scores for r in again.records] == [
            r.sources["random"].scores for r in result.records
        ]


class TestConfigChecks:
    """ExperimentConfig and CorpusSpec refuse a bad field when built."""

    @pytest.mark.parametrize(
        "cls, kwargs, named",
        [
            (ExperimentConfig, {"metric_ids": ("nope",)}, "'nope'"),
            (ExperimentConfig, {"metric_ids": "ns"}, "'metric_ids'"),
            (ExperimentConfig, {"scale_policy": "nope"}, "'scale_policy'"),
            (ExperimentConfig, {"optimizer_iterations": 2.7}, "'optimizer_iterations'"),
            (ExperimentConfig, {"optimizer_iterations": True}, "'optimizer_iterations'"),
            (ExperimentConfig, {"optimizer_iterations": 0}, "'optimizer_iterations' must be >= 1"),
            (ExperimentConfig, {"optimizer_iterations": -5}, "'optimizer_iterations' must be >= 1"),
            (ExperimentConfig, {"drs_force": "false"}, "'drs_force'"),
            (CorpusSpec, {"graphs": "3"}, "'graphs'"),
            (CorpusSpec, {"seed": 5.0}, "'seed'"),
            (CorpusSpec, {"density": None}, "'density'"),
            (ExperimentConfig, {"corpus": {"graphs": 3}}, "'corpus'"),
            (ExperimentConfig, {"corpus_dir": 5}, "'corpus_dir'"),
        ],
        ids=["unknown_metric", "metric_string", "scale_policy", "float_iterations",
             "bool_iterations", "zero_iterations", "negative_iterations", "string_drs_force",
             "string_graphs", "float_seed", "none_density", "dict_corpus", "int_corpus_dir"],
    )
    def test_bad_field_refused_when_built(self, cls, kwargs, named):
        with pytest.raises(ValueError) as info:
            cls(**kwargs)
        assert named in str(info.value)

    def test_metric_generator_scores_every_graph(self):
        config = ExperimentConfig(
            corpus=CorpusSpec(graphs=5, n_min=12, n_max=20, seed=9),
            metric_ids=(m for m in ("ns", "sns", "sgs")),
            optimizer_iterations=40,
        )
        assert config.metric_ids == ("ns", "sns", "sgs")
        result = run_experiment(config)
        assert len(result.records) == 5 and not result.failures
        for record in result.records:
            for source in record.sources.values():
                assert set(source.scores) == {"ns", "sns", "sgs"}

    def test_path_corpus_dir_written_as_string(self, tmp_path):
        rng = np.random.default_rng(3)
        corpus = tmp_path / "corpus"
        corpus.mkdir()
        for k in range(2):
            (corpus / f"g{k}.txt").write_text(serialize_edge_list(corpus_graph(12, 0.1, rng)))
        config = ExperimentConfig(corpus_dir=corpus, metric_ids=("ns", "sns"), optimizer_iterations=20)
        assert config.corpus_dir == str(corpus)
        paths = write_tables(run_experiment(config), tmp_path / "out")
        summary = json.loads(paths[-1].read_text())
        assert summary["config"]["corpus_dir"] == str(corpus)

    def test_numpy_scalars_accepted(self):
        spec = CorpusSpec(graphs=np.int64(3), seed=np.int64(5), density=np.float64(0.1))
        assert spec == CorpusSpec(graphs=3, seed=5, density=0.1)
        assert type(spec.seed) is int and type(spec.graphs) is int
        config = ExperimentConfig(corpus=spec, optimizer_iterations=np.int32(40))
        assert type(config.optimizer_iterations) is int


class TestScalePolicy:
    def test_as_is_untouched(self):
        layouts = {"optimized": random_layout(10, 0), "random": random_layout(10, 1)}
        out = apply_scale_policy(layouts, "as-is")
        assert out["optimized"] is layouts["optimized"]

    def test_paper_like_spans(self):
        g = corpus_graph(20, 0.1, np.random.default_rng(2))
        d = apsp(g)
        layouts = make_layouts(d, 0, 1, iterations=30)
        out = apply_scale_policy(layouts, "paper-like")
        assert pairwise_distances(out["optimized"]).max_distance == pytest.approx(800.0, abs=1e-9)
        assert pairwise_distances(out["circle"]).max_distance == pytest.approx(804.0, abs=1e-9)
        # random stays in the unit square
        assert pairwise_distances(out["random"]).max_distance < 1.5

    def test_unknown_policy(self):
        with pytest.raises(ValueError, match="policy"):
            apply_scale_policy({}, "bogus")


class TestRunTrial:
    def test_perfect_beats_random(self):
        g = path_graph(3)
        perfect = Layout(np.array([[0.0, 0.0], [1.0, 0.0], [2.0, 0.0]]))
        layouts = {"perfect": perfect, "random": random_layout(3, 7)}
        record = run_trial("p3", apsp(g), layouts, ("sns",), "as-is")
        assert record.sources["perfect"].scores["sns"] == pytest.approx(0.0, abs=1e-12)
        assert record.sources["perfect"].scores["sns"] <= record.sources["random"].scores["sns"]

    def test_policy_recorded_in_max_distance(self):
        g = corpus_graph(24, 0.1, np.random.default_rng(4))
        d = apsp(g)
        layouts = make_layouts(d, 1, 2, iterations=30)
        record = run_trial("g", d, layouts, ("ns",), "paper-like")
        assert record.sources["optimized"].max_distance == pytest.approx(800.0, abs=1e-9)

    def test_deterministic_scores(self):
        g = corpus_graph(20, 0.1, np.random.default_rng(6))
        d = apsp(g)
        layouts = make_layouts(d, 3, 4, iterations=30)
        r1 = run_trial("g", d, layouts, ("rs", "sns", "sgs"), "paper-like")
        r2 = run_trial("g", d, layouts, ("rs", "sns", "sgs"), "paper-like")
        assert r1.sources["random"].scores == r2.sources["random"].scores

    def test_one_drawing_alive_at_a_time(self, live_drawings):
        d = apsp(corpus_graph(12, 0.2, np.random.default_rng(2)))
        run_trial("g", d, make_layouts(d, 1, 2, iterations=5), ("rs", "sgs", "nms"), "paper-like")
        # two rescalings, then one scored drawing per source
        assert len(live_drawings) == 5 and max(live_drawings) == 0, live_drawings

    def test_drs_skipped_above_guard(self):
        g = corpus_graph(70, 0.05, np.random.default_rng(8))
        layouts = {"random": random_layout(70, 0), "circle": make_layouts(apsp(g), 0, 0, 1)["circle"]}
        record = run_trial("g", apsp(g), layouts, ("drs", "ns"), "as-is")
        assert record.sources["random"].skipped == ("drs",)
        assert "drs" not in record.sources["random"].scores
        assert "ns" in record.sources["random"].scores

    def test_size_mismatch_rejected(self):
        g = path_graph(4)
        with pytest.raises(ValueError, match="layout"):
            run_trial("g", apsp(g), {"random": random_layout(3, 0)}, ("ns",), "as-is")
        with pytest.raises(ValueError, match="empty metric list"):
            run_trial("g", apsp(g), {"random": random_layout(4, 0)}, (), "as-is")
        with pytest.raises(ValueError, match="'metric_ids' must be a list of metric ids, got 'ns'"):
            run_trial("g", apsp(g), {"random": random_layout(4, 0)}, "ns", "as-is")

    def test_alpha_min_recorded(self):
        g = path_graph(5)
        record = run_trial("g", apsp(g), {"random": random_layout(5, 1)}, ("rs", "ns", "sns", "nms"), "as-is")
        alphas = record.sources["random"].alpha_min
        assert set(alphas) == {"rs", "ns", "sns"}
        assert alphas["ns"] == alphas["sns"]


class TestOrderFrequencies:
    def test_invariants_on_small_corpus(self, small_result):
        table = small_result.order_table
        for metric_id in table.metric_ids:
            total = table.totals[metric_id]
            assert sum(table.triple_counts[metric_id].values()) == total
            for a, b in itertools.combinations(LAYOUT_SOURCES, 2):
                fa = table.pair_frequency(metric_id, a, b)
                fb = table.pair_frequency(metric_id, b, a)
                assert fa + fb == pytest.approx(1.0)

    def test_sgs_direction_inverted(self):
        # build two fake records where sgs is higher for "optimized"
        g = path_graph(8)
        d = apsp(g)
        records = []
        for seed in (0, 1):
            layouts = make_layouts(d, seed, seed + 10, iterations=40)
            records.append(run_trial(f"g{seed}", d, layouts, ("sgs",), "as-is"))
        table = order_frequencies(records)
        for record in records:
            assert (
                record.sources["optimized"].scores["sgs"]
                > record.sources["random"].scores["sgs"]
            )
        assert table.pair_frequency("sgs", "optimized", "random") == 1.0

    def test_tie_resolved_lexicographically_and_counted(self):
        g = path_graph(3)
        perfect = Layout(np.array([[0.0, 0.0], [1.0, 0.0], [2.0, 0.0]]))
        layouts = {"a": perfect, "b": perfect, "c": random_layout(3, 3)}
        record = run_trial("g", apsp(g), layouts, ("sns",), "as-is")
        for sources in (("a", "b", "c"), ("b", "a", "c")):
            table = order_frequencies([record], sources=sources)
            assert table.tie_counts["sns"] == 1
            assert table.triple_frequency("sns", ("a", "b", "c")) == 1.0

    def test_missing_source_rejected(self):
        g = path_graph(3)
        record = run_trial("g", apsp(g), {"only": random_layout(3, 0)}, ("ns",), "as-is")
        with pytest.raises(ValueError, match="missing source"):
            order_frequencies([record])
        with pytest.raises(ValueError, match="missing source"):
            metric_correlations([record, record])

    def test_counts_match_definition(self, small_result):
        # each record's sources sorted by (score, name), the score negated
        # where higher is better
        table = small_result.order_table
        assert table.metric_ids == small_result.config.metric_ids
        for metric_id in table.metric_ids:
            triples, pairs, ties = {}, {}, 0
            for record in small_result.records:
                signed = {src: record.sources[src].scores[metric_id] for src in LAYOUT_SOURCES}
                if metric_id in HIGHER_IS_BETTER:
                    signed = {src: -v for src, v in signed.items()}
                ties += len(set(signed.values())) < len(signed)
                perm = tuple(sorted(LAYOUT_SOURCES, key=lambda src: (signed[src], src)))
                triples[perm] = triples.get(perm, 0) + 1
                for i, better in enumerate(perm):
                    for worse in perm[i + 1 :]:
                        pairs[better, worse] = pairs.get((better, worse), 0) + 1
            assert table.triple_counts[metric_id] == triples
            assert table.pair_counts[metric_id] == pairs
            assert table.tie_counts[metric_id] == ties


class TestMetricCorrelations:
    def test_monotone_transforms_correlate_perfectly(self, small_result):
        # rs and ns rank the sources identically on this corpus
        corr = small_result.correlation_table
        assert corr.get("rs", "ns") == pytest.approx(1.0)
        assert np.allclose(corr.matrix, corr.matrix.T)
        assert np.all(np.diagonal(corr.matrix) == 1.0)

    def test_scale_sensitive_vs_invariant_negative(self, small_result):
        assert small_result.correlation_table.get("rs", "sns") <= -0.2

    def test_matrix_matches_definition(self, small_result):
        # Spearman over the pooled per-record ranks: Pearson of the ranks of
        # those ranks, every rank counted as 1 + #smaller + (#equal - 1) / 2
        def counted_ranks(values):
            return [
                1 + sum(w < v for w in values) + (sum(w == v for w in values) - 1) / 2
                for v in values
            ]

        corr = small_result.correlation_table
        pooled = []
        for metric_id in corr.metric_ids:
            series = []
            for record in small_result.records:
                row = [record.sources[src].scores[metric_id] for src in LAYOUT_SOURCES]
                if metric_id in HIGHER_IS_BETTER:
                    row = [-v for v in row]
                series.extend(counted_ranks(row))
            pooled.append(counted_ranks(series))
        np.testing.assert_allclose(corr.matrix, np.corrcoef(pooled), rtol=0, atol=1e-12)

    def test_needs_two_records(self, small_result):
        with pytest.raises(ValueError):
            metric_correlations(small_result.records[:1])


class TestRuntimeBenchmark:
    def test_rows_and_monotone_cost(self):
        result = runtime_benchmark([40, 80, 160], ["ns"], repetitions=3, seed=1)
        times = {row.n: row.median_seconds for row in result.rows}
        assert len(times) == 3
        assert times[160] >= times[40]
        assert "ns" in result.slopes

    def test_input_validation(self):
        with pytest.raises(ValueError, match="ascending"):
            runtime_benchmark([100, 50], ["ns"], repetitions=3)
        with pytest.raises(ValueError, match="repetitions"):
            runtime_benchmark([10, 20], ["ns"], repetitions=2)
        for sizes in ([1, 20], []):
            with pytest.raises(ValueError, match=r"sizes must be >= 8, got \["):
                runtime_benchmark(sizes, ["drs"], repetitions=3)
        with pytest.raises(ValueError, match="unknown metric"):
            runtime_benchmark([10, 20], ["nope"], repetitions=3)
        with pytest.raises(ValueError, match="'metric_ids' must be a list of metric ids, got 'ns'"):
            runtime_benchmark([10, 20], "ns", repetitions=3)

    def test_drs_guard(self):
        with pytest.raises(SizeGuardError):
            runtime_benchmark([10, 60], ["drs"], repetitions=3)
        result = runtime_benchmark([8, 12], ["drs"], repetitions=3, seed=1)
        assert len(result.rows) == 2


class TestExperiment:
    def test_ordering_verdicts_on_small_corpus(self, small_result):
        table = small_result.order_table
        # scale-sensitive metrics put random first under the paper-like policy
        for m in ("rs", "ns", "kks"):
            assert table.best_frequency(m, "random") == 1.0
            assert table.triple_frequency(m, GROUND_TRUTH_ORDER) == 0.0
        # scale-invariant metrics recover the ground truth most of the time
        for m in ("sns", "scs"):
            assert table.triple_frequency(m, GROUND_TRUTH_ORDER) >= 0.8

    def test_unit_square_random_beats_blown_up_layouts(self, small_result):
        # the headline inversion: under paper-like scaling, ns prefers the
        # random drawing to the optimized one on (nearly) every graph
        inversions = sum(
            record.sources["random"].scores["ns"] < record.sources["optimized"].scores["ns"]
            for record in small_result.records
        )
        assert inversions >= 0.9 * len(small_result.records)

    def test_failures_recorded_and_run_continues(self, monkeypatch):
        real = exp_mod.make_layouts
        spec = CorpusSpec(graphs=4, n_min=12, n_max=20, seed=9)
        failing_id, failing = generate_corpus(spec)[1]
        failing_pairs = apsp(failing).pairs

        # keyed on the graph's distances, which determine the graph, not on
        # a call count: each worker process would count only its own calls
        def flaky(distances, opt_seed, rand_seed, iterations=100):
            if np.array_equal(distances.pairs, failing_pairs):
                raise RuntimeError("synthetic layout failure")
            return real(distances, opt_seed, rand_seed, iterations)

        monkeypatch.setattr(exp_mod, "make_layouts", flaky)
        config = ExperimentConfig(corpus=spec, optimizer_iterations=40)
        result = run_experiment(config)
        assert len(result.records) == 3
        assert len(result.failures) == 1
        assert "synthetic layout failure" in result.failures[0][1]
        assert result.failures[0][0] == failing_id

    def test_bit_identical_tables(self, tmp_path):
        config = ExperimentConfig(
            corpus=CorpusSpec(graphs=4, n_min=12, n_max=20, seed=13),
            optimizer_iterations=40,
        )
        paths1 = write_tables(run_experiment(config), tmp_path / "a")
        paths2 = write_tables(run_experiment(config), tmp_path / "b")
        for p1, p2 in zip(paths1, paths2):
            assert p1.read_bytes() == p2.read_bytes()

    def test_prenormalized_scales_collapse_orderings(self):
        # scaling every layout to its optimal factor makes the
        # scale-sensitive orderings match the sns ordering
        corpus = generate_corpus(CorpusSpec(graphs=6, n_min=20, n_max=45, seed=31))
        rng = np.random.default_rng(31)
        for gid, g in corpus:
            d = apsp(g)
            layouts = make_layouts(d, int(rng.integers(2**31)), int(rng.integers(2**31)), 200)
            normalized = {}
            for name, layout in layouts.items():
                alpha = ns_quadratic(pairwise_distances(layout), d).alpha_min
                normalized[name] = scale_layout(layout, alpha)
            record = run_trial(gid, d, normalized, ("rs", "ns", "sns"), "as-is")
            table = order_frequencies([record])
            orders = {
                m: max(table.triple_counts[m], key=table.triple_counts[m].get)
                for m in ("rs", "ns", "sns")
            }
            assert orders["ns"] == orders["sns"]
            assert orders["rs"] == orders["sns"]

    def test_verdict_names_cover_expected_checks(self, small_result):
        names = {v.name for v in small_result.verdicts}
        assert {"sns-ground-truth", "rs-random-best", "corr-rs-sns", "sgs-random-low"} <= names


POOL_SPEC = CorpusSpec(graphs=5, n_min=12, n_max=22, seed=11)


@pytest.fixture
def run_with_workers(monkeypatch):
    """run_experiment(config, workers) with the worker count forced. Every
    trial checks that it runs in a worker process when workers > 1 and in
    this process otherwise, and fails if not; fail(distances) may name graphs
    whose layouts raise, and die(distances) ones whose worker exits. A
    graph's distances determine the graph (its edges are the pairs at 1)."""
    parent = os.getpid()
    real = exp_mod.make_layouts

    def run(config, workers, fail=lambda distances: False, die=lambda distances: False):
        def checked(distances, opt_seed, rand_seed, iterations=100):
            if (os.getpid() != parent) != (workers > 1):
                raise AssertionError(f"trial ran in process {os.getpid()}, parent {parent}")
            if die(distances):
                os._exit(3)
            if fail(distances):
                raise RuntimeError(f"synthetic failure on {distances.n} vertices")
            return real(distances, opt_seed, rand_seed, iterations)

        monkeypatch.setattr(exp_mod, "_trial_workers", lambda trials: workers)
        monkeypatch.setattr(exp_mod, "make_layouts", checked)
        return run_experiment(config)

    return run


def _table_bytes(result, out_dir) -> list[bytes]:
    return [path.read_bytes() for path in write_tables(result, out_dir)]


class TestTrialPool:
    @pytest.mark.parametrize("seed", [11, 12, 13, 14])
    def test_pool_and_serial_tables_identical(self, run_with_workers, tmp_path, seed):
        config = ExperimentConfig(
            corpus=CorpusSpec(graphs=4, n_min=12, n_max=22, seed=seed),
            optimizer_iterations=40,
        )
        pooled = run_with_workers(config, 2)
        serial = run_with_workers(config, 1)
        assert pooled.failures == serial.failures == ()
        assert _table_bytes(pooled, tmp_path / "pool") == _table_bytes(serial, tmp_path / "serial")

    def test_pool_and_serial_identical_on_corpus_dir(self, run_with_workers, tmp_path):
        corpus_dir = tmp_path / "corpus"
        corpus_dir.mkdir()
        for graph_id, graph in generate_corpus(POOL_SPEC):
            (corpus_dir / f"{graph_id}.txt").write_text(serialize_edge_list(graph))
        config = ExperimentConfig(corpus_dir=corpus_dir, optimizer_iterations=40)
        pooled = run_with_workers(config, 2)
        serial = run_with_workers(config, 1)
        assert [r.graph_id for r in pooled.records] == [f"g{k:03d}" for k in range(5)]
        assert _table_bytes(pooled, tmp_path / "pool") == _table_bytes(serial, tmp_path / "serial")

    def test_failures_in_corpus_order(self, run_with_workers):
        corpus = generate_corpus(POOL_SPEC)
        failing = [corpus[1], corpus[3]]
        failing_pairs = [apsp(g).pairs for _, g in failing]
        config = ExperimentConfig(corpus=POOL_SPEC, optimizer_iterations=40)

        def fail(distances):
            return any(np.array_equal(distances.pairs, pairs) for pairs in failing_pairs)

        pooled = run_with_workers(config, 2, fail=fail)
        serial = run_with_workers(config, 1, fail=fail)
        assert pooled.failures == serial.failures
        assert [graph_id for graph_id, _ in pooled.failures] == [gid for gid, _ in failing]
        assert "synthetic failure" in pooled.failures[0][1]
        assert len(pooled.records) == 3

    def test_dead_worker_raises(self, run_with_workers):
        doomed_pairs = apsp(generate_corpus(POOL_SPEC)[2][1]).pairs
        config = ExperimentConfig(corpus=POOL_SPEC, optimizer_iterations=40)
        with pytest.raises(BrokenProcessPool):
            run_with_workers(config, 2, die=lambda d: np.array_equal(d.pairs, doomed_pairs))
        assert multiprocessing.active_children() == []

    def test_no_worker_left_after_run_or_refusal(self, run_with_workers):
        config = ExperimentConfig(corpus=POOL_SPEC, optimizer_iterations=40)
        run_with_workers(config, 2)
        assert multiprocessing.active_children() == []
        with pytest.raises(ValueError, match="every trial failed"):
            run_with_workers(config, 2, fail=lambda distances: True)
        assert multiprocessing.active_children() == []
