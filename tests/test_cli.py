from __future__ import annotations

import csv
import io
import json

import numpy as np
import pytest

from layoutstress import Layout, circle_layout, pairwise_distances, random_layout, write_layout_csv
from layoutstress import experiment
from layoutstress.cli import main
from layoutstress.experiment import BENCH_DRS_MAX_VERTICES

from conftest import grid_graph
from layoutstress import serialize_edge_list


@pytest.fixture()
def p3_files(tmp_path):
    graph = tmp_path / "p3.txt"
    graph.write_text("0 1\n1 2\n")
    perfect = tmp_path / "perfect.csv"
    perfect.write_text(write_layout_csv(Layout(np.array([[0.0, 0.0], [1.0, 0.0], [2.0, 0.0]]))))
    doubled = tmp_path / "doubled.csv"
    doubled.write_text(write_layout_csv(Layout(np.array([[0.0, 0.0], [2.0, 0.0], [4.0, 0.0]]))))
    return graph, perfect, doubled


class TestCompute:
    def test_perfect_layout_scores(self, p3_files, tmp_path, capsys):
        graph, perfect, doubled = p3_files
        out = tmp_path / "report.json"
        code = main(["compute", str(graph), str(perfect), "--metrics", "ns,sns", "--out", str(out)])
        assert code == 0
        report = json.loads(out.read_text())
        metrics = report["layouts"]["perfect"]["metrics"]
        assert metrics["ns"]["value"] == 0.0
        assert metrics["sns"]["value"] == 0.0
        assert metrics["ns"]["alpha_min"] == pytest.approx(1.0)

    def test_doubled_layout_scores(self, p3_files, tmp_path):
        graph, perfect, doubled = p3_files
        out = tmp_path / "report.json"
        assert main(["compute", str(graph), str(doubled), "--metrics", "ns,sns", "--out", str(out)]) == 0
        metrics = json.loads(out.read_text())["layouts"]["doubled"]["metrics"]
        assert metrics["ns"]["value"] == pytest.approx(3.0)
        assert metrics["sns"]["value"] == pytest.approx(0.0, abs=1e-12)

    def test_missing_vertex_row_exits_2(self, p3_files, tmp_path, capsys):
        graph, perfect, _ = p3_files
        broken = tmp_path / "broken.csv"
        broken.write_text("id,x,y\n0,0.0,0.0\n2,2.0,0.0\n")
        code = main(["compute", str(graph), str(broken)])
        assert code == 2
        assert "vertex id 1" in capsys.readouterr().err

    def test_csv_format(self, p3_files, tmp_path, capsys):
        graph, perfect, doubled = p3_files
        assert main(["compute", str(graph), str(perfect), "--metrics", "rs", "--format", "csv"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0] == "layout,metric,value,alpha_min,seconds"
        assert lines[1].startswith("perfect,rs,0.0,")
        # every value and alpha_min cell reads back as the JSON number, bit
        # for bit; sgs has no alpha_min, so its cell is empty
        argv = ["compute", str(graph), str(perfect), str(doubled), "--metrics", "rs,sgs"]
        assert main([*argv, "--format", "csv"]) == 0
        rows = [line.split(",") for line in capsys.readouterr().out.splitlines()[1:]]
        assert main([*argv, "--format", "json", "--out", str(tmp_path / "r.json")]) == 0
        layouts = json.loads((tmp_path / "r.json").read_text())["layouts"]
        assert [row[:2] for row in rows] == [
            [name, m] for name in ("perfect", "doubled") for m in ("rs", "sgs")
        ]
        for name, metric_id, value, alpha_min, _ in rows:
            cell = layouts[name]["metrics"][metric_id]
            assert float(value).hex() == cell["value"].hex()
            if metric_id == "sgs":
                assert alpha_min == "" and cell["alpha_min"] is None
            else:
                assert float(alpha_min).hex() == cell["alpha_min"].hex()

    def test_unknown_metric_exits_1(self, p3_files, capsys):
        graph, perfect, _ = p3_files
        assert main(["compute", str(graph), str(perfect), "--metrics", "nope"]) == 1

    def test_repeated_metric_exits_1(self, p3_files, capsys):
        graph, perfect, _ = p3_files
        assert main(["compute", str(graph), str(perfect), "--metrics", "ns,sns,ns"]) == 1
        err = capsys.readouterr().err
        assert err == "usage error: metric id 'ns' is given more than once\n"

    def test_duplicate_layout_stem_exits_2(self, p3_files, tmp_path, capsys):
        graph, perfect, doubled = p3_files
        (tmp_path / "a").mkdir()
        (tmp_path / "b").mkdir()
        first, second = tmp_path / "a" / "x.csv", tmp_path / "b" / "x.csv"
        first.write_text(perfect.read_text())
        second.write_text(doubled.read_text())
        code = main(["compute", str(graph), str(first), str(second), "--out", str(tmp_path / "r.json")])
        assert code == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith("input error:") and "'x'" in err[0]
        assert not (tmp_path / "r.json").exists()

    @pytest.mark.parametrize("drawing", ["random", "circle"])
    def test_max_drawing_distance_is_the_squares_maximum(self, tmp_path, drawing):
        layout = random_layout(300, 4) if drawing == "random" else circle_layout(300)
        graph, layout_path = tmp_path / "ring.txt", tmp_path / "l.csv"
        graph.write_text(_ring(300))
        layout_path.write_text(write_layout_csv(layout))
        out = tmp_path / "r.json"
        assert main(["compute", str(graph), str(layout_path), "--metrics", "ns", "--out", str(out)]) == 0
        got = json.loads(out.read_text())["layouts"]["l"]["max_drawing_distance"]
        assert got == float(pairwise_distances(layout).e.max())

    def test_one_drawing_alive_at_a_time(self, p3_files, live_drawings, capsys):
        graph, perfect, doubled = p3_files
        assert main(["compute", str(graph), str(perfect), str(doubled), "--metrics", "rs,sgs,nms"]) == 0
        assert len(live_drawings) == 2 and max(live_drawings) == 0, live_drawings

    def test_collapsed_layout_message(self, p3_files, tmp_path, capsys):
        graph, _, _ = p3_files
        collapsed = tmp_path / "collapsed.csv"
        collapsed.write_text(write_layout_csv(Layout(np.zeros((3, 2)))))
        assert main(["compute", str(graph), str(collapsed), "--metrics", "rs"]) == 2
        err = capsys.readouterr().err
        assert err == f"input error: {collapsed}: all points coincide; optimal scale is undefined\n"

    def test_layout_of_another_vertex_count_exits_2(self, p3_files, tmp_path, capsys):
        graph, _, _ = p3_files
        square = tmp_path / "square.csv"
        square.write_text(write_layout_csv(circle_layout(4)))
        assert main(["compute", str(graph), str(square)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"input error: {square}: layout has 4 vertices but the graph")
        assert len(err.splitlines()) == 1

    def test_missing_file_exits_2(self, tmp_path):
        assert main(["compute", str(tmp_path / "absent.txt"), str(tmp_path / "x.csv")]) == 2

    def test_component_extraction_reported(self, tmp_path):
        graph = tmp_path / "disconnected.txt"
        graph.write_text("0 1\n1 2\n3 4\n")
        layout = tmp_path / "lay.csv"
        layout.write_text(write_layout_csv(Layout(np.array([[0.0, 0.0], [1.0, 0.0], [2.0, 0.0]]))))
        out = tmp_path / "report.json"
        assert main(["compute", str(graph), str(layout), "--metrics", "ns", "--out", str(out)]) == 0
        report = json.loads(out.read_text())
        assert report["graph"]["component_extracted"] is True
        assert report["graph"]["new_to_old"] == [0, 1, 2]

    def test_matrix_market_input(self, tmp_path):
        graph = tmp_path / "g.mtx"
        graph.write_text("%%MatrixMarket matrix coordinate pattern symmetric\n3 3 2\n1 2\n2 3\n")
        layout = tmp_path / "lay.csv"
        layout.write_text(write_layout_csv(Layout(np.array([[0.0, 0.0], [1.0, 0.0], [2.0, 0.0]]))))
        out = tmp_path / "report.json"
        assert main(["compute", str(graph), str(layout), "--metrics", "rs", "--out", str(out)]) == 0
        assert json.loads(out.read_text())["layouts"]["lay"]["metrics"]["rs"]["value"] == 0.0

    @pytest.mark.parametrize(
        "name, text",
        [
            ("sparse.txt", "0 1\n1 2\n2 3\n1000000000000000 1000000000000001\n"),
            ("sparse.mtx", "%%MatrixMarket matrix coordinate pattern symmetric\n"
             "1000000000000000 1000000000000000 4\n1 2\n2 3\n3 4\n"
             "1000000000000000 999999999999999\n"),
        ],
        ids=["edge_list", "matrix_market"],
    )
    def test_sparse_vertex_ids(self, tmp_path, name, text):
        # a 4-vertex path plus one far edge: the path is scored, and no array
        # is sized by the largest id
        graph = tmp_path / name
        graph.write_text(text)
        layout = tmp_path / "line.csv"
        layout.write_text(write_layout_csv(Layout(np.column_stack([np.arange(4.0), np.zeros(4)]))))
        out = tmp_path / "report.json"
        argv = ["compute", str(graph), str(layout), "--metrics", "rs,ns,sgs", "--out", str(out)]
        assert main(argv) == 0
        report = json.loads(out.read_text())
        assert report["graph"]["new_to_old"] == [0, 1, 2, 3]
        metrics = report["layouts"]["line"]["metrics"]
        assert [metrics[m]["value"] for m in ("rs", "ns", "sgs")] == [0.0, 0.0, 1.0]

    @pytest.mark.parametrize("marked", [0, 1], ids=["graph", "layout"])
    def test_byte_order_mark_is_skipped(self, p3_files, tmp_path, marked):
        files = list(p3_files[:2])
        files[marked] = tmp_path / f"bom{files[marked].suffix}"
        files[marked].write_bytes(b"\xef\xbb\xbf" + p3_files[marked].read_bytes())
        out = tmp_path / "report.json"
        assert main(["compute", *map(str, files), "--metrics", "rs", "--out", str(out)]) == 0
        report = json.loads(out.read_text())
        assert report["graph"]["vertex_count"] == 3
        assert report["layouts"][files[1].stem]["metrics"]["rs"]["value"] == 0.0


class TestCurve:
    def test_sns_constant_column(self, p3_files, tmp_path):
        graph, _, doubled = p3_files
        out = tmp_path / "curve.csv"
        code = main([
            "curve", str(graph), str(doubled), "--metric", "sns",
            "--alpha-grid", "0.1,10,9,log", "--out", str(out),
        ])
        assert code == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "alpha,value"
        values = [float(line.split(",")[1]) for line in lines[1:]]
        assert max(values) - min(values) <= 1e-9

    def test_ns_minimum_near_half(self, p3_files, tmp_path):
        graph, _, doubled = p3_files
        out = tmp_path / "curve.csv"
        assert main([
            "curve", str(graph), str(doubled), "--metric", "ns",
            "--alpha-grid", "0.1,10,41,log", "--out", str(out),
        ]) == 0
        rows = [line.split(",") for line in out.read_text().strip().splitlines()[1:]]
        alphas = [float(a) for a, _ in rows]
        values = [float(v) for _, v in rows]
        best = alphas[int(np.argmin(values))]
        # nearest grid point to the optimal scale 0.5
        target = min(alphas, key=lambda a: abs(a - 0.5))
        assert best == pytest.approx(target)

    def test_kks_quadratic_between_doubling_rows(self, p3_files, tmp_path):
        graph, _, _ = p3_files
        stretched = tmp_path / "stretched.csv"
        stretched.write_text(write_layout_csv(Layout(np.array([[0.0, 0.0], [1.0, 0.0], [3.0, 0.0]]))))
        out = tmp_path / "curve.csv"
        assert main([
            "curve", str(graph), str(stretched), "--metric", "kks",
            "--alpha-grid", "0.5,4,4,log", "--out", str(out),
        ]) == 0
        values = [float(line.split(",")[1]) for line in out.read_text().strip().splitlines()[1:]]
        for k in range(3):
            assert values[k + 1] == pytest.approx(4 * values[k], rel=1e-9)

    def test_l0_flag_changes_values(self, p3_files, tmp_path):
        graph, _, _ = p3_files
        stretched = tmp_path / "stretched.csv"
        stretched.write_text(write_layout_csv(Layout(np.array([[0.0, 0.0], [1.0, 0.0], [3.0, 0.0]]))))
        out_default = tmp_path / "a.csv"
        out_frozen = tmp_path / "b.csv"
        main(["curve", str(graph), str(stretched), "--metric", "kks",
              "--alpha-grid", "1,2,2,linear", "--out", str(out_default)])
        main(["curve", str(graph), str(stretched), "--metric", "kks",
              "--alpha-grid", "1,2,2,linear", "--l0", "3.0", "--out", str(out_frozen)])
        assert out_default.read_text() != out_frozen.read_text()

    def test_drs_size_guard_names_the_graph_and_the_flag(self, tmp_path, capsys):
        n = 70
        graph = tmp_path / "g70.txt"
        graph.write_text("".join(f"{i} {(i + 1) % n}\n" for i in range(n)))
        layout = tmp_path / "l70.csv"
        layout.write_text(write_layout_csv(circle_layout(n)))
        assert main(["curve", str(graph), str(layout), "--metric", "drs"]) == 2
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1
        assert err.startswith(f"input error: {graph}: ") and "--force" in err
        assert "l70.csv" not in err and "force=True" not in err

    def test_bad_grid_exits_1(self, p3_files):
        graph, perfect, _ = p3_files
        assert main(["curve", str(graph), str(perfect), "--metric", "ns", "--alpha-grid", "0,1,5,log"]) == 1
        assert main(["curve", str(graph), str(perfect), "--metric", "ns", "--alpha-grid", "1,2,1,log"]) == 1
        assert main(["curve", str(graph), str(perfect), "--metric", "ns", "--alpha-grid", "1,2,5,cubic"]) == 1

    @pytest.mark.parametrize(
        "flags, message",
        [
            (["--metric", "ns,sns"], "curve takes exactly one metric"),
            (["--metric", "ns", "--alpha-grid", "1,2,3"],
             "alpha grid must be 'start,stop,count,log|linear'"),
            (["--metric", "ns", "--alpha-grid", "a,2,5,log"], "malformed alpha grid 'a,2,5,log'"),
            (["--metric", "ns", "--alpha-grid", "0.1,10,1000000000000000,log"],
             "alpha grid of 1000000000000000 samples exceeds the limit of 100000"),
            (["--metric", "ns", "--alpha-grid", "1,2,100001,linear"],
             "alpha grid of 100001 samples exceeds the limit of 100000"),
        ],
        ids=["two_metrics", "three_grid_fields", "malformed_grid", "huge_grid", "grid_over_limit"],
    )
    def test_usage_error_message(self, p3_files, capsys, flags, message):
        graph, perfect, _ = p3_files
        assert main(["curve", str(graph), str(perfect), *flags]) == 1
        assert capsys.readouterr().err == f"usage error: {message}\n"


class TestBench:
    def test_rows_with_slope_annotation(self, capsys):
        assert main(["bench", "--sizes", "20,40,80", "--metrics", "ns", "--reps", "3"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0] == "n,metric,median_seconds,loglog_slope"
        assert len(lines) == 4
        slope = float(lines[1].rsplit(",", 1)[1])
        assert slope == float(lines[3].rsplit(",", 1)[1])

    def test_drs_size_guard_refused(self, capsys):
        assert main(["bench", "--sizes", "10,100", "--metrics", "drs", "--reps", "3"]) == 2
        assert "drs" in capsys.readouterr().err

    def test_drs_size_guard_names_the_limit_and_the_flag(self, capsys):
        assert main(["bench", "--sizes", "10,100", "--metrics", "drs", "--reps", "3"]) == 2
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1
        assert f"up to {BENCH_DRS_MAX_VERTICES} vertices" in err and "reaches 100" in err
        assert "--force" in err and "pass force" not in err

    def test_malformed_size_list_exits_1(self, capsys):
        assert main(["bench", "--sizes", "8,x", "--metrics", "ns"]) == 1
        assert capsys.readouterr().err == "usage error: malformed size list '8,x'\n"

    def test_repeated_metric_exits_1(self, capsys):
        assert main(["bench", "--sizes", "8,16", "--metrics", "ns,ns", "--reps", "3"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "usage error: metric id 'ns' is given more than once\n"

    def test_drs_force_overrides(self, tmp_path):
        out = tmp_path / "bench.csv"
        code = main([
            "bench", "--sizes", "10,60", "--metrics", "drs", "--reps", "3",
            "--force", "--out", str(out),
        ])
        assert code == 0
        assert len(out.read_text().strip().splitlines()) == 3


    def test_negative_seed_names_the_seed(self, capsys):
        argv = ["bench", "--sizes", "8,16", "--metrics", "ns", "--reps", "3", "--seed", "-1"]
        assert main(argv) == 2
        assert capsys.readouterr().err == "input error: seed must be >= 0, got -1\n"

    def test_out_of_memory_names_the_size(self, monkeypatch, capsys):
        # apsp raises for the larger size; nothing is allocated
        real_apsp = experiment.apsp

        def apsp(graph):
            if graph.vertex_count > 8:
                raise MemoryError("Unable to allocate 1.68 GiB")
            return real_apsp(graph)

        monkeypatch.setattr(experiment, "apsp", apsp)
        assert main(["bench", "--sizes", "8,16", "--metrics", "ns", "--reps", "3"]) == 2
        err = capsys.readouterr().err
        assert err == "input error: not enough memory for the distances of 16 vertices\n"


class TestExperimentCommand:
    CONFIG = {"corpus": {"graphs": 4, "n_min": 12, "n_max": 20, "seed": 19}, "optimizer_iterations": 1}

    def test_bit_identical_runs(self, tmp_path, capsys):
        config = tmp_path / "config.json"
        config.write_text(json.dumps(self.CONFIG))
        code1 = main(["experiment", str(config), "--out-dir", str(tmp_path / "r1")])
        code2 = main(["experiment", str(config), "--out-dir", str(tmp_path / "r2")])
        assert code1 == code2
        # this deliberately under-converged corpus misses at least one
        # acceptance check, which must surface as exit code 3
        assert code1 == 3
        files1 = sorted((tmp_path / "r1").iterdir())
        files2 = sorted((tmp_path / "r2").iterdir())
        assert [f.name for f in files1] == [f.name for f in files2]
        for f1, f2 in zip(files1, files2):
            assert f1.read_bytes() == f2.read_bytes()

    def test_verdict_lines_printed(self, tmp_path, capsys):
        config = tmp_path / "config.json"
        config.write_text(json.dumps(self.CONFIG))
        main(["experiment", str(config), "--out-dir", str(tmp_path / "out")])
        out = capsys.readouterr().out
        assert "rs-random-best" in out
        assert out.count("PASS") + out.count("FAIL") >= 10

    def test_drs_feature_flag_adds_column(self, tmp_path):
        config = tmp_path / "config.json"
        data = dict(self.CONFIG)
        data["metrics"] = ["rs", "ns", "sns", "drs"]
        config.write_text(json.dumps(data))
        main(["experiment", str(config), "--out-dir", str(tmp_path / "out")])
        trials = next((tmp_path / "out").glob("trials_*.csv")).read_text()
        assert ",drs," in trials

    def test_scale_policy_flag_overrides_the_config(self, tmp_path, capsys):
        config = tmp_path / "config.json"
        config.write_text(json.dumps(self.CONFIG))
        out = tmp_path / "out"
        main(["experiment", str(config), "--scale-policy", "as-is", "--out-dir", str(out)])
        summary = json.loads(next(out.glob("summary_*.json")).read_text())
        assert summary["config"]["scale_policy"] == "as-is"

    def test_config_with_a_byte_order_mark(self, tmp_path):
        config = tmp_path / "config.json"
        config.write_bytes(b"\xef\xbb\xbf" + json.dumps(self.CONFIG).encode())
        out = tmp_path / "out"
        assert main(["experiment", str(config), "--out-dir", str(out)]) in (0, 3)
        summary = json.loads(next(out.glob("summary_*.json")).read_text())
        assert summary["config"]["corpus"]["seed"] == 19

    def test_bad_config_exits_2(self, tmp_path):
        config = tmp_path / "config.json"
        config.write_text("{not json")
        assert main(["experiment", str(config), "--out-dir", str(tmp_path / "out")]) == 2
        config.write_text(json.dumps({"corpus": {"bogus_key": 1}}))
        assert main(["experiment", str(config), "--out-dir", str(tmp_path / "out")]) == 2

    def test_directory_corpus(self, tmp_path, capsys):
        graphs = tmp_path / "graphs"
        graphs.mkdir()
        graphs.joinpath("ring.txt").write_text(
            "\n".join(f"{i} {(i + 1) % 14}" for i in range(14)) + "\n0 7\n2 9\n"
        )
        graphs.joinpath("grid.mtx").write_text(
            "%%MatrixMarket matrix coordinate pattern symmetric\n"
            "9 9 12\n1 2\n2 3\n4 5\n5 6\n7 8\n8 9\n1 4\n4 7\n2 5\n5 8\n3 6\n6 9\n"
        )
        # ids far beyond any array: the graph is reduced to its ring
        graphs.joinpath("sparse.txt").write_text(_ring(12) + "1000000000000000 1000000000000001\n")
        config = tmp_path / "config.json"
        config.write_text(json.dumps({
            "corpus": {"dir": str(graphs), "seed": 3},
            "optimizer_iterations": 40,
        }))
        code = main(["experiment", str(config), "--out-dir", str(tmp_path / "out")])
        assert code in (0, 3)  # verdicts may fail on a 3-graph corpus
        trials = next((tmp_path / "out").glob("trials_*.csv")).read_text()
        assert "grid," in trials and "ring," in trials and "sparse,12," in trials
        missing = tmp_path / "nope"
        config.write_text(json.dumps({"corpus": {"dir": str(missing)}}))
        assert main(["experiment", str(config), "--out-dir", str(tmp_path / "out2")]) == 2


def _ring(n: int) -> str:
    return "".join(f"{i} {(i + 1) % n}\n" for i in range(n))


#: a_tiny is one edge: its trial fails, because sgs needs three vertices
TINY_ERROR = "ValueError: need at least 3 vertices for a rank correlation, got 2"


class TestExperimentFailures:
    """Failed trials: reported and counted, and refused below two scored graphs."""

    @staticmethod
    def run_dir(tmp_path, capsys, rings) -> tuple[int, str]:
        graphs = tmp_path / "graphs"
        graphs.mkdir()
        graphs.joinpath("a_tiny.txt").write_text("0 1\n")
        for n in rings:
            graphs.joinpath(f"ring{n}.txt").write_text(_ring(n))
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"corpus": {"dir": str(graphs)}, "optimizer_iterations": 5}))
        code = main(["experiment", str(config), "--out-dir", str(tmp_path / "out")])
        return code, capsys.readouterr().err

    def test_over_a_tenth_failed_writes_the_tables_then_exits_2(self, tmp_path, capsys):
        code, err = self.run_dir(tmp_path, capsys, (12, 14))
        assert code == 2
        assert err.splitlines() == [f"trial a_tiny failed: {TINY_ERROR}", "1/3 trials failed"]
        assert sorted(path.name for path in (tmp_path / "out").iterdir()) == [
            "correlations_s97_paper-like.csv", "orders_s97_paper-like.csv",
            "summary_s97_paper-like.json", "trials_s97_paper-like.csv",
        ]

    def test_one_scored_graph_is_refused_naming_the_failure(self, tmp_path, capsys):
        code, err = self.run_dir(tmp_path, capsys, (12,))
        assert code == 2
        assert err == (
            "input error: 1 of 2 trials failed and the metric correlations need two scored"
            f" graphs; first failure: a_tiny: {TINY_ERROR}\n"
        )
        assert not (tmp_path / "out").exists()


class TestCsvQuoting:
    """A file name holding a comma is one quoted cell, so every row keeps the
    header's field count and the name reads back."""

    def test_trials_rows_keep_seven_fields(self, tmp_path):
        graphs = tmp_path / "graphs"
        graphs.mkdir()
        graphs.joinpath("ring,12.txt").write_text(_ring(12))
        graphs.joinpath("ring14.txt").write_text(_ring(14))
        config = tmp_path / "config.json"
        config.write_text(json.dumps({
            "corpus": {"dir": str(graphs)}, "metrics": ["ns", "sns"], "optimizer_iterations": 5,
        }))
        code = main(["experiment", str(config), "--out-dir", str(tmp_path / "out")])
        assert code in (0, 3)  # verdicts may fail on a 2-graph corpus
        text = next((tmp_path / "out").glob("trials_*.csv")).read_text()
        rows = list(csv.reader(io.StringIO(text)))
        assert all(len(row) == 7 for row in rows)
        assert {row[0] for row in rows[1:]} == {"ring,12", "ring14"}

    def test_carriage_return_in_a_name_is_quoted(self, tmp_path):
        graphs = tmp_path / "graphs"
        graphs.mkdir()
        graphs.joinpath("ring\r12.txt").write_text(_ring(12))
        graphs.joinpath("ring14.txt").write_text(_ring(14))
        config = tmp_path / "config.json"
        config.write_text(json.dumps({
            "corpus": {"dir": str(graphs)}, "metrics": ["ns", "sns"], "optimizer_iterations": 5,
        }))
        code = main(["experiment", str(config), "--out-dir", str(tmp_path / "out")])
        assert code in (0, 3)  # verdicts may fail on a 2-graph corpus
        # bytes, not read_text: a text read would turn the carriage return into a newline
        text = next((tmp_path / "out").glob("trials_*.csv")).read_bytes().decode("utf-8")
        rows = list(csv.reader(io.StringIO(text, newline="")))
        assert all(len(row) == 7 for row in rows)
        assert {row[0] for row in rows[1:]} == {"ring\r12", "ring14"}

    def test_compute_row_keeps_five_fields(self, p3_files, tmp_path, capsys):
        graph, perfect, _ = p3_files
        layout = tmp_path / "p,q.csv"
        layout.write_text(perfect.read_text())
        assert main(["compute", str(graph), str(layout), "--metrics", "ns", "--format", "csv"]) == 0
        rows = list(csv.reader(io.StringIO(capsys.readouterr().out)))
        assert [len(row) for row in rows] == [5, 5]
        assert rows[1][:2] == ["p,q", "ns"]


class TestExperimentConfigErrors:
    """Malformed experiment configs end in exit 2 with one stderr line."""

    @staticmethod
    def run_config(tmp_path, capsys, data) -> tuple[int, str]:
        config = tmp_path / "config.json"
        config.write_text(json.dumps(data))
        code = main(["experiment", str(config), "--out-dir", str(tmp_path / "out")])
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert len(err.splitlines()) == 1
        return code, err

    def test_top_level_not_an_object(self, tmp_path, capsys):
        code, err = self.run_config(tmp_path, capsys, [1, 2])
        assert code == 2
        assert err.startswith("input error:") and "JSON object" in err

    def test_corpus_not_an_object(self, tmp_path, capsys):
        code, err = self.run_config(tmp_path, capsys, {"corpus": 5})
        assert code == 2
        assert "'corpus'" in err

    def test_corpus_field_not_a_number(self, tmp_path, capsys):
        code, err = self.run_config(tmp_path, capsys, {"corpus": {"graphs": "x"}})
        assert code == 2
        assert "'graphs'" in err

    def test_metrics_string_is_not_split_into_characters(self, tmp_path, capsys):
        code, err = self.run_config(tmp_path, capsys, {"metrics": "ns"})
        assert code == 2
        assert "'metrics' must be a list of metric ids" in err
        assert "'n'" not in err

    def test_repeated_metric_names_the_config(self, tmp_path, capsys):
        code, err = self.run_config(tmp_path, capsys, {"metrics": ["ns", "ns", "sns"]})
        assert code == 2
        assert str(tmp_path / "config.json") in err
        assert "metric id 'ns' is given more than once" in err

    def test_every_trial_failing_carries_first_failure(self, tmp_path, capsys, monkeypatch):
        def failing(*args):
            raise RuntimeError("synthetic layout failure")

        monkeypatch.setattr("layoutstress.experiment.make_layouts", failing)
        data = {"corpus": {"graphs": 2, "n_min": 12, "n_max": 14}, "optimizer_iterations": 1}
        code, err = self.run_config(tmp_path, capsys, data)
        assert code == 2
        assert "every trial failed" in err and "RuntimeError: synthetic layout failure" in err

    def test_zero_optimizer_iterations_refused_before_any_trial(self, tmp_path, capsys, monkeypatch):
        def apsp_called(*args):
            raise AssertionError("apsp called")

        monkeypatch.setattr("layoutstress.experiment.apsp", apsp_called)
        code, err = self.run_config(tmp_path, capsys, {"optimizer_iterations": 0})
        assert code == 2
        assert err.startswith(f"input error: {tmp_path / 'config.json'}: ")
        assert "'optimizer_iterations' must be >= 1, got 0" in err
        assert "apsp called" not in err and "every trial failed" not in err

    @pytest.mark.parametrize(
        "data, key",
        [
            ({"drs_force": "false"}, "'drs_force'"),
            ({"optimizer_iterations": 2.7}, "'optimizer_iterations'"),
            ({"optimizer_iterations": True}, "'optimizer_iterations'"),
            ({"optimizer_iterations": "300"}, "'optimizer_iterations'"),
            ({"scale_policy": ["as-is"]}, "'scale_policy'"),
            ({"scale_policy": "nope"}, "'scale_policy'"),
            ({"corpus": {"dir": ["a"]}}, "'corpus_dir'"),
            ({"corpus": {"dir": 5}}, "'corpus_dir'"),
        ],
        ids=["string_drs_force", "float_iterations", "bool_iterations", "string_iterations",
             "list_scale_policy", "unknown_scale_policy", "list_corpus_dir", "int_corpus_dir"],
    )
    def test_wrong_type_top_level_value_names_key(self, tmp_path, capsys, data, key):
        code, err = self.run_config(tmp_path, capsys, data)
        assert code == 2
        assert err.startswith("input error:") and key in err

    def test_empty_corpus(self, tmp_path, capsys):
        code, err = self.run_config(tmp_path, capsys, {"corpus": {"graphs": 0}})
        assert code == 2
        assert "no graphs" in err

    @pytest.mark.parametrize("corpus", ["generated", "dir"])
    def test_one_graph_refused_before_any_trial(self, tmp_path, capsys, monkeypatch, corpus):
        def apsp_called(*args):
            raise AssertionError("apsp called")

        if corpus == "dir":
            graphs = tmp_path / "graphs"
            graphs.mkdir()
            graphs.joinpath("ring.txt").write_text("0 1\n1 2\n2 3\n3 0\n")
            data = {"corpus": {"dir": str(graphs)}}
        else:
            data = {"corpus": {"graphs": 1}}
        monkeypatch.setattr("layoutstress.experiment.apsp", apsp_called)
        code, err = self.run_config(tmp_path, capsys, data)
        assert code == 2
        assert err == (
            "input error: the corpus holds one graph; the metric correlations"
            " need at least two\n"
        )

    def test_unknown_top_level_key(self, tmp_path, capsys):
        # a misspelt key must not silently run the default 300 iterations
        code, err = self.run_config(tmp_path, capsys, {"optimiser_iterations": 0})
        assert code == 2
        assert "unknown config keys ['optimiser_iterations']" in err

    @pytest.mark.parametrize(
        "corpus, key",
        [
            ({"n_min": 30, "n_max": 20}, "'n_max'"),
            ({"n_min": 5, "n_max": 20}, "'n_min'"),
            ({"seed": -1}, "'seed'"),
            ({"density": float("nan")}, "'density'"),
            ({"density": 0.0}, "'density'"),
            ({"density": 1.5}, "'density'"),
        ],
        ids=["n_min_above_n_max", "n_min_below_8", "negative_seed", "nan_density",
             "zero_density", "density_above_1"],
    )
    def test_out_of_range_corpus_value_names_key(self, tmp_path, capsys, corpus, key):
        code, err = self.run_config(tmp_path, capsys, {"corpus": corpus})
        assert code == 2
        assert err.startswith("input error:") and f"corpus key {key}" in err

    def test_unknown_scale_policy_flag_is_a_usage_error(self, tmp_path, capsys):
        code = main(["experiment", "--scale-policy", "nope", "--out-dir", str(tmp_path / "out")])
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith("usage error:") and "--scale-policy" in err
        assert len(err.splitlines()) == 1

    def test_negative_seed_flag_names_key(self, tmp_path, capsys):
        code = main(["experiment", "--seed", "-1", "--out-dir", str(tmp_path / "out")])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("input error:") and "corpus key 'seed'" in err
        assert len(err.splitlines()) == 1


P3_EDGES = b"0 1\n1 2\n"
P3_LAYOUT = b"id,x,y\n0,0.0,0.0\n1,1.0,0.0\n2,2.0,0.0\n"
P3_COLLAPSED = b"id,x,y\n0,0.0,0.0\n1,0.0,0.0\n2,0.0,0.0\n"
#: numpy warns on overflow; a warning turned error is a traceback, not one line
NO_WARNING = pytest.mark.filterwarnings("error::RuntimeWarning")


@pytest.mark.parametrize(
    "files, argv, named",
    [
        (
            {"graphs/a.txt": P3_EDGES, "graphs/b.txt": b"0 1\n1 2 3\n",
             "c.json": b'{"corpus": {"dir": "graphs"}}'},
            ["experiment", "c.json"],
            "b.txt",
        ),
        ({"g.txt": b"0 1\n\xff 2\n", "l.csv": P3_LAYOUT}, ["compute", "g.txt", "l.csv"], "g.txt"),
        ({"g.txt": P3_EDGES, "l.csv": b"id,x,y\n\xff\n"}, ["compute", "g.txt", "l.csv"], "l.csv"),
        ({"c.json": b'{"metrics": ["ns"]}\xff'}, ["experiment", "c.json"], "c.json"),
        ({"c.json": b'{"metrics": ["nope"]}'}, ["experiment", "c.json"], "c.json"),
        ({"c.json": b'{"metrics": ["rs,ns"]}'}, ["experiment", "c.json"], "c.json"),
        ({"c.json": b'{"metrics": []}'}, ["experiment", "c.json"], "c.json"),
        ({}, ["bench", "--sizes", "1", "--metrics", "ns"], "got [1]"),
        (
            {"d.mtx": b"%%MatrixMarket matrix coordinate pattern general\n3 3 5\n1 2\n2 3\n1 1\n",
             "l.csv": P3_LAYOUT},
            ["compute", "d.mtx", "l.csv"],
            "d.mtx: line 2: size line",
        ),
        (
            {"g.txt": P3_EDGES, "ok.csv": P3_LAYOUT, "same.csv": P3_COLLAPSED},
            ["compute", "g.txt", "ok.csv", "same.csv", "--metrics", "ns"],
            "same.csv: all points coincide",
        ),
        (
            {"g.txt": P3_EDGES, "same.csv": P3_COLLAPSED},
            ["curve", "g.txt", "same.csv", "--metric", "sns"],
            "same.csv: all points coincide",
        ),
        pytest.param(
            {"g.txt": P3_EDGES, "big.csv": b"id,x,y\n0,0.0,0.0\n1,1e200,0.0\n2,2.0,0.0\n"},
            ["compute", "g.txt", "big.csv", "--metrics", "ns"],
            "big.csv: layout distances contain non-finite entries",
            marks=NO_WARNING,
        ),
        pytest.param(
            {"g.txt": P3_EDGES, "l.csv": P3_LAYOUT},
            ["curve", "g.txt", "l.csv", "--metric", "ns", "--alpha-grid", "1,1e308,3,log"],
            "l.csv: layout distances contain non-finite entries",
            marks=NO_WARNING,
        ),
        pytest.param(
            {"g.txt": P3_EDGES, "l.csv": P3_LAYOUT},
            ["curve", "g.txt", "l.csv", "--metric", "ns", "--alpha-grid", "1e308,1,3,log"],
            "l.csv: layout contains non-finite coordinates",
            marks=NO_WARNING,
        ),
    ],
    ids=["malformed_corpus_file", "non_utf8_graph", "non_utf8_layout", "non_utf8_config",
         "unknown_config_metric", "comma_joined_config_metrics", "empty_config_metrics",
         "bench_size_below_8", "truncated_matrix_market", "collapsed_second_layout",
         "collapsed_curve_layout", "overflowing_coordinate", "overflowing_curve_distances",
         "overflowing_curve_coordinates"],
)
def test_refusal_names_its_input(tmp_path, monkeypatch, capsys, files, argv, named):
    """Each malformed input ends in exit 2 and one line naming the file or value."""
    monkeypatch.chdir(tmp_path)
    for name, data in files.items():
        path = tmp_path / name
        path.parent.mkdir(exist_ok=True)
        path.write_bytes(data)
    code = main(argv)
    err = capsys.readouterr().err
    assert code == 2
    assert "Traceback" not in err and len(err.splitlines()) == 1
    assert err.startswith("input error:") and named in err


class TestUsageAndEnv:
    def test_no_command_exits_1(self):
        assert main([]) == 1

    def test_unknown_command_exits_1(self):
        assert main(["frobnicate"]) == 1

    def test_out_dir_env_redirects_relative_paths(self, p3_files, tmp_path, monkeypatch):
        graph, perfect, _ = p3_files
        monkeypatch.setenv("LAYOUTSTRESS_OUT_DIR", str(tmp_path / "redirected"))
        assert main(["compute", str(graph), str(perfect), "--metrics", "rs", "--out", "report.json"]) == 0
        assert (tmp_path / "redirected" / "report.json").exists()

    def test_grid_graph_compute_smoke(self, tmp_path):
        graph = tmp_path / "grid.txt"
        graph.write_text(serialize_edge_list(grid_graph(5, 5)))
        layout = tmp_path / "lay.csv"
        pts = np.array([[float(c), float(r)] for r in range(5) for c in range(5)])
        layout.write_text(write_layout_csv(Layout(pts)))
        out = tmp_path / "report.json"
        assert main(["compute", str(graph), str(layout), "--out", str(out)]) == 0
        report = json.loads(out.read_text())
        metrics = report["layouts"]["lay"]["metrics"]
        assert set(metrics) == {"rs", "kks", "ns", "sns", "sgs", "scs", "drs", "nms"}
        assert metrics["sgs"]["value"] > 0.9


@pytest.mark.parametrize("command", ["compute", "curve"])
@pytest.mark.parametrize("step", ["layoutstress.cli.apsp", "layoutstress.metrics.pairwise_distances"],
                         ids=["apsp", "drawing"])
def test_out_of_memory_names_the_graph(p3_files, monkeypatch, capsys, command, step):
    """A graph whose distances do not fit ends in exit 2 and one line naming
    the graph file and its vertex count; the step raises, nothing is allocated."""
    def out_of_memory(*args):
        raise MemoryError("Unable to allocate 1.68 GiB")

    monkeypatch.setattr(step, out_of_memory)
    graph, perfect, _ = p3_files
    argv = [command, str(graph), str(perfect), "--metrics" if command == "compute" else "--metric", "ns"]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err == f"input error: {graph}: not enough memory for the distances of 3 vertices\n"


@pytest.mark.parametrize("command", ["compute", "curve"])
def test_graph_too_small_for_shortest_paths_names_the_file(tmp_path, capsys, command):
    graph = tmp_path / "one.txt"
    graph.write_text("0 0\n")
    layout = tmp_path / "one.csv"
    layout.write_text("id,x,y\n0,0.0,0.0\n")
    argv = [command, str(graph), str(layout), "--metrics" if command == "compute" else "--metric", "ns"]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err == f"input error: {graph}: shortest paths need at least 2 vertices, got 1\n"
