from __future__ import annotations

import json

import numpy as np
import pytest

from layoutstress import Layout, write_layout_csv
from layoutstress.cli import main

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
        graph, perfect, _ = p3_files
        assert main(["compute", str(graph), str(perfect), "--metrics", "rs", "--format", "csv"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0] == "layout,metric,value,alpha_min,seconds"
        assert lines[1].startswith("perfect,rs,0.0,")

    def test_unknown_metric_exits_1(self, p3_files, capsys):
        graph, perfect, _ = p3_files
        assert main(["compute", str(graph), str(perfect), "--metrics", "nope"]) == 1

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

    def test_bad_grid_exits_1(self, p3_files):
        graph, perfect, _ = p3_files
        assert main(["curve", str(graph), str(perfect), "--metric", "ns", "--alpha-grid", "0,1,5,log"]) == 1
        assert main(["curve", str(graph), str(perfect), "--metric", "ns", "--alpha-grid", "1,2,1,log"]) == 1
        assert main(["curve", str(graph), str(perfect), "--metric", "ns", "--alpha-grid", "1,2,5,cubic"]) == 1


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

    def test_drs_force_overrides(self, tmp_path):
        out = tmp_path / "bench.csv"
        code = main([
            "bench", "--sizes", "10,60", "--metrics", "drs", "--reps", "3",
            "--force", "--out", str(out),
        ])
        assert code == 0
        assert len(out.read_text().strip().splitlines()) == 3


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
        config = tmp_path / "config.json"
        config.write_text(json.dumps({
            "corpus": {"dir": str(graphs), "seed": 3},
            "optimizer_iterations": 40,
        }))
        code = main(["experiment", str(config), "--out-dir", str(tmp_path / "out")])
        assert code in (0, 3)  # verdicts may fail on a 2-graph corpus
        trials = next((tmp_path / "out").glob("trials_*.csv")).read_text()
        assert "grid," in trials and "ring," in trials
        missing = tmp_path / "nope"
        config.write_text(json.dumps({"corpus": {"dir": str(missing)}}))
        assert main(["experiment", str(config), "--out-dir", str(tmp_path / "out2")]) == 2


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
