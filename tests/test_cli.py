"""End-to-end command tests: artifacts, determinism, exit codes."""

import hashlib
import json
import os
import platform
import re
import warnings

import numpy as np
import pytest

from fasdnet.cli import (
    EXIT_ALL_FAILED,
    EXIT_CONFIG,
    EXIT_DATA,
    EXIT_DIVERGENCE,
    EXIT_OK,
    _environment,
    main,
)
from fasdnet.data import load_csv
from fasdnet.experiment import comparison_report, BaselineTable


# small synthetic files under real battery names trip the row-count notice;
# that behaviour has its own test in test_data.py
pytestmark = pytest.mark.filterwarnings(
    "ignore:.*accepted as a subset:UserWarning")


def run(*argv):
    return main([str(a) for a in argv])


@pytest.fixture()
def data_csv(tmp_path):
    """A small synthetic battery file shared by the command tests."""
    path = tmp_path / "data.csv"
    code = run("synth", "--samples-per-class", 20, "--features", 20,
               "--separation", 3.0, "--seed", 5, "--out", path)
    assert code == EXIT_OK
    return path


# --------------------------------------------------------------------- synth


def test_synth_row_and_column_counts(tmp_path, capsys):
    out = tmp_path / "s.csv"
    assert run("synth", "--samples-per-class", 50, "--features", 20,
               "--separation", 1.0, "--seed", 0, "--out", out) == EXIT_OK
    lines = out.read_text().splitlines()
    assert len(lines) == 101  # header + 100 data rows
    assert all(len(line.split(",")) == 21 for line in lines)
    assert "rows=100" in capsys.readouterr().out


def test_synth_is_byte_deterministic(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    for out in (a, b):
        run("synth", "--samples-per-class", 10, "--features", 5,
            "--separation", 2.0, "--seed", 9, "--out", out)
    assert a.read_bytes() == b.read_bytes()
    # a different seed changes the bytes
    c = tmp_path / "c.csv"
    run("synth", "--samples-per-class", 10, "--features", 5,
        "--separation", 2.0, "--seed", 10, "--out", c)
    assert a.read_bytes() != c.read_bytes()


def test_synth_output_loads_back(tmp_path):
    out = tmp_path / "s.csv"
    run("synth", "--samples-per-class", 8, "--features", 6,
        "--separation", 1.0, "--seed", 1, "--out", out)
    ds = load_csv(out, "synthetic")
    assert ds.n_rows == 16 and ds.n_features == 6


@pytest.mark.parametrize("separation", ["nan", "1e308"])
def test_synth_rejects_a_separation_that_is_or_makes_non_finite(
        tmp_path, capsys, separation):
    out = tmp_path / "s.csv"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = run("synth", "--samples-per-class", 3, "--features", 2,
                   "--separation", separation, "--out", out)
    assert code == EXIT_DATA
    err = capsys.readouterr().err
    assert "class_separation" in err
    assert repr(float(separation)) in err
    assert not out.exists()


def test_synth_reads_a_negative_exponent_value_after_a_space(tmp_path):
    # argparse alone reads "-1e3" as an unknown option
    spaced, joined = tmp_path / "a.csv", tmp_path / "b.csv"
    assert run("synth", "--samples-per-class", 3, "--features", 2,
               "--separation", "-1e3", "--out", spaced) == EXIT_OK
    assert run("synth", "--samples-per-class", 3, "--features", 2,
               "--separation=-1e3", "--out", joined) == EXIT_OK
    assert spaced.read_bytes() == joined.read_bytes()


# --------------------------------------------------------------------- train


def test_train_builtin_emits_artifacts(data_csv, tmp_path, capsys):
    out_dir = tmp_path / "run"
    code = run("train", "--data", data_csv, "--battery", "psychometric",
               "--spec", "table2-row3", "--seed", 2, "--out-dir", out_dir)
    assert code == EXIT_OK
    for name in ("model.json", "history.csv", "confusion.txt", "manifest.json"):
        assert (out_dir / name).is_file()
    # 1000 training epochs recorded
    history = (out_dir / "history.csv").read_text().splitlines()
    assert len(history) == 1001
    assert history[0] == "epoch,train_loss,train_acc,val_loss,val_acc"
    manifest = json.loads((out_dir / "manifest.json").read_text())
    assert manifest["seed"] == 2
    assert manifest["data_file_hash"] == hashlib.sha256(
        data_csv.read_bytes()).hexdigest()
    assert "train" in manifest["command_line"]
    assert "accuracy" in capsys.readouterr().out


def test_train_rerun_reproduces_metrics_files(data_csv, tmp_path):
    d1, d2 = tmp_path / "r1", tmp_path / "r2"
    for d in (d1, d2):
        assert run("train", "--data", data_csv, "--battery", "psychometric",
                   "--spec", "psychometric-feature-layer", "--seed", 7,
                   "--out-dir", d) == EXIT_OK
    for name in ("model.json", "history.csv", "confusion.txt"):
        assert (d1 / name).read_bytes() == (d2 / name).read_bytes()


def test_train_from_config_file(data_csv, tmp_path):
    config = {
        "input_dim": 20,
        "layers": [
            {"width": 8, "activation": "relu"},
            {"width": 1, "activation": "sigmoid"},
        ],
        "loss": "binary",
        "use_feature_layer": True,
        "epochs": 12,
        "learning_rate": 0.001,
        "seed": 0,
    }
    cfg_path = tmp_path / "tiny.json"
    cfg_path.write_text(json.dumps(config))
    out_dir = tmp_path / "out"
    code = run("train", "--data", data_csv, "--battery", "psychometric",
               "--spec", cfg_path, "--seed", 1, "--out-dir", out_dir)
    assert code == EXIT_OK
    history = (out_dir / "history.csv").read_text().splitlines()
    assert len(history) == 13


def test_train_and_sweep_build_the_same_spec_from_a_config_file(
        data_csv, tmp_path):
    cfg_dir = tmp_path / "configs"
    cfg_dir.mkdir()
    doc = {
        "input_dim": 20,
        "layers": [
            {"width": 6, "activation": "relu"},
            {"width": 1, "activation": "sigmoid"},
        ],
        "loss": "binary",
        "use_feature_layer": True,
        "epochs": 15,
        "learning_rate": 0.001,
        "seed": 0,
    }
    (cfg_dir / "tiny.json").write_text(json.dumps(doc))
    flags = ("--data", data_csv, "--battery", "psychometric",
             "--train-fraction", 0.7, "--balance")
    train_dir, sweep_dir = tmp_path / "train", tmp_path / "sweep"
    assert run("train", *flags, "--spec", cfg_dir / "tiny.json",
               "--seed", 3, "--out-dir", train_dir) == EXIT_OK
    assert run("sweep", *flags, "--specs", cfg_dir, "--seeds", 3,
               "--out-dir", sweep_dir) == EXIT_OK

    (run_row,) = (sweep_dir / "runs.csv").read_text().splitlines()[1:]
    spec, seed, train_acc, test_acc, tp, fp, tn, fn = run_row.split(",")
    assert (spec, seed) == ("tiny", "3")
    last_epoch = (train_dir / "history.csv").read_text().splitlines()[-1]
    assert last_epoch.split(",")[2] == train_acc
    # confusion.txt rows: actual FASD (tp, fn), actual control (fp, tn)
    cells = re.findall(r"(\d+) \(", (train_dir / "confusion.txt").read_text())
    assert cells == [tp, fn, fp, tn]
    assert float(test_acc) == (int(tp) + int(tn)) / sum(map(int, cells))


def test_train_ablate_narrows_the_builtin_input(data_csv, tmp_path):
    input_dims = []
    for ablate in ((), ("--ablate", "f00")):
        out_dir = tmp_path / f"run{len(ablate)}"
        assert run("train", "--data", data_csv, "--battery", "psychometric",
                   "--spec", "table2-row1", *ablate,
                   "--out-dir", out_dir) == EXIT_OK
        model = json.loads((out_dir / "model.json").read_text())
        input_dims.append(model["config"]["input_dim"])
    assert input_dims == [20, 19]


def test_train_missing_data_exits_3(tmp_path):
    code = run("train", "--data", tmp_path / "nope.csv", "--battery",
               "psychometric", "--spec", "table2-row1",
               "--out-dir", tmp_path / "o")
    assert code == EXIT_DATA


def test_train_unknown_spec_exits_4(data_csv, tmp_path):
    code = run("train", "--data", data_csv, "--battery", "psychometric",
               "--spec", "not-a-spec", "--out-dir", tmp_path / "o")
    assert code == EXIT_CONFIG


def test_train_divergence_exits_5(data_csv, tmp_path):
    config = {
        "input_dim": 20,
        "layers": [
            {"width": 8, "activation": "relu"},
            {"width": 8, "activation": "relu"},
            {"width": 1, "activation": "sigmoid"},
        ],
        "loss": "binary",
        "use_feature_layer": True,
        "epochs": 10,
        "learning_rate": 1e200,
        "seed": 0,
    }
    cfg_path = tmp_path / "boom.json"
    cfg_path.write_text(json.dumps(config))
    code = run("train", "--data", data_csv, "--battery", "psychometric",
               "--spec", cfg_path, "--out-dir", tmp_path / "o")
    assert code == EXIT_DIVERGENCE
    # distinct from the missing-file code, per the error taxonomy
    assert EXIT_DIVERGENCE != EXIT_DATA


def test_usage_errors_exit_2(capsys):
    with pytest.raises(SystemExit) as exc:
        run("train")  # missing required flags
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        run("frobnicate")
    assert exc.value.code == 2


def test_commands_never_mutate_inputs(data_csv, tmp_path):
    before = data_csv.read_bytes()
    run("train", "--data", data_csv, "--battery", "psychometric",
        "--spec", "psychometric-feature-layer", "--out-dir", tmp_path / "o")
    run("sweep", "--data", data_csv, "--battery", "psychometric",
        "--specs", "psychometric-feature-layer", "--seeds", "0",
        "--out-dir", tmp_path / "s")
    assert data_csv.read_bytes() == before


def test_out_dir_from_environment(data_csv, tmp_path, monkeypatch):
    target = tmp_path / "env-out"
    monkeypatch.setenv("FASDNET_OUT_DIR", str(target))
    code = run("train", "--data", data_csv, "--battery", "psychometric",
               "--spec", "psychometric-feature-layer", "--seed", 0)
    assert code == EXIT_OK
    assert (target / "model.json").is_file()


def test_missing_out_dir_exits_4(data_csv, monkeypatch):
    monkeypatch.delenv("FASDNET_OUT_DIR", raising=False)
    code = run("train", "--data", data_csv, "--battery", "psychometric",
               "--spec", "psychometric-feature-layer", "--seed", 0)
    assert code == EXIT_CONFIG


# --------------------------------------------------------------------- sweep


def test_sweep_artifacts_and_cardinality(data_csv, tmp_path):
    # synthetic data stands in for every battery, so the full five-spec
    # feature-layer set can run against one file
    out_dir = tmp_path / "sw"
    code = run("sweep", "--data", data_csv, "--battery", "synthetic",
               "--specs", "feature-layer", "--seeds", "1,2,3",
               "--out-dir", out_dir)
    assert code == EXIT_OK
    runs = (out_dir / "runs.csv").read_text().splitlines()
    assert runs[0] == "spec,seed,train_acc,test_acc,tp,fp,tn,fn"
    assert len(runs) == 1 + 5 * 3  # five specs x three seeds
    summary = json.loads((out_dir / "summary.json").read_text())
    assert set(summary["specs"]) == {
        "psychometric-feature-layer", "antisaccade-128x2", "prosaccade-128x2",
        "memory-guided-feature-layer", "dti-leaky-100ep",
    }
    assert summary["seeds"] == [1, 2, 3]
    assert (out_dir / "summary.txt").is_file()
    assert (out_dir / "manifest.json").is_file()


def test_sweep_summary_medians_match_runs_csv(data_csv, tmp_path):
    out_dir = tmp_path / "sw"
    run("sweep", "--data", data_csv, "--battery", "psychometric",
        "--specs", "psychometric-feature-layer,antisaccade-128x2",
        "--seeds", "0,1,2", "--out-dir", out_dir)
    runs = (out_dir / "runs.csv").read_text().splitlines()[1:]
    by_spec = {}
    for line in runs:
        cells = line.split(",")
        by_spec.setdefault(cells[0], []).append(float(cells[3]))
    summary = json.loads((out_dir / "summary.json").read_text())
    for name, accs in by_spec.items():
        assert summary["specs"][name]["median_test_accuracy"] == pytest.approx(
            float(np.median(accs)), abs=1e-15)


def test_sweep_from_config_directory(data_csv, tmp_path):
    cfg_dir = tmp_path / "configs"
    cfg_dir.mkdir()
    for name, width in (("narrow", 4), ("wide", 16)):
        doc = {
            "input_dim": 20,
            "layers": [
                {"width": width, "activation": "relu"},
                {"width": 1, "activation": "sigmoid"},
            ],
            "loss": "binary",
            "use_feature_layer": True,
            "epochs": 8,
            "learning_rate": 0.001,
            "seed": 0,
        }
        (cfg_dir / f"{name}.json").write_text(json.dumps(doc))
    out_dir = tmp_path / "sw"
    code = run("sweep", "--data", data_csv, "--battery", "psychometric",
               "--specs", cfg_dir, "--seeds", "0,1", "--out-dir", out_dir)
    assert code == EXIT_OK
    runs = (out_dir / "runs.csv").read_text().splitlines()
    assert len(runs) == 5  # header + 2 configs x 2 seeds
    assert {line.split(",")[0] for line in runs[1:]} == {"narrow", "wide"}


def test_sweep_empty_config_directory_exits_4(data_csv, tmp_path):
    empty = tmp_path / "empty"
    empty.mkdir()
    code = run("sweep", "--data", data_csv, "--battery", "psychometric",
               "--specs", empty, "--seeds", "0", "--out-dir", tmp_path / "o")
    assert code == EXIT_CONFIG


def test_sweep_exit_code_reflects_whether_any_run_succeeded(data_csv, tmp_path):
    cfg_dir = tmp_path / "configs"
    cfg_dir.mkdir()
    doc = {
        "input_dim": 20,
        "layers": [
            {"width": 8, "activation": "relu"},
            {"width": 8, "activation": "relu"},
            {"width": 1, "activation": "sigmoid"},
        ],
        "loss": "binary",
        "use_feature_layer": True,
        "epochs": 10,
        "learning_rate": 1e200,
        "seed": 0,
    }
    (cfg_dir / "boom.json").write_text(json.dumps(doc))
    out_dir = tmp_path / "all-failed"
    code = run("sweep", "--data", data_csv, "--battery", "psychometric",
               "--specs", cfg_dir, "--seeds", "0,1", "--out-dir", out_dir)
    assert code == EXIT_ALL_FAILED == 7
    summary = json.loads((out_dir / "summary.json").read_text())
    assert summary["specs"] == {} and len(summary["failures"]) == 2

    # one finished run is enough for success
    doc["learning_rate"] = 0.001
    (cfg_dir / "fine.json").write_text(json.dumps(doc))
    code = run("sweep", "--data", data_csv, "--battery", "psychometric",
               "--specs", cfg_dir, "--seeds", "0,1", "--out-dir",
               tmp_path / "some-failed")
    assert code == EXIT_OK


def test_sweep_byte_identical_reruns(data_csv, tmp_path):
    d1, d2 = tmp_path / "s1", tmp_path / "s2"
    for d in (d1, d2):
        assert run("sweep", "--data", data_csv, "--battery", "psychometric",
                   "--specs", "psychometric-feature-layer,prosaccade-128x2",
                   "--seeds", "0,1", "--out-dir", d) == EXIT_OK
    assert (d1 / "runs.csv").read_bytes() == (d2 / "runs.csv").read_bytes()
    assert (d1 / "summary.txt").read_bytes() == (d2 / "summary.txt").read_bytes()
    assert (d1 / "summary.json").read_bytes() == (d2 / "summary.json").read_bytes()


# -------------------------------------------------------------------- report


def _sweep_results(data_csv, tmp_path, specs="psychometric-feature-layer",
                   battery="psychometric"):
    out_dir = tmp_path / "sweep-for-report"
    assert run("sweep", "--data", data_csv, "--battery", battery,
               "--specs", specs, "--seeds", "0,1,2",
               "--out-dir", out_dir) == EXIT_OK
    return out_dir


def test_report_emits_comparison(data_csv, tmp_path, capsys):
    results = _sweep_results(data_csv, tmp_path)
    out_dir = tmp_path / "rep"
    assert run("report", "--results", results, "--out-dir", out_dir) == EXIT_OK
    csv_lines = (out_dir / "comparison.csv").read_text().splitlines()
    assert csv_lines[0] == "battery,ours,baseline"
    assert csv_lines[1].startswith("psychometric,")
    text = (out_dir / "comparison.txt").read_text()
    assert "88.46" in text  # the published psychometric figure
    assert "provenance" in text
    assert "psychometric" in capsys.readouterr().out


def test_report_statistics_match_library(data_csv, tmp_path):
    results = _sweep_results(data_csv, tmp_path)
    out_dir = tmp_path / "rep"
    run("report", "--results", results, "--out-dir", out_dir)
    summary = json.loads((results / "summary.json").read_text())
    median = summary["specs"]["psychometric-feature-layer"][
        "median_test_accuracy"]

    class R:
        battery = "psychometric"
        test_accuracy = median

    expected = comparison_report([R()], BaselineTable())
    got = (out_dir / "comparison.csv").read_text().splitlines()[1]
    ours = float(got.split(",")[1])
    assert ours == pytest.approx(expected.rows[0].ours, abs=1e-12)


def test_report_median_pools_runs_of_every_spec_on_a_battery(
        data_csv, tmp_path):
    # two config-file specs on one battery: the report's median runs
    # over all their runs, as comparison_report's does, not over the
    # per-spec medians in summary.json
    config_dir = tmp_path / "configs"
    config_dir.mkdir()
    for name, epochs in (("short", 2), ("long", 30)):
        config = {
            "input_dim": 20,
            "layers": [
                {"width": 4, "activation": "relu"},
                {"width": 1, "activation": "sigmoid"},
            ],
            "loss": "binary",
            "use_feature_layer": True,
            "epochs": epochs,
            "learning_rate": 0.001,
            "seed": 0,
        }
        (config_dir / f"{name}.json").write_text(json.dumps(config))
    results = tmp_path / "sweep"
    assert run("sweep", "--data", data_csv, "--battery", "psychometric",
               "--specs", config_dir, "--seeds", "0,1",
               "--out-dir", results) == EXIT_OK
    out_dir = tmp_path / "rep"
    assert run("report", "--results", results, "--out-dir", out_dir) == EXIT_OK

    test_acc = [float(line.split(",")[3]) for line in
                (results / "runs.csv").read_text().splitlines()[1:]]
    summary = json.loads((results / "summary.json").read_text())
    per_spec = [s["median_test_accuracy"] for s in summary["specs"].values()]
    pooled = float(np.median(test_acc))
    assert len(test_acc) == 4 and len(per_spec) == 2
    assert pooled != float(np.median(per_spec)), "fixture no longer separates"
    got = (out_dir / "comparison.csv").read_text().splitlines()[1]
    assert float(got.split(",")[1]) == pytest.approx(100.0 * pooled, abs=1e-12)


def test_report_with_user_baselines(data_csv, tmp_path):
    results = _sweep_results(data_csv, tmp_path)
    baselines = tmp_path / "baselines.json"
    baselines.write_text(json.dumps({"psychometric": 80.0}))
    out_dir = tmp_path / "rep"
    assert run("report", "--results", results, "--baselines", baselines,
               "--out-dir", out_dir) == EXIT_OK
    assert "80.00" in (out_dir / "comparison.txt").read_text()


def test_report_empty_baselines_file_is_ours_plus_reference(data_csv, tmp_path):
    results = _sweep_results(data_csv, tmp_path)
    baselines = tmp_path / "empty.json"
    baselines.write_text("")
    out_dir = tmp_path / "rep"
    assert run("report", "--results", results, "--baselines", baselines,
               "--out-dir", out_dir) == EXIT_OK
    lines = (out_dir / "comparison.csv").read_text().splitlines()
    assert len(lines) == 2  # header + psychometric row


def test_report_without_reference_overlap_degrades_to_ours_only(
        data_csv, tmp_path):
    # antisaccade has no published reference accuracy, so a sweep of just
    # that spec yields a table with no baseline to diff against
    results = _sweep_results(data_csv, tmp_path, specs="antisaccade-128x2",
                             battery="synthetic")
    out_dir = tmp_path / "rep"
    assert run("report", "--results", results, "--out-dir", out_dir) == EXIT_OK
    text = (out_dir / "comparison.txt").read_text()
    assert "antisaccade" in text
    assert "mean difference" not in text
    csv_lines = (out_dir / "comparison.csv").read_text().splitlines()
    assert csv_lines[1].endswith(",")  # empty baseline column


def test_report_missing_results_exits_3(tmp_path):
    code = run("report", "--results", tmp_path / "nothing",
               "--out-dir", tmp_path / "rep")
    assert code == EXIT_DATA


def test_report_rejects_unknown_battery_in_baselines(data_csv, tmp_path):
    results = _sweep_results(data_csv, tmp_path)
    baselines = tmp_path / "bad.json"
    baselines.write_text(json.dumps({"spelling": 1.0}))
    code = run("report", "--results", results, "--baselines", baselines,
               "--out-dir", tmp_path / "rep")
    assert code == EXIT_DATA


# ------------------------------------------------------------------ manifest


def test_every_output_directory_has_one_manifest(data_csv, tmp_path):
    out_dirs = []
    d = tmp_path / "t"
    run("train", "--data", data_csv, "--battery", "psychometric",
        "--spec", "psychometric-feature-layer", "--out-dir", d)
    out_dirs.append(d)
    d = tmp_path / "s"
    run("sweep", "--data", data_csv, "--battery", "psychometric",
        "--specs", "psychometric-feature-layer", "--seeds", "0",
        "--out-dir", d)
    out_dirs.append(d)
    d = tmp_path / "r"
    run("report", "--results", out_dirs[1], "--out-dir", d)
    out_dirs.append(d)
    for d in out_dirs:
        manifests = list(d.glob("*manifest*"))
        assert len(manifests) == 1
        doc = json.loads(manifests[0].read_text())
        # only a sweep times its specs
        assert set(doc) == {
            "command_line", "config_hash", "data_file_hash", "seed",
            "tool_version", "timestamp", "environment",
        } | ({"timings"} if d.name == "s" else set())


def test_manifest_records_the_numeric_environment(data_csv, tmp_path):
    out_dir = tmp_path / "t"
    run("train", "--data", data_csv, "--battery", "psychometric",
        "--spec", "psychometric-feature-layer", "--out-dir", out_dir)
    env = json.loads((out_dir / "manifest.json").read_text())["environment"]
    assert set(env) == {
        "python", "numpy", "blas", "blas_version", "blas_threads", "workers",
    }
    assert env["workers"] == 1  # train runs in one process
    assert env["python"] == platform.python_version()
    assert env["numpy"] == np.__version__
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    assert (env["blas"], env["blas_version"]) == (
        blas.get("name"), blas.get("version"))
    assert env["blas_threads"] is None or env["blas_threads"] >= 1
    # found once per process, not once per manifest
    assert _environment() is _environment()


def test_sweep_times_each_spec_on_stderr_and_in_the_manifest(
        data_csv, tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1},
                        raising=False)
    out_dir = tmp_path / "s"
    specs = ["table2-row1", "psychometric-feature-layer", "table2-row2"]
    assert run("sweep", "--data", data_csv, "--battery", "psychometric",
               "--specs", ",".join(specs), "--seeds", "0,1",
               "--out-dir", out_dir) == EXIT_OK
    doc = json.loads((out_dir / "manifest.json").read_text())
    assert doc["environment"]["workers"] == 2
    timings = doc["timings"]
    assert list(timings) == specs  # spec order, not run order
    err = capsys.readouterr().err.splitlines()
    for name, line in zip(specs, err):
        t = timings[name]
        assert (t["seeds"], t["failures"]) == (2, 0) and t["seconds"] > 0
        assert line == f"{name}: 2 seeds, 0 failed, {t['seconds']:.2f} s"
    assert len(err) == len(specs)
    # timings vary from run to run and stay out of the other files
    for name in ("runs.csv", "summary.json", "summary.txt"):
        assert "seconds" not in (out_dir / name).read_text()
