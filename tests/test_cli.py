"""End-to-end command tests: artifacts, determinism, exit codes."""

import ctypes
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
    EXIT_IO,
    EXIT_OK,
    _environment,
    main,
)
from fasdnet.data import load_csv
from fasdnet.experiment import (
    BaselineTable,
    _blas_threads,
    _openblas,
    comparison_report,
)
from fasdnet.layers import RELU, SIGMOID, NetworkConfig


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


@pytest.mark.parametrize("value", ["-1e3", "-1_000.5", "-inf", "-Infinity",
                                   "-INF", "-nan", "-NaN"])
def test_synth_reads_every_negative_float_spelling_after_a_space(
        tmp_path, capsys, value):
    # "--separation VALUE" must do what "--separation=VALUE" does, for
    # every negative spelling float() reads
    outcomes = []
    for argv in (["--separation", value], [f"--separation={value}"]):
        out = tmp_path / "s.csv"
        code = run("synth", "--samples-per-class", 3, "--features", 2,
                   *argv, "--out", out)
        text = out.read_bytes() if out.exists() else None
        outcomes.append((code, capsys.readouterr().err, text))
        if out.exists():
            out.unlink()
    assert outcomes[0] == outcomes[1]
    assert outcomes[0][0] == (EXIT_OK if value[1].isdigit() else EXIT_DATA)


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


def test_train_data_that_is_not_utf8_exits_3(data_csv, tmp_path, capsys):
    bad = tmp_path / "bad.csv"
    lines = data_csv.read_bytes().split(b"\n")
    lines[2] = lines[2].replace(b",", b",\xff", 1)
    bad.write_bytes(b"\n".join(lines))
    code = run("train", "--data", bad, "--battery", "psychometric",
               "--spec", "table2-row1", "--out-dir", tmp_path / "o")
    assert code == EXIT_DATA
    assert "line 3, column 'f01': byte 0xff is not UTF-8" in (
        capsys.readouterr().err)


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


@pytest.mark.parametrize("field, value", [("epochs", 2.5), ("epochs", True),
                                          ("width", 4.7)])
def test_train_config_field_of_the_wrong_type_exits_4(data_csv, tmp_path,
                                                      capsys, field, value):
    config = json.loads(NetworkConfig(
        20, ((8, SIGMOID), (1, SIGMOID)), "binary", epochs=3).to_json())
    if field == "width":
        config["layers"][0]["width"] = value
    else:
        config[field] = value
    cfg_path = tmp_path / "c.json"
    cfg_path.write_text(json.dumps(config))
    code = run("train", "--data", data_csv, "--battery", "psychometric",
               "--spec", cfg_path, "--out-dir", tmp_path / "o")
    assert code == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("error: ") and f"{field} must be" in err
    assert "Traceback" not in err


def test_usage_errors_exit_2(capsys):
    with pytest.raises(SystemExit) as exc:
        run("train")  # missing required flags
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        run("frobnicate")
    assert exc.value.code == 2


def test_sweep_seed_that_is_not_an_integer_is_a_usage_error(
        data_csv, tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        run("sweep", "--data", data_csv, "--battery", "psychometric",
            "--specs", "table2-row1", "--seeds", "1,x",
            "--out-dir", tmp_path / "o")
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "argument --seeds" in err and "'x'" in err and "1,x" not in err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("seeds", ["-1,2", "-3"])
def test_sweep_reads_a_negative_first_seed_after_a_space(data_csv, tmp_path,
                                                         seeds):
    # argparse alone reads "-1,2" as an unknown option
    runs = []
    for i, argv in enumerate((["--seeds", seeds], [f"--seeds={seeds}"])):
        out_dir = tmp_path / f"s{i}"
        assert run("sweep", "--data", data_csv, "--battery", "psychometric",
                   "--specs", "psychometric-feature-layer", *argv,
                   "--out-dir", out_dir) == EXIT_OK
        runs.append((out_dir / "runs.csv").read_bytes())
    assert runs[0] == runs[1]
    assert runs[0].count(b"\n") == 1 + len(seeds.split(","))


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
    # and before any training starts
    for name in ("run_experiment_with_model", "run_sweep"):
        monkeypatch.setattr(f"fasdnet.cli.{name}",
                            lambda *_, name=name: pytest.fail(f"{name} ran"))
    code = run("train", "--data", data_csv, "--battery", "psychometric",
               "--spec", "psychometric-feature-layer", "--seed", 0)
    assert code == EXIT_CONFIG
    code = run("sweep", "--data", data_csv, "--battery", "psychometric",
               "--specs", "psychometric-feature-layer", "--seeds", "0")
    assert code == EXIT_CONFIG


def test_out_dir_that_is_a_file_exits_6_before_training(data_csv, tmp_path,
                                                         monkeypatch):
    monkeypatch.setattr("fasdnet.cli.run_experiment_with_model",
                        lambda *_: pytest.fail("trained"))
    taken = tmp_path / "taken"
    taken.write_text("")
    code = run("train", "--data", data_csv, "--battery", "psychometric",
               "--spec", "psychometric-feature-layer", "--out-dir", taken)
    assert code == EXIT_IO


@pytest.mark.parametrize("command", ["sweep", "train"])
def test_a_command_that_fails_before_writing_leaves_no_out_dir(
        data_csv, tmp_path, command):
    # sweep rejects a repeated seed (exit 4) and train's config diverges
    # (exit 5) before either writes a file: neither --out-dir nor the
    # parent it would have made is left behind
    boom = tmp_path / "boom.json"
    boom.write_text(NetworkConfig(
        20, ((8, RELU), (8, RELU), (1, SIGMOID)), "binary", True, 10,
        1e200).to_json())
    argv, code = {
        "sweep": (["--specs", "table2-row1", "--seeds", "1,1,2"], EXIT_CONFIG),
        "train": (["--spec", boom], EXIT_DIVERGENCE),
    }[command]
    assert run(command, "--data", data_csv, "--battery", "psychometric",
               *argv, "--out-dir", tmp_path / "o" / "run") == code
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("command, flag, fraction",
                         [("train", "--spec", "1.5"), ("sweep", "--specs", "0")])
def test_a_train_fraction_outside_0_1_exits_3_before_training(
        data_csv, tmp_path, capsys, monkeypatch, command, flag, fraction):
    # a config file's spec takes --train-fraction, and is checked when
    # it is built: before training, and before --out-dir is made
    for name in ("run_experiment_with_model", "run_sweep"):
        monkeypatch.setattr(f"fasdnet.cli.{name}",
                            lambda *_, name=name: pytest.fail(f"{name} ran"))
    configs = tmp_path / "configs"
    configs.mkdir()
    (configs / "net.json").write_text(NetworkConfig(
        20, ((8, RELU), (1, SIGMOID)), "binary", True, 5, 0.001).to_json())
    spec = configs / "net.json" if command == "train" else configs
    assert run(command, "--data", data_csv, "--battery", "psychometric",
               flag, spec, "--seeds" if command == "sweep" else "--seed", 0,
               "--train-fraction", fraction,
               "--out-dir", tmp_path / "o" / "run") == EXIT_DATA
    assert (f"train_fraction must be in (0, 1), got {float(fraction)}"
            in capsys.readouterr().err)
    assert not (tmp_path / "o").exists()


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


def test_sweep_repeated_seed_exits_4(data_csv, tmp_path, capsys):
    code = run("sweep", "--data", data_csv, "--battery", "psychometric",
               "--specs", "table2-row1", "--seeds", "1,1,2",
               "--out-dir", tmp_path / "o")
    assert code == EXIT_CONFIG
    assert "distinct seeds, got [1, 1, 2]" in capsys.readouterr().err
    assert not (tmp_path / "o" / "runs.csv").exists()


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


@pytest.mark.parametrize("text, message", [
    ("{\"psychometric\": 80.0", "is not valid JSON"),
    ("[80.0]", "must hold a JSON object, got list"),
    ("80.0", "must hold a JSON object, got float"),
    ("{\"psychometric\": \"x\"}", "'psychometric' is not a number: 'x'"),
    ("{\"psychometric\": true}", "'psychometric' is not a number: True"),
    ("{\"psychometric\": NaN}", "'psychometric' is not a number: nan"),
    ("{\"psychometric\": Infinity}", "'psychometric' is not a number: inf"),
    pytest.param("{\"psychometric\": 1" + "0" * 400 + "}",
                 "'psychometric' is not a number: 1" + "0" * 400,
                 id="int-beyond-the-double-range"),
])
def test_report_rejects_a_malformed_baselines_file(data_csv, tmp_path, capsys,
                                                   text, message):
    results = _sweep_results(data_csv, tmp_path)
    baselines = tmp_path / "bad.json"
    baselines.write_text(text)
    code = run("report", "--results", results, "--baselines", baselines,
               "--out-dir", tmp_path / "rep")
    assert code == EXIT_DATA
    err = capsys.readouterr().err
    assert str(baselines) in err and message in err


@pytest.mark.parametrize("text", ["{\"specs\": ", "[]", "{\"specs\": [1]}"])
def test_report_rejects_a_malformed_summary_json(data_csv, tmp_path, capsys,
                                                 text):
    results = _sweep_results(data_csv, tmp_path)
    (results / "summary.json").write_text(text)
    code = run("report", "--results", results, "--out-dir", tmp_path / "rep")
    assert code == EXIT_DATA
    assert "summary.json" in capsys.readouterr().err


@pytest.mark.parametrize("battery", [[1], "nonsense"])
def test_report_rejects_an_unknown_battery_in_summary_json(data_csv, tmp_path,
                                                           capsys, battery):
    results = _sweep_results(data_csv, tmp_path)
    summary = json.loads((results / "summary.json").read_text())
    summary["specs"]["psychometric-feature-layer"]["battery"] = battery
    (results / "summary.json").write_text(json.dumps(summary))
    code = run("report", "--results", results, "--out-dir", tmp_path / "rep")
    assert code == EXIT_DATA
    assert (f"{results / 'summary.json'}: spec 'psychometric-feature-layer' "
            f"has unknown battery {battery!r}") in capsys.readouterr().err


@pytest.mark.parametrize("row, message", [
    (b"psychometric-feature-layer,3,1.0,x,1,1,1,1\n", "malformed run row"),
    (b"psychometric-feature-layer,3,1.5,0.5,1,1,1,1\n",
     "train accuracy out of [0, 1]: 1.5"),
    (b"psychometric-feature-layer,3,1.0,0.5,1,1,1,\xff\n", "not UTF-8"),
    # one field over the csv module's limit of 131,072 characters
    (b"psychometric-feature-layer," + b"9" * 140_000 + b",1.0,0.5,1,1,1,1\n",
     "field larger than field limit"),
    # rows no sweep writes: runs.csv's test_acc is the repr of
    # (tp + tn) / total, and each (spec, seed) runs once
    (b"psychometric-feature-layer,3,0.5,0.5,-5,1,1,1\n",
     "confusion cells [-5, 1, 1, 1] must be >= 0, not all 0"),
    (b"psychometric-feature-layer,3,0.5,0.9,0,0,0,0\n",
     "confusion cells [0, 0, 0, 0] must be >= 0, not all 0"),
    (b"psychometric-feature-layer,3,0.5,0.5000000000000001,1,1,1,1\n",
     "test_acc is not (tp + tn) / total of [1, 1, 1, 1]"),
    (b"psychometric-feature-layer,0,1.0,0.5,1,1,1,1\n",
     "psychometric-feature-layer seed 0 is listed twice"),
], ids=["malformed-row", "accuracy-out-of-range", "not-utf-8",
        "field-over-csv-limit", "negative-cell", "cells-sum-to-0",
        "test-acc-not-the-cells", "run-listed-twice"])
def test_report_names_the_line_of_an_unreadable_runs_csv(data_csv, tmp_path,
                                                         capsys, row, message):
    results = _sweep_results(data_csv, tmp_path)
    with open(results / "runs.csv", "ab") as fh:
        fh.write(row)  # line 5, after the header and three seeds' rows
    code = run("report", "--results", results, "--out-dir", tmp_path / "rep")
    assert code == EXIT_DATA
    err = capsys.readouterr().err
    assert f"{results / 'runs.csv'}:5: " in err and message in err


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
        "python", "numpy", "numpy_simd", "blas", "blas_version",
        "blas_core", "blas_threads", "workers",
    }
    assert env["workers"] == 1  # train runs in one process
    assert env["python"] == platform.python_version()
    assert env["numpy"] == np.__version__
    config = np.show_config(mode="dicts")
    # the SIMD targets numpy dispatches to, after NPY_DISABLE_CPU_FEATURES
    assert env["numpy_simd"] == config["SIMD Extensions"]["found"]
    blas = config["Build Dependencies"]["blas"]
    assert (env["blas"], env["blas_version"]) == (
        blas.get("name"), blas.get("version"))
    assert env["blas_threads"] is None or env["blas_threads"] >= 1
    # the kernel is one of the words of OpenBLAS's build string
    get_config = _openblas("get_config")
    if get_config is None:
        assert env["blas_core"] is None
    else:
        get_config.argtypes, get_config.restype = [], ctypes.c_char_p
        assert env["blas_core"] in get_config().decode().split()
    # found once per process, not once per manifest
    assert _environment() is _environment()


@pytest.mark.parametrize("cpus, workers, threads",
                         [({0}, 1, 2), ({0, 1}, 2, 1)])
def test_sweep_manifest_records_the_blas_threads_that_trained(
        data_csv, tmp_path, monkeypatch, cpus, workers, threads):
    # this process runs two BLAS threads; a pooled sweep's workers run
    # one each, and the manifest must say what the trainers ran
    set_threads = _openblas("set_num_threads")
    if set_threads is None:
        pytest.skip("no OpenBLAS whose thread count can be set")
    set_threads.argtypes, set_threads.restype = [ctypes.c_int], None
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: cpus,
                        raising=False)
    cfg_dir = tmp_path / "configs"
    cfg_dir.mkdir()
    config = NetworkConfig(20, ((1, SIGMOID),), "binary", epochs=1)
    for name in ("a", "b"):  # two specs, so that two workers run
        (cfg_dir / f"{name}.json").write_text(config.to_json())
    before = _blas_threads()
    set_threads(2)
    try:
        assert run("sweep", "--data", data_csv, "--battery", "psychometric",
                   "--specs", cfg_dir, "--seeds", "0",
                   "--out-dir", tmp_path / "s") == EXIT_OK
    finally:
        set_threads(before)
    env = json.loads((tmp_path / "s" / "manifest.json").read_text())
    env = env["environment"]
    assert (env["workers"], env["blas_threads"]) == (workers, threads)


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
