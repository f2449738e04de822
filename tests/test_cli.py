"""End-to-end command tests: artifacts, determinism, exit codes."""

import ctypes
import hashlib
import json
import os
import pathlib
import platform
import re
import subprocess
import sys
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fasdnet
from fasdnet import experiment
from fasdnet.cli import (
    EXIT_ALL_FAILED,
    EXIT_CONFIG,
    EXIT_DATA,
    EXIT_DIVERGENCE,
    EXIT_IO,
    EXIT_OK,
    _environment,
    build_parser,
    main,
)
from fasdnet.data import load_csv
from fasdnet.experiment import (
    REGISTRY,
    BaselineTable,
    SweepResult,
    _blas_threads,
    _openblas,
    comparison_report,
    run_experiment_with_model,
    run_sweep,
)
from fasdnet.layers import RELU, SIGMOID, NetworkConfig
from fasdnet.training import TrainedModel


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


def test_train_writes_model_json_without_a_second_copy(tmp_path, monkeypatch):
    # from the trained model to the last file, train holds one orjson
    # dump of model.json (its buffer a little larger than the file) and
    # the arrays it was dumped from, not a joined, decoded or encoded copy,
    # nor a copy of an array whose odd cells lie in a few of its rows
    data = tmp_path / "dti.csv"
    assert run("synth", "--samples-per-class", 20, "--features", 48,
               "--separation", 3.0, "--seed", 5, "--out", data) == EXIT_OK
    before = []

    def trained(*args):
        outcome = run_experiment_with_model(*args)
        before.append(tracemalloc.get_traced_memory()[0])
        tracemalloc.reset_peak()
        return outcome

    monkeypatch.setattr("fasdnet.cli.run_experiment_with_model", trained)
    tracemalloc.start()
    try:
        code = run("train", "--data", data, "--battery", "dti", "--spec",
                   "dti-leaky-100ep", "--out-dir", tmp_path / "run")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == EXIT_OK
    size = (tmp_path / "run" / "model.json").stat().st_size
    assert peak - before[0] < 1.35 * size


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


def test_in_process_runs_share_one_parser_and_write_what_separate_runs_write(
        data_csv, tmp_path):
    # main() parses with one parser per process; a flag given to one
    # call must not carry over to the next: --balance, then without it,
    # in process, write what two separate processes write
    assert build_parser() is build_parser()
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "input_dim": 20,
        "layers": [{"width": 4, "activation": "relu"},
                   {"width": 1, "activation": "sigmoid"}],
        "loss": "binary", "use_feature_layer": True, "epochs": 8,
        "learning_rate": 0.01, "seed": 0}))
    # 20 controls and 15 FASD rows, so that --balance drops rows
    uneven = tmp_path / "uneven.csv"
    uneven.write_text("".join(data_csv.read_text().splitlines(True)[:-5]))
    src = os.path.dirname(os.path.dirname(fasdnet.__file__))
    env = {**os.environ, "PYTHONPATH": src}
    for balance in (("--balance",), ()):
        argv = ["train", "--data", str(uneven), "--battery", "psychometric",
                "--spec", str(cfg), *balance]
        name = "balanced" if balance else "plain"
        assert run(*argv, "--out-dir", tmp_path / "in" / name) == EXIT_OK
        subprocess.run([sys.executable, "-m", "fasdnet", *argv, "--out-dir",
                        str(tmp_path / "apart" / name)], env=env, check=True,
                       capture_output=True)
    for name in ("balanced", "plain"):
        for file in ("confusion.txt", "history.csv", "model.json"):
            assert ((tmp_path / "in" / name / file).read_bytes()
                    == (tmp_path / "apart" / name / file).read_bytes())
    assert ((tmp_path / "in" / "balanced" / "model.json").read_bytes()
            != (tmp_path / "in" / "plain" / "model.json").read_bytes())


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


def test_train_ablate_strips_each_name_as_load_csv_strips_the_header(
        data_csv, tmp_path):
    # "f00, f01" names f00 and f01, as a header "f00, f01" would, an
    # empty item names nothing, as in --seeds and --specs, and a repeated
    # name drops its column once
    for width, ablates in ((19, ("f00", "f00,", ",f00", "f00,f00")),
                           (18, ("f00,f01", "f00, f01", " f00 ,\tf01 ",
                                 "f00,,f01"))):
        runs = [tmp_path / f"{width}-{k}" for k in range(len(ablates))]
        for out_dir, ablate in zip(runs, ablates):
            assert run("train", "--data", data_csv, "--battery",
                       "psychometric", "--spec", "table2-row1", "--ablate",
                       ablate, "--out-dir", out_dir) == EXIT_OK
        for name in ("model.json", "history.csv", "confusion.txt"):
            assert len({(out_dir / name).read_bytes() for out_dir in runs}) == 1
        model = json.loads((runs[1] / "model.json").read_text())
        assert model["config"]["input_dim"] == width


def test_train_ablates_the_first_column_of_a_file_with_a_byte_order_mark(
        data_csv, tmp_path):
    # spreadsheets' "CSV UTF-8" export starts the file with one
    bom = tmp_path / "bom.csv"
    bom.write_bytes(b"\xef\xbb\xbf" + data_csv.read_bytes().replace(
        b"f00,", b"age,", 1))
    out_dir = tmp_path / "run"
    assert run("train", "--data", bom, "--battery", "psychometric",
               "--spec", "table2-row1", "--ablate", "age",
               "--out-dir", out_dir) == EXIT_OK
    model = json.loads((out_dir / "model.json").read_text())
    assert model["config"]["input_dim"] == 19


def _tiny_config(input_dim):
    return json.dumps({
        "input_dim": input_dim,
        "layers": [{"width": 4, "activation": "relu"},
                   {"width": 1, "activation": "sigmoid"}],
        "loss": "binary", "use_feature_layer": True, "epochs": 5,
        "learning_rate": 0.001, "seed": 0})


@pytest.mark.parametrize("input_dim, shown", [
    (21, "21"), (10**30, "a positive 31-digit integer")], ids=["21", "10**30"])
@pytest.mark.parametrize("command", ["train", "sweep"])
def test_a_config_file_whose_input_dim_is_not_the_data_width_exits_4(
        data_csv, tmp_path, capsys, command, input_dim, shown):
    cfg_dir = tmp_path / "configs"
    cfg_dir.mkdir()
    path = cfg_dir / "wide.json"
    path.write_text(_tiny_config(input_dim))
    flags = {"train": ("--spec", path),
             "sweep": ("--specs", cfg_dir, "--seeds", "0,1")}[command]
    code = run(command, "--data", data_csv, "--battery", "psychometric",
               *flags, "--out-dir", tmp_path / "out")
    assert code == EXIT_CONFIG
    err = capsys.readouterr().err
    assert f"{path}: input_dim is {shown}, but the data has 20 features" in err
    assert not (tmp_path / "out").exists()


def test_train_takes_a_config_file_whose_input_dim_is_the_width_after_ablate(
        data_csv, tmp_path, capsys):
    path = tmp_path / "narrow.json"
    path.write_text(_tiny_config(19))
    flags = ("train", "--data", data_csv, "--battery", "psychometric",
             "--spec", path)
    assert run(*flags, "--ablate", "f00", "--out-dir", tmp_path / "ok") == EXIT_OK
    model = json.loads((tmp_path / "ok" / "model.json").read_text())
    assert model["config"]["input_dim"] == 19
    # without --ablate the data is 20 wide; an unknown name exits 3 first
    assert run(*flags, "--out-dir", tmp_path / "o1") == EXIT_CONFIG
    assert (f"{path}: input_dim is 19, but the data has 20 features"
            in capsys.readouterr().err)
    assert run(*flags, "--ablate", "f00,zz", "--out-dir", tmp_path / "o2") == EXIT_DATA
    assert "dataset has no feature(s) ['zz']" in capsys.readouterr().err
    assert not (tmp_path / "o1").exists() and not (tmp_path / "o2").exists()


def test_an_unknown_ablate_name_exits_3_alike_for_a_builtin_and_a_config_file(
        data_csv, tmp_path, capsys):
    path = tmp_path / "narrow.json"
    path.write_text(_tiny_config(19))
    errors = []
    for spec in ("table2-row1", path):
        assert run("train", "--data", data_csv, "--battery", "psychometric",
                   "--spec", spec, "--ablate", "f00,zz",
                   "--out-dir", tmp_path / "out") == EXIT_DATA
        errors.append(capsys.readouterr().err)
    assert errors[0] == errors[1]
    assert errors[0].startswith("error: dataset has no feature(s) ['zz']")
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("flags", [
    ("--spec", "nosuch"),
    ("--spec", "table2-row1", "--train-fraction", "0.5"),
], ids=["unknown-spec", "builtin-with-split"])
def test_train_checks_the_ablate_names_before_the_spec(
        data_csv, tmp_path, capsys, flags):
    # the data is narrowed before any spec is resolved, so its error wins
    assert run("train", "--data", data_csv, "--battery", "psychometric",
               *flags, "--ablate", "zz", "--out-dir", tmp_path / "o") == EXIT_DATA
    assert "dataset has no feature(s) ['zz']" in capsys.readouterr().err


def test_train_ablate_gives_a_builtin_and_its_config_file_the_same_bytes(
        data_csv, tmp_path):
    path = tmp_path / "row1.json"
    path.write_text(json.dumps(
        {**REGISTRY["table2-row1"].config.to_dict(), "input_dim": 19}))
    runs = [tmp_path / "builtin", tmp_path / "file"]
    for out_dir, flags in zip(runs, (
            ("--spec", "table2-row1"),
            ("--spec", path, "--train-fraction", "0.75"))):
        assert run("train", "--data", data_csv, "--battery", "psychometric",
                   *flags, "--ablate", "f00", "--out-dir", out_dir) == EXIT_OK
    for name in ("model.json", "history.csv", "confusion.txt"):
        assert (runs[0] / name).read_bytes() == (runs[1] / name).read_bytes()


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


@pytest.mark.parametrize("spec", ["table2", "configs"])
def test_train_of_more_than_one_spec_exits_4_naming_the_count(
        data_csv, tmp_path, capsys, monkeypatch, spec):
    # --spec reads the grammar --specs does, and train runs one of its specs
    monkeypatch.setattr("fasdnet.cli.run_experiment_with_model",
                        lambda *_: pytest.fail("trained"))
    monkeypatch.chdir(tmp_path)
    (tmp_path / "configs").mkdir()
    for name in ("a", "b"):
        (tmp_path / "configs" / f"{name}.json").write_text(_tiny_config(20))
    assert run("train", "--data", data_csv, "--battery", "psychometric",
               "--spec", spec, "--out-dir", tmp_path / "o") == EXIT_CONFIG
    count = {"table2": 9, "configs": 2}[spec]
    assert (f"error: train runs one spec, and --spec {spec!r} names {count}"
            in capsys.readouterr().err)
    assert not (tmp_path / "o").exists()


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


@pytest.mark.parametrize("field", ["epochs", "width"])
def test_train_config_epochs_or_width_beyond_its_cap_exits_4(data_csv, tmp_path,
                                                             capsys, field):
    config = json.loads(NetworkConfig(
        20, ((8, SIGMOID), (1, SIGMOID)), "binary", epochs=3).to_json())
    if field == "width":
        config["layers"][0]["width"] = 10**30
    else:
        config["epochs"] = 10**30
    cfg_path = tmp_path / "c.json"
    cfg_path.write_text(json.dumps(config))
    code = run("train", "--data", data_csv, "--battery", "psychometric",
               "--spec", cfg_path, "--out-dir", tmp_path / "o")
    assert code == EXIT_CONFIG
    err = capsys.readouterr().err
    # more than 20 digits: named by its sign and digit count
    assert err.startswith("error: ") and "got a positive 31-digit integer" in err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("field, value", [("epochs", 2.5), ("epochs", True),
                                          ("width", 4.7)])
def test_train_config_field_of_the_wrong_type_exits_4(data_csv, tmp_path,
                                                      capsys, field, value):
    config = json.loads(NetworkConfig(
        20, ((8, SIGMOID), (1, SIGMOID)), "binary", epochs=3).to_json())
    if field == "width":
        config["layers"][0]["width"] = value
    elif field == "slope":
        config["layers"][0].update(activation="leaky_relu", slope=value)
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


@pytest.mark.parametrize("split", [("--train-fraction", "0.5"), ("--balance",)],
                         ids=["train-fraction", "balance"])
@pytest.mark.parametrize("command, flag, spec", [
    ("train", "--spec", "table2-row1"),
    ("sweep", "--specs", "table2-row1,table2-row2"),
    ("sweep", "--specs", "table2"),
], ids=["train", "sweep-names", "sweep-set"])
def test_a_split_flag_with_builtin_specs_exits_4_before_training(
        data_csv, tmp_path, capsys, monkeypatch, command, flag, spec, split):
    # a builtin spec keeps its own train fraction and balancing, so a
    # flag that would change them is refused rather than ignored
    for name in ("run_experiment_with_model", "run_sweep"):
        monkeypatch.setattr(f"fasdnet.cli.{name}",
                            lambda *_, name=name: pytest.fail(f"{name} ran"))
    assert run(command, "--data", data_csv, "--battery", "psychometric",
               flag, spec, "--seeds" if command == "sweep" else "--seed", 0,
               *split, "--out-dir", tmp_path / "o") == EXIT_CONFIG
    err = capsys.readouterr().err
    assert (f"error: {split[0]} applies only to config files, not to "
            f"builtin {spec!r}: a builtin spec keeps its split") in err
    assert not (tmp_path / "o").exists()


def test_a_config_file_trains_on_an_unbalanced_0_8_split_by_default(
        data_csv, tmp_path):
    config = tmp_path / "net.json"
    config.write_text(NetworkConfig(
        20, ((4, RELU), (1, SIGMOID)), "binary", True, 5, 0.01).to_json())
    for name, split in (("default", ()), ("given", ("--train-fraction", 0.8))):
        assert run("train", "--data", data_csv, "--battery", "psychometric",
                   "--spec", config, *split, "--out-dir", tmp_path / name) == EXIT_OK
    for file in ("confusion.txt", "history.csv", "model.json"):
        assert ((tmp_path / "default" / file).read_bytes()
                == (tmp_path / "given" / file).read_bytes())


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


def test_sweep_of_one_config_file_writes_what_a_directory_of_it_writes(
        data_csv, tmp_path):
    cfg_dir = tmp_path / "configs"
    cfg_dir.mkdir()
    (cfg_dir / "net.json").write_text(_tiny_config(20))
    for name, specs in (("file", cfg_dir / "net.json"), ("dir", cfg_dir)):
        assert run("sweep", "--data", data_csv, "--battery", "psychometric",
                   "--specs", specs, "--seeds", "0,1",
                   "--out-dir", tmp_path / name) == EXIT_OK
    for file in ("runs.csv", "summary.json", "summary.txt"):
        assert ((tmp_path / "file" / file).read_bytes()
                == (tmp_path / "dir" / file).read_bytes())


def test_sweep_of_no_spec_exits_4_and_reads_no_working_directory(
        data_csv, tmp_path, capsys, monkeypatch):
    # Path("") is ".", whose config files the token must not name
    monkeypatch.setattr("fasdnet.cli.run_sweep",
                        lambda *_: pytest.fail("swept"))
    monkeypatch.chdir(tmp_path)
    (tmp_path / "row1.json").write_text(_tiny_config(20))
    for token in ("", " , "):
        assert run("sweep", "--data", data_csv, "--battery", "psychometric",
                   "--specs", token, "--seeds", "0",
                   "--out-dir", tmp_path / "o") == EXIT_CONFIG
        assert (f"error: no experiment specs in {token!r}"
                in capsys.readouterr().err)
    assert not (tmp_path / "o").exists()


def test_sweep_reads_a_builtin_name_before_a_directory_of_that_name(
        data_csv, tmp_path, capsys, monkeypatch):
    # as train does: --balance, which a builtin spec refuses, exits 4
    monkeypatch.setattr("fasdnet.cli.run_sweep",
                        lambda *_: pytest.fail("swept"))
    monkeypatch.chdir(tmp_path)
    (tmp_path / "table2-row1").mkdir()
    (tmp_path / "table2-row1" / "net.json").write_text(_tiny_config(20))
    assert run("sweep", "--data", data_csv, "--battery", "psychometric",
               "--specs", "table2-row1", "--seeds", "0", "--balance",
               "--out-dir", tmp_path / "o") == EXIT_CONFIG
    assert ("--balance applies only to config files, not to builtin "
            "'table2-row1'" in capsys.readouterr().err)


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


def _edit_summary(results, edit):
    """Apply edit to summary.json's document and write it back as a
    sweep writes it, so that only the edited lines differ."""
    summary = json.loads((results / "summary.json").read_text())
    edit(summary)
    (results / "summary.json").write_text(json.dumps(summary, indent=2) + "\n")


@pytest.mark.parametrize("row, path, line, text", [
    # seed 3 was never run: the spec's summary.json entry counts 3 runs
    ("psychometric-feature-layer,3,1.0,0.5,1,1,1,1\n", "summary.json", 10,
     '      "runs": 3,'),
    # 00 reads as seed 0, which a sweep writes as 0
    ("psychometric-feature-layer,00,1.0,0.5,1,1,1,1\n", "runs.csv", 2,
     "psychometric-feature-layer,00,"),
], ids=["extra-seed-row", "seed-spelled-00"])
def test_report_rejects_a_runs_csv_no_sweep_writes(data_csv, tmp_path, capsys,
                                                   row, path, line, text):
    results = _sweep_results(data_csv, tmp_path)
    runs = (results / "runs.csv").read_text().splitlines(keepends=True)
    if path == "runs.csv":
        runs[1] = row  # in place of seed 0's row
    else:
        runs.append(row)
    (results / "runs.csv").write_text("".join(runs))
    code = run("report", "--results", results, "--out-dir", tmp_path / "rep")
    assert code == EXIT_DATA
    err = capsys.readouterr().err
    assert f"{results / path}:{line}: reads '{text}" in err
    assert not (tmp_path / "rep").exists()


def test_report_rejects_a_run_of_a_seed_the_sweep_did_not_run(
        data_csv, tmp_path, capsys):
    # seed 1 -> 7 in one row: a sweep of these runs writes the same two
    # files, but the sweep's seeds are 0, 1 and 2
    results = _sweep_results(data_csv, tmp_path)
    runs = (results / "runs.csv").read_text().splitlines(keepends=True)
    assert runs[2].startswith("psychometric-feature-layer,1,")
    runs[2] = runs[2].replace(",1,", ",7,", 1)
    (results / "runs.csv").write_text("".join(runs))
    code = run("report", "--results", results, "--out-dir", tmp_path / "rep")
    assert code == EXIT_DATA
    err = capsys.readouterr().err
    # a sweep writes seed 7, which it did not run, after seed 2
    assert (f"{results / 'runs.csv'}:3: reads {runs[2][:-1]!r} where a sweep "
            f"of these runs writes {runs[3][:-1]!r}") in err
    assert not (tmp_path / "rep").exists()


def test_report_rejects_failures_listed_out_of_seed_order(data_csv, tmp_path,
                                                         capsys):
    # spec boom fails each of seeds 0, 1 and 2; listed as 1, 0, 2 the
    # files are still the texts a sweep of these runs writes, but a
    # sweep lists a spec's failures in seed order
    cfg_dir = tmp_path / "configs"
    cfg_dir.mkdir()
    doc = {"input_dim": 20, "layers": [{"width": 4, "activation": "relu"},
                                       {"width": 1, "activation": "sigmoid"}],
           "loss": "binary", "use_feature_layer": True, "epochs": 10,
           "learning_rate": 1e200, "seed": 0}
    (cfg_dir / "boom.json").write_text(json.dumps(doc))
    (cfg_dir / "fine.json").write_text(json.dumps({**doc, "learning_rate": 0.001}))
    results = tmp_path / "sweep"
    assert run("sweep", "--data", data_csv, "--battery", "psychometric",
               "--specs", cfg_dir, "--seeds", "0,1,2",
               "--out-dir", results) == EXIT_OK
    assert run("report", "--results", results,
               "--out-dir", tmp_path / "ok") == EXIT_OK

    def swap(summary):
        failures = summary["failures"]
        assert [f["seed"] for f in failures] == [0, 1, 2]
        failures[0], failures[1] = failures[1], failures[0]

    _edit_summary(results, swap)
    lines = (results / "summary.json").read_text().splitlines()
    line = lines.index('      "spec": "boom",') + 2  # the first failure's seed
    assert lines[line - 1] == '      "seed": 1,'
    code = run("report", "--results", results, "--out-dir", tmp_path / "rep")
    assert code == EXIT_DATA
    err = capsys.readouterr().err
    assert (f"{results / 'summary.json'}:{line}: reads '      \"seed\": 1,' "
            "where a sweep of these runs writes '      \"seed\": 0,'") in err
    assert not (tmp_path / "rep").exists()


def _config_sweep(tmp_path, rates):
    """A sweep of seeds 0 and 1 over one config file per name in rates,
    alike but for its learning rate, on a synth file (1e200 diverges
    every seed); returns its directory, which report reads back."""
    data = tmp_path / "s.csv"
    assert run("synth", "--samples-per-class", 20, "--features", 20,
               "--separation", 1, "--seed", 1, "--out", data) == EXIT_OK
    cfg_dir = tmp_path / "configs"
    cfg_dir.mkdir()
    doc = {"input_dim": 20, "layers": [{"width": 4, "activation": "relu"},
                                       {"width": 1, "activation": "sigmoid"}],
           "loss": "binary", "use_feature_layer": True, "epochs": 10,
           "seed": 0}
    for name, rate in rates.items():
        (cfg_dir / f"{name}.json").write_text(
            json.dumps({**doc, "learning_rate": rate}))
    results = tmp_path / "sweep"
    assert run("sweep", "--data", data, "--battery", "synthetic",
               "--specs", cfg_dir, "--seeds", "0,1",
               "--out-dir", results) == EXIT_OK
    assert run("report", "--results", results,
               "--out-dir", tmp_path / "ok") == EXIT_OK
    return results


def test_report_rejects_runs_interleaved_across_specs(tmp_path, capsys):
    results = _config_sweep(tmp_path, {"a": 0.001, "b": 0.001})
    runs = (results / "runs.csv").read_text().splitlines(keepends=True)
    assert [row.split(",")[:2] for row in runs[1:]] == [
        ["a", "0"], ["a", "1"], ["b", "0"], ["b", "1"]]
    runs[2], runs[3] = runs[3], runs[2]  # a0, b0, a1, b1
    (results / "runs.csv").write_text("".join(runs))
    code = run("report", "--results", results, "--out-dir", tmp_path / "rep")
    assert code == EXIT_DATA
    err = capsys.readouterr().err
    assert (f"{results / 'runs.csv'}:3: reads {runs[2][:-1]!r} where a sweep "
            f"of these runs writes {runs[3][:-1]!r}") in err
    assert not (tmp_path / "rep").exists()


def test_report_rejects_failures_interleaved_across_specs(tmp_path, capsys):
    results = _config_sweep(tmp_path, {"a": 0.001, "b": 1e200, "c": 1e200})

    def interleave(summary):
        failures = summary["failures"]
        assert [(f["spec"], f["seed"]) for f in failures] == [
            ("b", 0), ("b", 1), ("c", 0), ("c", 1)]
        failures[1], failures[2] = failures[2], failures[1]

    _edit_summary(results, interleave)
    lines = (results / "summary.json").read_text().splitlines()
    line = lines.index('      "spec": "c",') + 1  # the second failure's
    code = run("report", "--results", results, "--out-dir", tmp_path / "rep")
    assert code == EXIT_DATA
    err = capsys.readouterr().err
    assert (f"{results / 'summary.json'}:{line}: reads '      \"spec\": \"c\",' "
            "where a sweep of these runs writes '      \"spec\": \"b\",'") in err
    assert not (tmp_path / "rep").exists()


@pytest.mark.parametrize("failing", ["a", "b", "c"],
                         ids=["first", "between", "last"])
def test_report_reads_a_sweep_wherever_its_failing_spec_sits(tmp_path, failing):
    # specs a, b and c in spec order, one of which fails every seed:
    # _config_sweep requires that report reads the sweep back
    rates = {name: 1e200 if name == failing else 0.001 for name in "abc"}
    results = _config_sweep(tmp_path, rates)
    summary = json.loads((results / "summary.json").read_text())
    assert list(summary["specs"]) == [name for name in "abc" if name != failing]
    assert [f["spec"] for f in summary["failures"]] == [failing, failing]


@pytest.fixture(scope="module")
def one_spec_sweep(tmp_path_factory):
    """_config_sweep's files for one spec "a", for tests that only read
    them."""
    return _config_sweep(tmp_path_factory.mktemp("one-spec"), {"a": 0.001})


@pytest.mark.parametrize("content, message", [
    (b'{"input_dim": \xff}', " is not valid JSON: 'utf-8' codec can't decode"),
    (b"[" * 10_000, " is not valid JSON: maximum recursion depth exceeded"),
    (b"[1]", " must hold a JSON object, got list"),
    (None, None),  # the input's own field error
], ids=["not-utf-8", "nested-too-deep", "list", "field-error"])
@pytest.mark.parametrize("target", [
    "train-spec", "sweep-specs", "report-summary", "report-baselines"])
def test_every_json_input_fails_with_its_file_and_exit_code(
        one_spec_sweep, tmp_path, capsys, target, content, message):
    # main returns the command's exit code: a config error exits 4, a
    # report input's 3; no exception escapes
    results = one_spec_sweep
    data = results.parent / "s.csv"
    config = json.loads((results.parent / "configs" / "a.json").read_text())
    del config["layers"]
    path = {"train-spec": tmp_path / "bad.json",
            "sweep-specs": tmp_path / "configs" / "bad.json",
            "report-summary": tmp_path / "summary.json",
            "report-baselines": tmp_path / "bad.json"}[target]
    field_error, field_message = {
        "report-summary": ({"failures": []}, " JSON is missing field: 'seeds'"),
        "report-baselines": ({"synthetic": "x"}, ": the value for "
                             "'synthetic' is not a number: 'x'"),
    }.get(target, (config, ": config JSON is missing field: 'layers'"))
    path.parent.mkdir(exist_ok=True)
    path.write_bytes(json.dumps(field_error).encode() if content is None
                     else content)
    out = ("--out-dir", tmp_path / "o")
    if target == "train-spec":
        code = run("train", "--data", data, "--battery", "synthetic",
                   "--spec", path, *out)
    elif target == "sweep-specs":
        code = run("sweep", "--data", data, "--battery", "synthetic",
                   "--specs", path.parent, "--seeds", "0", *out)
    elif target == "report-summary":
        (tmp_path / "runs.csv").write_bytes((results / "runs.csv").read_bytes())
        code = run("report", "--results", tmp_path, *out)
    else:
        code = run("report", "--results", results, "--baselines", path, *out)
    assert code == (EXIT_CONFIG if target in ("train-spec", "sweep-specs")
                    else EXIT_DATA)
    err = capsys.readouterr().err
    assert f"error: {path}{message or field_message}" in err
    assert "Traceback" not in err
    assert not (tmp_path / "o").exists()


def test_a_learning_rate_beyond_a_doubles_range_exits_4(
        one_spec_sweep, tmp_path, capsys):
    # json reads the literal as an int, which every comparison with a
    # float accepts, and training could not convert
    config = (one_spec_sweep.parent / "configs" / "a.json").read_text()
    path = tmp_path / "big.json"
    path.write_text(re.sub(r'"learning_rate": [^,}]+',
                           '"learning_rate": 1' + "0" * 400, config))
    assert json.loads(path.read_text())["learning_rate"] == 10**400
    code = run("train", "--data", one_spec_sweep.parent / "s.csv",
               "--battery", "synthetic", "--spec", path,
               "--out-dir", tmp_path / "o")
    assert code == EXIT_CONFIG
    err = capsys.readouterr().err
    assert f"error: {path}: learning_rate must be positive and finite" in err
    assert "Traceback" not in err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("field, value, shown", [
    ("learning_rate", 10**400, "a positive 401-digit integer"),
    ("epochs", 10**500, "a positive 501-digit integer"),
    ("input_dim", -10**30, "a negative 31-digit integer"),
    ("width", 10**40, "a positive 41-digit integer"),
    ("slope", 10**400, "a positive 401-digit integer"),
], ids=["learning_rate", "epochs", "input_dim", "width", "slope"])
def test_a_config_int_of_hundreds_of_digits_is_named_by_its_digit_count(
        one_spec_sweep, tmp_path, capsys, field, value, shown):
    config = json.loads((one_spec_sweep.parent / "configs" / "a.json").read_text())
    if field == "width":
        config["layers"][0]["width"] = value
    elif field == "slope":
        config["layers"][0].update(activation="leaky_relu", slope=value)
    else:
        config[field] = value
    path = tmp_path / "big.json"
    path.write_text(json.dumps(config))
    code = run("train", "--data", one_spec_sweep.parent / "s.csv",
               "--battery", "synthetic", "--spec", path,
               "--out-dir", tmp_path / "o")
    assert code == EXIT_CONFIG
    err = capsys.readouterr().err
    assert field in err and f"got {shown}" in err
    assert "Traceback" not in err
    assert len(err) < 200


def test_report_does_not_import_statistics(one_spec_sweep, tmp_path):
    # statistics imports fractions and decimal; the CLI takes its
    # medians without it, in a fresh interpreter to see its imports
    script = ("import sys; from fasdnet.cli import main; "
              "code = main(['report', '--results', sys.argv[1], "
              "'--out-dir', sys.argv[2]]); "
              "sys.exit(code or 'statistics' in sys.modules)")
    src = os.path.dirname(os.path.dirname(fasdnet.__file__))
    done = subprocess.run(
        [sys.executable, "-c", script, str(one_spec_sweep), str(tmp_path / "rep")],
        env={**os.environ, "PYTHONPATH": src}, capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    assert (tmp_path / "rep" / "comparison.csv").is_file()


@pytest.mark.parametrize("command", ["train", "sweep"])
def test_a_config_file_name_that_is_not_utf8_exits_4_before_training(
        one_spec_sweep, tmp_path, capsys, monkeypatch, command):
    # its stem would be runs.csv's spec name, which cannot be encoded
    cfg_dir = tmp_path / "configs"
    cfg_dir.mkdir()
    config = (one_spec_sweep.parent / "configs" / "a.json").read_bytes()
    (cfg_dir / "a.json").write_bytes(config)
    path = pathlib.Path(os.fsdecode(os.fsencode(cfg_dir) + b"/\xff.json"))
    path.write_bytes(config)
    monkeypatch.setattr(experiment, "_run_seeds", None)  # no training
    data = ("--data", one_spec_sweep.parent / "s.csv", "--battery", "synthetic",
            "--out-dir", tmp_path / "o")
    if command == "train":
        code = run("train", "--spec", path, *data)
    else:
        code = run("sweep", "--specs", cfg_dir, "--seeds", "0,1", *data)
    assert code == EXIT_CONFIG
    err = capsys.readouterr().err
    assert f"error: {str(path)!r}: the file's name is not UTF-8, so" in err
    assert "Traceback" not in err
    assert not (tmp_path / "o").exists()


def test_report_rejects_a_summary_json_median_that_is_not_the_runs(
        data_csv, tmp_path, capsys):
    results = _sweep_results(data_csv, tmp_path)
    _edit_summary(results, lambda doc: doc["specs"][
        "psychometric-feature-layer"].update(median_test_accuracy=0.99))
    code = run("report", "--results", results, "--out-dir", tmp_path / "rep")
    assert code == EXIT_DATA
    err = capsys.readouterr().err
    assert (f"{results / 'summary.json'}:11: reads "
            "'      \"median_test_accuracy\": 0.99,' where a sweep") in err


@pytest.mark.parametrize("field, value", [
    ("failures", None), ("failures", 5), ("failures", "x"),
    ("failures", [{"spec": "s"}]), ("seeds", None), ("seeds", 0),
    ("seeds", "012"), ("seeds", [1e400]), ("seeds", ["x"])],
    ids=["failures-missing", "failures-int", "failures-str",
         "failure-without-seed", "seeds-missing", "seeds-int", "seeds-str",
         "seed-inf", "seed-str"])
def test_report_rejects_a_summary_json_without_its_seeds_or_failures(
        data_csv, tmp_path, capsys, field, value):
    # None deletes the field
    results = _sweep_results(data_csv, tmp_path)
    _edit_summary(results, lambda doc: doc.pop(field) if value is None
                  else doc.update({field: value}))
    code = run("report", "--results", results, "--out-dir", tmp_path / "rep")
    assert code == EXIT_DATA
    err = capsys.readouterr().err
    assert f"\nerror: {results / 'summary.json'}" in err


def test_report_reads_a_sweep_of_spec_names_that_need_csv_quoting(
        data_csv, tmp_path):
    config_dir = tmp_path / "configs"
    config_dir.mkdir()
    config = NetworkConfig(20, ((4, SIGMOID), (1, SIGMOID)), "binary",
                           epochs=3).to_json()
    names = ["row1,short", 'say "hi"', "süß"]
    for name in names:
        (config_dir / f"{name}.json").write_text(config)
    results = tmp_path / "sweep"
    assert run("sweep", "--data", data_csv, "--battery", "psychometric",
               "--specs", config_dir, "--seeds", "0,1",
               "--out-dir", results) == EXIT_OK
    rows = (results / "runs.csv").read_text().splitlines()[1:]
    # the csv module's minimal quoting; a name without , " CR or LF is bare
    for row, field in zip(rows[::2], ['"row1,short"', '"say ""hi"""', "süß"]):
        assert row.startswith(f"{field},0,")
    out_dir = tmp_path / "rep"
    assert run("report", "--results", results, "--out-dir", out_dir) == EXIT_OK
    assert (out_dir / "comparison.csv").read_text().startswith(
        "battery,ours,baseline\npsychometric,")


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
    get_config = _openblas("get_config", ctypes.c_char_p)
    if get_config is None:
        assert env["blas_core"] is None
    else:
        assert env["blas_core"] in get_config().decode().split()
    # found once per process, not once per manifest
    assert _environment() is _environment()


@pytest.mark.parametrize("command, cpus, workers", [
    ("train", {0, 1}, 1), ("sweep", {0}, 1), ("sweep", {0, 1}, 2),
], ids=["train", "sweep-in-process", "sweep-pooled"])
def test_a_manifest_records_the_one_blas_thread_that_trained(
        data_csv, tmp_path, monkeypatch, command, cpus, workers):
    # this process runs two BLAS threads, and its environment was first
    # read then; train, a sweep in this process and a pooled sweep's
    # workers all train on one thread, and the manifest must say so
    set_threads = _openblas("set_num_threads", None, ctypes.c_int)
    if set_threads is None:
        pytest.skip("no OpenBLAS whose thread count can be set")
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: cpus,
                        raising=False)
    cfg_dir = tmp_path / "configs"
    cfg_dir.mkdir()
    config = NetworkConfig(20, ((1, SIGMOID),), "binary", epochs=1)
    for name in ("a", "b"):  # two specs, so that two workers run
        (cfg_dir / f"{name}.json").write_text(config.to_json())
    spec = (["--spec", cfg_dir / "a.json", "--seed", "0"] if command == "train"
            else ["--specs", cfg_dir, "--seeds", "0"])
    before = _blas_threads()
    set_threads(2)
    try:
        _environment.cache_clear()
        _environment()
        assert run(command, "--data", data_csv, "--battery", "psychometric",
                   *spec, "--out-dir", tmp_path / "out") == EXIT_OK
        assert _blas_threads() == 1  # the run leaves this process pinned
    finally:
        set_threads(before)
    env = json.loads((tmp_path / "out" / "manifest.json").read_text())
    env = env["environment"]
    assert (env["workers"], env["blas_threads"]) == (workers, 1)


def test_a_report_manifest_records_no_thread_or_worker_count(
        data_csv, tmp_path):
    # report trains nothing, so it records only the build environment;
    # the sweep it reads records the processes that trained
    results = _sweep_results(data_csv, tmp_path)
    out_dir = tmp_path / "rep"
    assert run("report", "--results", results, "--out-dir", out_dir) == EXIT_OK
    build = {"python", "numpy", "numpy_simd", "blas", "blas_version",
             "blas_core"}
    for path, keys in ((results, build | {"blas_threads", "workers"}),
                       (out_dir, build)):
        env = json.loads((path / "manifest.json").read_text())["environment"]
        assert set(env) == keys


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


# ------------------------------------------------------------ artifact bytes


def test_each_file_is_its_library_texts_utf8_bytes(data_csv, tmp_path):
    spec, seed = REGISTRY["psychometric-feature-layer"], 4
    ds = load_csv(data_csv, "psychometric")
    result, model, history = run_experiment_with_model(spec, ds, seed)
    sweep = run_sweep([spec], ds, [0, 1])
    runs, summary = tmp_path / "s" / "runs.csv", tmp_path / "s" / "summary.json"
    expected = {
        "t": {"confusion.txt": result.confusion.to_text(),
              "history.csv": history.to_csv_text(),
              "model.json": model.to_json()},
        "s": {"runs.csv": sweep.runs_csv_text(),
              "summary.txt": sweep.summary_text(),
              "summary.json": sweep.summary_json_text()},
    }
    assert run("train", "--data", data_csv, "--battery", "psychometric",
               "--spec", spec.name, "--seed", seed,
               "--out-dir", tmp_path / "t") == EXIT_OK
    assert run("sweep", "--data", data_csv, "--battery", "psychometric",
               "--specs", spec.name, "--seeds", "0,1",
               "--out-dir", tmp_path / "s") == EXIT_OK
    report = comparison_report(
        SweepResult.from_files(runs, summary).results, BaselineTable())
    expected["r"] = {"comparison.csv": report.to_csv_text(),
                     "comparison.txt": report.to_text()}
    assert run("report", "--results", tmp_path / "s",
               "--out-dir", tmp_path / "r") == EXIT_OK
    for d, files in expected.items():
        manifest = json.loads((tmp_path / d / "manifest.json").read_text())
        files = {**files, "manifest.json": json.dumps(manifest, indent=2) + "\n"}
        assert sorted(p.name for p in (tmp_path / d).iterdir()) == sorted(files)
        for name, text in files.items():
            assert (tmp_path / d / name).read_bytes() == text.encode("utf-8")


def test_a_crlf_platform_writes_lf_files_that_report_reads_back(
        data_csv, tmp_path, monkeypatch):
    # Path.write_text as on Windows: with newline=None each "\n" is
    # written as "\r\n"; every file a command writes must not depend on it
    write_text = pathlib.Path.write_text

    def crlf_write_text(self, data, encoding=None, errors=None, newline=None):
        if newline is None:
            data, newline = data.replace("\n", "\r\n"), ""
        return write_text(self, data, encoding, errors, newline)

    monkeypatch.setattr(pathlib.Path, "write_text", crlf_write_text)
    results, out_dir = tmp_path / "s", tmp_path / "r"
    assert run("sweep", "--data", data_csv, "--battery", "psychometric",
               "--specs", "psychometric-feature-layer", "--seeds", "0,1",
               "--out-dir", results) == EXIT_OK
    assert run("report", "--results", results, "--out-dir", out_dir) == EXIT_OK
    assert run("train", "--data", data_csv, "--battery", "psychometric",
               "--spec", "table2-row1", "--out-dir", tmp_path / "t") == EXIT_OK
    files = [p for d in ("s", "r", "t") for p in (tmp_path / d).iterdir()]
    assert len(files) == 11
    for path in files:
        assert b"\r" not in path.read_bytes(), path.name


# ------------------------------------------------- feature statistics


@pytest.mark.parametrize("column_values", [
    lambda rows: [float(r[0]) * 1e200 for r in rows],  # the std overflows
    lambda rows: [(1.5e308, 1.6e308)[i % 2] for i in range(len(rows))],  # the mean
], ids=["1e200", "1.5e308"])
def test_feature_statistics_that_overflow_exit_3_naming_the_column(
        data_csv, tmp_path, capsys, column_values):
    lines = data_csv.read_text().splitlines()
    rows = [line.split(",") for line in lines[1:]]
    for row, value in zip(rows, column_values(rows)):
        row[0] = repr(value)
    data = tmp_path / "big.csv"
    data.write_text("\n".join([lines[0]] + [",".join(r) for r in rows]) + "\n")
    for command in (["train", "--spec", "psychometric-feature-layer"],
                    ["sweep", "--specs", "psychometric-feature-layer",
                     "--seeds", "0,1"]):
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            code = run(*command, "--data", data, "--battery", "synthetic",
                       "--out-dir", tmp_path / command[0])
        out = capsys.readouterr()
        message = ("psychometric-feature-layer: feature 'f00': the mean or "
                   "standard deviation of its training rows is not finite")
        if command[0] == "train":
            assert code == EXIT_DATA and message in out.err
            assert not (tmp_path / "train").exists()
        else:  # every seed fails alike
            assert code == EXIT_ALL_FAILED
            assert out.out.count(message) == 2


def test_a_validation_value_that_overflows_standardization_exits_3(
        tmp_path, capsys):
    # f00 has finite training statistics for every seed: row 7, at
    # 1e300, is a training row for seeds 0-2 and 4, where the std
    # overflows, and a validation row for seeds 3 and 5, where its
    # standardized value does
    data = tmp_path / "s.csv"
    assert run("synth", "--samples-per-class", 20, "--features", 20,
               "--separation", 1, "--seed", 1, "--out", data) == EXIT_OK
    lines = data.read_text().splitlines()
    rows = [line.split(",") for line in lines[1:]]
    for i, row in enumerate(rows):
        row[0] = repr(1.0 + 1e-12 * i)
    rows[7][0] = repr(1e300)
    data.write_text("\n".join([lines[0]] + [",".join(r) for r in rows]) + "\n")
    message = ("psychometric-feature-layer: feature 'f00': a value "
               "standardized by its training rows' mean and standard "
               "deviation is not finite")
    for command in (["train", "--seed", "3"], ["train", "--seed", "5"],
                    ["sweep", "--seeds", "3,5"]):
        out_dir = tmp_path / "-".join(command)
        spec = "--spec" if command[0] == "train" else "--specs"
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            code = run(*command, spec, "psychometric-feature-layer",
                       "--data", data, "--battery", "psychometric",
                       "--out-dir", out_dir)
        out = capsys.readouterr()
        if command[0] == "train":
            assert code == EXIT_DATA and message in out.err
            assert not out_dir.exists()
        else:  # the spec fails as a whole
            assert code == EXIT_ALL_FAILED
            assert out.out.count(message) == 2


@settings(deadline=None, max_examples=20)
@given(st.integers(-300, 300), st.integers(0, 2))
def test_every_model_json_train_writes_reads_back(tmp_path_factory, exponent,
                                                  column):
    tmp = tmp_path_factory.mktemp("scale")
    data = tmp / "data.csv"
    assert run("synth", "--samples-per-class", 8, "--features", 3,
               "--separation", 1.0, "--seed", 0, "--out", data) == EXIT_OK
    cells = [line.split(",") for line in data.read_text().splitlines()]
    for row in cells[1:]:
        row[column] = repr(float(row[column]) * 10.0**exponent)
    data.write_text("".join(",".join(row) + "\n" for row in cells))
    config = tmp / "net.json"
    config.write_text(NetworkConfig(3, ((4, RELU), (1, SIGMOID)), "binary",
                                    True, 3, 0.01, 0).to_json())
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        code = run("train", "--data", data, "--battery", "synthetic",
                   "--spec", config, "--out-dir", tmp / "run")
    assert code in (EXIT_OK, EXIT_DATA)
    if code == EXIT_OK:
        TrainedModel.from_json((tmp / "run" / "model.json").read_text())
