"""Registry, runner, sweep, confusion-matrix, and comparison tests."""

import ctypes
import faulthandler
import hashlib
import json
import os
import pickle
import re
import statistics
import subprocess
import sys
import tempfile
import threading
from concurrent.futures.process import BrokenProcessPool
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fasdnet import experiment
from fasdnet.data import BATTERIES, drop_features, synthesize_dataset
from fasdnet.errors import (
    ConfigError,
    ContractError,
    DataError,
    DivergenceError,
    FasdnetError,
    NonFiniteError,
    ParseError,
    ReportError,
    ShapeError,
    UnknownFeatureError,
)
from fasdnet.experiment import (
    REFERENCE_ACCURACIES,
    REGISTRY,
    SPEC_SETS,
    BaselineTable,
    ConfusionMatrix,
    ExperimentSpec,
    RunResult,
    SweepResult,
    accuracy,
    builtin_registry,
    comparison_report,
    confusion_matrix,
    resolve_specs,
    run_experiment_with_model,
    run_sweep,
)
from fasdnet.layers import NetworkConfig
from fasdnet.rng import SeededRng
from fasdnet.training import History, TrainedModel, train

# ------------------------------------------------------------------ registry


def test_registry_has_fourteen_unique_specs():
    specs = builtin_registry()
    assert len(specs) == 14
    names = [s.name for s in specs]
    assert len(set(names)) == 14


def test_registry_first_model_family():
    for i in range(1, 10):
        spec = REGISTRY[f"table2-row{i}"]
        assert spec.battery == "psychometric"
        assert spec.config.loss == "sparse_categorical"
        assert spec.config.epochs == 1000
        assert spec.config.use_feature_layer is False
        assert spec.train_fraction == 0.75
        assert spec.balance is False
        # all hidden layers leaky relu, output (2, softmax)
        *hidden, (out_w, out_a) = spec.config.layers
        assert (out_w, out_a.kind) == (2, "softmax")
        assert all(a.kind == "leaky_relu" and a.slope == 0.01
                   for _, a in hidden)


def test_registry_contains_25_20_architecture():
    widths = [
        tuple(w for w, _ in REGISTRY[f"table2-row{i}"].config.layers[:-1])
        for i in range(1, 10)
    ]
    assert (25, 20) in widths
    # that spec's first dense layer is 25 wide
    row3 = REGISTRY["table2-row3"]
    assert row3.config.layers[0][0] == 25
    assert row3.config.layers[1][0] == 20


def test_registry_second_model_family():
    second = [s for s in builtin_registry() if s.config.loss == "binary"]
    assert len(second) == 5
    for spec in second:
        assert spec.config.use_feature_layer is True
        assert spec.balance is True
        assert spec.train_fraction == 0.80
        assert spec.config.layers[-1] == (1, spec.config.layers[-1][1])
        assert spec.config.layers[-1][1].kind == "sigmoid"

    assert REGISTRY["dti-leaky-100ep"].config.epochs == 100
    for name in ("psychometric-feature-layer", "antisaccade-128x2",
                 "prosaccade-128x2", "memory-guided-feature-layer"):
        assert REGISTRY[name].config.epochs == 50

    # saccade tasks: two 128-wide relu hidden layers
    for name in ("antisaccade-128x2", "prosaccade-128x2"):
        hidden = REGISTRY[name].config.layers[:-1]
        assert [(w, a.kind) for w, a in hidden] == [(128, "relu")] * 2

    # interleaved family: 64-sigmoid / 128-relu alternation
    inter = REGISTRY["psychometric-feature-layer"].config.layers[:-1]
    assert [(w, a.kind) for w, a in inter] == [
        (64, "sigmoid"), (128, "relu"), (64, "sigmoid"), (128, "relu"),
    ]
    dti = REGISTRY["dti-leaky-100ep"].config.layers[:-1]
    assert [(w, a.kind) for w, a in dti] == [
        (64, "sigmoid"), (128, "leaky_relu"), (64, "sigmoid"),
        (128, "leaky_relu"),
    ]


def test_registry_expected_input_widths():
    expected = {
        "psychometric-feature-layer": 20,
        "antisaccade-128x2": 15,
        "prosaccade-128x2": 18,
        "memory-guided-feature-layer": 26,
        "dti-leaky-100ep": 48,
    }
    for name, width in expected.items():
        assert REGISTRY[name].config.input_dim == width


def test_builtin_configs_round_trip_through_json():
    for spec in builtin_registry():
        text = spec.config.to_json()
        back = NetworkConfig.from_dict(json.loads(text))
        assert back == spec.config
        assert back.to_json() == text


def test_resolve_specs():
    assert [s.name for s in resolve_specs("table2")] == [
        f"table2-row{i}" for i in range(1, 10)
    ]
    assert [s.name for s in resolve_specs("feature-layer")] == [
        "psychometric-feature-layer", "antisaccade-128x2", "prosaccade-128x2",
        "memory-guided-feature-layer", "dti-leaky-100ep",
    ]
    assert len(resolve_specs("all")) == 14
    assert [s.name for s in resolve_specs("table2-row1,dti-leaky-100ep")] == [
        "table2-row1", "dti-leaky-100ep"
    ]
    with pytest.raises(ConfigError, match="unknown experiment"):
        resolve_specs("table2-row10")
    with pytest.raises(ConfigError):
        resolve_specs(",")


# ----------------------------------------------------------- confusion matrix


def test_confusion_matrix_perfect_and_inverted():
    y = np.array([0, 1, 1, 0, 1])
    cm = confusion_matrix(y, y)
    assert (cm.fp, cm.fn) == (0, 0)
    assert (cm.tp, cm.tn) == (3, 2)
    inv = confusion_matrix(1 - y, y)
    assert (inv.tp, inv.tn) == (0, 0)
    assert (inv.fp, inv.fn) == (2, 3)


def test_confusion_matrix_matches_counting_loop():
    rng = np.random.default_rng(0)
    for _ in range(10):
        p = rng.integers(0, 2, size=30)
        y = rng.integers(0, 2, size=30)
        cm = confusion_matrix(p, y)
        tp = fp = tn = fn = 0
        for pi, yi in zip(p, y):
            if pi == 1 and yi == 1:
                tp += 1
            elif pi == 1 and yi == 0:
                fp += 1
            elif pi == 0 and yi == 0:
                tn += 1
            else:
                fn += 1
        assert (cm.tp, cm.fp, cm.tn, cm.fn) == (tp, fp, tn, fn)
        assert cm.total == 30


def test_confusion_matrix_validation():
    with pytest.raises(ShapeError):
        confusion_matrix([0, 1], [0, 1, 1])
    with pytest.raises(DataError):
        confusion_matrix([0, 2], [0, 1])


def test_confusion_percent_view_sums_to_100():
    cm = ConfusionMatrix(tp=5, fp=2, tn=4, fn=2)
    assert sum(cm.percents().values()) == pytest.approx(100.0)
    text = cm.to_text()
    assert "38.46" in text  # 5/13 displayed as percent of total


def test_accuracy():
    assert accuracy(ConfusionMatrix(3, 0, 2, 0)) == 1.0
    assert accuracy(ConfusionMatrix(1, 1, 1, 1)) == 0.5
    with pytest.raises(ContractError):
        accuracy(ConfusionMatrix(0, 0, 0, 0))


def test_an_empty_confusion_matrix_has_no_percents_text_or_accuracy():
    cm = confusion_matrix(np.array([], int), np.array([], int))
    assert cm == ConfusionMatrix(0, 0, 0, 0)
    for call in (cm.percents, cm.to_text, lambda: accuracy(cm)):
        with pytest.raises(ContractError,
                           match="empty confusion matrix has no accuracy"):
            call()


def test_openblas_functions_are_looked_up_once_and_typed():
    get_threads = experiment._openblas("get_num_threads", ctypes.c_int)
    if get_threads is None:
        pytest.skip("no OpenBLAS loaded")
    assert experiment._openblas("get_num_threads", ctypes.c_int) is get_threads
    assert (get_threads.restype, get_threads.argtypes) == (ctypes.c_int, ())


def test_accuracy_equals_indicator_mean():
    rng = np.random.default_rng(1)
    p = rng.integers(0, 2, size=40)
    y = rng.integers(0, 2, size=40)
    cm = confusion_matrix(p, y)
    assert accuracy(cm) == pytest.approx(float(np.mean(p == y)), abs=1e-15)


# ------------------------------------------------------------------- running


def _short(spec, **overrides) -> ExperimentSpec:
    """Copy of a builtin with a cheaper config for unit-test speed."""
    return ExperimentSpec(
        spec.name,
        spec.battery,
        replace(spec.config, **overrides),
        spec.train_fraction,
        spec.balance,
    )


def test_run_experiment_deterministic():
    ds = synthesize_dataset(20, 10, 2.0, SeededRng(5))
    spec = _short(REGISTRY["psychometric-feature-layer"], epochs=20)
    r1, _, h1 = run_experiment_with_model(spec, ds, seed=4)
    r2, _, h2 = run_experiment_with_model(spec, ds, seed=4)
    assert r1.test_accuracy == r2.test_accuracy
    assert r1.train_accuracy == r2.train_accuracy
    assert (r1.confusion.tp, r1.confusion.fp, r1.confusion.tn,
            r1.confusion.fn) == (
        r2.confusion.tp, r2.confusion.fp, r2.confusion.tn, r2.confusion.fn)
    assert h1.train_loss == h2.train_loss
    h3 = run_experiment_with_model(spec, ds, seed=5)[2]
    assert h3.train_loss != h1.train_loss


def test_a_run_is_its_runs_csv_row_and_its_model_and_history_come_beside_it():
    ds = synthesize_dataset(20, 10, 2.0, SeededRng(5))
    spec = _short(REGISTRY["psychometric-feature-layer"], epochs=20)
    result, model, history = run_experiment_with_model(spec, ds, seed=4)
    assert isinstance(model, TrainedModel) and isinstance(history, History)
    # every field but the battery is a runs.csv column, and test_acc
    # is the cells' accuracy
    assert [f.name for f in fields(RunResult)] == [
        "spec_name", "battery", "seed", "train_accuracy", "confusion"]
    assert result.test_accuracy.hex() == accuracy(result.confusion).hex()
    assert result.train_accuracy == history.train_acc[-1]
    assert len(history.train_loss) == 20
    sweep = run_sweep([spec], ds, [4])
    assert sweep.results == [result]


def test_a_runs_accuracies_are_its_last_history_row_with_no_second_pass(
        monkeypatch):
    # a run's test evaluation is its last epoch's validation pass, so no
    # trained model predicts again, and both accuracies are the last
    # history row's, bit for bit
    def refuse(self, x):
        raise AssertionError("a run evaluated its model a second time")

    monkeypatch.setattr(TrainedModel, "predict_proba", refuse)
    ds = synthesize_dataset(20, 20, 0.7, SeededRng(3))
    for spec in (_short(REGISTRY["table2-row5"], epochs=40),
                 _short(REGISTRY["psychometric-feature-layer"], epochs=20)):
        outcomes = experiment._run_seeds(spec, ds, range(5))
        for result, _, history in outcomes:
            assert result.test_accuracy.hex() == history.val_acc[-1].hex()
            assert result.train_accuracy.hex() == history.train_acc[-1].hex()


def test_run_experiment_confusion_sums_to_test_partition():
    ds = synthesize_dataset(25, 8, 2.0, SeededRng(6))
    spec = _short(REGISTRY["antisaccade-128x2"], epochs=10)
    result = run_experiment_with_model(spec, ds, seed=0)[0]
    # balanced 25/25 stays 50 rows; 80/20 stratified leaves 2x5 for test
    assert result.confusion.total == 10
    assert abs(accuracy(result.confusion) - result.test_accuracy) < 1e-12


def test_run_experiment_no_signal_band():
    ds = synthesize_dataset(30, 12, 0.0, SeededRng(7))
    spec = _short(REGISTRY["prosaccade-128x2"], epochs=15)
    accs = [run_experiment_with_model(spec, ds, seed=s)[0].test_accuracy
            for s in range(10)]
    assert 0.3 <= float(np.median(accs)) <= 0.7
    assert 0.3 <= float(np.mean(accs)) <= 0.7


def test_run_experiment_strong_signal():
    ds = synthesize_dataset(30, 12, 6.0, SeededRng(8))
    spec = REGISTRY["memory-guided-feature-layer"]
    assert run_experiment_with_model(spec, ds, seed=3)[0].test_accuracy >= 0.9


def test_run_experiment_battery_mismatch():
    ds = synthesize_dataset(10, 5, 1.0, SeededRng(9))
    mismatched = Dataset_with_battery(ds, "dti")
    with pytest.raises(DataError, match="does not match"):
        run_experiment_with_model(REGISTRY["antisaccade-128x2"], mismatched, seed=0)


def Dataset_with_battery(ds, battery, rows=slice(None)):
    from fasdnet.data import Dataset

    return Dataset(battery, ds.feature_names, ds.x[rows], ds.y[rows])


def test_run_experiment_ablation_narrows_input():
    # a library caller ablates the dataset, and the run takes its width
    ds = synthesize_dataset(15, 6, 2.0, SeededRng(10))
    spec = _short(REGISTRY["psychometric-feature-layer"], epochs=5)
    ablated = drop_features(ds, ("f00", "f03"))
    result, model, _ = run_experiment_with_model(spec, ablated, seed=1)
    assert result.spec_name == spec.name
    assert model.config.input_dim == 4
    assert model.layers[0].weights.shape[0] == 4
    # an unknown name fails in drop_features, before any spec is read
    with pytest.raises(UnknownFeatureError, match="not-a-feature"):
        drop_features(ds, ("not-a-feature",))


# -------------------------------------------------------------------- sweeps


def test_sweep_cardinality_and_ordering():
    ds = synthesize_dataset(12, 6, 1.0, SeededRng(11))
    specs = [
        _short(REGISTRY[f"table2-row{i}"], epochs=3) for i in (1, 2, 3)
    ]
    sweep = run_sweep(specs, ds, [0, 1, 2])
    assert len(sweep.results) == 9
    # spec-major deterministic ordering
    assert [(r.spec_name, r.seed) for r in sweep.results[:4]] == [
        ("table2-row1", 0), ("table2-row1", 1), ("table2-row1", 2),
        ("table2-row2", 0),
    ]


def test_sweep_median_invariant_to_seed_order():
    ds = synthesize_dataset(15, 6, 1.5, SeededRng(12))
    spec = _short(REGISTRY["table2-row1"], epochs=5)
    fwd = run_sweep([spec], ds, [0, 1, 2, 3, 4])
    rev = run_sweep([spec], ds, [4, 3, 2, 1, 0])
    assert (fwd.per_spec_stats()[0].median_test_accuracy
            == rev.per_spec_stats()[0].median_test_accuracy)


def test_sweep_records_failures_without_aborting():
    ds = synthesize_dataset(10, 6, 1.0, SeededRng(13))
    good = _short(REGISTRY["table2-row1"], epochs=3)
    diverging = ExperimentSpec(
        "diverges", "psychometric",
        replace(REGISTRY["table2-row1"].config, epochs=5,
                learning_rate=1e200),
        0.75, False,
    )
    sweep = run_sweep([good, diverging], ds, [0, 1])
    assert len(sweep.results) == 2
    assert len(sweep.failures) == 2
    assert all(name == "diverges" for name, _, _ in sweep.failures)
    assert "diverges" in sweep.summary_text()  # failures are listed


def test_a_spec_that_fails_before_training_fails_every_seed_alike():
    # every label-0 row and one label-1 row: table2 finds no class-1 pair
    # to split, and dti, which balances first, no class-0 pair
    full = synthesize_dataset(30, 48, 0.7, SeededRng(3))
    rows = np.flatnonzero(full.y == 0).tolist() + [int(np.argmax(full.y))]
    ds = Dataset_with_battery(full, "synthetic", rows)
    specs = [_short(REGISTRY[name], epochs=3)
             for name in ("table2-row1", "dti-leaky-100ep")]
    sweep = run_sweep(specs, ds, [0, 1, 2])
    assert sweep.results == []
    assert [(name, seed) for name, seed, _ in sweep.failures] == [
        (spec.name, seed) for spec in specs for seed in (0, 1, 2)]
    for i, (spec, cls) in enumerate(zip(specs, (1, 0))):
        with pytest.raises(DataError) as err:
            run_experiment_with_model(spec, ds, 0)
        assert [msg for _, _, msg in sweep.failures[3 * i:3 * i + 3]] == [
            str(err.value)] * 3
        assert str(err.value) == (
            f"{spec.name}: class {cls} has fewer than 2 samples; cannot split")


# runs.csv and the summary.json digest of the sweep below, recorded with
# every seed trained on its own (numpy 2.4.6, OpenBLAS 0.3.31)
_MIXED_RUNS_CSV = """spec,seed,train_acc,test_acc,tp,fp,tn,fn
table2-row1,0,0.5,0.5,10,10,0,0
table2-row1,1,0.5,0.5,10,10,0,0
table2-row1,3,0.5,0.5,10,10,0,0
table2-row1,4,0.5,0.5,10,10,0,0
table2-row1,7,0.5,0.5,0,0,10,10
"""
_MIXED_SUMMARY_SHA256 = (
    "66059948b425fb69b53ece146583f2fb966b95ffc4a39b03774c46a5baf6da2b"
)


def test_sweep_with_diverging_seeds_matches_one_seed_at_a_time():
    ds = synthesize_dataset(40, 20, 0.7, SeededRng(3))
    spec = _short(REGISTRY["table2-row1"], learning_rate=3e101, epochs=60)
    sweep = run_sweep([spec], ds, range(8))
    assert [seed for _, seed, _ in sweep.failures] == [2, 5, 6]
    assert all(
        msg == "table2-row1: training diverged at epoch 1: layer 2 "
               "pre-activation is non-finite"
        for _, _, msg in sweep.failures
    )
    assert sweep.runs_csv_text() == _MIXED_RUNS_CSV
    digest = hashlib.sha256(sweep.summary_json_text().encode()).hexdigest()
    assert digest == _MIXED_SUMMARY_SHA256


def test_a_spec_named_divergence_keeps_its_epoch_and_layer():
    # seed 2 of the sweep above; the spec name is prefixed to the message
    ds = synthesize_dataset(40, 20, 0.7, SeededRng(3))
    spec = _short(REGISTRY["table2-row1"], learning_rate=3e101, epochs=60)
    with pytest.raises(DivergenceError) as err:
        run_experiment_with_model(spec, ds, 2)
    assert (str(err.value), err.value.epoch, err.value.layer) == (
        "table2-row1: training diverged at epoch 1: layer 2 pre-activation "
        "is non-finite", 1, 2)


def _see_cpus(monkeypatch, cpus):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)),
                        raising=False)


def _sweep_files(monkeypatch, cpus, specs, ds, seeds):
    """runs.csv, summary.json and summary.txt text of a sweep that sees
    `cpus` CPUs; checks that it used one worker per CPU, up to one per
    spec."""
    _see_cpus(monkeypatch, cpus)
    sweep = run_sweep(specs, ds, seeds)
    assert sweep.workers == min(cpus, len(specs))
    assert len(sweep.seconds) == len(specs)
    return sweep.runs_csv_text(), sweep.summary_json_text(), sweep.summary_text()


def test_sweep_files_do_not_depend_on_the_worker_count(monkeypatch):
    ds = synthesize_dataset(12, 20, 1.0, SeededRng(18))
    specs = [_short(REGISTRY[name], epochs=20)
             for name in SPEC_SETS["table2"]]
    seeds = [0, 1]
    one = _sweep_files(monkeypatch, 1, specs, ds, seeds)
    two = _sweep_files(monkeypatch, 2, specs, ds, seeds)
    assert one == two
    assert one[0].count("\n") == 1 + len(specs) * len(seeds)


def test_trained_bytes_do_not_depend_on_the_blas_thread_count():
    # a wide spec on 300 training rows, whose products are big enough
    # that OpenBLAS splits them between its threads; train, unlike the
    # runners that call it, keeps the thread count it is given
    set_threads = experiment._openblas("set_num_threads", None, ctypes.c_int)
    if set_threads is None:
        pytest.skip("no OpenBLAS whose thread count can be set")
    ds = synthesize_dataset(200, 48, 0.7, SeededRng(3))
    config = replace(REGISTRY["table2-row9"].config, input_dim=48, epochs=60)
    valid = np.arange(ds.n_rows) % 4 == 0
    before = experiment._blas_threads()
    texts = []
    try:
        for threads in (1, 2):
            set_threads(threads)
            model, history = train(config, ds.x[~valid], ds.y[~valid],
                                   ds.x[valid], ds.y[valid])
            assert experiment._blas_threads() == threads
            texts.append((model.to_json(), history.to_csv_text()))
    finally:
        set_threads(before)
    assert texts[0] == texts[1]


def test_importing_fasdnet_before_numpy_leaves_blas_on_one_thread():
    # OpenBLAS reads its thread variables when numpy loads it; a fresh
    # interpreter without them, as from a shell that never set them, is
    # on one thread right after the import, before anything trains.
    # Imported after numpy, fasdnet leaves the variables alone.
    script = ("import os, sys\n"
              "if sys.argv[1] == 'after': import numpy\n"
              "import fasdnet\n"
              "from fasdnet.experiment import _blas_threads\n"
              "print(_blas_threads(), os.environ.get('OPENBLAS_NUM_THREADS'),"
              " os.environ.get('OMP_NUM_THREADS'))")
    env = {k: v for k, v in os.environ.items()
           if k not in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")}
    env["PYTHONPATH"] = str(Path(experiment.__file__).parents[1])
    seen = {}
    for when in ("before", "after"):
        done = subprocess.run([sys.executable, "-c", script, when], env=env,
                              capture_output=True, text=True)
        assert done.returncode == 0, done.stderr
        seen[when] = done.stdout.split()
    assert seen["before"] in (["1", "1", "1"], ["None", "1", "1"])
    assert seen["after"][1:] == ["None", "None"]


def _blas_threads_of_worker(task):
    """Stands in for experiment._run_spec: no runs, and the BLAS thread
    count of the worker it ran in where the spec's seconds go."""
    return [], experiment._blas_threads()


def test_every_pooled_worker_trains_on_one_blas_thread(monkeypatch):
    # the sweep starts from a process running two threads; each worker
    # it forks must inherit the one thread that run_sweep set
    set_threads = experiment._openblas("set_num_threads", None, ctypes.c_int)
    if set_threads is None:
        pytest.skip("no OpenBLAS whose thread count can be set")
    _see_cpus(monkeypatch, 2)
    monkeypatch.setattr(experiment, "_run_spec", _blas_threads_of_worker)
    ds = synthesize_dataset(12, 20, 1.0, SeededRng(18))
    specs = [REGISTRY[name] for name in ("table2-row1", "table2-row2")]
    before = experiment._blas_threads()
    set_threads(2)
    try:
        sweep = run_sweep(specs, ds, [0])
    finally:
        set_threads(before)
    assert sweep.workers == 2
    assert sweep.seconds == [1, 1]


def test_failures_cross_the_worker_pool_unchanged(monkeypatch):
    # the mixed-outcome sweep above, next to a second spec so that the
    # pool has two workers; the wider spec runs first
    ds = synthesize_dataset(40, 20, 0.7, SeededRng(3))
    specs = [_short(REGISTRY[name], learning_rate=3e101, epochs=60)
             for name in ("table2-row1", "table2-row2")]
    one = _sweep_files(monkeypatch, 1, specs, ds, range(8))
    two = _sweep_files(monkeypatch, 2, specs, ds, range(8))
    assert one == two
    runs = one[0].splitlines(keepends=True)
    assert [r for r in runs if r.startswith("table2-row1,")] == (
        _MIXED_RUNS_CSV.splitlines(keepends=True)[1:])
    assert "table2-row1 seed=2: table2-row1: training diverged" in one[2]


@pytest.mark.parametrize("cpus", [1, 2])
def test_a_sweep_holds_what_its_files_read_back(monkeypatch, tmp_path, cpus):
    # the workers send back one row per run, without the history; seed 2
    # diverges, so failures cross the boundary too
    ds = synthesize_dataset(40, 20, 0.7, SeededRng(3))
    specs = [_short(REGISTRY[name], learning_rate=3e101, epochs=20)
             for name in ("table2-row1", "table2-row2")]
    _see_cpus(monkeypatch, cpus)
    sweep = run_sweep(specs, ds, range(4))
    assert sweep.workers == cpus
    assert ("table2-row1", 2) in [(name, seed) for name, seed, _ in sweep.failures]
    paths = (tmp_path / "runs.csv", tmp_path / "summary.json")
    paths[0].write_text(sweep.runs_csv_text(), encoding="utf-8")
    paths[1].write_text(sweep.summary_json_text(), encoding="utf-8")
    back = SweepResult.from_files(*paths)
    assert (sweep.results, sweep.failures, sweep.seeds, sweep.spec_order) == (
        back.results, back.failures, back.seeds, back.spec_order)


def test_a_workers_reply_does_not_grow_with_the_epoch_count():
    ds = synthesize_dataset(20, 20, 1.0, SeededRng(3))
    sizes = [len(pickle.dumps(experiment._run_spec(
                (_short(REGISTRY["table2-row1"], epochs=epochs), ds, [0, 1]))))
             for epochs in (5, 50)]
    assert sizes[0] == sizes[1]


_ACCURACY = st.floats(0.0, 1.0)


@settings(deadline=None)
@given(st.lists(_ACCURACY, min_size=1),
       st.lists(st.tuples(_ACCURACY, _ACCURACY), min_size=1))
def test_statistics_median_is_numpys_median_bit_for_bit(accuracies, pairs):
    # per_spec_stats and battery_medians take medians of accuracies and
    # of train - test gaps, which are never -0.0, by experiment._median
    for xs in (accuracies, [a - b for a, b in pairs]):
        want = statistics.median(xs).hex()
        assert experiment._median(xs).hex() == want
        assert float(np.median(xs)).hex() == want


def _pool_sweep(monkeypatch):
    """A two-spec sweep that sees two CPUs."""
    _see_cpus(monkeypatch, 2)
    ds = synthesize_dataset(10, 6, 1.0, SeededRng(19))
    specs = [_short(REGISTRY[name], epochs=2)
             for name in ("table2-row1", "table2-row2")]
    return run_sweep(specs, ds, [0])


def test_sweep_runs_in_process_while_another_thread_runs(monkeypatch):
    # a fork could copy the other thread's locks in a held state
    stop = threading.Event()
    thread = threading.Thread(target=stop.wait)
    thread.start()
    try:
        assert _pool_sweep(monkeypatch).workers == 1
    finally:
        stop.set()
        thread.join(timeout=10)
    assert not thread.is_alive()


def _die(task):
    os._exit(3)


def test_a_worker_that_dies_fails_the_sweep(monkeypatch):
    monkeypatch.setattr(experiment, "_run_spec", _die)
    # a lost task must fail the sweep, not hang it
    faulthandler.dump_traceback_later(60, exit=True)
    try:
        with pytest.raises(BrokenProcessPool):
            _pool_sweep(monkeypatch)
    finally:
        faulthandler.cancel_dump_traceback_later()


def _subclasses(cls):
    for sub in cls.__subclasses__():
        yield sub
        yield from _subclasses(sub)


def test_every_toolkit_error_survives_pickle():
    # a sweep worker sends its failures back to the parent through pickle
    special = {
        DivergenceError: DivergenceError(
            "training diverged at epoch 7: layer 2 pre-activation is "
            "non-finite", 7, 2),
        NonFiniteError: NonFiniteError(
            "layer 2 pre-activation is non-finite", layer=2, slots=(0, 3)),
    }
    classes = [FasdnetError, *_subclasses(FasdnetError)]
    assert set(special) <= set(classes)
    for cls in classes:
        error = special.get(cls) or cls(f"a {cls.__name__} message")
        back = pickle.loads(pickle.dumps(error))
        assert type(back) is cls
        assert (back.args, str(back)) == (error.args, str(error))
        assert vars(back) == vars(error)  # epoch and layer; layer and slots


def test_a_spec_annotated_error_keeps_its_type_and_fields():
    # a failure's text in summary.json starts with its spec's name
    error = experiment._annotate("row1", NonFiniteError(
        "layer 2 pre-activation is non-finite", layer=2, slots=(0, 3)))
    assert type(error) is NonFiniteError
    assert str(error) == "row1: layer 2 pre-activation is non-finite"
    assert (error.layer, error.slots) == (2, (0, 3))
    error = experiment._annotate("row1", ParseError("line 3: bad cell"))
    assert (type(error), str(error)) == (ParseError, "row1: line 3: bad cell")


def test_sweep_requires_seeds_and_unique_names():
    ds = synthesize_dataset(10, 6, 1.0, SeededRng(14))
    spec = _short(REGISTRY["table2-row1"], epochs=2)
    with pytest.raises(ConfigError):
        run_sweep([spec], ds, [])
    with pytest.raises(ConfigError, match="duplicate"):
        run_sweep([spec, spec], ds, [0])
    # a repeated seed would be a repeated runs.csv row, counted twice
    # in the medians
    with pytest.raises(ConfigError, match=r"distinct seeds, got \[1, 1, 2\]"):
        run_sweep([spec], ds, [1, 1, 2])


def test_sweep_reports_are_deterministic():
    ds = synthesize_dataset(12, 6, 1.5, SeededRng(15))
    specs = [_short(REGISTRY["table2-row1"], epochs=4),
             _short(REGISTRY["psychometric-feature-layer"], epochs=4)]
    a = run_sweep(specs, ds, [0, 1])
    b = run_sweep(specs, ds, [0, 1])
    assert a.runs_csv_text() == b.runs_csv_text()
    assert a.summary_text() == b.summary_text()
    assert a.summary_json_text() == b.summary_json_text()


def test_sweep_summary_medians_match_csv_recompute():
    ds = synthesize_dataset(12, 6, 2.0, SeededRng(16))
    spec = _short(REGISTRY["table2-row2"], epochs=4)
    sweep = run_sweep([spec], ds, [0, 1, 2])
    # parse the CSV back and recompute the median independently
    lines = sweep.runs_csv_text().splitlines()
    assert lines[0] == "spec,seed,train_acc,test_acc,tp,fp,tn,fn"
    accs = [float(line.split(",")[3]) for line in lines[1:]]
    stats = sweep.per_spec_stats()[0]
    assert stats.median_test_accuracy == float(np.median(accs))
    assert stats.n_runs == 3
    # confusion cells in the CSV sum to the test-partition size:
    # 12 per class, 75/25 stratified -> ceil(9) train, 3 test per class
    for line in lines[1:]:
        cells = line.split(",")
        assert sum(int(c) for c in cells[4:]) == 6


def test_sweep_gap_column():
    ds = synthesize_dataset(12, 6, 1.0, SeededRng(17))
    spec = _short(REGISTRY["table2-row1"], epochs=4)
    sweep = run_sweep([spec], ds, [0, 1, 2])
    stats = sweep.per_spec_stats()[0]
    gaps = [r.train_accuracy - r.test_accuracy for r in sweep.results]
    assert stats.median_gap == pytest.approx(float(np.median(gaps)))


@pytest.mark.parametrize("cells, train_accuracy, message", [
    ((-5, 1, 1, 1), 0.5, "confusion cells [-5, 1, 1, 1] must be >= 0, not all 0"),
    ((0, 0, 0, 0), 0.5, "confusion cells [0, 0, 0, 0] must be >= 0, not all 0"),
    ((1, 1, 1, 1), 1.5, "train accuracy out of [0, 1]: 1.5"),
])
def test_a_run_result_must_be_one_a_run_can_produce(cells, train_accuracy,
                                                    message):
    with pytest.raises(DataError) as err:
        RunResult("s", "psychometric", 0, train_accuracy,
                  ConfusionMatrix(*cells))
    assert str(err.value) == message


# commas, quotes, line breaks and non-ASCII text are frequent draws; no
# lone surrogate, which is not UTF-8 text and no sweep can write
_TEXT = (st.characters(exclude_categories=("Cs",))
         | st.sampled_from(',"\r\n é'))


@st.composite
def _sweeps(draw):
    """A SweepResult as a sweep makes it: each spec's seeds in order,
    each a valid run or a failure, and at times all of them failures."""
    names = draw(st.lists(st.text(_TEXT, min_size=1, max_size=6), min_size=1,
                          max_size=3, unique=True))
    seeds = draw(st.lists(st.integers(-2**63, 2**63 - 1), min_size=1,
                          max_size=3, unique=True))
    results, failures = [], []
    for name in names:
        battery = draw(st.sampled_from(BATTERIES))
        for seed in seeds:
            cells = draw(st.none() | st.tuples(*[st.integers(0, 40)] * 4))
            if cells is None or sum(cells) == 0:
                failures.append((name, seed, draw(st.text(_TEXT, max_size=12))))
                continue
            results.append(RunResult(name, battery, seed,
                                     draw(st.floats(0.0, 1.0)),
                                     ConfusionMatrix(*cells)))
    return SweepResult(results, failures, names, seeds)


@settings(max_examples=20, deadline=None)
@given(_sweeps())
def test_sweep_files_read_back_to_the_same_bytes(sweep):
    texts = (sweep.runs_csv_text(), sweep.summary_json_text())
    with tempfile.TemporaryDirectory() as tmp:
        paths = (Path(tmp, "runs.csv"), Path(tmp, "summary.json"))
        for path, text in zip(paths, texts):
            path.write_text(text, encoding="utf-8")
        back = SweepResult.from_files(*paths)
    assert (back.runs_csv_text(), back.summary_json_text()) == texts
    assert (back.seeds, back.failures) == (sweep.seeds, sweep.failures)
    assert back.results == sweep.results


def _run(name, seed):
    return RunResult(name, "psychometric", seed, 0.5,
                     ConfusionMatrix(1, 1, 1, 1))


@pytest.mark.parametrize("runs, failures, seeds, path, line", [
    # a seed outside the sweep's, in place of seed 1
    ([("a", 0), ("a", 7), ("a", 2)], [], [0, 1, 2], "runs.csv", 3),
    ([("a", 0), ("a", 2), ("a", 1)], [], [0, 1, 2], "runs.csv", 3),
    # seed 1 both ran and failed
    ([("a", 0), ("a", 1), ("a", 2)], [("a", 1)], [0, 1, 2], "runs.csv", 3),
    # where no run is out of place, summary.json's "seeds" line is named:
    # seed 2 neither ran nor failed, a failure's seed is not the sweep's,
    # a seed failed twice, spec b failed for seeds 0 and 1 alone, and
    # "seeds" lists seed 0 twice
    ([("a", 0), ("a", 1)], [], [0, 1, 2], "summary.json", 2),
    ([("a", 0), ("a", 1), ("a", 2)], [("b", 0), ("b", 1), ("b", 5)], [0, 1, 2],
     "summary.json", 2),
    ([("a", 0), ("a", 2)], [("a", 1), ("a", 1)], [0, 1, 2], "summary.json", 2),
    ([("a", 0), ("a", 1), ("a", 2)], [("b", 0), ("b", 1)], [0, 1, 2],
     "summary.json", 2),
    ([("a", 0), ("a", 1)], [], [0, 0, 1], "summary.json", 2),
    # spec b failed each seed once, but seed 2 is listed before seed 1:
    # summary.json names that failure's "seed" line
    ([("a", 0), ("a", 1), ("a", 2)], [("b", 0), ("b", 2), ("b", 1)], [0, 1, 2],
     "summary.json", 25),
], ids=["unknown-seed", "out-of-order", "ran-and-failed", "missing-seed",
        "failure-unknown-seed", "failed-twice", "failures-missing-seed",
        "seed-listed-twice", "failures-out-of-order"])
def test_sweep_files_must_run_or_fail_each_seed_once_in_order(
        tmp_path, runs, failures, seeds, path, line):
    # the files are the texts a sweep of these runs writes, so only the
    # seeds give them away
    sweep = SweepResult([_run(*run) for run in runs],
                        [(name, seed, "err") for name, seed in failures],
                        ["a"], seeds)
    paths = (tmp_path / "runs.csv", tmp_path / "summary.json")
    paths[0].write_text(sweep.runs_csv_text(), encoding="utf-8")
    paths[1].write_text(sweep.summary_json_text(), encoding="utf-8")
    with pytest.raises(ReportError, match="where a sweep of") as err:
        SweepResult.from_files(*paths)
    assert str(err.value).startswith(f"{tmp_path / path}:{line}: ")
    if path == "summary.json" and line > 2:  # the failure out of place
        text = paths[1].read_text(encoding="utf-8").split("\n")[line - 1]
        assert text.startswith('      "seed": ')


@pytest.mark.parametrize("runs, failures, path, line, got, want", [
    # runs a0, b0, a1, b1: each seed's runs are in order, but not each
    # spec's runs together
    ([("a", 0), ("b", 0), ("a", 1), ("b", 1)], [], "runs.csv", 3,
     "b,0,0.5,0.5,1,1,1,1", "a,1,0.5,0.5,1,1,1,1"),
    # the failures of b and c, interleaved alike
    ([("a", 0), ("a", 1)], [("b", 0), ("c", 0), ("b", 1), ("c", 1)],
     "summary.json", 23, '      "spec": "c",', '      "spec": "b",'),
    # runs a0, b1 and failures b0, a1: each spec's listed together, but
    # the failures in another spec order than the runs
    ([("a", 0), ("b", 1)], [("b", 0), ("a", 1)],
     "summary.json", 26, '      "spec": "b",', '      "spec": "a",'),
], ids=["runs", "failures", "failures-in-another-spec-order"])
def test_sweep_files_list_each_specs_runs_and_failures_together(
        tmp_path, runs, failures, path, line, got, want):
    sweep = SweepResult([_run(*run) for run in runs],
                        [(name, seed, "err") for name, seed in failures],
                        ["a", "b", "c"], [0, 1])
    paths = (tmp_path / "runs.csv", tmp_path / "summary.json")
    paths[0].write_text(sweep.runs_csv_text(), encoding="utf-8")
    paths[1].write_text(sweep.summary_json_text(), encoding="utf-8")
    with pytest.raises(ReportError) as err:
        SweepResult.from_files(*paths)
    assert str(err.value) == (f"{tmp_path / path}:{line}: reads {got!r} where "
                              f"a sweep of these runs writes {want!r}")


# ---------------------------------------------------------------- comparison


class _FakeResult:
    def __init__(self, battery, test_accuracy):
        self.battery = battery
        self.test_accuracy = test_accuracy


def test_comparison_identical_to_reference_is_zero_diff():
    results = [
        _FakeResult(battery, value / 100.0)
        for battery, value in REFERENCE_ACCURACIES.items()
    ]
    report = comparison_report(results, BaselineTable())
    assert report.mean_diff == pytest.approx(0.0, abs=1e-9)
    assert report.std_diff == pytest.approx(0.0, abs=1e-9)
    for row in report.rows:
        assert row.diff == pytest.approx(0.0, abs=1e-9)


def test_comparison_single_battery_std_zero():
    report = comparison_report([_FakeResult("dti", 0.80)], BaselineTable())
    assert report.std_diff == 0.0
    assert report.mean_diff == pytest.approx(5.0)  # 80% vs 75% reference


def test_comparison_two_battery_hand_calculation():
    # ours: psychometric 90%, dti 70% -> diffs +1.54, -5.0
    results = [_FakeResult("psychometric", 0.90), _FakeResult("dti", 0.70)]
    report = comparison_report(results, BaselineTable())
    diffs = sorted(row.diff for row in report.rows)
    assert diffs[0] == pytest.approx(-5.0)
    assert diffs[1] == pytest.approx(90.0 - 88.46)
    mean = (diffs[0] + diffs[1]) / 2
    assert report.mean_diff == pytest.approx(mean)
    # population std of two points is half their absolute difference
    assert report.std_diff == pytest.approx(abs(diffs[1] - diffs[0]) / 2)


def test_comparison_median_aggregation_per_battery():
    results = [
        _FakeResult("dti", 0.70),
        _FakeResult("dti", 0.80),
        _FakeResult("dti", 0.90),
    ]
    report = comparison_report(results, BaselineTable())
    assert report.rows[0].ours == pytest.approx(80.0)


def test_comparison_errors():
    with pytest.raises(ReportError):
        comparison_report([], BaselineTable())
    # antisaccade has no published reference value: our medians alone
    report = comparison_report(
        [_FakeResult("antisaccade", 0.8), _FakeResult("antisaccade", 0.6)],
        BaselineTable(),
    )
    assert [(r.battery, r.ours, r.reference, r.user, r.diff)
            for r in report.rows] == [("antisaccade", 70.0, None, None, None)]
    assert report.mean_diff is None and report.std_diff is None


def test_comparison_user_baselines_fill_missing_batteries():
    table = BaselineTable(user={"antisaccade": 66.0})
    report = comparison_report([_FakeResult("antisaccade", 0.8)], table)
    assert report.rows[0].user == 66.0
    assert report.rows[0].reference is None
    assert report.mean_diff is None  # diffs are against reference only
    text = report.to_text()
    assert "antisaccade" in text and "66.00" in text


@pytest.mark.parametrize("user, message", [
    ({"nonsense": 1.0}, "unknown battery 'nonsense'"),
    ({"dti": float("nan"), "nonsense": "x"}, "'dti' is not a number: nan"),
    ({"dti": float("-inf")}, "'dti' is not a number: -inf"),
    ({"dti": "x"}, "'dti' is not a number: 'x'"),
    ({"dti": True}, "'dti' is not a number: True"),
    ({"dti": None}, "'dti' is not a number: None"),
    ({"dti": 10**309}, "'dti' is not a number: 1000"),
])
def test_baseline_table_rejects_an_unknown_battery_or_a_value_that_is_not_finite(
        user, message):
    # the library, not only the report command, refuses a baseline that
    # comparison_report would print as nan% or ignore
    with pytest.raises(DataError, match=re.escape(message)):
        comparison_report([_FakeResult("dti", 0.8)], BaselineTable(user=user))
    table = BaselineTable(user={"dti": 70, "psychometric": -1e308})
    assert comparison_report([_FakeResult("dti", 0.8)], table).rows[0].user == 70


def test_reference_constants_are_the_published_values():
    assert REFERENCE_ACCURACIES == {
        "psychometric": 88.46,
        "prosaccade": 72.41,
        "memory-guided": 88.0,
        "dti": 75.0,
    }
