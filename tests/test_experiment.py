"""Registry, runner, sweep, confusion-matrix, and comparison tests."""

import ctypes
import faulthandler
import hashlib
import os
import pickle
import threading
from concurrent.futures.process import BrokenProcessPool
from dataclasses import replace

import numpy as np
import pytest

from fasdnet import experiment
from fasdnet.data import synthesize_dataset
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
)
from fasdnet.experiment import (
    REFERENCE_ACCURACIES,
    REGISTRY,
    SPEC_SETS,
    BaselineTable,
    ConfusionMatrix,
    ExperimentSpec,
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
        back = NetworkConfig.from_json(text)
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
        spec.ablate,
    )


def test_run_experiment_deterministic():
    ds = synthesize_dataset(20, 10, 2.0, SeededRng(5))
    spec = _short(REGISTRY["psychometric-feature-layer"], epochs=20)
    r1 = run_experiment_with_model(spec, ds, seed=4)[0]
    r2 = run_experiment_with_model(spec, ds, seed=4)[0]
    assert r1.test_accuracy == r2.test_accuracy
    assert r1.train_accuracy == r2.train_accuracy
    assert (r1.confusion.tp, r1.confusion.fp, r1.confusion.tn,
            r1.confusion.fn) == (
        r2.confusion.tp, r2.confusion.fp, r2.confusion.tn, r2.confusion.fn)
    assert r1.history.train_loss == r2.history.train_loss
    r3 = run_experiment_with_model(spec, ds, seed=5)[0]
    assert r3.history.train_loss != r1.history.train_loss


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
    ds = synthesize_dataset(15, 6, 2.0, SeededRng(10))
    base = REGISTRY["psychometric-feature-layer"]
    spec = ExperimentSpec(
        "ablated", base.battery, replace(base.config, epochs=5),
        base.train_fraction, base.balance, ("f00", "f03"),
    )
    result = run_experiment_with_model(spec, ds, seed=1)[0]
    assert result.spec_name == "ablated"
    # error path: unknown ablation name is annotated with the spec name
    bad = ExperimentSpec(
        "bad-ablate", base.battery, base.config, base.train_fraction,
        base.balance, ("not-a-feature",),
    )
    with pytest.raises(DataError, match="bad-ablate"):
        run_experiment_with_model(bad, ds, seed=1)


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
        0.75, False, (),
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
    # that OpenBLAS splits them between its threads
    set_threads = experiment._openblas("set_num_threads")
    if set_threads is None:
        pytest.skip("no OpenBLAS whose thread count can be set")
    set_threads.argtypes, set_threads.restype = [ctypes.c_int], None
    ds = synthesize_dataset(200, 48, 0.7, SeededRng(3))
    spec = _short(REGISTRY["table2-row9"], epochs=60)
    before = experiment._blas_threads()
    texts = []
    try:
        for threads in (1, 2):
            set_threads(threads)
            assert experiment._blas_threads() == threads
            result, model = run_experiment_with_model(spec, ds, 4)
            texts.append((model.to_json(), result.history.to_csv_text()))
    finally:
        set_threads(before)
    assert texts[0] == texts[1]


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


def test_reference_constants_are_the_published_values():
    assert REFERENCE_ACCURACIES == {
        "psychometric": 88.46,
        "prosaccade": 72.41,
        "memory-guided": 88.0,
        "dti": 75.0,
    }
