"""Acceptance gate: ten numbered end-to-end checks at fixed tolerances.

Each test prints one ``criterion N PASS`` line when it succeeds, so a
verbose run doubles as a checklist. The tests deliberately re-derive
expectations with independent oracles (finite differences, loop sums,
arithmetic recomputation) instead of trusting library internals.
"""

import math
import time

import numpy as np
import pytest

from fasdnet.cli import main as cli_main
from fasdnet.data import (
    DTI,
    MEMORY_GUIDED,
    PROSACCADE,
    PSYCHOMETRIC,
    SCHEMAS,
    Dataset,
    SplitSpec,
    balance_downsample,
    load_csv,
    stratified_split,
    synthesize_dataset,
    write_csv,
)
from fasdnet.experiment import (
    REFERENCE_ACCURACIES,
    REGISTRY,
    BaselineTable,
    comparison_report,
    resolve_specs,
    run_experiment_with_model,
    run_sweep,
)
from fasdnet.layers import (
    activation_apply,
    leaky_relu,
    network_backward,
    network_forward,
    network_init,
)
from fasdnet.rng import SeededRng
from fasdnet.training import (
    AdamState,
    adam_step,
    loss_forward,
    loss_grad,
    train,
)

pytestmark = pytest.mark.filterwarnings(
    "ignore:.*accepted as a subset:UserWarning")


# ------------------------------------------------------------------ helpers


def _network_loss(layers, kind, x, y):
    _, probs = network_forward(layers, None, x)
    return loss_forward(kind, probs, y)


def _analytic_grads(layers, kind, x, y):
    """The same backward pass the trainer runs, one gradient per array."""
    caches, _ = network_forward(layers, None, x)
    return network_backward(layers, caches, loss_grad(kind, caches[-1][1], y))


def _random_batch(rng, n_rows, n_features):
    x = np.array(
        [[rng.next_normal() for _ in range(n_features)] for _ in range(n_rows)]
    )
    y = np.array([i % 2 for i in range(n_rows)], dtype=np.int64)
    return x, y


# ---------------------------------------------------------------- criteria


def test_criterion_01_gradients_match_finite_differences():
    # three registry architectures spanning both model families; every
    # single parameter is perturbed, none are sampled away
    start = time.perf_counter()
    rng = SeededRng(4242)
    h = 1.0e-5
    checked = 0
    for spec_name in ("table2-row1", "table2-row5", "antisaccade-128x2"):
        config = REGISTRY[spec_name].config
        layers = network_init(config, rng.derive(checked))
        x, y = _random_batch(rng, 8, config.input_dim)
        analytic = _analytic_grads(layers, config.loss, x, y)
        params = []
        for layer in layers:
            params.extend([layer.weights, layer.bias])
        for p_idx, p in enumerate(params):
            grad = analytic[p_idx]
            it = np.nditer(p, flags=["multi_index"])
            for _ in it:
                idx = it.multi_index
                orig = p[idx]
                p[idx] = orig + h
                up = _network_loss(layers, config.loss, x, y)
                p[idx] = orig - h
                down = _network_loss(layers, config.loss, x, y)
                p[idx] = orig
                fd = (up - down) / (2.0 * h)
                assert abs(grad[idx] - fd) <= 1.0e-5 * max(1.0, abs(fd)), (
                    f"{spec_name} param {p_idx}{idx}: "
                    f"analytic {grad[idx]} vs fd {fd}"
                )
                checked += 1
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0, f"gradient check took {elapsed:.1f}s"
    print(f"criterion 1 PASS: {checked} parameter gradients within 1e-5 "
          f"of central differences across 3 architectures ({elapsed:.1f}s)")


def test_criterion_02_leaky_relu_pinned_values():
    x = np.array([[-10.0, -1.0, 0.0, 1.0, 10.0]])
    expected = np.array([[-0.1, -0.01, 0.0, 1.0, 10.0]])
    out = activation_apply(leaky_relu(0.01), x)
    assert np.array_equal(out, expected)
    print("criterion 2 PASS: leaky-relu pinned table exact at slope 0.01")


def test_criterion_03_loss_oracles():
    # uniform prediction -> ln 2, in both output regimes
    uniform_soft = np.full((6, 2), 0.5)
    labels = np.array([0, 1, 0, 1, 0, 1], dtype=np.int64)
    assert abs(loss_forward("sparse_categorical", uniform_soft, labels)
               - math.log(2.0)) < 1.0e-9
    uniform_bin = np.full((6, 1), 0.5)
    assert abs(loss_forward("binary", uniform_bin, labels)
               - math.log(2.0)) < 1.0e-9

    # perfect prediction -> zero (up to the documented probability clamp)
    perfect = np.array([[1.0, 0.0], [0.0, 1.0]])
    assert abs(loss_forward("sparse_categorical", perfect,
                            np.array([0, 1]))) < 1.0e-9

    # batch loss equals a per-sample loop oracle
    rng = SeededRng(31)
    p = np.array([0.05 + 0.9 * rng.next_uniform() for _ in range(40)])
    y = np.array([rng.next_below(2) for _ in range(40)], dtype=np.int64)
    soft = np.column_stack([1.0 - p, p])
    oracle = sum(-math.log(soft[i, y[i]]) for i in range(40)) / 40.0
    assert abs(loss_forward("sparse_categorical", soft, y) - oracle) < 1.0e-12
    oracle_bin = sum(
        -math.log(p[i] if y[i] == 1 else 1.0 - p[i]) for i in range(40)
    ) / 40.0
    assert abs(loss_forward("binary", p.reshape(-1, 1), y)
               - oracle_bin) < 1.0e-12
    print("criterion 3 PASS: ln2 within 1e-9, perfect within 1e-9, "
          "loop oracle within 1e-12")


def test_criterion_04_adam_sanity():
    # 200 steps on the quadratic theta^2 from theta = 1 at lr = 0.1
    theta = [np.array([[1.0]])]
    state = AdamState(theta, 0.1)
    for _ in range(200):
        theta = adam_step(state, theta, [2.0 * theta[0]])
    final = abs(theta[0].item())
    assert final < 0.05

    # first step has magnitude ~= lr whenever the gradient clears epsilon
    lr = 0.001
    sizes = []
    for g in (1.0e-3, 1.0, 1.0e3):
        p = [np.array([[0.0]])]
        s = AdamState(p, lr)
        p = adam_step(s, p, [np.array([[g]])])
        step = abs(p[0].item())
        assert abs(step - lr) < 1.0e-6, f"|g|={g}: first step {step}"
        sizes.append(step)

    # scale invariance across six orders of magnitude of gradient
    assert abs(sizes[0] - sizes[-1]) / sizes[-1] < 0.01
    print(f"criterion 4 PASS: |theta|(200) = {final:.2e} < 0.05; "
          "first steps within 1e-6 of lr; scale drift < 1%")


def test_criterion_05_overfits_separable_set():
    start = time.perf_counter()
    ds = synthesize_dataset(8, 20, 6.0, SeededRng(7))
    config = REGISTRY["table2-row3"].config  # the 25-20 hidden stack
    model, history = train(config, ds.x, ds.y, ds.x, ds.y)
    elapsed = time.perf_counter() - start
    best = max(history.train_acc)
    assert best == 1.0, f"train accuracy peaked at {best}"
    assert elapsed < 5.0, f"overfit run took {elapsed:.1f}s"
    first_hit = 1 + history.train_acc.index(1.0)
    print(f"criterion 5 PASS: 100% train accuracy by epoch {first_hit} "
          f"of {config.epochs} ({elapsed:.1f}s)")


def test_criterion_06_signal_recovery_and_chance_floor():
    start = time.perf_counter()
    specs = resolve_specs("feature-layer")
    seeds = range(10)
    strong = run_sweep(specs, synthesize_dataset(60, 20, 6.0,
                                                 SeededRng(1234)), seeds)
    none = run_sweep(specs, synthesize_dataset(60, 20, 0.0,
                                               SeededRng(1234)), seeds)
    assert not strong.failures and not none.failures
    strong_stats = strong.per_spec_stats()
    none_stats = none.per_spec_stats()
    assert len(strong_stats) == len(none_stats) == 5
    for s in strong_stats:
        assert s.median_test_accuracy >= 0.90, (
            f"{s.name}: median {s.median_test_accuracy} at separation 6")
    for s in none_stats:
        assert 0.35 <= s.median_test_accuracy <= 0.65, (
            f"{s.name}: median {s.median_test_accuracy} at separation 0")
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0, f"signal-recovery sweep took {elapsed:.1f}s"
    lo = min(s.median_test_accuracy for s in strong_stats)
    print(f"criterion 6 PASS: separation-6 medians all >= {lo:.3f}; "
          f"separation-0 medians inside [0.35, 0.65] ({elapsed:.1f}s)")


def test_criterion_07_pipeline_properties():
    # downsampling leaves exactly equal class counts
    rng = SeededRng(55)
    x = np.array([[rng.next_normal() for _ in range(5)] for _ in range(50)])
    y = np.array([1] * 20 + [0] * 30, dtype=np.int64)
    ds = Dataset("synthetic", tuple(f"f{j}" for j in range(5)), x, y)
    balanced = balance_downsample(ds, SeededRng(1))
    assert balanced.class_counts() == (20, 20)

    # stratified split: disjoint, exhaustive, proportions within 1 sample
    train_set, test_set = stratified_split(
        balanced, SplitSpec(0.75, seed=9))
    rows = lambda d: {tuple(r) + (int(lbl),) for r, lbl in zip(d.x, d.y)}
    assert rows(train_set) | rows(test_set) == rows(balanced)
    assert rows(train_set) & rows(test_set) == set()
    for cls in (0, 1):
        got = int(np.sum(train_set.y == cls))
        assert abs(got - 0.75 * 20) <= 1.0

    # CSV round trip is bit-exact
    import io, tempfile, pathlib
    with tempfile.TemporaryDirectory() as tmp:
        path = pathlib.Path(tmp) / "roundtrip.csv"
        write_csv(balanced, path)
        first = path.read_bytes()
        reloaded = load_csv(path, "synthetic")
        assert np.array_equal(reloaded.x, balanced.x)
        write_csv(reloaded, path)
        assert path.read_bytes() == first

    # schema constants
    expected = {
        PSYCHOMETRIC: (20, 129),
        "antisaccade": (15, 174),
        PROSACCADE: (18, 186),
        MEMORY_GUIDED: (26, 154),
        DTI: (48, 76),
    }
    for battery, (n_feat, n_rows) in expected.items():
        schema = SCHEMAS[battery]
        assert schema.expected_feature_count == n_feat
        assert schema.expected_rows == n_rows
    print("criterion 7 PASS: balance exact, split disjoint/exhaustive "
          "within 1 sample, CSV bit-exact, schema constants pinned")


def test_criterion_08_sweep_command_is_byte_deterministic(tmp_path):
    data = tmp_path / "data.csv"
    assert cli_main(["synth", "--samples-per-class", "20", "--features",
                     "20", "--separation", "2.0", "--seed", "6",
                     "--out", str(data)]) == 0
    outs = []
    for name in ("a", "b"):
        out = tmp_path / name
        code = cli_main(["sweep", "--data", str(data), "--battery",
                         "psychometric", "--specs",
                         "psychometric-feature-layer,table2-row3",
                         "--seeds", "0,1", "--out-dir", str(out)])
        assert code == 0
        outs.append(out)
    first = (outs[0] / "runs.csv").read_bytes()
    assert first == (outs[1] / "runs.csv").read_bytes()
    n_rows = len(first.decode().splitlines()) - 1
    print(f"criterion 8 PASS: repeated sweep invocations wrote "
          f"byte-identical runs.csv ({n_rows} runs)")


def test_criterion_09_feature_layer_advantage_and_gap_ordering():
    # published headline accuracies are constants for reporting, never
    # regression targets: no seeds or exact splits exist to replay them
    assert REFERENCE_ACCURACIES == {
        PSYCHOMETRIC: 88.46,
        PROSACCADE: 72.41,
        MEMORY_GUIDED: 88.0,
        DTI: 75.0,
    }

    class _Shim:
        def __init__(self, battery, test_accuracy):
            self.battery = battery
            self.test_accuracy = test_accuracy

    report = comparison_report(
        [_Shim(b, 0.5) for b in REFERENCE_ACCURACIES], BaselineTable())
    text = report.to_text()
    for constant in ("88.46", "72.41", "88.00", "75.00", "75.55"):
        assert constant in text, f"reference constant {constant} not reported"

    # qualitative substitute on mixed-scale synthetic data: the
    # standardizing configuration beats the raw 25-20 stack by >= 5 points
    # of median test accuracy, and the 200-50-50 stack overfits harder
    ds = synthesize_dataset(40, 20, 1.2, SeededRng(2024))
    specs = [REGISTRY["table2-row3"], REGISTRY["table2-row9"],
             REGISTRY["psychometric-feature-layer"]]
    sweep = run_sweep(specs, ds, range(10))
    assert not sweep.failures
    stats = {s.name: s for s in sweep.per_spec_stats()}
    advantage = (stats["psychometric-feature-layer"].median_test_accuracy
                 - stats["table2-row3"].median_test_accuracy)
    assert advantage >= 0.05, f"feature-layer advantage only {advantage:.3f}"
    gap_wide = stats["table2-row9"].median_gap
    gap_small = stats["table2-row3"].median_gap
    assert gap_wide > gap_small, (
        f"200-50-50 gap {gap_wide:.3f} not above 25-20 gap {gap_small:.3f}")
    print(f"criterion 9 PASS: reference constants reported; feature-layer "
          f"advantage {100 * advantage:.1f}pp >= 5pp; generalization gap "
          f"{100 * gap_wide:.1f}pp > {100 * gap_small:.1f}pp")


def test_criterion_10_conforming_battery_csv_runs_end_to_end(tmp_path):
    # fabricate a file that satisfies the psychometric contract exactly:
    # 20 features, 129 rows, both classes present (58 positive)
    rng = SeededRng(99)
    n_rows, n_fasd = 129, 58
    names = tuple(
        ["age", "sex", "verbal_iq", "performance_iq"]
        + [f"scale_{k:02d}" for k in range(16)]
    )
    x = np.array(
        [[rng.next_normal() for _ in range(20)] for _ in range(n_rows)])
    y = np.array([1] * n_fasd + [0] * (n_rows - n_fasd), dtype=np.int64)
    ds = Dataset(PSYCHOMETRIC, names, x, y)
    path = tmp_path / "psychometric.csv"
    write_csv(ds, path)

    loaded = load_csv(path, PSYCHOMETRIC)  # exact schema: no warning
    result, _ = run_experiment_with_model(
        REGISTRY["psychometric-feature-layer"], loaded, 3)

    # balance to 58 per class, then an 80/20 stratified split keeps
    # ceil(0.8 * 58) = 47 per class for training
    expected_test = 2 * (n_fasd - math.ceil(0.8 * n_fasd))
    assert expected_test == 22
    cm = result.confusion
    assert cm.tp + cm.fp + cm.tn + cm.fn == expected_test
    assert cm.total == expected_test
    # deliberately no accuracy assertion: external data makes no promises
    print(f"criterion 10 PASS: conforming battery file trained end to end; "
          f"confusion cells sum to the {expected_test}-row test partition")
