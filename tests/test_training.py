"""Loss, Adam, and training-loop tests."""

import math
from dataclasses import replace

import numpy as np
import pytest

from fasdnet.data import SplitSpec, stratified_split, synthesize_dataset
from fasdnet.errors import (
    ConfigError,
    DataError,
    DivergenceError,
    NonFiniteError,
    ShapeError,
)
from fasdnet.layers import (
    SIGMOID,
    SOFTMAX,
    NetworkConfig,
    leaky_relu,
)
from fasdnet.rng import SeededRng
from fasdnet.training import (
    BINARY,
    SPARSE_CATEGORICAL,
    AdamState,
    History,
    TrainedModel,
    adam_step,
    loss_forward,
    loss_grad,
    predict_labels,
    train,
    train_many,
)

# ---------------------------------------------------------------------- loss


def test_loss_perfect_prediction_is_zero():
    # clamping caps certainty at 1 - 1e-12, so "zero" means ~1e-12
    probs = np.array([[1.0, 0.0], [0.0, 1.0]])
    assert abs(loss_forward(SPARSE_CATEGORICAL, probs, [0, 1])) < 1e-9
    assert abs(loss_forward(BINARY, np.array([[1.0], [0.0]]), [1, 0])) < 1e-9


def test_loss_uniform_prediction_is_ln2():
    probs = np.array([[0.5, 0.5]] * 4)
    for labels in ([0, 0, 0, 0], [1, 1, 1, 1], [0, 1, 0, 1]):
        assert abs(loss_forward(SPARSE_CATEGORICAL, probs, labels)
                   - math.log(2.0)) < 1e-9
    assert abs(loss_forward(BINARY, np.full((4, 1), 0.5), [0, 1, 1, 0])
               - math.log(2.0)) < 1e-9


def test_loss_matches_per_sample_loop_oracle():
    rng = np.random.default_rng(0)
    for _ in range(5):
        p1 = rng.uniform(0.01, 0.99, size=(12, 1))
        probs = np.hstack([1.0 - p1, p1])
        labels = rng.integers(0, 2, size=12)
        expected = -sum(
            math.log(probs[i, labels[i]]) for i in range(12)
        ) / 12
        got = loss_forward(SPARSE_CATEGORICAL, probs, labels)
        assert abs(got - expected) < 1e-12
        got_b = loss_forward(BINARY, p1, labels)
        assert abs(got_b - expected) < 1e-12


def test_loss_is_nonnegative():
    rng = np.random.default_rng(1)
    for _ in range(20):
        p1 = rng.uniform(0, 1, size=(8, 1))
        labels = rng.integers(0, 2, size=8)
        assert loss_forward(BINARY, p1, labels) >= 0.0


def test_loss_rejects_bad_labels():
    probs = np.array([[0.5, 0.5]])
    with pytest.raises(DataError):
        loss_forward(SPARSE_CATEGORICAL, probs, [2])
    with pytest.raises(ShapeError):
        loss_forward(SPARSE_CATEGORICAL, probs, [0, 1])
    with pytest.raises(ShapeError):
        loss_forward(SPARSE_CATEGORICAL, np.zeros((1, 3)), [0])
    with pytest.raises(ConfigError):
        loss_forward("mse", probs, [0])


def test_loss_grad_is_p_minus_y_over_n():
    # softmax(log p) == p, so feed log-probabilities as pre-activations
    z = np.log(np.array([[0.7, 0.3]]))
    grad = loss_grad(SPARSE_CATEGORICAL, z, [0])
    np.testing.assert_allclose(grad, [[-0.3, 0.3]], atol=1e-12)

    # sigmoid(0) = 0.5; single binary sample, label 1
    grad_b = loss_grad(BINARY, np.array([[0.0]]), [1])
    np.testing.assert_allclose(grad_b, [[-0.5]], atol=1e-12)


def test_loss_grad_zero_at_perfect_prediction():
    # extreme logits drive p to the one-hot label; gradient vanishes
    z = np.array([[50.0, -50.0], [-50.0, 50.0]])
    grad = loss_grad(SPARSE_CATEGORICAL, z, [0, 1])
    np.testing.assert_allclose(grad, 0.0, atol=1e-20)


def test_loss_grad_matches_finite_differences():
    from fasdnet.layers import activation_apply

    rng = np.random.default_rng(2)
    h = 1e-5
    z = rng.standard_normal((6, 2))
    labels = rng.integers(0, 2, size=6)
    grad = loss_grad(SPARSE_CATEGORICAL, z, labels)
    for idx in np.ndindex(z.shape):
        zp, zm = z.copy(), z.copy()
        zp[idx] += h
        zm[idx] -= h
        lp = loss_forward(SPARSE_CATEGORICAL, activation_apply(SOFTMAX, zp), labels)
        lm = loss_forward(SPARSE_CATEGORICAL, activation_apply(SOFTMAX, zm), labels)
        fd = (lp - lm) / (2 * h)
        assert abs(grad[idx] - fd) < 1e-6

    zb = rng.standard_normal((6, 1))
    grad_b = loss_grad(BINARY, zb, labels)
    for idx in np.ndindex(zb.shape):
        zp, zm = zb.copy(), zb.copy()
        zp[idx] += h
        zm[idx] -= h
        lp = loss_forward(BINARY, activation_apply(SIGMOID, zp), labels)
        lm = loss_forward(BINARY, activation_apply(SIGMOID, zm), labels)
        assert abs(grad_b[idx] - (lp - lm) / (2 * h)) < 1e-6


# ---------------------------------------------------------------------- adam


def test_adam_zero_gradient_is_identity():
    p = [np.array([[1.0, -2.0]]), np.array([[3.0]])]
    state = AdamState(p, 0.001)
    cur = p
    for _ in range(10):
        cur = adam_step(state, cur, [np.zeros_like(q) for q in cur])
    assert np.array_equal(cur[0], p[0])
    assert np.array_equal(cur[1], p[1])
    assert state.t == 10


def test_adam_first_step_magnitude_is_learning_rate():
    for g in (1e-3, 1.0, 1e3):
        theta = np.array([[0.0]])
        state = AdamState([theta], 0.001)
        out = adam_step(state, [theta], [np.array([[g]])])
        assert abs(abs(out[0][0, 0]) - 0.001) < 1e-6


def test_adam_first_step_scale_invariance():
    # Adam normalizes by the gradient's running magnitude, so the first
    # step barely depends on |g|
    steps = []
    for g in (1e3, 1e-3):
        theta = np.array([[0.0]])
        state = AdamState([theta], 0.001)
        out = adam_step(state, [theta], [np.array([[g]])])
        steps.append(abs(out[0][0, 0]))
    assert abs(steps[0] - steps[1]) / steps[0] < 0.01


def test_adam_quadratic_convergence():
    theta = np.array([[1.0]])
    state = AdamState([theta], 0.1)
    cur = [theta]
    for _ in range(200):
        cur = adam_step(state, cur, [2.0 * cur[0]])
    assert abs(cur[0][0, 0]) < 0.05


def test_adam_state_invariants():
    p = [np.zeros((2, 3))]
    state = AdamState(p, 0.01)
    rng = np.random.default_rng(3)
    cur = p
    for step in range(1, 6):
        cur = adam_step(state, cur, [rng.standard_normal((2, 3))])
        assert state.t == step
        assert all(np.all(v >= 0.0) for v in state.v)
        assert state.m[0].shape == (2, 3)


def test_adam_shape_mismatch():
    p = [np.zeros((2, 2))]
    state = AdamState(p, 0.01)
    with pytest.raises(ShapeError):
        adam_step(state, p, [np.zeros((2, 3))])


# --------------------------------------------------------------------- train


def _separable_set(n_per_class=8, n_features=20, seed=5):
    return synthesize_dataset(n_per_class, n_features, 6.0, SeededRng(seed))


def test_train_fits_separable_data():
    ds = _separable_set()
    cfg = NetworkConfig(
        input_dim=20,
        layers=((25, leaky_relu()), (20, leaky_relu()), (2, SOFTMAX)),
        loss="sparse_categorical",
        use_feature_layer=False,
        epochs=1000,
        learning_rate=0.001,
        seed=1,
    )
    model, history = train(cfg, ds.x, ds.y, ds.x, ds.y)
    assert history.train_acc[-1] == 1.0
    assert np.array_equal(model.predict(ds.x), ds.y)


def test_train_single_epoch_history_length():
    ds = _separable_set(4, 6)
    cfg = NetworkConfig(6, ((1, SIGMOID),), "binary", False, 1, 0.001, 0)
    _, history = train(cfg, ds.x, ds.y, ds.x, ds.y)
    assert len(history) == 1
    assert len(history.val_acc) == 1


def test_train_is_deterministic():
    ds = _separable_set(6, 8, seed=9)
    tr, te = stratified_split(ds, SplitSpec(0.75, seed=2))
    cfg = NetworkConfig(8, ((10, SIGMOID), (1, SIGMOID)), "binary", True,
                        25, 0.001, 42)
    _, h1 = train(cfg, tr.x, tr.y, te.x, te.y)
    _, h2 = train(cfg, tr.x, tr.y, te.x, te.y)
    assert h1.train_loss == h2.train_loss  # bit-identical, not approx
    assert h1.val_loss == h2.val_loss
    assert h1.train_acc == h2.train_acc


def test_train_shape_and_empty_checks():
    ds = _separable_set(4, 6)
    cfg = NetworkConfig(7, ((1, SIGMOID),), "binary", False, 1, 0.001, 0)
    with pytest.raises(ShapeError):
        train(cfg, ds.x, ds.y, ds.x, ds.y)
    cfg6 = cfg.with_overrides(input_dim=6)
    with pytest.raises(ShapeError):
        train(cfg6, ds.x, ds.y[:3], ds.x, ds.y)
    with pytest.raises(DataError):
        train(cfg6, ds.x[:0], ds.y[:0], ds.x, ds.y)


def test_train_divergence_names_epoch():
    ds = _separable_set(6, 6)
    cfg = NetworkConfig(6, ((8, leaky_relu()), (8, leaky_relu()), (1, SIGMOID)),
                        "binary", True, 50, 1e200, 3)
    with pytest.raises(DivergenceError) as err:
        train(cfg, ds.x, ds.y, ds.x, ds.y)
    assert err.value.epoch >= 1
    assert f"epoch {err.value.epoch}" in str(err.value)
    assert "layer" in str(err.value)


def test_predict_on_overflowing_input_raises_non_finite():
    ds = _separable_set(4, 6)
    cfg = NetworkConfig(6, ((1, SIGMOID),), "binary", False, 3, 0.001, 0)
    model, _ = train(cfg, ds.x, ds.y, ds.x, ds.y)
    # every term of x @ W is +1e308 * |w|, so the sum overflows
    x = 1e308 * np.sign(model.layers[0].weights[:, 0]).reshape(1, -1)
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(NonFiniteError, match="layer 0 pre-activation"):
            model.predict(x)


def test_train_loss_never_explodes_tenfold():
    # divergence guard on the synthetic suite: later loss stays within
    # 10x of any earlier epoch's loss
    for sep, seed in ((6.0, 0), (2.0, 1), (0.0, 2)):
        ds = synthesize_dataset(15, 10, sep, SeededRng(seed))
        cfg = NetworkConfig(10, ((16, SIGMOID), (1, SIGMOID)), "binary",
                            True, 60, 0.001, seed)
        _, h = train(cfg, ds.x, ds.y, ds.x, ds.y)
        worst_later = np.maximum.accumulate(h.train_loss[::-1])[::-1]
        assert np.all(worst_later <= 10.0 * np.asarray(h.train_loss) + 1e-12)


def test_feature_layer_fitted_on_train_only():
    ds = synthesize_dataset(10, 4, 1.0, SeededRng(4))
    tr, te = stratified_split(ds, SplitSpec(0.8, seed=0))
    cfg = NetworkConfig(4, ((1, SIGMOID),), "binary", True, 5, 0.001, 0)
    model, _ = train(cfg, tr.x, tr.y, te.x, te.y)
    np.testing.assert_allclose(model.norm.means, tr.x.mean(axis=0), atol=1e-12)
    # population std, not sample std
    np.testing.assert_allclose(model.norm.stds, tr.x.std(axis=0), atol=1e-12)


# ------------------------------------------------------------ stacked train


def _train_stacked(configs, splits):
    """train_many on one (train, test) split per config."""
    return train_many(
        configs,
        np.stack([tr.x for tr, _ in splits]),
        np.stack([tr.y for tr, _ in splits]),
        np.stack([te.x for _, te in splits]),
        np.stack([te.y for _, te in splits]),
    )


def _assert_same_run(got, want):
    (model, history), (ref_model, ref_history) = got, want
    for name in ("train_loss", "train_acc", "val_loss", "val_acc"):
        assert getattr(history, name) == getattr(ref_history, name)
    assert model.config == ref_model.config
    assert len(model.layers) == len(ref_model.layers)
    for layer, ref in zip(model.layers, ref_model.layers):
        assert np.array_equal(layer.weights, ref.weights)
        assert np.array_equal(layer.bias, ref.bias)
    if ref_model.norm is None:
        assert model.norm is None
    else:
        assert np.array_equal(model.norm.means, ref_model.norm.means)
        assert np.array_equal(model.norm.stds, ref_model.norm.stds)


@pytest.mark.parametrize("spec_name, epochs", [
    ("table2-row5", 300),                # sparse categorical, raw features
    ("psychometric-feature-layer", 50),  # binary, feature layer
])
def test_train_many_equals_per_seed_train(spec_name, epochs):
    from fasdnet.experiment import REGISTRY

    ds = synthesize_dataset(20, 20, 0.7, SeededRng(17))
    seeds = [3, 4, 5, 6]
    configs = [replace(REGISTRY[spec_name].config, epochs=epochs, seed=s)
               for s in seeds]
    # equal shapes, different rows per slot
    splits = [stratified_split(ds, SplitSpec(0.75, seed=s)) for s in seeds]
    stacked = _train_stacked(configs, splits)
    for config, (tr, te), got in zip(configs, splits, stacked):
        _assert_same_run(got, train(config, tr.x, tr.y, te.x, te.y))


def test_train_many_drops_diverging_slots_and_carries_on():
    # at this learning rate four seeds overflow at epochs 12-18 and two
    # finish; each slot must match training it alone
    from fasdnet.experiment import REGISTRY

    ds = synthesize_dataset(20, 20, 0.7, SeededRng(3))
    seeds = list(range(6))
    configs = [replace(REGISTRY["dti-leaky-100ep"].config, input_dim=20,
                       epochs=30, learning_rate=1e152, seed=s)
               for s in seeds]
    splits = [stratified_split(ds, SplitSpec(0.75, seed=s)) for s in seeds]
    stacked = _train_stacked(configs, splits)
    epochs = []
    for config, (tr, te), got in zip(configs, splits, stacked):
        try:
            want = train(config, tr.x, tr.y, te.x, te.y)
        except DivergenceError as err:
            assert isinstance(got, DivergenceError)
            assert (str(got), got.epoch) == (str(err), err.epoch)
            epochs.append(err.epoch)
        else:
            _assert_same_run(got, want)
    assert len(epochs) not in (0, len(seeds)) and max(epochs) > 1


def test_train_many_rejects_configs_that_differ_beyond_seed():
    ds = _separable_set(4, 6)
    cfg = NetworkConfig(6, ((1, SIGMOID),), "binary", False, 1, 0.001, 0)
    x, y = np.stack([ds.x, ds.x]), np.stack([ds.y, ds.y])
    with pytest.raises(ConfigError, match="only in seed"):
        train_many([cfg, cfg.with_overrides(epochs=2)], x, y, x, y)
    with pytest.raises(ShapeError, match="stacked"):
        train_many([cfg], x, y, x, y)


# ----------------------------------------------------------- history + model


def test_history_csv_format():
    h = History(
        train_loss=[0.5, 0.25],
        train_acc=[0.75, 1.0],
        val_loss=[0.6, 0.3],
        val_acc=[0.5, 1.0],
    )
    text = h.to_csv_text()
    lines = text.splitlines()
    assert lines[0] == "epoch,train_loss,train_acc,val_loss,val_acc"
    assert lines[1] == "1,0.5,0.75,0.6,0.5"
    assert lines[2] == "2,0.25,1.0,0.3,1.0"
    assert text.endswith("\n")


def test_history_csv_round_trips_floats_exactly(tmp_path):
    ds = _separable_set(4, 5)
    cfg = NetworkConfig(5, ((3, SIGMOID), (1, SIGMOID)), "binary", False,
                        7, 0.001, 1)
    _, h = train(cfg, ds.x, ds.y, ds.x, ds.y)
    path = tmp_path / "history.csv"
    h.write_csv(path)
    rows = path.read_text().splitlines()[1:]
    for i, row in enumerate(rows):
        cells = row.split(",")
        assert int(cells[0]) == i + 1
        assert float(cells[1]) == h.train_loss[i]  # repr round-trip is exact
        assert float(cells[3]) == h.val_loss[i]


def test_predict_labels_threshold_matches_argmax():
    rng = np.random.default_rng(6)
    p1 = rng.uniform(0, 1, size=(50, 1))
    p1[0, 0] = 0.5  # force the tie case
    two_col = np.hstack([1.0 - p1, p1])
    assert np.array_equal(
        predict_labels(BINARY, p1),
        predict_labels(SPARSE_CATEGORICAL, two_col),
    )
    assert predict_labels(BINARY, np.array([[0.5]]))[0] == 0


def test_trained_model_json_round_trip():
    ds = _separable_set(5, 6)
    cfg = NetworkConfig(6, ((4, leaky_relu(0.05)), (2, SOFTMAX)),
                        "sparse_categorical", True, 10, 0.001, 8)
    model, _ = train(cfg, ds.x, ds.y, ds.x, ds.y)
    back = TrainedModel.from_json(model.to_json())
    assert back.config == model.config
    for la, lb in zip(model.layers, back.layers):
        assert np.array_equal(la.weights, lb.weights)
        assert np.array_equal(la.bias, lb.bias)
        assert la.activation == lb.activation
    np.testing.assert_allclose(back.predict_proba(ds.x),
                               model.predict_proba(ds.x), atol=0)
    # a second serialization is byte-identical
    assert back.to_json() == model.to_json()


def test_update_then_measure_epoch_semantics():
    # history row k reflects parameters after update k+1; replay one
    # step by hand and require an exact match with the recorded loss
    ds = _separable_set(8, 6)
    cfg = NetworkConfig(6, ((1, SIGMOID),), "binary", False, 1, 0.5, 3)
    from fasdnet.layers import network_backward, network_forward, network_init

    layers = network_init(cfg, SeededRng(cfg.seed))
    caches, probs0 = network_forward(layers, None, ds.x)
    loss0 = loss_forward(BINARY, probs0, ds.y)
    grads = network_backward(layers, caches,
                             loss_grad(BINARY, caches[0][1], ds.y))
    state = AdamState([layers[0].weights, layers[0].bias], cfg.learning_rate)
    new_w, new_b = adam_step(state, [layers[0].weights, layers[0].bias],
                             grads)
    layers[0].weights, layers[0].bias = new_w, new_b
    _, probs1 = network_forward(layers, None, ds.x)
    loss1 = loss_forward(BINARY, probs1, ds.y)

    _, h = train(cfg, ds.x, ds.y, ds.x, ds.y)
    assert h.train_loss[0] != loss0
    assert h.train_loss[0] == loss1  # bit-identical replay
