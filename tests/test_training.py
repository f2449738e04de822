"""Loss, Adam, and training-loop tests."""

import json
import math
import pickle
import tempfile
import warnings
from dataclasses import replace
from functools import partial
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from fasdnet.cli import _write_outputs
from fasdnet.data import SplitSpec, stratified_split, synthesize_dataset
from fasdnet.errors import (
    ConfigError,
    DataError,
    DivergenceError,
    NonFiniteError,
    ShapeError,
)
from fasdnet.layers import (
    BINARY,
    IDENTITY,
    RELU,
    SIGMOID,
    SOFTMAX,
    SPARSE_CATEGORICAL,
    DenseLayer,
    FeatureNormLayer,
    NetworkConfig,
    leaky_relu,
    network_init,
)
from fasdnet.rng import SeededRng
from fasdnet.training import (
    _BLOCK,
    AdamState,
    History,
    TrainedModel,
    _json_bytes,
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


def test_adam_step_returns_new_arrays_and_leaves_params_unchanged():
    # training's update writes theta in place; the public step does not
    rng = np.random.default_rng(5)
    params = [rng.standard_normal((2, 3)), rng.standard_normal((1, 3))]
    before = [p.copy() for p in params]
    new = adam_step(AdamState(params, 0.1), params,
                    [rng.standard_normal(p.shape) for p in params])
    for p, b, n in zip(params, before, new, strict=True):
        assert p.tobytes() == b.tobytes()
        assert not np.shares_memory(n, p)
        assert not np.array_equal(n, p)


def test_adam_step_leaves_the_callers_grads_unchanged():
    # training's update writes its step into the gradient; the public
    # step works on copies
    rng = np.random.default_rng(6)
    params = [rng.standard_normal((2, 3)), rng.standard_normal((1, 3))]
    grads = [rng.standard_normal(p.shape) for p in params]
    before = [g.copy() for g in grads]
    state = AdamState(params, 0.1)
    for _ in range(2):
        adam_step(state, params, grads)
        for g, b in zip(grads, before, strict=True):
            assert g.tobytes() == b.tobytes()


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
    cfg6 = replace(cfg, input_dim=6)
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
    assert f"layer {err.value.layer} pre-activation" in str(err.value)


def test_divergence_error_survives_pickle():
    # a run that diverges in a worker process reaches its parent pickled
    err = pickle.loads(pickle.dumps(
        DivergenceError("training diverged at epoch 3: layer 1 ...", 3, 1)))
    assert type(err) is DivergenceError
    assert (str(err), err.epoch, err.layer) == (
        "training diverged at epoch 3: layer 1 ...", 3, 1)
    # the layer is optional; an error made without one keeps None
    err = pickle.loads(pickle.dumps(DivergenceError("diverged", 2)))
    assert (str(err), err.epoch, err.layer) == ("diverged", 2, None)


def test_predict_on_overflowing_input_raises_non_finite():
    ds = _separable_set(4, 6)
    cfg = NetworkConfig(6, ((1, SIGMOID),), "binary", False, 3, 0.001, 0)
    model, _ = train(cfg, ds.x, ds.y, ds.x, ds.y)
    # every term of x @ W is +1e308 * |w|, so the sum overflows
    x = 1e308 * np.sign(model.layers[0].weights[:, 0]).reshape(1, -1)
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(NonFiniteError, match="layer 0 pre-activation"):
            model.predict(x)


def test_predict_on_near_overflow_softmax_model_does_not_warn():
    # finite logits 2e308 apart: softmax's max shift overflows to -inf,
    # whose exp is exactly 0, so the prediction is valid and stays quiet
    cfg = NetworkConfig(1, ((2, SOFTMAX),), SPARSE_CATEGORICAL, False, 1,
                        0.001, 0)
    layer = DenseLayer(np.array([[1e308, -1e308]]), np.zeros((1, 2)), SOFTMAX)
    model = TrainedModel(cfg, None, [layer])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert model.predict(np.array([[1.0], [-1.0]])).tolist() == [0, 1]


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


def _roots(obj) -> dict:
    """{id: array} of the arrays owning the memory of every array in
    obj: bound calls, their operands and closures, lists and tuples."""
    if isinstance(obj, np.ndarray):
        while obj.base is not None:
            obj = obj.base
        return {id(obj): obj}
    if isinstance(obj, partial):
        parts = [*obj.args, *obj.keywords.values()]
    elif isinstance(obj, (list, tuple)):
        parts = obj
    elif getattr(obj, "__closure__", None):
        parts = [cell.cell_contents for cell in obj.__closure__]
    else:
        return {}
    found = {}
    for part in parts:
        found |= _roots(part)
    return found


def test_a_workspace_holds_only_arrays_live_at_the_same_time(monkeypatch):
    # z and output per layer, one activation scratch over all rows; two
    # delta buffers and one derivative scratch over the training rows;
    # the gradient and one Adam scratch, as Adam's step goes into the
    # gradient
    from fasdnet import training
    from fasdnet.experiment import REGISTRY

    made = []

    class Recorded(training._Workspace):
        def __init__(self, *args):
            super().__init__(*args)
            made.append((self, args))

    monkeypatch.setattr(training, "_Workspace", Recorded)
    ds = synthesize_dataset(20, 20, 0.7, SeededRng(17))
    configs = [replace(REGISTRY["psychometric-feature-layer"].config,
                       epochs=2, seed=s) for s in (0, 1)]
    splits = [stratified_split(ds, SplitSpec(0.75, seed=s)) for s in (0, 1)]
    _train_stacked(configs, splits)
    [(ws, (_, _, state, theta, x, _, n, _))] = made
    calls = ws.first.steps + ws.forward.steps + ws.step + [ws.adam]
    inputs = _roots([theta, x, state.m, state.v])
    written = [a for key, a in _roots(calls).items()
               if key not in inputs and a.dtype == np.float64]
    slots, rows = x.shape[:2]
    widths = [width for width, _ in configs[0].layers]
    want = slots * (2 * rows * sum(widths) + rows * max(widths)
                    + 3 * n * max(widths) + 2 * theta.shape[1])
    assert sum(a.size for a in written) == want
    assert len(written) == 2 * len(widths) + 1 + 3 + 2


def test_a_stack_and_its_models_are_views_of_theta_and_of_its_rows(monkeypatch):
    # the stack's layers are views of theta; each trained model's, of a
    # copy of its slot's row, which holds the model's parameters
    from fasdnet import training
    from fasdnet.experiment import REGISTRY

    made = []

    class Recorded(training._Workspace):
        def __init__(self, *args):
            super().__init__(*args)
            made.append(args)

    monkeypatch.setattr(training, "_Workspace", Recorded)
    ds = synthesize_dataset(20, 20, 0.7, SeededRng(17))
    configs = [replace(REGISTRY["table2-row7"].config, epochs=3, seed=s)
               for s in (0, 1)]
    splits = [stratified_split(ds, SplitSpec(0.75, seed=s)) for s in (0, 1)]
    outcomes = _train_stacked(configs, splits)
    [(_, layers, _, theta, *_)] = made
    assert _roots([(l.weights, l.bias) for l in layers]).keys() == {id(theta)}
    for s, (model, _) in enumerate(outcomes):
        (row,) = _roots([(l.weights, l.bias) for l in model.layers]).values()
        assert row.shape == theta.shape[1:] and row.tobytes() == theta[s].tobytes()


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
            assert (str(got), got.epoch, got.layer) == (
                str(err), err.epoch, err.layer)
            epochs.append(err.epoch)
        else:
            _assert_same_run(got, want)
    assert len(epochs) not in (0, len(seeds)) and max(epochs) > 1


def test_train_many_survivors_of_mid_run_drops_write_their_solo_files():
    # slots 0, 1, 3 and 4 diverge at epochs 17-29, one or two at a time,
    # and compute on inf and NaN in their slots to the end of the run
    # while slots 2 and 5 train on; their model.json and history.csv
    # must be byte for byte what a run of their own writes, and no
    # numpy warning may escape train_many
    from fasdnet.experiment import REGISTRY

    ds = synthesize_dataset(20, 20, 0.7, SeededRng(3))
    seeds = list(range(6))
    configs = [replace(REGISTRY["psychometric-feature-layer"].config,
                       input_dim=20, epochs=30, learning_rate=7e151, seed=s)
               for s in seeds]
    splits = [stratified_split(ds, SplitSpec(0.75, seed=s)) for s in seeds]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        stacked = _train_stacked(configs, splits)
    dropped = [got.epoch for got in stacked if isinstance(got, DivergenceError)]
    assert len(dropped) == 4 and 1 < min(dropped) < max(dropped) < 30
    for config, (tr, te), got in zip(configs, splits, stacked):
        if isinstance(got, DivergenceError):
            continue
        model, history = train(config, tr.x, tr.y, te.x, te.y)
        assert got[0].to_json() == model.to_json()
        assert got[1].to_csv_text() == history.to_csv_text()


def test_train_many_drops_a_slot_whose_validation_pass_fails():
    # slot 1's validation set holds an inf cell, so only its validation
    # rows of epoch 1 are non-finite: its results are dropped, though its
    # training rows passed, and the other slots train on beside it
    from fasdnet.experiment import REGISTRY

    ds = synthesize_dataset(20, 20, 0.7, SeededRng(3))
    seeds = [0, 1, 2]
    configs = [replace(REGISTRY["table2-row5"].config, epochs=20, seed=s)
               for s in seeds]
    runs = [(tr.x, tr.y, te.x.copy(), te.y) for tr, te in
            (stratified_split(ds, SplitSpec(0.75, seed=s)) for s in seeds)]
    runs[1][2][3, 4] = np.inf
    stacked = train_many(configs, *(np.stack(a) for a in zip(*runs)))
    for config, run, got in zip(configs, runs, stacked):
        try:
            model, history = train(config, *run)
        except DivergenceError as err:
            assert isinstance(got, DivergenceError)
            assert (str(got), got.epoch, got.layer) == (
                str(err), err.epoch, err.layer)
            assert (got.epoch, got.layer) == (1, 0)
            continue
        assert got[0].to_json() == model.to_json()
        assert got[1].to_csv_text() == history.to_csv_text()
    assert [isinstance(got, DivergenceError) for got in stacked] == [
        False, True, False]


def _stack_with_scaled_validation_rows(spec_name, learning_rate, epochs,
                                       scales):
    """train_many over seeds 0, 1, ... of a registry spec, with slot s's
    validation rows multiplied by scales[s]; returns the configs, the
    per-slot runs and the stacked outcomes."""
    from fasdnet.experiment import REGISTRY

    ds = synthesize_dataset(20, 20, 0.7, SeededRng(3))
    configs = [replace(REGISTRY[spec_name].config, epochs=epochs,
                       learning_rate=learning_rate, seed=s)
               for s in range(len(scales))]
    with np.errstate(over="ignore"):
        runs = [(tr.x, tr.y, te.x * scale, te.y) for (tr, te), scale in zip(
            (stratified_split(ds, SplitSpec(0.75, seed=s))
             for s in range(len(scales))), scales)]
    return configs, runs, train_many(configs,
                                     *(np.stack(a) for a in zip(*runs)))


def _divergence(outcome):
    if not isinstance(outcome, DivergenceError):
        return None
    return str(outcome), outcome.epoch, outcome.layer


_DIVERGED = "training diverged at epoch {}: layer {} pre-activation is non-finite"


def _validation_layer_after_one_step(config, run) -> int:
    """The first layer at which the validation rows are non-finite after
    epoch 1's Adam step, replayed with the unbuffered public functions."""
    from fasdnet.layers import network_backward, network_forward, network_init

    x_tr, y_tr, x_va, _ = run
    layers = network_init(config, SeededRng(config.seed))
    with np.errstate(over="ignore", invalid="ignore"):
        caches, _ = network_forward(layers, None, x_tr)
        grads = network_backward(
            layers, caches, loss_grad(config.loss, caches[-1][1], y_tr))
        params = [a for layer in layers for a in (layer.weights, layer.bias)]
        new = adam_step(AdamState(params, config.learning_rate), params, grads)
        layers = [replace(layer, weights=new[2 * i], bias=new[2 * i + 1])
                  for i, layer in enumerate(layers)]
        with pytest.raises(NonFiniteError) as err:
            network_forward(layers, None, x_va)
    return err.value.layer


def test_train_many_names_the_training_rows_layer_before_the_validation_rows():
    # the first Adam step at this rate moves every weight by about
    # 3e101, so epoch 1's pass overflows in every slot's training rows,
    # at layer 2 or 3. Slots 1, 3 and 4 have their validation rows
    # scaled up, and those overflow earlier, at layer 1 or 0 (slot 4's
    # even before the first step); the training rows' layer is still
    # the one named. The expected errors are those of separate
    # training and validation passes
    from fasdnet.layers import network_forward, network_init

    configs, runs, stacked = _stack_with_scaled_validation_rows(
        "table2-row5", 3e101, 5, [1.0, 1e200, 1.0, 1e150, 1e307])
    assert [_validation_layer_after_one_step(configs[s], runs[s])
            for s in (1, 3, 4)] == [1, 1, 0]
    with np.errstate(over="ignore", invalid="ignore"), \
            pytest.raises(NonFiniteError, match="layer 0"):
        network_forward(network_init(configs[4], SeededRng(4)), None,
                        runs[4][2])
    assert [_divergence(got) for got in stacked] == [
        (_DIVERGED.format(1, layer), 1, layer) for layer in (2, 2, 3, 2, 3)]
    for config, run, got in zip(configs, runs, stacked):
        with pytest.raises(DivergenceError) as err:
            train(config, *run)
        assert _divergence(err.value) == _divergence(got)


def test_train_many_names_validation_only_overflows_and_trains_the_rest():
    # slots 1 and 3 have their validation rows scaled to about 1e307, so
    # layer 0 overflows there while their training rows stay finite:
    # slot 1 at epoch 1, slot 3 at epoch 6, once its weights have moved.
    # The expected errors are those of separate training and validation
    # passes; slots 0 and 2 train on and write their solo files
    configs, runs, stacked = _stack_with_scaled_validation_rows(
        "table2-row5", 0.001, 20, [1.0, 1e307, 1.0, 1.44e306])
    assert [_divergence(got) for got in stacked] == [
        None, (_DIVERGED.format(1, 0), 1, 0),
        None, (_DIVERGED.format(6, 0), 6, 0)]
    for s in (0, 2):
        model, history = train(configs[s], *runs[s])
        assert stacked[s][0].to_json() == model.to_json()
        assert stacked[s][1].to_csv_text() == history.to_csv_text()


@pytest.mark.parametrize("spec_name", ["table2-row1",
                                       "psychometric-feature-layer"])
def test_history_is_whole_across_block_boundaries(spec_name):
    # train_many scores the history _BLOCK epochs at a time. At every
    # epoch count around a block boundary, each run's history is the
    # start of the longest run's, and its last row is the loss and the
    # accuracy of the model it returns
    from fasdnet.experiment import REGISTRY

    ds = synthesize_dataset(20, 20, 0.7, SeededRng(17))
    seeds = [3, 4]
    splits = [stratified_split(ds, SplitSpec(0.75, seed=s)) for s in seeds]
    counts = (1, _BLOCK - 1, _BLOCK, _BLOCK + 1, 2 * _BLOCK + 3)
    runs = {epochs: _train_stacked(
        [replace(REGISTRY[spec_name].config, epochs=epochs, seed=s)
         for s in seeds], splits) for epochs in counts}
    names = ("train_loss", "train_acc", "val_loss", "val_acc")
    for epochs, outcomes in runs.items():
        for (model, history), (_, full), (tr, te) in zip(
                outcomes, runs[counts[-1]], splits):
            for name in names:
                assert getattr(history, name) == getattr(full, name)[:epochs]
            kind = model.config.loss
            assert [getattr(history, name)[-1] for name in names] == [
                loss_forward(kind, model.predict_proba(tr.x), tr.y),
                float(np.mean(model.predict(tr.x) == tr.y)),
                loss_forward(kind, model.predict_proba(te.x), te.y),
                float(np.mean(model.predict(te.x) == te.y))]


def test_train_many_drop_inside_the_second_block_keeps_solo_bytes():
    # at this learning rate seed 1 overflows at layer 2 in epoch 84
    # (recorded at the commit before block scoring), after the first
    # block of history rows is scored and with 19 epochs in the second;
    # seeds 0 and 2 train all 2 * _BLOCK + 3 epochs and must write what
    # a run of their own writes
    from fasdnet.experiment import REGISTRY

    ds = synthesize_dataset(20, 20, 0.7, SeededRng(3))
    seeds = [0, 1, 2]
    configs = [replace(REGISTRY["dti-leaky-100ep"].config, input_dim=20,
                       epochs=2 * _BLOCK + 3, learning_rate=7.39e151, seed=s)
               for s in seeds]
    splits = [stratified_split(ds, SplitSpec(0.75, seed=s)) for s in seeds]
    stacked = _train_stacked(configs, splits)
    assert _BLOCK < 84 < 2 * _BLOCK
    assert [_divergence(got) for got in stacked] == [
        None, (_DIVERGED.format(84, 2), 84, 2), None]
    for s in (0, 2):
        model, history = train(configs[s], splits[s][0].x, splits[s][0].y,
                               splits[s][1].x, splits[s][1].y)
        assert stacked[s][0].to_json() == model.to_json()
        assert stacked[s][1].to_csv_text() == history.to_csv_text()


def test_train_many_rejects_configs_that_differ_beyond_seed():
    ds = _separable_set(4, 6)
    cfg = NetworkConfig(6, ((1, SIGMOID),), "binary", False, 1, 0.001, 0)
    x, y = np.stack([ds.x, ds.x]), np.stack([ds.y, ds.y])
    with pytest.raises(ConfigError, match="only in seed"):
        train_many([cfg, replace(cfg, epochs=2)], x, y, x, y)
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
    _write_outputs(tmp_path, {"history.csv": h.to_csv_text()}, [], 0, "", "")
    rows = (tmp_path / "history.csv").read_text().splitlines()[1:]
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


def test_predict_labels_softmax_rows_take_the_first_maximum():
    # ties, the scan oracle and zero rows on a matrix are in test_matrix's
    # argmax_rows tests; here a NaN wins at its own column, and a stack
    rows = np.array([[0.0, -0.0], [np.nan, 0.5], [0.5, np.nan]])
    assert predict_labels(SPARSE_CATEGORICAL, rows).tolist() == [0, 0, 1]
    # against a scan that keeps the first strict maximum, on a stack
    a = np.random.default_rng(6).standard_normal((3, 10, 2))
    a[1, 4] = 0.25  # a tie
    expected = [[max(range(len(row)), key=lambda j: (row[j], -j))
                 for row in slot] for slot in a]
    got = predict_labels(SPARSE_CATEGORICAL, a)
    assert got.dtype == np.int64 and got.tolist() == expected


def _edited_model_json(edit) -> str:
    """model.json of a small two-layer feature-layer model, its document
    changed by edit."""
    config = NetworkConfig(3, ((4, leaky_relu()), (2, SOFTMAX)),
                           SPARSE_CATEGORICAL, True, 1, 0.001, 0)
    model = TrainedModel(config, FeatureNormLayer(np.zeros(3), np.ones(3)),
                         network_init(config, SeededRng(0)))
    doc = json.loads(model.to_json())
    edit(doc)
    return json.dumps(doc)


@pytest.mark.parametrize("text, problem", [
    ("not json", "not valid JSON"),
    ("{}", "missing field: 'config'"),
    ("[1]", "field of the wrong type"),
    pytest.param("[" * 10_000, "model is not valid JSON", id="nested-too-deep"),
    # an int beyond a double's range, which numpy will not read as one
    pytest.param(_edited_model_json(
        lambda doc: doc["layers"][0].update(bias=[10**400] * 4)),
        "field of the wrong type: int too large to convert to float",
        id="bias-beyond-the-double-range"),
    pytest.param(_edited_model_json(lambda doc: doc["layers"].pop()),
                 r"model layer 1 has .* None, its config \(\(4, 2\), "
                 r"\(2,\), Activation\(kind='softmax'", id="cut-to-one-layer"),
    pytest.param(_edited_model_json(
        lambda doc: doc["layers"][0].update(weights=5)),
        r"model layer 0 has \(weights shape, bias shape, activation\) "
        r"\(\(\), \(4,\), .*, its config \(\(3, 4\), \(4,\), ",
        id="scalar-weights"),
    pytest.param(_edited_model_json(
        lambda doc: doc["layers"][1].update(bias=[0.0])),
        r"model layer 1 has .* \(\(4, 2\), \(1,\), .*, its config "
        r"\(\(4, 2\), \(2,\), ", id="short-bias"),
    pytest.param(_edited_model_json(
        lambda doc: doc["layers"][0].update(slope=0.05)),
        "model layer 0 has .*slope=0.05.*, its config .*slope=0.01",
        id="other-slope"),
    pytest.param(_edited_model_json(lambda doc: doc.update(norm=None)),
                 "model norm shapes None do not match its config's "
                 "input_dim 3 and use_feature_layer True", id="missing-norm"),
    pytest.param(_edited_model_json(lambda doc: doc["norm"]["stds"].pop()),
                 r"model norm shapes \(\(3,\), \(2,\)\) do not match",
                 id="short-norm"),
    pytest.param(_edited_model_json(lambda doc: doc["norm"].update(
        stds=[0.0, 1.0, 1.0])), r"model norm stds must be finite and > 0, "
        r"got \[0\.0, 1\.0, 1\.0\]", id="zero-std"),
    pytest.param(_edited_model_json(lambda doc: doc["norm"].update(
        stds=[-1.0, 1.0, 1.0])), r"stds must be finite and > 0, "
        r"got \[-1\.0, 1\.0, 1\.0\]", id="negative-std"),
    pytest.param(_edited_model_json(lambda doc: doc["norm"].update(
        stds=[1.0, float("nan"), 1.0])), r"stds must be finite and > 0, "
        r"got \[1\.0, nan, 1\.0\]", id="nan-std"),
])
def test_trained_model_from_json_names_the_problem(text, problem):
    with pytest.raises(ConfigError, match=problem):
        TrainedModel.from_json(text)


def test_trained_model_json_round_trip():
    ds = _separable_set(5, 6)
    configs = [
        NetworkConfig(6, ((4, leaky_relu(0.05)), (2, SOFTMAX)),
                      "sparse_categorical", True, 10, 0.001, 8),
        # activations without a slope, and a normalization block
        NetworkConfig(6, ((5, RELU), (3, SIGMOID), (1, SIGMOID)),
                      "binary", True, 10, 0.001, 9),
    ]
    for cfg in configs:
        model, _ = train(cfg, ds.x, ds.y, ds.x, ds.y)
        back = TrainedModel.from_json(model.to_json())
        assert back.config == model.config
        assert np.array_equal(back.norm.means, model.norm.means)
        assert np.array_equal(back.norm.stds, model.norm.stds)
        for la, lb in zip(model.layers, back.layers):
            assert np.array_equal(la.weights, lb.weights)
            assert np.array_equal(la.bias, lb.bias)
            assert la.activation == lb.activation
        np.testing.assert_allclose(back.predict_proba(ds.x),
                                   model.predict_proba(ds.x), atol=0)
        # a second serialization is byte-identical
        assert back.to_json() == model.to_json()


# no deadline: these examples check bytes, not time, and shared machines
# stall now and then
PROPERTY_SETTINGS = settings(deadline=None, max_examples=100)
FINITE_SPECIAL = [0.0, -0.0, 5e-324, -5e-324, 1e-310, 1e-05, -1e-05, 1e16,
                  1e308, -1e308, 1.7976931348623157e308, 0.1, -1.0 / 3.0]
FINITE = st.one_of(st.sampled_from(FINITE_SPECIAL),
                   st.floats(allow_nan=False, allow_infinity=False))
ANY_FLOAT = st.one_of(st.sampled_from([float("nan"), float("inf"),
                                       float("-inf")]), FINITE)
HIDDEN = st.sampled_from([IDENTITY, RELU, SIGMOID, leaky_relu(),
                          leaky_relu(0.3)])


def _json_oracle(model) -> str:
    """model.json as json.dumps writes it from nested lists."""
    norm = model.norm
    doc = {
        "config": model.config.to_dict(),
        "norm": None if norm is None else {"means": norm.means.tolist(),
                                           "stds": norm.stds.tolist()},
        "layers": [{"weights": layer.weights.tolist(),
                    "bias": layer.bias[0].tolist(),
                    **layer.activation.to_dict()}
                   for layer in model.layers],
    }
    return json.dumps(doc, indent=2) + "\n"


@st.composite
def trained_models(draw):
    """A TrainedModel of one to four layers of random widths, with or
    without norm statistics, whose numbers include -0.0, subnormals,
    1e-05, 1e16 and +-1e308."""
    loss = draw(st.sampled_from([SPARSE_CATEGORICAL, BINARY]))
    output = (2, SOFTMAX) if loss == SPARSE_CATEGORICAL else (1, SIGMOID)
    hidden = draw(st.lists(st.tuples(st.integers(1, 6), HIDDEN), max_size=3))
    input_dim = draw(st.integers(1, 6))
    use_norm = draw(st.booleans())
    config = NetworkConfig(input_dim, tuple(hidden) + (output,), loss,
                           use_norm, draw(st.integers(1, 10**6)),
                           draw(st.floats(1e-300, 10.0)),
                           draw(st.integers(0, 2**64 - 1)))
    widths = [input_dim] + [width for width, _ in config.layers]
    layers = [
        DenseLayer(draw(hnp.arrays(np.float64, (fan_in, fan_out),
                                   elements=FINITE)),
                   draw(hnp.arrays(np.float64, (1, fan_out), elements=FINITE)),
                   act)
        for fan_in, (fan_out, act) in zip(widths, config.layers)
    ]
    norm = None
    if use_norm:
        # from_json reads only the stds FeatureNormLayer.fit writes,
        # finite and > 0; zero and negative numbers stay in the means
        norm = FeatureNormLayer(*(
            draw(hnp.arrays(np.float64, input_dim, elements=elements))
            for elements in (FINITE, FINITE.filter(lambda v: v > 0))))
    return TrainedModel(config, norm, layers)


@PROPERTY_SETTINGS
@given(trained_models())
def test_model_json_is_json_dumps_text_and_reads_back_bit_for_bit(model):
    text = model.to_json()
    assert text == _json_oracle(model)
    back = TrainedModel.from_json(text)
    assert back.config == model.config
    for got, want in zip(back.layers, model.layers):
        # tobytes: -0.0 must keep its sign bit
        assert got.weights.tobytes() == want.weights.tobytes()
        assert got.bias.tobytes() == want.bias.tobytes()
        assert got.activation == want.activation
    if model.norm is None:
        assert back.norm is None
    else:
        assert back.norm.means.tobytes() == model.norm.means.tobytes()
        assert back.norm.stds.tobytes() == model.norm.stds.tobytes()


def _json_text(doc) -> str:
    return b"".join(_json_bytes(doc)).decode()


# float64 arrays of one to three dimensions, NaN and +-inf included (a
# 0-d array, which no model holds, orjson writes as a list)
ARRAYS = hnp.arrays(np.float64, hnp.array_shapes(min_dims=1, max_dims=3,
                                                 min_side=0, max_side=5),
                    elements=ANY_FLOAT)


@PROPERTY_SETTINGS
@given(ARRAYS, ANY_FLOAT, st.integers())
def test_json_writer_matches_json_on_any_array(a, x, n):
    # NaN and +-inf come out as json's NaN/Infinity, empty arrays as [];
    # a.T and a[::-1] are views orjson cannot write as they are, and n
    # may be outside the 64 bits orjson writes
    doc = {"a": a, "views": [a.T, a[::-1]],
           "nested": [a, {"b": a, "empty": {}}, []], "none": None,
           "float": x, "int": n}
    want = {"a": a.tolist(), "views": [a.T.tolist(), a[::-1].tolist()],
            "nested": [a.tolist(), {"b": a.tolist(), "empty": {}}, []],
            "none": None, "float": x, "int": n}
    assert _json_text(doc) == json.dumps(want, indent=2) + "\n"
    assert _json_text(a) == json.dumps(a.tolist(), indent=2) + "\n"


@PROPERTY_SETTINGS
@given(trained_models(), st.data())
def test_model_json_of_any_numbers_and_views_is_json_dumps_text(model, data):
    # to_json writes whatever numbers a model holds, and each weight
    # matrix here is a transposed view; the norm is present or None
    for layer in model.layers:
        layer.weights = data.draw(hnp.arrays(
            np.float64, layer.weights.shape[::-1], elements=ANY_FLOAT)).T
        layer.bias = data.draw(hnp.arrays(np.float64, layer.bias.shape,
                                          elements=ANY_FLOAT))
    if model.norm is not None:
        model.norm = FeatureNormLayer(*(
            data.draw(hnp.arrays(np.float64, model.norm.means.shape,
                                 elements=ANY_FLOAT)) for _ in range(2)))
    text = model.to_json()
    assert text == _json_oracle(model)
    # train hands _write_outputs the writer, which streams the dump's
    # slices and fills to the file: the same bytes as the text's
    with tempfile.TemporaryDirectory() as tmp:
        _write_outputs(Path(tmp), {"model.json": model.to_json}, [], 0, "", "")
        assert Path(tmp, "model.json").read_bytes() == text.encode()


def test_json_writer_on_non_finite_and_empty_arrays():
    inf, nan = float("inf"), float("nan")
    assert _json_text(np.array([1.0, nan, -inf, inf])) == (
        "[\n  1.0,\n  NaN,\n  -Infinity,\n  Infinity\n]\n")
    assert _json_text({"w": np.array([[0.5, inf], [-0.0, 2.0]])}) == (
        '{\n  "w": [\n    [\n      0.5,\n      Infinity\n    ],\n'
        '    [\n      -0.0,\n      2.0\n    ]\n  ]\n}\n')
    for shape in ((0,), (0, 3), (2, 0)):
        a = np.empty(shape)
        assert _json_text([a]) == json.dumps([a.tolist()], indent=2) + "\n"


def test_json_writer_refuses_a_string_that_holds_null(tmp_path, monkeypatch):
    # each null in orjson's text must be one of the writer's own, and a
    # model whose dump is refused writes no byte of model.json
    doc = {"name": "null", "norm": None}
    with pytest.raises(ValueError, match="orjson wrote 2 nulls for 1 fills"):
        _json_bytes(doc)
    config = NetworkConfig(3, ((2, SOFTMAX),), SPARSE_CATEGORICAL, False, 1,
                           0.001, 0)
    model = TrainedModel(config, None, network_init(config, SeededRng(0)))
    monkeypatch.setattr(model, "_json_doc", lambda: doc)
    with pytest.raises(ValueError, match="orjson wrote 2 nulls for 1 fills"):
        _write_outputs(tmp_path, {"model.json": model.to_json}, [], 0, "", "")
    assert (tmp_path / "model.json").read_bytes() == b""


@settings(deadline=None, max_examples=25)
@given(st.lists(st.integers(0, 40), min_size=1, max_size=5, unique=True),
       st.sampled_from([SPARSE_CATEGORICAL, BINARY]), st.booleans(),
       st.integers(1, 20))
def test_train_many_on_any_seeds_writes_each_seeds_solo_files(
        seeds, loss, use_norm, epochs):
    ds = synthesize_dataset(6, 4, 1.0, SeededRng(11))
    output = (2, SOFTMAX) if loss == SPARSE_CATEGORICAL else (1, SIGMOID)
    configs = [NetworkConfig(4, ((3, leaky_relu()), output), loss, use_norm,
                             epochs, 0.01, seed) for seed in seeds]
    splits = [stratified_split(ds, SplitSpec(0.75, seed=s)) for s in seeds]
    for config, (tr, te), got in zip(configs, splits,
                                     _train_stacked(configs, splits)):
        model, history = train(config, tr.x, tr.y, te.x, te.y)
        assert got[0].to_json() == model.to_json()
        assert got[1].to_csv_text() == history.to_csv_text()


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


def _replay(config, x_tr, y_tr, x_va, y_va):
    """train's epochs by hand, every array new: network_forward,
    loss_grad, network_backward and a per-tensor adam_step with no
    buffers. Returns (final layers, History)."""
    from fasdnet.layers import network_backward, network_forward, network_init

    kind = config.loss
    layers = network_init(config, SeededRng(config.seed))
    params = [a for layer in layers for a in (layer.weights, layer.bias)]
    state = AdamState(params, config.learning_rate)
    history = History()
    caches, _ = network_forward(layers, None, x_tr)
    for _ in range(config.epochs):
        grads = network_backward(layers, caches,
                                 loss_grad(kind, caches[-1][1], y_tr))
        params = adam_step(state, params, grads)
        for i, layer in enumerate(layers):
            layer.weights, layer.bias = params[2 * i], params[2 * i + 1]
        caches, tr_probs = network_forward(layers, None, x_tr)
        va_probs = network_forward(layers, None, x_va)[1]
        for probs, y, loss, acc in (
                (tr_probs, y_tr, history.train_loss, history.train_acc),
                (va_probs, y_va, history.val_loss, history.val_acc)):
            loss.append(loss_forward(kind, probs, y))
            acc.append(float(np.mean(predict_labels(kind, probs) == y)))
    return layers, history


@pytest.mark.parametrize("spec_name", ["table2-row7", "dti-leaky-100ep"])
def test_train_many_equals_a_replay_with_no_buffers(spec_name):
    # the validation set has as many rows as the training set but other
    # contents, so a validation pass written into the training pass's
    # buffers would change the next step and the training history
    from fasdnet.experiment import REGISTRY

    ds = synthesize_dataset(12, 20, 0.7, SeededRng(8))
    seeds = [0, 1, 2]
    configs = [replace(REGISTRY[spec_name].config, input_dim=20,
                       use_feature_layer=False, epochs=12, seed=s)
               for s in seeds]
    splits = [stratified_split(ds, SplitSpec(0.5, seed=s)) for s in seeds]
    assert splits[0][0].n_rows == splits[0][1].n_rows
    stacked = _train_stacked(configs, splits)
    for config, (tr, te), (model, history) in zip(configs, splits, stacked):
        layers, want = _replay(config, tr.x, tr.y, te.x, te.y)
        assert history.to_csv_text() == want.to_csv_text()
        assert history.train_loss != history.val_loss
        for layer, ref in zip(model.layers, layers, strict=True):
            assert layer.weights.tobytes() == ref.weights.tobytes()
            assert layer.bias.tobytes() == ref.bias.tobytes()
