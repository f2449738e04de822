"""Activation, dense-layer, normalization, and config tests.

Gradient-bearing ops are validated against central finite differences;
forward ops against per-neuron loop oracles.
"""

import json
import math
import re
import warnings
from dataclasses import replace
from functools import partial

import numpy as np
import pytest

from fasdnet.errors import (
    ConfigError,
    ContractError,
    DataError,
    NonFiniteError,
    ShapeError,
)
from fasdnet.layers import (
    IDENTITY,
    MAX_EPOCHS,
    MAX_WIDTH,
    RELU,
    SIGMOID,
    SOFTMAX,
    Activation,
    DenseLayer,
    FeatureNormLayer,
    NetworkConfig,
    _backward_buffers,
    _backward_steps,
    _Forward,
    _forward_buffers,
    _layer_views,
    _parameters,
    activation_apply,
    activation_grad,
    dense_backward_from_delta,
    dense_forward,
    leaky_relu,
    network_backward,
    network_forward,
    network_init,
)
from fasdnet.rng import SeededRng

# ---------------------------------------------------------------- activations


def test_activation_kind_validation():
    with pytest.raises(ConfigError):
        Activation("tanh")
    with pytest.raises(ConfigError):
        leaky_relu(0.0)
    with pytest.raises(ConfigError):
        leaky_relu(1.0)
    with pytest.raises(ConfigError):
        Activation("relu", 0.5)  # slope only belongs to leaky_relu
    assert leaky_relu().slope == 0.01


def test_leaky_relu_pinned_values():
    z = np.array([[2.0, 0.0, -1.0]])
    out = activation_apply(leaky_relu(), z)
    assert out.tolist() == [[2.0, 0.0, -0.01]]


def test_leaky_relu_exact_piecewise():
    rng = np.random.default_rng(0)
    z = rng.uniform(-50, 50, size=(20, 20))
    out = activation_apply(leaky_relu(), z)
    pos = z >= 0
    assert np.array_equal(out[pos], z[pos])
    assert np.array_equal(out[~pos], 0.01 * z[~pos])


def test_sigmoid_at_zero_and_extremes():
    assert activation_apply(SIGMOID, np.array([[0.0]]))[0, 0] == 0.5
    # the stable form must not overflow at large |z|
    big = activation_apply(SIGMOID, np.array([[800.0, -800.0]]))
    assert big[0, 0] == pytest.approx(1.0)
    assert big[0, 1] == pytest.approx(0.0)
    assert np.all(np.isfinite(big))


def test_softmax_symmetric_and_stable():
    out = activation_apply(SOFTMAX, np.array([[1000.0, 1000.0]]))
    assert out.tolist() == [[0.5, 0.5]]
    out = activation_apply(SOFTMAX, np.array([[1e6, 0.0]]))
    assert np.all(np.isfinite(out))


def test_softmax_rows_sum_to_one():
    rng = np.random.default_rng(1)
    z = rng.uniform(-100, 100, size=(30, 4))
    out = activation_apply(SOFTMAX, z)
    np.testing.assert_allclose(out.sum(axis=1), 1.0, atol=1e-12)


def test_softmax_of_logits_2e308_apart_does_not_warn():
    # the max shift overflows to -inf, whose exp is exactly the 0 it
    # stands for, so the result is valid and the call stays quiet
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        out = activation_apply(SOFTMAX, np.array([[1e308, -1e308],
                                                  [-1e308, 1e308]]))
    assert out.tolist() == [[1.0, 0.0], [0.0, 1.0]]


def test_softmax_needs_two_columns():
    with pytest.raises(ConfigError):
        activation_apply(SOFTMAX, np.array([[1.0]]))


def test_relu_and_identity():
    z = np.array([[-2.0, 0.0, 3.0]])
    assert activation_apply(RELU, z).tolist() == [[0.0, 0.0, 3.0]]
    assert activation_apply(IDENTITY, z).tolist() == z.tolist()


def test_activation_grad_pinned_values():
    g = activation_grad(leaky_relu(), np.array([[2.0, -3.0]]))
    assert g.tolist() == [[1.0, 0.01]]
    # at exactly zero the derivative is pinned to the slope
    assert activation_grad(leaky_relu(), np.array([[0.0]]))[0, 0] == 0.01
    assert activation_grad(SIGMOID, np.array([[0.0]]))[0, 0] == 0.25


def test_activation_grad_rejects_softmax():
    with pytest.raises(ContractError):
        activation_grad(SOFTMAX, np.array([[1.0, 2.0]]))


def test_network_backward_rejects_a_hidden_softmax():
    # NetworkConfig forbids this stack, but network_backward takes raw
    # layers; it must refuse, as activation_grad does, not treat the
    # softmax derivative as 1
    rng = np.random.default_rng(4)
    layers = [DenseLayer(rng.normal(size=(3, 2)), np.zeros((1, 2)), SOFTMAX),
              DenseLayer(rng.normal(size=(2, 1)), np.zeros((1, 1)), SIGMOID)]
    caches, out = network_forward(layers, None, rng.normal(size=(5, 3)))
    with pytest.raises(ContractError, match="no standalone gradient"):
        network_backward(layers, caches, out / 5)
    # the pass training binds refuses it too
    grads = [np.empty_like(a) for layer in layers
             for a in (layer.weights, layer.bias)]
    with pytest.raises(ContractError, match="no standalone gradient"):
        _backward_steps(layers, caches, out / 5, grads,
                        _backward_buffers(layers, 5))


def test_activation_grad_matches_finite_differences():
    rng = np.random.default_rng(2)
    h = 1e-5
    for act in (IDENTITY, RELU, leaky_relu(), leaky_relu(0.2), SIGMOID):
        # stay away from the relu kink, where the derivative jumps
        z = rng.uniform(-5, 5, size=(6, 6))
        z[np.abs(z) < 1e-3] = 1.0
        fd = (activation_apply(act, z + h) - activation_apply(act, z - h)) / (
            2 * h
        )
        grad = activation_grad(act, z)
        np.testing.assert_allclose(grad, fd, rtol=1e-6, atol=1e-9)


# --------------------------------------------------------------- dense layers


def test_dense_forward_identity_network():
    layer = DenseLayer(np.eye(3), np.zeros((1, 3)), IDENTITY)
    x = np.array([[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]])
    z, out = dense_forward(layer, x)
    assert np.array_equal(out, x)
    assert np.array_equal(z, x)


def test_dense_forward_hand_case():
    layer = DenseLayer(np.array([[1.0], [1.0]]), np.array([[0.5]]), IDENTITY)
    _, out = dense_forward(layer, np.array([[1.0, 2.0]]))
    assert out.tolist() == [[3.5]]


def test_dense_forward_matches_neuron_loop_oracle():
    rng = np.random.default_rng(3)
    w = rng.standard_normal((6, 4))
    b = rng.standard_normal((1, 4))
    x = rng.standard_normal((5, 6))
    layer = DenseLayer(w, b, IDENTITY)
    _, out = dense_forward(layer, x)
    expected = np.zeros((5, 4))
    for i in range(5):
        for j in range(4):
            expected[i, j] = b[0, j] + sum(
                w[t, j] * x[i, t] for t in range(6)
            )
    np.testing.assert_allclose(out, expected, atol=1e-12)


def test_dense_forward_shape_error():
    layer = DenseLayer(np.zeros((3, 2)), np.zeros((1, 2)), IDENTITY)
    with pytest.raises(ShapeError):
        dense_forward(layer, np.zeros((4, 5)))


def test_dense_backward_from_delta_zero_upstream():
    rng = np.random.default_rng(4)
    layer = DenseLayer(rng.standard_normal((3, 2)),
                       rng.standard_normal((1, 2)), SIGMOID)
    x = rng.standard_normal((5, 3))
    z, _ = dense_forward(layer, x)
    delta = np.zeros((5, 2)) * activation_grad(SIGMOID, z)
    gw, gb, gx = dense_backward_from_delta(layer, x, delta)
    assert not gw.any() and not gb.any() and not gx.any()


def test_dense_backward_from_delta_linear_case():
    rng = np.random.default_rng(5)
    layer = DenseLayer(rng.standard_normal((3, 1)), np.zeros((1, 1)), IDENTITY)
    x = rng.standard_normal((4, 3))
    upstream = rng.standard_normal((4, 1))
    z, _ = dense_forward(layer, x)
    delta = upstream * activation_grad(IDENTITY, z)
    gw, gb, gx = dense_backward_from_delta(layer, x, delta)
    np.testing.assert_allclose(gw, x.T @ upstream, atol=1e-12)
    np.testing.assert_allclose(gb, upstream.sum(axis=0, keepdims=True),
                               atol=1e-12)
    np.testing.assert_allclose(gx, upstream @ layer.weights.T, atol=1e-12)


def test_dense_backward_from_delta_matches_finite_differences():
    # scalar objective: sum of outputs; perturb each weight/bias entry
    rng = np.random.default_rng(6)
    h = 1e-5
    for act in (SIGMOID, leaky_relu(), IDENTITY):
        w = rng.standard_normal((4, 3))
        b = rng.standard_normal((1, 3))
        x = rng.standard_normal((7, 4))
        layer = DenseLayer(w, b, act)
        z, _ = dense_forward(layer, x)
        delta = np.ones((7, 3)) * activation_grad(act, z)
        gw, gb, _ = dense_backward_from_delta(layer, x, delta)

        def objective(wm, bm):
            _, o = dense_forward(DenseLayer(wm, bm, act), x)
            return o.sum()

        for idx in np.ndindex(w.shape):
            wp, wm = w.copy(), w.copy()
            wp[idx] += h
            wm[idx] -= h
            fd = (objective(wp, b) - objective(wm, b)) / (2 * h)
            assert abs(gw[idx] - fd) <= 1e-5 * max(1.0, abs(fd))
        for idx in np.ndindex(b.shape):
            bp, bm = b.copy(), b.copy()
            bp[idx] += h
            bm[idx] -= h
            fd = (objective(w, bp) - objective(w, bm)) / (2 * h)
            assert abs(gb[idx] - fd) <= 1e-5 * max(1.0, abs(fd))


# -------------------------------------------------------- feature norm layer


def test_feature_norm_hand_cases():
    layer = FeatureNormLayer.fit(np.array([[5.0, 0.0], [5.0, 10.0],
                                             [5.0, 5.0]]))
    assert layer.means.tolist() == [5.0, 5.0]
    # constant column gets the std = 1 guard
    assert layer.stds[0] == 1.0
    # population convention: std of [0, 10, 5] about mean 5
    assert layer.stds[1] == pytest.approx(np.sqrt(50.0 / 3.0))

    two = FeatureNormLayer.fit(np.array([[0.0], [10.0]]))
    assert two.means[0] == 5.0 and two.stds[0] == 5.0


def test_feature_norm_two_row_zscores():
    layer = FeatureNormLayer.fit(np.array([[0.0, 4.0], [10.0, 8.0]]))
    out = layer.apply(np.array([[0.0, 4.0], [10.0, 8.0]]))
    np.testing.assert_allclose(out, [[-1.0, -1.0], [1.0, 1.0]], atol=1e-12)


def test_feature_norm_means_map_to_zero():
    rng = np.random.default_rng(7)
    x = rng.uniform(0, 100, size=(20, 5))
    layer = FeatureNormLayer.fit(x)
    out = layer.apply(layer.means.reshape(1, -1))
    np.testing.assert_allclose(out, 0.0, atol=1e-12)


def test_feature_norm_standardizes_training_data():
    rng = np.random.default_rng(8)
    x = rng.uniform(-3, 3, size=(50, 4)) * np.array([1, 10, 100, 0.1])
    layer = FeatureNormLayer.fit(x)
    out = layer.apply(x)
    np.testing.assert_allclose(out.mean(axis=0), 0.0, atol=1e-10)
    np.testing.assert_allclose(out.std(axis=0), 1.0, atol=1e-10)
    # refitting on the output is (approximately) the identity transform
    again = FeatureNormLayer.fit(out)
    np.testing.assert_allclose(again.means, 0.0, atol=1e-10)
    np.testing.assert_allclose(again.stds, 1.0, atol=1e-10)


def test_feature_norm_errors():
    with pytest.raises(DataError):
        FeatureNormLayer.fit(np.zeros((1, 3)))
    layer = FeatureNormLayer.fit(np.zeros((3, 3)))
    with pytest.raises(ShapeError):
        layer.apply(np.zeros((2, 4)))


# -------------------------------------------------------------- init/forward


def _config(layers, loss="sparse_categorical", **kw):
    defaults = dict(input_dim=20, use_feature_layer=False, epochs=10,
                    learning_rate=0.001, seed=0)
    defaults.update(kw)
    return NetworkConfig(layers=layers, loss=loss, **defaults)


@pytest.mark.parametrize("shape", [(3,), ()], ids=["row", "scalar"])
@pytest.mark.parametrize("call", [
    "network_forward", "dense_forward", "FeatureNormLayer.apply",
    "TrainedModel.predict", "TrainedModel.predict, feature layer",
    "dense_backward_from_delta", "network_backward"])
def test_an_input_with_no_row_axis_is_a_shape_error_naming_its_shape(
        call, shape):
    # a row of 3 features, or a scalar, used to index the missing row
    # axis and fail with IndexError
    from fasdnet.training import TrainedModel

    config = _config(((4, RELU), (2, SOFTMAX)), input_dim=3)
    layers = network_init(config, SeededRng(0))
    norm = FeatureNormLayer.fit(np.arange(6.0).reshape(2, 3))
    calls = {
        "network_forward": partial(network_forward, layers, None),
        "dense_forward": partial(dense_forward, layers[0]),
        "FeatureNormLayer.apply": norm.apply,
        "TrainedModel.predict": TrainedModel(config, None, layers).predict,
        "TrainedModel.predict, feature layer": TrainedModel(
            replace(config, use_feature_layer=True), norm, layers).predict,
        "dense_backward_from_delta": lambda x: dense_backward_from_delta(
            layers[0], x, np.zeros((1, 4))),
        "network_backward": lambda x: network_backward(layers[:1], [(x, x)], x),
    }
    with pytest.raises(ShapeError, match=re.escape(f"{shape}")):
        calls[call](np.zeros(shape))


def test_network_init_shapes():
    cfg = _config(((15, leaky_relu()), (2, SOFTMAX)))
    layers = network_init(cfg, SeededRng(0))
    assert [(l.in_dim, l.out_dim) for l in layers] == [(20, 15), (15, 2)]
    for layer in layers:
        assert layer.bias.shape == (1, layer.out_dim)
        assert not layer.bias.any()


def test_network_init_deterministic():
    cfg = _config(((15, leaky_relu()), (2, SOFTMAX)))
    a = network_init(cfg, SeededRng(42))
    b = network_init(cfg, SeededRng(42))
    for la, lb in zip(a, b):
        assert np.array_equal(la.weights, lb.weights)


def test_network_init_glorot_bounds_and_mean():
    cfg = _config(((100, leaky_relu()), (2, SOFTMAX)), input_dim=100)
    layers = network_init(cfg, SeededRng(9))
    w = layers[0].weights  # 10^4 draws
    bound = np.sqrt(6.0 / (100 + 100))
    assert np.all(np.abs(w) <= bound)
    # mean of n uniform(-b, b) draws has std b/sqrt(3n)
    se = bound / np.sqrt(3 * w.size)
    assert abs(w.mean()) < 3 * se


def test_network_forward_zero_layers():
    x = np.arange(6.0).reshape(2, 3)
    caches, out = network_forward([], None, x)
    assert caches == []
    assert np.array_equal(out, x)
    norm = FeatureNormLayer.fit(x)
    _, out2 = network_forward([], norm, x)
    np.testing.assert_allclose(out2, norm.apply(x), atol=1e-15)


def _root(a):
    while a.base is not None:
        a = a.base
    return a


def test_layers_share_one_activation_scratch_and_two_delta_buffers():
    cfg = _config(((64, SIGMOID), (128, RELU), (64, SIGMOID), (128, RELU),
                   (2, SOFTMAX)))
    _, layers = _stack([network_init(cfg, SeededRng(s)) for s in (0, 1)])
    forward = _forward_buffers(layers, 7)
    owners = [[_root(a) for a in group[:3]] for group in forward]
    assert len({id(work) for _, _, work in owners}) == 1
    assert len({id(a) for group in owners for a in group}) == 2 * len(layers) + 1
    backward = [[_root(a) for a in group] for group in _backward_buffers(layers, 7)]
    deltas = [delta for delta, _ in backward][::-1]  # from the last layer down
    assert len({id(d) for d in deltas}) == 2
    assert all(a is b for a, b in zip(deltas, deltas[2:]))
    assert all(a is not b for a, b in zip(deltas, deltas[1:]))
    assert len({id(work) for _, work in backward}) == 1
    assert all(backward[0][1] is not d for d in deltas)


def test_network_forward_output_shape():
    cfg = _config(((25, leaky_relu()), (20, leaky_relu()), (2, SOFTMAX)))
    layers = network_init(cfg, SeededRng(1))
    _, out = network_forward(layers, None, np.random.default_rng(2).standard_normal((1, 20)))
    assert out.shape == (1, 2)
    np.testing.assert_allclose(out.sum(), 1.0, atol=1e-12)


def test_network_forward_equals_manual_composition():
    rng = np.random.default_rng(10)
    cfg = _config(((8, SIGMOID), (4, leaky_relu()), (2, SOFTMAX)),
                  input_dim=5)
    layers = network_init(cfg, SeededRng(3))
    x = rng.standard_normal((6, 5))
    caches, out = network_forward(layers, None, x)

    cur = x
    for layer, (cached_in, cached_z) in zip(layers, caches):
        np.testing.assert_allclose(cached_in, cur, atol=1e-15)
        z, cur = dense_forward(layer, cur)
        np.testing.assert_allclose(cached_z, z, atol=1e-15)
    np.testing.assert_allclose(out, cur, atol=1e-15)


def test_network_backward_equals_per_layer_loop():
    rng = np.random.default_rng(11)
    cfg = _config(((8, SIGMOID), (6, leaky_relu()), (2, SOFTMAX)),
                  input_dim=5)
    layers = network_init(cfg, SeededRng(4))
    caches, _ = network_forward(layers, None, rng.standard_normal((7, 5)))
    top = rng.standard_normal((7, 2))
    grads = network_backward(layers, caches, top)

    expected, delta = [], top
    for i in (2, 1, 0):
        layer_x, z = caches[i]
        if i < 2:
            delta = delta * activation_grad(layers[i].activation, z)
        gw, gb, delta = dense_backward_from_delta(layers[i], layer_x, delta)
        expected[:0] = [gw, gb]
    assert len(grads) == 6
    for got, want in zip(grads, expected):
        assert np.array_equal(got, want)


def test_network_forward_guard_names_first_non_finite_layer():
    cfg = _config(((3, RELU), (3, RELU), (2, SOFTMAX)), input_dim=2)
    layers = network_init(cfg, SeededRng(5))
    layers[0].weights = np.ones((2, 3))
    layers[1].weights = np.full((3, 3), 1e307)
    x = np.full((2, 2), 10.0)
    with np.errstate(over="ignore", invalid="ignore"):
        caches, _ = network_forward(layers[:1], None, x)
        assert np.isfinite(caches[0][1]).all()
        with pytest.raises(NonFiniteError, match="layer 1 pre-activation"):
            network_forward(layers, None, x)


def test_stacked_network_equals_each_slot_bit_for_bit():
    rng = np.random.default_rng(12)
    cfg = _config(((8, SIGMOID), (6, leaky_relu()), (2, SOFTMAX)),
                  input_dim=5)
    nets = [network_init(cfg, SeededRng(s)) for s in (1, 2, 3)]
    x = rng.standard_normal((3, 7, 5))
    top = rng.standard_normal((3, 7, 2))
    _, stacked = _stack(nets)
    assert [(l.in_dim, l.out_dim) for l in stacked] == [(5, 8), (8, 6), (6, 2)]
    caches, out = network_forward(stacked, None, x)
    grads = network_backward(stacked, caches, top)
    for s, net in enumerate(nets):
        slot_caches, slot_out = network_forward(net, None, x[s])
        assert np.array_equal(out[s], slot_out)
        for (h, z), (slot_h, slot_z) in zip(caches, slot_caches):
            assert np.array_equal(h[s], slot_h) and np.array_equal(z[s], slot_z)
        slot_grads = network_backward(net, slot_caches, top[s])
        for got, want in zip(grads, slot_grads):
            assert np.array_equal(got[s], want)


def _stack(nets):
    """(theta, stack) as train_many builds them: a row of theta per
    network, its parameters laid end to end, and the stack's layers as
    views of theta."""
    theta = np.stack([np.concatenate(_parameters(net), axis=None) for net in nets])
    return theta, _layer_views(theta, nets[0])


def test_layer_views_of_theta_are_the_stack_and_a_row_is_its_network():
    cfg = _config(((8, SIGMOID), (6, leaky_relu()), (2, SOFTMAX)),
                  input_dim=5)
    nets = [network_init(cfg, SeededRng(s)) for s in (1, 2, 3)]
    theta, stacked = _stack(nets)
    assert theta.shape == (3, 5 * 8 + 8 + 8 * 6 + 6 + 6 * 2 + 2)
    for layer in stacked:
        for a in (layer.weights, layer.bias):
            assert np.shares_memory(a, theta)
    for s, net in enumerate(nets):
        row = theta[s].copy()
        for got, slot, want in zip(_layer_views(row, stacked), stacked, net):
            assert got.activation == want.activation
            for a, b, c in ((got.weights, slot.weights[s], want.weights),
                            (got.bias, slot.bias[s], want.bias)):
                assert a.shape == c.shape and np.shares_memory(a, row)
                assert a.tobytes() == b.tobytes() == c.tobytes()


def test_network_forward_guard_names_failing_stack_slots():
    cfg = _config(((3, RELU), (2, SOFTMAX)), input_dim=2)
    nets = [network_init(cfg, SeededRng(s)) for s in range(3)]
    nets[1][0].weights = np.full((2, 3), 1e307)
    x = np.full((3, 2, 2), 10.0)
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(NonFiniteError, match=r"layer 0 pre-activation "
                           r"is non-finite in stack slots \[1\]") as err:
            network_forward(_stack(nets)[1], None, x)
    assert (err.value.layer, err.value.slots) == (0, (1,))


def test_split_forward_names_the_first_blocks_failure_first():
    # two identity layers; slot 0's first block overflows at layer 1
    # (1e300 * 1e10), slot 1's second block holds an inf, non-finite
    # from layer 0 on. One pass per block names a slot's first block's
    # failure before its second's, so the split pass does too, though
    # it may be the later layer
    layers = [DenseLayer(np.ones((2, 1, 1)), np.zeros((2, 1, 1)), IDENTITY),
              DenseLayer(np.full((2, 1, 1), 1e10), np.zeros((2, 1, 1)),
                         IDENTITY)]
    x = np.ones((2, 4, 1))
    x[0, 1, 0], x[1, 3, 0] = 1e300, np.inf

    def failures(x, split=None):
        forward = _Forward(layers, x, _forward_buffers(layers, x.shape[-2]),
                           split)
        forward()
        return forward.failures()

    def per_block(split):
        return failures(x[:, split:].copy()) | failures(x[:, :split].copy())

    with np.errstate(over="ignore", invalid="ignore"):
        assert failures(x, 2) == per_block(2) == {0: 1, 1: 0}
        # slot 0's second block non-finite from layer 0 on as well: its
        # first block's layer 1 is still the one named
        x[0, 3, 0] = np.inf
        assert failures(x, 2) == per_block(2) == {0: 1, 1: 0}
        # with its first block finite, its second block's layer is named
        x[0, 1, 0] = 1.0
        assert failures(x, 2) == per_block(2) == {0: 0, 1: 0}
        # and with both finite, a split after every row is the plain pass
        x[0, 3, 0] = x[1, 3, 0] = 1.0
        forward = _Forward(layers, x, _forward_buffers(layers, 4), 4)
        assert forward()[1].tolist() == [[[1e10]] * 4] * 2
        assert forward.failures() == {}


# --------------------------------------------------------------- config type


def test_config_validation():
    with pytest.raises(ConfigError):
        _config(((2, SOFTMAX),), loss="binary")  # binary needs width 1
    with pytest.raises(ConfigError):
        _config(((1, SIGMOID),), loss="sparse_categorical")
    with pytest.raises(ConfigError):
        _config(((2, SOFTMAX), (2, SOFTMAX)))  # softmax mid-stack
    with pytest.raises(ConfigError):
        _config(((0, RELU), (2, SOFTMAX)))
    with pytest.raises(ConfigError):
        _config(((2, SOFTMAX),), epochs=0)
    with pytest.raises(ConfigError):
        _config(((2, SOFTMAX),), loss="hinge")
    with pytest.raises(ConfigError):
        _config(())


@pytest.mark.parametrize("epochs, width", [
    (MAX_EPOCHS + 1, 4), (10**30, 4), (3, MAX_WIDTH + 1), (3, 10**30)])
def test_config_rejects_epochs_or_a_width_over_its_cap(epochs, width):
    # rejected by the check alone: no array of either size is made
    with pytest.raises(ConfigError, match="must be in \\[1, "):
        _config(((width, RELU), (2, SOFTMAX)), epochs=epochs)


def test_config_json_round_trip_is_byte_stable():
    cfg = _config(((64, SIGMOID), (128, RELU), (1, SIGMOID)), loss="binary",
                  use_feature_layer=True, epochs=50, seed=77)
    text = cfg.to_json()
    back = NetworkConfig.from_json(text)
    assert back == cfg
    assert back.to_json() == text


def test_config_json_names_a_missing_field_and_a_wrong_type():
    good = json.loads(_config(((2, SOFTMAX),)).to_json())
    missing = {k: v for k, v in good.items() if k != "epochs"}
    with pytest.raises(ConfigError, match="missing field: 'epochs'"):
        NetworkConfig.from_dict(missing)
    for field, value in (("epochs", "5"), ("layers", [1]),
                         ("learning_rate", None), ("input_dim", [20]),
                         ("layers", [{"width": "two", "activation": "softmax"}])):
        with pytest.raises(ConfigError, match="field of the wrong type"):
            NetworkConfig.from_dict({**good, field: value})
    with pytest.raises(ConfigError, match="field of the wrong type"):
        NetworkConfig.from_json("[1, 2]")


def test_config_json_nested_too_deep_is_not_valid_json():
    # the parser's RecursionError, not a traceback
    with pytest.raises(ConfigError, match="config is not valid JSON"):
        NetworkConfig.from_json("[" * 10_000)


@pytest.mark.parametrize("field, value", [
    ("epochs", 2.5), ("epochs", True), ("epochs", 3.0), ("input_dim", 20.0),
    ("input_dim", False), ("seed", 1.5), ("seed", True), ("seed", "1"),
    ("learning_rate", True), ("learning_rate", "0.001"),
    ("learning_rate", [0.001]), ("use_feature_layer", 1),
    ("use_feature_layer", "true"), ("use_feature_layer", None),
    ("width", 4.7), ("width", 2.0), ("width", True),
])
def test_config_rejects_a_field_of_the_wrong_type_by_name(field, value):
    # a float count is not truncated and a bool is not a count, a step
    # size or a seed; each is a ConfigError naming the field, whether
    # the config comes from JSON or is built directly
    doc = json.loads(_config(((2, SOFTMAX),)).to_json())
    if field == "width":
        doc["layers"][0]["width"] = value
        name = "layer width"
    else:
        doc[field] = value
        name = field
    with pytest.raises(ConfigError, match=f"{name} must be .*, got"):
        NetworkConfig.from_dict(doc)
    with pytest.raises(ConfigError, match=f"{name} must be"):
        NetworkConfig.from_json(json.dumps(doc))


@pytest.mark.parametrize("rate", [
    0.0, -1e-3, math.nan, math.inf, pytest.param(10**400, id="int-beyond-double")])
def test_config_rejects_a_learning_rate_not_positive_and_finite(rate):
    # NaN compares false with everything, so "<= 0" alone let it through
    # to train as a divergence at epoch 1; an int compares exactly, so
    # 10**400 < inf held, and training could not convert it
    with pytest.raises(ConfigError, match="learning_rate must be positive"):
        _config(((2, SOFTMAX),), learning_rate=rate)


def test_config_takes_integer_and_number_fields_of_any_numeric_type():
    cfg = _config(((np.int64(2), SOFTMAX),), input_dim=np.int32(20),
                  epochs=np.int64(3), learning_rate=1, seed=np.uint8(4))
    assert cfg.layers[0][0] == 2 and type(cfg.layers[0][0]) is int
    assert replace(cfg, learning_rate=np.float32(0.5)).learning_rate == 0.5


def test_config_replace_revalidates():
    cfg = _config(((2, SOFTMAX),))
    changed = replace(cfg, seed=5, input_dim=7)
    assert changed.seed == 5 and changed.input_dim == 7
    assert changed.layers == cfg.layers
    assert cfg.seed == 0  # original untouched
    # replace runs __post_init__, so a bad override is still rejected
    with pytest.raises(ConfigError):
        replace(cfg, epochs=0)
