"""Bit-identity properties of the fused elementwise kernels.

Each kernel of the training step is compared, element by element and
bit for bit, with the textbook formula it replaces. The formulas live
here as oracles. Inputs are 2-D or stacked (S, rows, cols) arrays that
mix ordinary doubles with -0.0, subnormals, +-1e308, +-inf, NaN and
exact zeros.

The public passes allocate their buffers; the training loop binds each
pass once to buffers of its own (layers._Forward, the _*_steps lists
and training._adam) and runs it every epoch, into buffers that still
hold an earlier epoch's numbers. The last properties here run those
bound passes, into buffers full of NaN and more than once, and check
that they give the bits of the public passes, and that a forward pass
split into two row blocks gives the bits and the per-slot failures of
one pass per block.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from fasdnet.errors import NonFiniteError
from fasdnet.layers import (
    IDENTITY,
    RELU,
    SIGMOID,
    SOFTMAX,
    DenseLayer,
    _activation_steps,
    _backward_buffers,
    _backward_steps,
    _delta_steps,
    _Forward,
    _forward_buffers,
    _run,
    activation_apply,
    activation_grad,
    dense_backward_from_delta,
    dense_forward,
    leaky_relu,
    network_backward,
    network_forward,
    unstack_layers,
)
from fasdnet.matrix import add_row_broadcast, matmul
from fasdnet.training import BETA1, BETA2, EPSILON, AdamState, _adam, adam_step

SPECIAL = [0.0, -0.0, 5e-324, -5e-324, 1e-310, -2.2250738585072014e-308,
           1e308, -1e308, 1.7976931348623157e308, float("inf"),
           float("-inf"), float("nan"), 1.0, -1.0, 0.5, -30.0, 40.0]
VALUES = st.one_of(st.sampled_from(SPECIAL), st.floats(width=64))
SHAPES = hnp.array_shapes(min_dims=2, max_dims=3, min_side=1, max_side=9)
SLOPES = st.one_of(st.sampled_from([0.01, 0.2, 0.5, 5e-324]),
                   st.floats(0.0, 1.0, exclude_min=True, exclude_max=True))

# no deadline: these examples check bits, not time, and shared machines
# stall now and then
KERNEL_SETTINGS = settings(deadline=None, max_examples=100)


def arrays(shape):
    return hnp.arrays(np.float64, shape, elements=VALUES)


@st.composite
def pairs(draw):
    """Two arrays of one shape: a pre-activation z and an upstream delta."""
    shape = draw(SHAPES)
    return draw(arrays(shape)), draw(arrays(shape))


def assert_same_bits(got, want):
    """Same shape and, element by element, the same IEEE bits. A NaN
    need only be NaN in the same place: the formulas do not fix its
    sign or payload."""
    assert got.shape == want.shape and got.dtype == want.dtype
    nan = np.isnan(want)
    assert np.array_equal(np.isnan(got), nan)
    assert got[~nan].tobytes() == want[~nan].tobytes()


def softmax_oracle(z):
    # exp(z - max) / sum, with numpy's axis reductions
    e = np.exp(z - np.maximum.reduce(z, axis=-1, keepdims=True))
    return e / np.add.reduce(e, axis=-1, keepdims=True)


def sigmoid_oracle(z):
    # the two-branch form, one branch per boolean mask
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


@KERNEL_SETTINGS
@given(arrays(SHAPES), SLOPES)
def test_leaky_relu_forward_is_the_piecewise_formula(z, slope):
    with np.errstate(all="ignore"):
        want = np.where(z > 0.0, z, slope * z)
        assert_same_bits(activation_apply(leaky_relu(slope), z), want)


@KERNEL_SETTINGS
@given(arrays(SHAPES))
def test_sigmoid_forward_is_the_two_branch_formula(z):
    with np.errstate(all="ignore"):
        assert_same_bits(activation_apply(SIGMOID, z), sigmoid_oracle(z))


# logits with ties, signed zeros and spreads of up to 2e308, whose max
# shift overflows to -inf
LOGITS = st.one_of(
    st.sampled_from([0.0, -0.0, 1.0, -1.0, 1e308, -1e308,
                     1.7976931348623157e308, -1.7976931348623157e308,
                     709.8, -745.2, 5e-324]),
    st.floats(width=64),
)


@KERNEL_SETTINGS
@given(hnp.arrays(np.float64,
                  st.tuples(st.integers(1, 3), st.integers(1, 9),
                            st.one_of(st.just(2), st.integers(3, 7))),
                  elements=LOGITS))
def test_column_softmax_is_the_axis_reduction_formula(z):
    # training's softmax has 2 columns; up to 7 the column order is the
    # order of numpy's reductions
    with np.errstate(all="ignore"):
        want = softmax_oracle(z)
        assert_same_bits(activation_apply(SOFTMAX, z), want)
        assert_same_bits(activation_apply(SOFTMAX, z[0]), want[0])


def assert_backward(act, z, delta, derivative):
    """activation_grad(act, z) is the derivative oracle, and the
    backward pass's _delta_steps, with its derivative formed in a
    used (NaN-filled) scratch array, multiply delta by it."""
    assert_same_bits(activation_grad(act, z), derivative)
    got = delta.copy()
    _run(_delta_steps(act, z, activation_apply(act, z), got,
                      np.full_like(z, np.nan)))
    assert_same_bits(got, delta * derivative)


@KERNEL_SETTINGS
@given(pairs(), SLOPES)
def test_leaky_relu_backward_is_delta_times_the_derivative(zd, slope):
    z, delta = zd
    with np.errstate(all="ignore"):
        derivative = np.where(z > 0.0, 1.0, slope)
        assert_backward(leaky_relu(slope), z, delta, derivative)


@KERNEL_SETTINGS
@given(pairs())
def test_sigmoid_backward_from_the_cached_output(zd):
    z, delta = zd
    with np.errstate(all="ignore"):
        s = sigmoid_oracle(z)
        assert_backward(SIGMOID, z, delta, s * (1.0 - s))


@KERNEL_SETTINGS
@given(pairs())
def test_relu_backward_from_the_cached_output(zd):
    z, delta = zd
    with np.errstate(all="ignore"):
        assert_backward(RELU, z, delta, (z > 0.0).astype(np.float64))


@KERNEL_SETTINGS
@given(pairs())
def test_identity_backward_passes_delta_through(zd):
    z, delta = zd
    with np.errstate(all="ignore"):
        assert_backward(IDENTITY, z, delta, np.ones_like(z))


@st.composite
def dense_operands(draw):
    lead = draw(st.sampled_from([(), (1,), (2,), (3,)]))
    rows, fan_in, fan_out = (draw(st.integers(1, 7)) for _ in range(3))
    return (draw(arrays(lead + (rows, fan_in))),
            draw(arrays(lead + (fan_in, fan_out))),
            draw(arrays(lead + (1, fan_out))))


@KERNEL_SETTINGS
@given(dense_operands())
def test_dense_forward_adds_the_bias_like_add_row_broadcast(operands):
    x, weights, bias = operands
    with np.errstate(all="ignore"):
        want = add_row_broadcast(matmul(x, weights), bias)
        z, _ = dense_forward(DenseLayer(weights, bias, IDENTITY), x)
    assert_same_bits(z, want)


@KERNEL_SETTINGS
@given(dense_operands(), st.data())
def test_dense_backward_from_delta_is_the_textbook_products(operands, data):
    # network_backward computes the weight and bias gradients
    x, weights, bias = operands
    delta = data.draw(arrays(x.shape[:-1] + weights.shape[-1:]))
    layer = DenseLayer(weights, bias, IDENTITY)
    with np.errstate(all="ignore"):
        got = dense_backward_from_delta(layer, x, delta)
        want = (matmul(x.swapaxes(-1, -2), delta),
                delta.sum(axis=-2, keepdims=True),
                matmul(delta, weights.swapaxes(-1, -2)))
    for g, w in zip(got, want, strict=True):
        assert_same_bits(g, w)


@st.composite
def adam_runs(draw):
    """Parameter tensors sharing a leading stack axis, several steps of
    gradients for each, a learning rate and the number of steps already
    taken: 0, or 400, where 1 - beta1^t rounds to exactly 1."""
    slots = draw(st.integers(1, 3))
    shapes = draw(st.lists(
        st.tuples(st.integers(1, 5), st.integers(1, 5)), min_size=1,
        max_size=4))
    shapes = [(slots,) + shape for shape in shapes]
    params = [draw(arrays(shape)) for shape in shapes]
    steps = draw(st.integers(1, 5))
    grads = [[draw(arrays(shape)) for shape in shapes] for _ in range(steps)]
    return (params, grads, draw(st.sampled_from([1e-3, 0.1, 1e152])),
            draw(st.sampled_from([0, 400])))


def _flat(tensors):
    return np.concatenate([t.reshape(len(t), -1) for t in tensors], axis=1)


@KERNEL_SETTINGS
@given(adam_runs())
def test_one_flat_adam_step_equals_the_textbook_step_per_tensor(run):
    # the training loop keeps every parameter in one (S, P) buffer
    params, grads, lr, start = run
    per_tensor = AdamState(params, lr)
    flat = AdamState([_flat(params)], lr)
    per_tensor.t = flat.t = start
    cur, cur_flat = params, [_flat(params)]
    want = params
    m = [np.zeros_like(p) for p in params]
    v = [np.zeros_like(p) for p in params]
    with np.errstate(all="ignore"):
        for t, step in enumerate(grads, start=start + 1):
            cur = adam_step(per_tensor, cur, step)
            cur_flat = adam_step(flat, cur_flat, [_flat(step)])
            m = [BETA1 * a + (1.0 - BETA1) * g for a, g in zip(m, step)]
            v = [BETA2 * a + (1.0 - BETA2) * g * g for a, g in zip(v, step)]
            want = [
                p - lr * (a / (1.0 - BETA1**t))
                / (np.sqrt(b / (1.0 - BETA2**t)) + EPSILON)
                for p, a, b in zip(want, m, v)
            ]
    for got, oracle in zip(cur, want):
        assert_same_bits(got, oracle)
    assert_same_bits(cur_flat[0], _flat(want))
    assert_same_bits(flat.m[0], _flat(m))
    assert_same_bits(flat.v[0], _flat(v))


# ---------------------------------------------------------------- buffers

ACTIVATIONS = [IDENTITY, RELU, leaky_relu(0.01), leaky_relu(0.5), SIGMOID]
# finite values small enough that a few layers stay finite, with the
# same -0.0, subnormals and exact zeros as VALUES
MODERATE = st.one_of(
    st.sampled_from([v for v in SPECIAL if abs(v) <= 40.0]),
    st.floats(-4.0, 4.0),
)
STACKS = st.sampled_from([1, 3])
DIVERGENT = [float("inf"), float("-inf"), float("nan"), 1e308, -1e308, 1e307,
             -3e307, 1e306]


def nan_filled(buffers):
    """buffers, as an earlier call might leave them: every float array
    NaN, every mask True."""
    for group in buffers:
        for a in group:
            a.fill(True if a.dtype == bool else np.nan)
    return buffers


@st.composite
def networks(draw, slots=STACKS, rows=st.integers(1, 6)):
    """A stacked network of S slots (1 or 3 by default) with every
    hidden activation kind and a softmax or sigmoid output, and an
    input x."""
    slots, rows = draw(slots), draw(rows)
    widths = [draw(st.integers(1, 5)) for _ in range(draw(st.integers(0, 3)))]
    acts = [draw(st.sampled_from(ACTIVATIONS)) for _ in widths]
    widths.append(draw(st.sampled_from([1, 2])))
    acts.append(SIGMOID if widths[-1] == 1 else SOFTMAX)
    sizes = [draw(st.integers(1, 5))] + widths
    layers = [
        DenseLayer(
            draw(hnp.arrays(np.float64, (slots, fan_in, fan_out), elements=MODERATE)),
            draw(hnp.arrays(np.float64, (slots, 1, fan_out), elements=MODERATE)),
            act,
        )
        for fan_in, fan_out, act in zip(sizes, sizes[1:], acts)
    ]
    x = draw(hnp.arrays(np.float64, (slots, rows, sizes[0]), elements=MODERATE))
    return layers, x


def _forward(layers, x):
    """network_forward's (caches, output), or, where it raises, the
    failing layer of each slot that fails run alone, as {slot: layer}."""
    try:
        return network_forward(layers, None, x)
    except NonFiniteError:
        pass
    failures = {}
    for s in range(len(x)):
        try:
            network_forward(unstack_layers(layers, s), None, x[s])
        except NonFiniteError as exc:
            failures[s] = exc.layer
    return failures


def _bound_forward(layers, x, split=None):
    """_Forward bound to NaN-filled buffers, as a function that runs it
    and returns its failures(), if any, else its (caches, output)."""
    bound = _Forward(layers, x,
                     nan_filled(_forward_buffers(layers, x.shape[-2])), split)

    def run():
        result = bound()
        return bound.failures() or result

    return run


def _rows_stacked(first, second):
    """Two passes' results as one pass over both blocks of rows should
    give them: each failing slot's layer in the first block, else in
    the second, or else the caches and outputs joined along the rows."""
    failed = [block if isinstance(block, dict) else {}
              for block in (second, first)]
    if any(failed):
        return failed[0] | failed[1]
    (caches, output), (more_caches, more_output) = first, second
    return ([tuple(np.concatenate(pair, axis=-2) for pair in zip(a, b))
             for a, b in zip(caches, more_caches, strict=True)],
            np.concatenate([output, more_output], axis=-2))


def assert_same_pass(got, want):
    if isinstance(want, dict):
        assert got == want
        return
    (caches, output), (want_caches, want_output) = got, want
    assert_same_bits(output, want_output)
    for (h, z), (want_h, want_z) in zip(caches, want_caches, strict=True):
        assert_same_bits(h, want_h)
        assert_same_bits(z, want_z)


@KERNEL_SETTINGS
@given(networks(), st.one_of(st.none(), st.sampled_from(SPECIAL)))
def test_network_forward_into_used_buffers_is_the_unbuffered_pass(net, cell):
    layers, x = net
    if cell is not None:  # one special input cell, which may overflow
        x[(0,) * x.ndim] = cell
    with np.errstate(all="ignore"):
        want = _forward(layers, x)
        bound = _bound_forward(layers, x)
        assert_same_pass(bound(), want)
        # a second pass into the same buffers, as in the next epoch
        assert_same_pass(bound(), want)


@KERNEL_SETTINGS
@given(networks(st.integers(1, 3), st.integers(2, 8)), st.data())
def test_split_forward_is_one_pass_per_block(net, data):
    # training runs its training and validation rows as one pass split
    # between them; a huge or non-finite cell in either block, or in
    # both, may make that block fail at some layer
    layers, x = net
    split = data.draw(st.integers(1, x.shape[-2] - 1))
    for rows in (range(split), range(split, x.shape[-2])):
        if data.draw(st.booleans()):
            cell = (data.draw(st.integers(0, len(x) - 1)),
                    data.draw(st.sampled_from(rows)),
                    data.draw(st.integers(0, x.shape[-1] - 1)))
            x[cell] = data.draw(st.sampled_from(DIVERGENT))
    with np.errstate(all="ignore"):
        want = _rows_stacked(_forward(layers, x[:, :split].copy()),
                             _forward(layers, x[:, split:].copy()))
        bound = _bound_forward(layers, x, split)
        assert_same_pass(bound(), want)
        assert_same_pass(bound(), want)


@KERNEL_SETTINGS
@given(networks(), st.data())
def test_network_backward_into_used_buffers_is_the_unbuffered_pass(net, data):
    layers, x = net
    with np.errstate(all="ignore"):
        caches, output = network_forward(layers, None, x)
        delta = data.draw(hnp.arrays(np.float64, output.shape, elements=VALUES))
        want = network_backward(layers, caches, delta.copy())
        grads = [np.full_like(a, np.nan) for layer in layers
                 for a in (layer.weights, layer.bias)]
        work = nan_filled(_backward_buffers(layers, x.shape[-2]))
        steps = _backward_steps(layers, caches, delta.copy(), grads, work)
        for _ in range(2):  # the second run, as in the next epoch
            _run(steps)
            for g, w in zip(grads, want, strict=True):
                assert_same_bits(g, w)


@KERNEL_SETTINGS
@given(st.sampled_from([0, 1, 2, 5]), st.integers(1, 9), st.integers(1, 9),
       st.data())
def test_delta_through_a_one_wide_layer_is_matmuls_bits(slots, rows, width,
                                                        data):
    # a layer of out_dim 1 passes delta down by an outer product, which
    # must give np.matmul's bits; the identity layer below leaves the
    # product as it is in its buffer. slots 0 is a 2-D pass
    lead = (slots,) if slots else ()
    fan_in = data.draw(st.integers(1, 4))
    layers = [DenseLayer(data.draw(arrays(lead + (fan_in, width))),
                         data.draw(arrays(lead + (1, width))), IDENTITY),
              DenseLayer(data.draw(arrays(lead + (width, 1))),
                         data.draw(arrays(lead + (1, 1))), SIGMOID)]
    caches = [(data.draw(arrays(lead + (rows, fan_in))),
               data.draw(arrays(lead + (rows, width)))),
              (data.draw(arrays(lead + (rows, width))),
               data.draw(arrays(lead + (rows, 1))))]
    delta = data.draw(arrays(lead + (rows, 1)))
    grads = [np.full_like(a, np.nan) for layer in layers
             for a in (layer.weights, layer.bias)]
    work = nan_filled(_backward_buffers(layers, rows))
    with np.errstate(all="ignore"):
        want = np.matmul(delta, layers[1].weights.swapaxes(-1, -2))
        _run(_backward_steps(layers, caches, delta, grads, work))
    assert_same_bits(work[0][0], want)


@KERNEL_SETTINGS
@given(st.sampled_from(ACTIVATIONS + [SOFTMAX]), STACKS, st.data())
def test_activation_apply_into_used_buffers_is_the_unbuffered_result(
        act, slots, data):
    rows, cols = data.draw(st.integers(1, 6)), data.draw(st.integers(2, 6))
    z = data.draw(arrays((slots, rows, cols)))
    out, work = np.full_like(z, np.nan), np.full_like(z, np.nan)
    with np.errstate(all="ignore"):
        want = activation_apply(act, z)
        steps = _activation_steps(act, z, out, work)
        for _ in range(2):  # the second run, as in the next epoch
            _run(steps)
            assert_same_bits(out, want)


@KERNEL_SETTINGS
@given(adam_runs())
def test_adam_step_in_place_into_used_buffers_is_the_unbuffered_step(run):
    params, grads, lr, start = run
    # bound once, as training binds it: from the second step on, the
    # update's scratch arrays hold the step before's numbers
    fresh, in_place = AdamState(params, lr), AdamState(params, lr)
    fresh.t = in_place.t = start
    want = params
    got = [p.copy() for p in params]
    bound = [np.full_like(p, np.nan) for p in params]
    update = _adam(in_place, got, bound)
    with np.errstate(all="ignore"):
        for step in grads:
            want = adam_step(fresh, want, step)
            for b, g in zip(bound, step):
                np.copyto(b, g)
            update()
            for g, w in zip(got, want):
                assert_same_bits(g, w)
    for a, b in zip(in_place.m + in_place.v, fresh.m + fresh.v):
        assert_same_bits(a, b)
