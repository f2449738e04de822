"""Dense layers, activations, and the feature-normalization input stage.

The forward rule for every dense layer is the usual weighted sum passed
through an elementwise activation:

    z = x @ W + b          (x: batch x in_dim, W: in_dim x out_dim)
    out = activation(z)

The bias is added in place into the product. Each activation is
computed in as few elementwise passes as give the textbook formula's
exact bits: leaky ReLU as max(z, slope * z), which is z above 0 and
slope * z below for any 0 < slope < 1, and the sigmoid as
max(z >= 0, e) / (1 + e) with e = exp(-|z|), taken once: that is
1 / (1 + exp(-z)) for z >= 0 and exp(z) / (1 + exp(z)) below, so exp
never overflows. No kernel selects per element with np.where or a
boolean mask: on data with mixed signs that branches unpredictably and
costs several times the arithmetic. The softmax takes the row maximum
and sum column by column, in column order, which up to 7 columns are
the bits of numpy's axis reductions at a fraction of their cost on
NetworkConfig's 2 columns. A logit more than ~1.8e308 below its row's
maximum shifts to -inf, whose exp is the exact 0 it stands for:
activation_apply ignores that overflow, while the kernels under it
leave numpy's error state to their callers (the training loop,
network_forward). tests/test_kernels.py holds the textbook
formulas and checks every kernel against them bit for bit.

Every forward and backward function also takes stacked operands with a
leading seed axis: x of shape (S, batch, in_dim), W of shape
(S, in_dim, out_dim) and b of shape (S, 1, out_dim) describe S
independent networks of one architecture, and slot s of every result
is exactly what the 2-D call on slot s would return. The code is the
same for both: products use matmul, transposes swap the last two axes
and sums run over the batch axis, -2, so a NaN in one slot never
reaches another. This is how training runs all seeds of a spec as one
network, where a diverged seed keeps its slot (see _Forward.failures
and training.train_many).

Every pass writes into buffers and is bound to them before it runs,
and that is its one path: _Forward and the _*_steps functions check
the shapes, cut every row block, column and transposed view, and
return the pass as ufunc and matmul calls bound to their operands
(functools.partial). The public passes (dense_forward,
activation_apply, network_forward and network_backward) allocate new
buffers and run their bound pass once. Only the training loop binds
buffers of its own, one set per stack, and runs the bound calls every
epoch (see training._Workspace).

Backward rules are the textbook ones; see network_backward. It takes
the sigmoid and ReLU derivatives from each layer's output, which the
forward caches already hold, instead of recomputing exp from z. The
softmax activation is special-cased: its gradient is only ever needed
fused with the cross-entropy loss (see training.loss_grad), so asking
for a standalone softmax derivative is a contract error.

The "feature layer" used by the second family of models is a
per-feature standardization stage: FeatureNormLayer.fit learns column
means and standard deviations from the training rows only, as a frozen
value whose apply maps every later input through (x - mean) / std. It
exists because the raw batteries mix features on wildly different
scales (single digits next to values near 100), which cripples an
unnormalized first layer. It takes a stack like every pass here: fit
on (S, rows, features) gives each slot the statistics of its own rows,
(S, features) in all, and apply standardizes each slot by its own.
"""

from __future__ import annotations

import json
import math
import numbers
from contextlib import contextmanager
from dataclasses import dataclass
from functools import partial

import numpy as np

from .errors import (
    ConfigError,
    ContractError,
    DataError,
    NonFiniteError,
    ShapeError,
)
from .rng import SeededRng

_KINDS = ("identity", "relu", "leaky_relu", "sigmoid", "softmax")


@dataclass(frozen=True)
class Activation:
    """Elementwise activation; kind is one of identity, relu,
    leaky_relu, sigmoid, softmax. Only leaky_relu carries a slope."""

    kind: str
    slope: float | None = None

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise ConfigError(f"unknown activation kind {self.kind!r}")
        if self.kind == "leaky_relu":
            s = 0.01 if self.slope is None else self.slope
            if not 0.0 < s < 1.0:
                raise ConfigError(
                    f"leaky_relu slope must be in (0, 1), got {_shown(s)}")
            object.__setattr__(self, "slope", s)
        elif self.slope is not None:
            raise ConfigError(f"{self.kind} takes no slope parameter")

    def to_dict(self) -> dict:
        """The JSON form, {"activation": kind} plus "slope" for leaky_relu;
        the one definition shared by config and model files."""
        doc = {"activation": self.kind}
        if self.slope is not None:
            doc["slope"] = self.slope
        return doc

    @classmethod
    def from_dict(cls, doc) -> "Activation":
        return cls(doc["activation"], doc.get("slope"))


IDENTITY = Activation("identity")
RELU = Activation("relu")
SIGMOID = Activation("sigmoid")
SOFTMAX = Activation("softmax")


def leaky_relu(slope: float = 0.01) -> Activation:
    return Activation("leaky_relu", slope)


def activation_apply(a: Activation, z: np.ndarray) -> np.ndarray:
    """Apply an activation elementwise (softmax: per row, stabilized)."""
    out = np.empty(z.shape)
    steps = _activation_steps(a, z, out, np.empty(z.shape))
    with np.errstate(over="ignore"):
        _run(steps)
    return out


def _run(steps) -> None:
    for step in steps:
        step()


def _activation_steps(a: Activation, z: np.ndarray, out: np.ndarray,
                      work: np.ndarray) -> list:
    """activation_apply's calls from z into out, bound to their operands,
    to run in the caller's numpy error state; work is a scratch array of
    z's shape. Neither out nor work may overlap z."""
    if a.kind == "identity":
        return [partial(np.copyto, out, z)]
    if a.kind == "relu":
        return [partial(np.maximum, z, 0.0, out=out)]
    if a.kind == "leaky_relu":
        # max(z, slope * z); see the module docstring
        return [partial(np.multiply, z, a.slope, out),
                partial(np.maximum, z, out, out=out)]
    if a.kind == "sigmoid":
        e = work  # max(z >= 0, e) / (1 + e) with e = exp(-|z|)
        return [partial(np.absolute, z, e), partial(np.negative, e, e),
                partial(np.exp, e, e), partial(np.greater_equal, z, 0.0, out),
                partial(np.maximum, out, e, out=out), partial(np.add, e, 1.0, e),
                partial(np.true_divide, out, e, out)]
    # exp(z - max) / sum, column by column, the row maximum and then
    # the sum kept in one column of work; see the module docstring
    if z.ndim == 0 or z.shape[-1] < 2:
        raise ConfigError(
            f"softmax needs at least 2 columns, got shape {z.shape}"
        )
    cols = [z[..., j] for j in range(z.shape[-1])]
    exps = [out[..., j] for j in range(z.shape[-1])]
    acc = work[..., 0]
    return ([partial(np.maximum, cols[0], cols[1], out=acc)]
            + [partial(np.maximum, acc, c, out=acc) for c in cols[2:]]
            + [partial(np.subtract, c, acc, e) for c, e in zip(cols, exps)]
            + [partial(np.exp, out, out), partial(np.add, exps[0], exps[1], acc)]
            + [partial(np.add, acc, e, acc) for e in exps[2:]]
            + [partial(np.true_divide, e, acc, e) for e in exps])


_SOFTMAX_GRAD = ("softmax has no standalone gradient; use the fused "
                 "cross-entropy gradient (training.loss_grad)")


def activation_grad(a: Activation, z: np.ndarray) -> np.ndarray:
    """Elementwise derivative with respect to the pre-activation: the
    backward pass's _delta_steps run on a delta of ones.

    leaky_relu at exactly 0 uses the slope (the pinned subgradient
    choice). softmax is rejected: its gradient is fused with the loss.
    """
    if a.kind == "softmax":
        raise ContractError(_SOFTMAX_GRAD)
    delta = np.ones(z.shape)
    _run(_delta_steps(a, z, activation_apply(a, z), delta, np.empty(z.shape)))
    return delta


def _delta_steps(a: Activation, z: np.ndarray, out: np.ndarray,
                 delta: np.ndarray, work: np.ndarray) -> list:
    """The calls that multiply delta in place by the derivative of a at
    z, bound to their operands; sigmoid and relu read their derivative
    off out = activation(z), the cached output: out * (1 - out), and
    out > 0 exactly where z > 0. leaky_relu at exactly 0 takes the
    slope. The derivative is formed in work, an array of z's shape.
    softmax is rejected: its gradient exists only fused with the loss
    at the last layer."""
    if a.kind == "relu":
        return [partial(np.greater, out, 0.0, work),
                partial(np.multiply, delta, work, delta)]
    if a.kind == "leaky_relu":
        # 1.0 above 0, else the slope: max(mask, slope) on the 0/1 mask
        # is exactly that, without np.where's per-element branch
        return [partial(np.greater, z, 0.0, work),
                partial(np.maximum, work, a.slope, out=work),
                partial(np.multiply, delta, work, delta)]
    if a.kind == "sigmoid":
        return [partial(np.subtract, 1.0, out, work),
                partial(np.multiply, work, out, work),
                partial(np.multiply, delta, work, delta)]
    if a.kind == "softmax":
        raise ContractError(_SOFTMAX_GRAD)
    return []


@dataclass
class DenseLayer:
    """Fully connected layer: weights in_dim x out_dim, bias 1 x out_dim
    (stacked: (S, in_dim, out_dim) and (S, 1, out_dim))."""

    weights: np.ndarray
    bias: np.ndarray
    activation: Activation

    @property
    def in_dim(self) -> int:
        return self.weights.shape[-2]

    @property
    def out_dim(self) -> int:
        return self.weights.shape[-1]


def dense_forward(layer: DenseLayer, x: np.ndarray):
    """Forward pass; returns (pre_activation, output) for backprop caching."""
    z, a, work, _ = _forward_buffers([layer], _rows(x))[0]
    _run(_dense_steps(layer, x, z, a, work))
    return z, a


def _dense_steps(layer: DenseLayer, x: np.ndarray, z: np.ndarray,
                 a: np.ndarray, work: np.ndarray,
                 split: int | None = None) -> list:
    """dense_forward's calls, its shapes checked and the row blocks of
    split (see _Forward) cut once, bound to their operands."""
    if (x.shape[-1] != layer.in_dim
            or x.shape[:-2] not in ((), layer.weights.shape[:-2])):
        raise ShapeError(
            f"dense_forward: input {x.shape} does not match weights "
            f"{layer.weights.shape}"
        )
    if layer.bias.shape != z.shape[:-2] + (1, z.shape[-1]):
        raise ShapeError(
            f"dense_forward: bias {layer.bias.shape} does not match weights "
            f"{layer.weights.shape}"
        )
    blocks = ((slice(None),) if split is None
              else (slice(None, split), slice(split, None)))
    return ([partial(np.matmul, x[..., rows, :], layer.weights, z[..., rows, :])
             for rows in blocks]
            + [partial(np.add, z, layer.bias, z)]
            + _activation_steps(layer.activation, z, a, work))


def dense_backward_from_delta(layer: DenseLayer, x: np.ndarray,
                              delta: np.ndarray):
    """Backward pass through the affine map, given delta = dLoss/dz:
    network_backward's gradients of a one-layer stack, plus grad_x.

    grad_w = x^T @ delta
    grad_b = column sums of delta
    grad_x = delta @ W^T
    """
    if _rows(x) != _rows(delta) or delta.shape[-1] != layer.out_dim:
        raise ShapeError(
            f"dense_backward_from_delta: delta {delta.shape} inconsistent "
            f"with input {x.shape} and weights {layer.weights.shape}"
        )
    grad_w, grad_b = network_backward([layer], [(x, delta)], delta)
    return grad_w, grad_b, delta @ layer.weights.swapaxes(-1, -2)


@dataclass(frozen=True, eq=False)
class FeatureNormLayer:
    """Fit-on-train z-score stage; the first layer of the second models.

    fit() learns per-column mean and population standard deviation from
    the training rows only. Columns with zero variance get std = 1 so
    apply() never divides by zero. Test data must be transformed with
    the training statistics. On a stack of rows, each slot's statistics
    are its own rows' (see the module docstring).
    """

    means: np.ndarray
    stds: np.ndarray

    @classmethod
    def fit(cls, train_x: np.ndarray, names=None) -> "FeatureNormLayer":
        """DataError names the first column, by names if given and in
        slot order on a stack, whose mean or std is not finite, as a sum
        or square of doubles near the float64 limit overflows."""
        if _rows(train_x) < 2:
            raise DataError(
                f"feature normalization needs >= 2 rows, got {_rows(train_x)}"
            )
        with np.errstate(over="ignore", invalid="ignore"):
            means = train_x.mean(axis=-2)
            stds = train_x.std(axis=-2)  # population convention (ddof=0)
        bad = np.flatnonzero(~(np.isfinite(means) & np.isfinite(stds)))
        if bad.size:
            raise DataError(f"feature {_column(names, bad[0] % means.shape[-1])}: "
                            "the mean or standard deviation of its training "
                            "rows is not finite")
        return cls(means, np.where(stds > 0.0, stds, 1.0))

    def apply(self, x: np.ndarray) -> np.ndarray:
        """x's rows standardized: x is (rows, features) for one model's
        statistics, (S, rows, features) for a stack's."""
        if x.ndim < 2 or x.shape[:-2] + x.shape[-1:] != self.means.shape:
            fitted = (f"{self.means.shape[0]} columns" if self.means.ndim == 1
                      else f"statistics of shape {self.means.shape}")
            raise ShapeError(
                f"feature normalization fitted on {fitted}, got input {x.shape}"
            )
        return (x - self.means[..., None, :]) / self.stds[..., None, :]


def _column(names, index: int) -> str:
    """A feature column in an error: its name from names, if given, else
    its number."""
    return f"column {index}" if names is None else repr(names[index])


SPARSE_CATEGORICAL = "sparse_categorical"
BINARY = "binary"

# the output layer each loss kind scores: (width, activation kind)
LOSS_OUTPUT = {SPARSE_CATEGORICAL: (2, "softmax"), BINARY: (1, "sigmoid")}
# caps that keep a config's arrays in memory, far above the registry's
MAX_EPOCHS, MAX_WIDTH = 1_000_000, 4_096  # 1,000 epochs and width 200


@contextmanager
def _json_fields(what, error: type = ConfigError):
    """The block's errors of decoding or parsing what's JSON (a byte
    that is not UTF-8, invalid JSON, nesting too deep for the parser),
    or of reading its fields, as error naming what and the problem; the
    one place where a JSON input's failures become toolkit errors."""
    try:
        yield
    except (json.JSONDecodeError, UnicodeDecodeError, RecursionError) as exc:
        raise error(f"{what} is not valid JSON: {exc}") from exc
    except KeyError as exc:
        raise error(f"{what} JSON is missing field: {exc}") from exc
    except (TypeError, ValueError, OverflowError) as exc:
        raise error(f"{what} JSON has a field of the wrong type: {exc}") from exc


def _shown(value) -> str:
    """value in an error: an int of over 20 digits by sign and digit count."""
    if not isinstance(value, numbers.Integral) or -10**20 < value < 10**20:
        return str(value)
    digits = int(abs(value).bit_length() * math.log10(2)) - 1  # at most 2 low
    while abs(value) >= 10**digits:
        digits += 1
    return f"a {'negative' if value < 0 else 'positive'} {digits}-digit integer"


@dataclass(frozen=True)
class NetworkConfig:
    """Ordered layer plan plus the training knobs for one model.

    layers lists (width, activation) pairs applied after the optional
    feature-normalization stage. The final pair is the output layer
    LOSS_OUTPUT names for the loss: (2, softmax) for sparse_categorical,
    (1, sigmoid) for binary. softmax may appear nowhere else.
    """

    input_dim: int
    layers: tuple[tuple[int, Activation], ...]
    loss: str = SPARSE_CATEGORICAL
    use_feature_layer: bool = False
    epochs: int = 50
    learning_rate: float = 0.001
    seed: int = 0

    def __post_init__(self):
        # a bool is an int to Python, but here only ever a bool
        for name, value, kind, what in (
                ("input_dim", self.input_dim, numbers.Integral, "an integer"),
                ("epochs", self.epochs, numbers.Integral, "an integer"),
                ("seed", self.seed, numbers.Integral, "an integer"),
                ("learning_rate", self.learning_rate, numbers.Real, "a number"),
                ("use_feature_layer", self.use_feature_layer, bool, "a bool"),
                *(("layer width", w, numbers.Integral, "an integer")
                  for w, _ in self.layers)):
            if (isinstance(value, bool) != (kind is bool)
                    or not isinstance(value, kind)):
                raise ConfigError(f"config has a field of the wrong type: "
                                  f"{name} must be {what}, got {value!r}")
        object.__setattr__(
            self,
            "layers",
            tuple((int(w), a) for w, a in self.layers),
        )
        if self.input_dim < 1:
            raise ConfigError(f"input_dim must be >= 1, got {_shown(self.input_dim)}")
        if not self.layers:
            raise ConfigError("network needs at least one layer")
        # a tuple compares by equality, so an unhashable loss is rejected too
        if self.loss not in tuple(LOSS_OUTPUT):
            raise ConfigError(f"unknown loss kind {self.loss!r}")
        if not 1 <= self.epochs <= MAX_EPOCHS:
            raise ConfigError(f"epochs must be in [1, {MAX_EPOCHS}], "
                              f"got {_shown(self.epochs)}")
        try:  # NaN fails too, and an int beyond a double's range
            finite = 0.0 < float(self.learning_rate) < math.inf
        except OverflowError:
            finite = False
        if not finite:
            raise ConfigError("learning_rate must be positive and finite, "
                              f"got {_shown(self.learning_rate)}")
        for width, act in self.layers:
            if not 1 <= width <= MAX_WIDTH:
                raise ConfigError(f"layer widths must be in [1, {MAX_WIDTH}], "
                                  f"got {_shown(width)}")
            if not isinstance(act, Activation):
                raise ConfigError(f"layer activation must be an Activation, got {act!r}")
        for width, act in self.layers[:-1]:
            if act.kind == "softmax":
                raise ConfigError("softmax is only permitted on the final layer")
        width, kind = LOSS_OUTPUT[self.loss]
        final_width, final_act = self.layers[-1]
        if (final_width, final_act.kind) != (width, kind):
            raise ConfigError(
                f"{self.loss} loss requires a final ({width}, {kind}) layer, "
                f"got ({final_width}, {final_act.kind})"
            )

    def to_dict(self) -> dict:
        return {
            "input_dim": self.input_dim,
            "layers": [{"width": w, **a.to_dict()} for w, a in self.layers],
            "loss": self.loss,
            "use_feature_layer": self.use_feature_layer,
            "epochs": self.epochs,
            "learning_rate": self.learning_rate,
            "seed": self.seed,
        }

    def to_json(self) -> str:
        """Canonical JSON text; parsing and re-serializing is byte-stable."""
        return json.dumps(self.to_dict(), indent=2) + "\n"

    @classmethod
    def from_dict(cls, doc) -> "NetworkConfig":
        with _json_fields("config"):
            return cls(
                input_dim=doc["input_dim"],
                layers=tuple(
                    (e["width"], Activation.from_dict(e)) for e in doc["layers"]
                ),
                loss=doc["loss"],
                use_feature_layer=doc["use_feature_layer"],
                epochs=doc["epochs"],
                learning_rate=doc["learning_rate"],
                seed=doc["seed"],
            )


def network_init(config: NetworkConfig, rng: SeededRng) -> list[DenseLayer]:
    """Build the dense stack with Glorot-uniform weights and zero biases.

    Weights are drawn uniformly from +-sqrt(6 / (fan_in + fan_out));
    draw order is row-major per layer, so a given seed always produces
    the same network.
    """
    sizes = [config.input_dim] + [w for w, _ in config.layers]
    stack = []
    for i, (width, act) in enumerate(config.layers):
        fan_in, fan_out = sizes[i], width
        bound = np.sqrt(6.0 / (fan_in + fan_out))
        draws = rng.uniforms(fan_in * fan_out).reshape(fan_in, fan_out)
        w = (2.0 * draws - 1.0) * bound
        stack.append(DenseLayer(w, np.zeros((1, fan_out)), act))
    return stack


def _parameters(layers: list[DenseLayer]) -> list[np.ndarray]:
    """Every layer's weights and bias, in parameter order."""
    return [a for layer in layers for a in (layer.weights, layer.bias)]


def _layer_views(flat: np.ndarray, layers: list[DenseLayer]) -> list[DenseLayer]:
    """layers' network with its parameters as views of flat, an (S, P)
    or (P,) buffer holding each layer's weights and then its bias, laid
    end to end: a stack of S networks, or one."""
    lead, views, start = flat.shape[:-1], [], 0
    for layer in layers:
        m, n = layer.in_dim, layer.out_dim
        weights = flat[..., start:start + m * n].reshape(lead + (m, n))
        bias = flat[..., start + m * n:start + (m + 1) * n].reshape(lead + (1, n))
        views.append(DenseLayer(weights, bias, layer.activation))
        start += (m + 1) * n
    return views


def _z_shapes(layers: list[DenseLayer], rows: int) -> list[tuple]:
    return [layer.weights.shape[:-2] + (rows, layer.out_dim)
            for layer in layers]


def _rows(x: np.ndarray) -> int:
    """The row count of a pass's input x; ShapeError if x has no row
    axis (a row or a scalar)."""
    if x.ndim < 2:
        raise ShapeError(f"input must be rows of features, got shape {x.shape}")
    return x.shape[-2]


def _forward_buffers(layers: list[DenseLayer], rows: int) -> list[tuple]:
    """Buffers for _Forward on inputs of `rows` rows: per layer,
    (z, output, work, finite), where work is a view of one activation
    scratch array for every layer and finite is z's finiteness mask, a
    view of one bool buffer of all the masks, True until a pass writes it."""
    shapes = _z_shapes(layers, rows)
    sizes = [math.prod(shape) for shape in shapes]
    masks = np.split(np.ones(sum(sizes), dtype=bool), np.cumsum(sizes)[:-1])
    work = np.empty(max(sizes, default=0))
    return [(np.empty(shape), np.empty(shape), np.ndarray(shape, buffer=work),
             mask.reshape(shape)) for shape, mask in zip(shapes, masks)]


def _backward_buffers(layers: list[DenseLayer], rows: int) -> list[tuple]:
    """Buffers for _backward_steps on `rows` rows: per layer, (delta, work),
    delta being dLoss/dz and work the derivative scratch, views of one array
    for all layers' work and of two alternating ones for the deltas (the
    last layer's is the caller's: the loss gradient can go there)."""
    shapes = _z_shapes(layers, rows)
    size = max(map(math.prod, shapes), default=0)
    *deltas, work = (np.empty(size) for _ in range(3))
    return [(np.ndarray(s, buffer=deltas[(len(shapes) - 1 - i) % 2]),
             np.ndarray(s, buffer=work)) for i, s in enumerate(shapes)]


def network_forward(layers: list[DenseLayer], norm: FeatureNormLayer | None,
                    x: np.ndarray):
    """Run the full stack; returns (caches, output).

    caches holds one (layer_input, pre_activation) pair per dense layer,
    exactly what network_backward needs. The normalization stage, when
    present, is applied first and has no trainable parameters.

    A NaN or infinity in any layer's pre-activation raises
    NonFiniteError naming the first such layer and, on a stack, the
    slots that fail there (exc.slots). The pass runs to its end first,
    without numpy's overflow and invalid warnings.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        h = norm.apply(x) if norm is not None else x
        forward = _Forward(layers, h, _forward_buffers(layers, _rows(h)))
        caches, output = forward()
    failures = forward.failures()
    if failures:
        layer = min(failures.values())
        slots = sorted(s for s, i in failures.items() if i == layer)
        where = f" in stack slots {slots}" if output.ndim > 2 else ""
        message = f"layer {layer} pre-activation is non-finite{where}"
        raise NonFiniteError(message, layer=layer, slots=slots)
    return caches, output


class _Forward:
    """network_forward without the normalization stage, bound to
    out = _forward_buffers(layers, rows); each call runs the pass and
    returns (caches, output), views of out. split, when given, cuts x's
    rows into blocks [0, split) and [split, rows): each product, which
    over both would sum in another order, is taken per block, and the
    rest runs once over all rows. The result and failures() are those
    of one pass per block, joined along the rows, bit for bit."""

    def __init__(self, layers: list[DenseLayer], x: np.ndarray, out,
                 split: int | None = None):
        self.split, self.steps, self.finite, self.caches = split, [], [], []
        for layer, (z, a, work, finite) in zip(layers, out):
            self.steps += _dense_steps(layer, x, z, a, work, split)
            self.steps.append(partial(np.isfinite, z, finite))
            self.finite.append(finite)
            self.caches.append((x, z))
            x = a
        self.output = x

    def __call__(self):
        _run(self.steps)
        return self.caches, self.output

    def failures(self) -> dict[int, int]:
        """{slot: layer} for the last pass (slot 0 for a 2-D pass): the
        first layer whose pre-activation is non-finite in the slot's
        first block, else in its second. The masks' one buffer (see
        _forward_buffers) holds every mask, so one reduction over it
        settles a pass without a failure."""
        if not self.finite or np.logical_and.reduce(self.finite[0].base,
                                                    axis=None):
            return {}
        split, first, later = self.split, {}, {}
        for i, finite in enumerate(self.finite):
            for found, rows in ((first, finite[..., :split, :]),
                                (later, finite[..., split:, :])):
                for slot in np.flatnonzero(~rows.all(axis=(-2, -1))).tolist():
                    found.setdefault(slot, i)
        return later | first


def network_backward(layers: list[DenseLayer], caches, delta: np.ndarray):
    """Backpropagate delta = dLoss/dz of the final layer through the stack.

    caches is network_forward's. Each earlier layer's delta is the next
    layer's grad_x times its own activation derivative, taken from the
    layer's cached output where that is cheaper than from z (see
    _delta_steps); the first layer's grad_x has no consumer and is not
    computed. Returns the gradients in parameter order, [dW0, db0,
    dW1, db1, ...].
    """
    out = [np.empty_like(a) for a in _parameters(layers)]
    # sized by the caches: delta is checked in _backward_steps
    work = _backward_buffers(layers, _rows(caches[-1][1]))
    _run(_backward_steps(layers, caches, delta, out, work))
    return out


def _backward_steps(layers: list[DenseLayer], caches, delta: np.ndarray,
                    out: list[np.ndarray], work) -> list:
    """network_backward's calls, its shapes checked and its transposed
    views made once, bound to their operands: the gradients go into
    out, arrays shaped like the parameters, and the earlier layers'
    deltas and derivatives into work, _backward_buffers(layers, rows)."""
    if delta.shape != caches[-1][1].shape:
        raise ShapeError(
            f"network_backward: delta {delta.shape} does not match the final "
            f"pre-activation {caches[-1][1].shape}"
        )
    steps = []
    for i in range(len(layers) - 1, -1, -1):
        layer_x, z = caches[i]
        if i < len(layers) - 1:
            steps += _delta_steps(layers[i].activation, z, caches[i + 1][0],
                                  delta, work[i][1])
        steps += [partial(np.matmul, layer_x.swapaxes(-1, -2), delta, out[2 * i]),
                  partial(np.add.reduce, delta, -2, None, out[2 * i + 1], True)]
        if i > 0:
            below = work[i - 1][0]
            w_t = layers[i].weights.swapaxes(-1, -2)
            if w_t.shape[-2] == 1:
                # matmul sends an inner dimension of 1 to its non-BLAS
                # loop, 0 + a * b; the outer product and + 0.0 (which
                # makes -0 +0) give its bits
                steps += [partial(np.multiply, delta, w_t, below),
                          partial(np.add, below, 0.0, below)]
            else:
                steps.append(partial(np.matmul, delta, w_t, below))
            delta = below
    return steps
