"""Loss functions, the Adam optimizer, and the full-batch training loop.

Two loss regimes are supported, matching the two model families:

* sparse_categorical: two softmax outputs scored against integer labels
  in {0, 1} with cross-entropy.
* binary: one sigmoid output scored with binary cross-entropy.

Both collapse to the same fused gradient at the output layer,
delta = (p - y) / n, which is what loss_grad returns; the backward pass
therefore never needs a softmax Jacobian.

Training is deliberately full batch: the batteries top out at 186 rows,
so one gradient step per epoch is exact and keeps runs reproducible.
The bits of a run are fixed per BLAS kernel and numpy SIMD target
(see README, Determinism).
Adam uses the canonical constants (beta1=0.9, beta2=0.999, eps=1e-8).
Its update is elementwise, so one adam_step over all parameters laid
end to end gives exactly the per-tensor results.

There is one training loop, train_many. It trains S configs that
differ only in seed as one stacked network: parameters, Adam moments,
data and labels all carry a leading seed axis of length S, and each
slot's numbers are bit-identical to training that seed alone. A slot
that diverges keeps its place in the stack, computing on NaN and inf
that cannot reach another slot. train is the S = 1 call.

An epoch makes one forward pass over each slot's training and
validation rows, laid end to end and split between them (see
layers._Forward). The pass before epoch 1 feeds only the first
backward pass, so it covers the training rows alone. The last epoch's
pass is the evaluation too: train_many returns each surviving slot's
validation labels from it, so a run's test accuracy and confusion
matrix (see experiment) need no pass of their own.

The loop keeps three (S, P) buffers for the life of the run, P being
the parameter count of one network: Adam's moments and theta, the
stack. Row s of theta is slot s's network_init, weights and biases
laid end to end; the stack's layers are views of theta, and each
trained model's of a copy of its row (layers._layer_views).
All else an epoch touches is made once per run, in a _Workspace, with
its calls bound to it (see layers): an epoch runs only ufunc and matmul
calls and one finiteness check per layer. One activation scratch and
two alternating delta buffers serve every layer. Adam writes theta in
place, so the layers' views stay bound, and the gradient doubles as its
step, as each backward pass rewrites the gradient in full.

The history is scored per block of up to _BLOCK epochs: each epoch
copies its probabilities into the block, and when it is full and at
the end, the loss and accuracy terms and their per-set means are taken
once over all its epochs. Each mean is the same float64 sum over one
slot's rows as a per-epoch mean, so the bits are too.

TrainedModel.to_json is json.dumps(indent=2)'s text from one orjson
dump of the whole model (see _json_bytes), or writes it to a file from
the dump's slices, uncopied: json's indenting encoder is pure Python
and cost as much as a short training run.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass, field, replace
from functools import partial
from itertools import zip_longest

import numpy as np

from .data import _is_binary, _odd_cells
from .errors import (
    ConfigError,
    DataError,
    DivergenceError,
    ShapeError,
)
from .layers import (
    LOSS_OUTPUT,
    SPARSE_CATEGORICAL,
    Activation,
    DenseLayer,
    FeatureNormLayer,
    NetworkConfig,
    _backward_buffers,
    _backward_steps,
    _column,
    _Forward,
    _forward_buffers,
    _json_fields,
    _layer_views,
    _parameters,
    _rows,
    _run,
    activation_apply,
    network_forward,
    network_init,
)
from .rng import SeededRng

_CLAMP = 1e-12  # probability floor/ceiling before any log
_BLOCK = 64  # epochs whose history train_many scores in one pass

BETA1 = 0.9
BETA2 = 0.999
EPSILON = 1e-8


def _check_labels(labels, shape: tuple) -> np.ndarray:
    y = np.asarray(labels)
    if y.shape != shape:
        raise ShapeError(
            f"labels must have shape {shape}, one per row, got {y.shape}"
        )
    binary = _is_binary(y)
    if not binary.all():
        bad = y[~binary][0]
        raise DataError(f"labels must be 0 or 1, found {bad!r}")
    return y.astype(np.int64)


def _loss_labels(kind: str, output: np.ndarray, labels) -> np.ndarray:
    """loss_forward's and loss_grad's checks: labels, one per row of
    output, then the loss kind and output's width; returns the labels."""
    y = _check_labels(labels, (_rows(output),))
    if kind not in LOSS_OUTPUT:
        raise ConfigError(f"unknown loss kind {kind!r}")
    width = LOSS_OUTPUT[kind][0]
    if output.shape[-1] != width:
        raise ShapeError(
            f"{kind} loss expects {width} column(s), got {output.shape}")
    return y


def _log_p_true(kind: str, predictions: np.ndarray,
                is_one: np.ndarray) -> np.ndarray:
    """Per row, the log of the clamped probability of the true class,
    whose mean is minus the loss; is_one is y == 1 on checked labels."""
    p1 = predictions[..., -1]
    p0 = predictions[..., 0] if kind == SPARSE_CATEGORICAL else 1.0 - p1
    p_true = np.where(is_one, p1, p0)
    np.clip(p_true, _CLAMP, 1.0 - _CLAMP, out=p_true)
    return np.log(p_true, out=p_true)


def _target(kind: str, y: np.ndarray) -> np.ndarray:
    """The labels as the output layer's target: one-hot rows for
    sparse_categorical, one column for binary."""
    return y[..., None] == (0, 1) if kind == SPARSE_CATEGORICAL else y[..., None]


def _loss_delta_steps(p: np.ndarray, target: np.ndarray,
                      out: np.ndarray) -> list:
    """The calls that write (p - y) / n per stack slot into out from
    the output layer's probabilities p and _target's labels, bound to
    their operands; see loss_grad."""
    return [partial(np.subtract, p, target, out),
            partial(np.true_divide, out, p.shape[-2], out)]


def loss_forward(kind: str, predictions: np.ndarray, labels) -> float:
    """Mean negative log-probability of the true class.

    predictions are post-activation probabilities (softmax rows for
    sparse_categorical, a single sigmoid column for binary), clamped to
    [1e-12, 1 - 1e-12] before the log.
    """
    y = _loss_labels(kind, predictions, labels)
    return float(-np.mean(_log_p_true(kind, predictions, y == 1)))


def loss_grad(kind: str, pre_activation_final: np.ndarray, labels) -> np.ndarray:
    """Fused gradient of the mean loss w.r.t. the final pre-activations.

    For softmax + cross-entropy and sigmoid + binary cross-entropy this
    is the same expression: (p - y) / n.
    """
    z = pre_activation_final
    y = _loss_labels(kind, z, labels)
    p = activation_apply(Activation(LOSS_OUTPUT[kind][1]), z)
    _run(_loss_delta_steps(p, _target(kind, y), p))
    return p


class AdamState:
    """Per-parameter first/second moments plus the shared step counter."""

    def __init__(self, params: list[np.ndarray], learning_rate: float):
        self.learning_rate = learning_rate
        self.t = 0
        self.m = [np.zeros_like(p) for p in params]
        self.v = [np.zeros_like(p) for p in params]


def adam_step(state: AdamState, params: list[np.ndarray],
              grads: list[np.ndarray]) -> list[np.ndarray]:
    """One bias-corrected Adam update into new arrays, which it returns;
    the moments in state are updated in place; grads are never written.

    m_hat = m / (1 - beta1^t),  v_hat = v / (1 - beta2^t)
    theta <- theta - lr * m_hat / (sqrt(v_hat) + eps)
    """
    new = [p.copy() for p in params]
    _adam(state, new, [g.copy() for g in grads])()
    return new


def _adam(state: AdamState, params: list[np.ndarray],
          grads: list[np.ndarray]):
    """adam_step bound to its operands, checked once here, and to one
    scratch array per parameter: a function of no arguments that updates
    params in place and writes its step into grads (it is elementwise)."""
    if len(params) != len(grads) or len(params) != len(state.m):
        raise ShapeError(
            f"adam_step: got {len(params)} params, {len(grads)} grads, "
            f"state of size {len(state.m)}"
        )
    for i, (p, g) in enumerate(zip(params, grads)):
        if p.shape != g.shape:
            raise ShapeError(
                f"adam_step: param {i} shape {p.shape} vs grad {g.shape}"
            )
    operands = [(p, g, m, v, np.empty_like(p))
                for p, g, m, v in zip(params, grads, state.m, state.v)]
    lr = state.learning_rate

    def update() -> None:
        state.t += 1
        c1, c2 = 1.0 - BETA1**state.t, 1.0 - BETA2**state.t
        for p, g, m, v, tmp in operands:
            # adam_step's formula, op by op in order; the step reuses g
            np.multiply(g, 1.0 - BETA1, tmp)
            m *= BETA1
            m += tmp
            np.multiply(g, 1.0 - BETA2, tmp)
            tmp *= g
            v *= BETA2
            v += tmp
            np.divide(v, c2, tmp)
            np.sqrt(tmp, tmp)
            tmp += EPSILON
            if c1 == 1.0:  # from t of about 350 on; m / 1.0 is m
                np.multiply(m, lr, g)
            else:
                np.divide(m, c1, g)
                g *= lr
            g /= tmp
            p -= g

    return update


@dataclass
class History:
    """Per-epoch curves; row k describes the parameters after epoch k+1."""

    train_loss: list[float] = field(default_factory=list)
    train_acc: list[float] = field(default_factory=list)
    val_loss: list[float] = field(default_factory=list)
    val_acc: list[float] = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.train_loss)

    def to_csv_text(self) -> str:
        lines = ["epoch,train_loss,train_acc,val_loss,val_acc"]
        for i in range(len(self)):
            lines.append(
                f"{i + 1},{self.train_loss[i]!r},{self.train_acc[i]!r},"
                f"{self.val_loss[i]!r},{self.val_acc[i]!r}"
            )
        return "\n".join(lines) + "\n"


def predict_labels(kind: str, probabilities: np.ndarray) -> np.ndarray:
    """Hard 0/1 decisions. Softmax rows use argmax (ties to class 0, a
    NaN to its own column); a sigmoid column goes to class 1 strictly
    above 0.5, matching the argmax tie rule on [1-p, p]."""
    if kind == SPARSE_CATEGORICAL:
        return probabilities.argmax(axis=-1)
    return (probabilities[..., 0] > 0.5).astype(np.int64)


@dataclass
class TrainedModel:
    """Frozen result of a training run: config, norm statistics, layers."""

    config: NetworkConfig
    norm: FeatureNormLayer | None
    layers: list[DenseLayer]

    def predict_proba(self, x: np.ndarray) -> np.ndarray:
        return network_forward(self.layers, self.norm, x)[1]

    def predict(self, x: np.ndarray) -> np.ndarray:
        return predict_labels(self.config.loss, self.predict_proba(x))

    def to_json(self, fh=None) -> str | None:
        """Exactly json.dumps(doc, indent=2) + "\\n" of the config, the
        norm statistics and the layers, from _json_bytes; given a binary
        file, its UTF-8 bytes are written there instead."""
        slices = _json_bytes(self._json_doc())
        if fh is None:
            return b"".join(slices).decode()
        fh.writelines(slices)

    def _json_doc(self) -> dict:
        return {
            "config": self.config.to_dict(),
            "norm": None
            if self.norm is None
            else {"means": self.norm.means, "stds": self.norm.stds},
            "layers": [
                {
                    "weights": layer.weights,
                    "bias": layer.bias[0],
                    **layer.activation.to_dict(),
                }
                for layer in self.layers
            ],
        }

    @classmethod
    def from_json(cls, text: str) -> "TrainedModel":
        """The model to_json wrote; ConfigError names a missing or mistyped
        field, a norm or layer unlike the config, or a std fit never writes."""
        with _json_fields("model"):
            doc = json.loads(text)
            config = NetworkConfig.from_dict(doc["config"])
            norm = None if doc["norm"] is None else FeatureNormLayer(
                *(np.asarray(doc["norm"][k], dtype=np.float64)
                  for k in ("means", "stds")))
            stack = [
                DenseLayer(np.asarray(e["weights"], dtype=np.float64),
                           np.asarray(e["bias"], dtype=np.float64),
                           Activation.from_dict(e))
                for e in doc["layers"]
            ]
        found = None if norm is None else (norm.means.shape, norm.stds.shape)
        dims = (config.input_dim,)
        if found != ((dims, dims) if config.use_feature_layer else None):
            raise ConfigError(
                f"model norm shapes {found} do not match its config's "
                f"input_dim {config.input_dim} and use_feature_layer "
                f"{config.use_feature_layer}")
        if norm is not None and not np.all((norm.stds > 0) & (norm.stds < np.inf)):
            raise ConfigError(
                f"model norm stds must be finite and > 0, got {norm.stds.tolist()}")
        sizes = [config.input_dim] + [w for w, _ in config.layers]
        wanted = [((m, w), (w,), a) for m, (w, a) in zip(sizes, config.layers)]
        for i, (layer, want) in enumerate(zip_longest(stack, wanted)):
            found = None if layer is None else (
                layer.weights.shape, layer.bias.shape, layer.activation)
            if found != want:
                raise ConfigError(
                    f"model layer {i} has (weights shape, bias shape, "
                    f"activation) {found}, its config {want}")
            layer.bias = layer.bias.reshape(1, -1)
        return cls(config, norm, stack)


def _json_bytes(doc) -> list:
    """The bytes of json.dumps(doc, indent=2) + "\\n", in slices, for a
    document of dicts, lists, plain ASCII strings, ints, floats, None and
    float64 arrays of one or more dimensions: views of one orjson dump,
    in json's indent=2 layout and repr's digits (see data.write_csv),
    between json's text of each value that _with_nulls made NaN, which
    orjson wrote as null. A string that holds "null" is a ValueError."""
    import orjson  # imported here as in data.write_csv

    fills = []
    text = orjson.dumps(_with_nulls(doc, fills),
                        option=orjson.OPT_INDENT_2 | orjson.OPT_SERIALIZE_NUMPY)
    nulls = [m.start() for m in re.finditer(b"null", text)]
    if len(nulls) != len(fills):
        raise ValueError(f"orjson wrote {len(nulls)} nulls for {len(fills)} fills")
    view, slices, start = memoryview(text), [], 0
    for at, fill in zip(nulls, fills):
        slices += (view[start:at], fill)
        start = at + 4
    return slices + [view[start:], b"\n"]


def _with_nulls(value, fills: list):
    """value with each None, each of data._odd_cells' numbers and each
    int orjson cannot write (outside [-2**63, 2**64)) made NaN, and its
    arrays C-contiguous; appends json's text of each, in document order,
    to fills. A 2+-D array holding one becomes the list of its rows (the
    same text to orjson), so that only the rows holding one are copied."""
    if isinstance(value, dict):
        return {key: _with_nulls(item, fills) for key, item in value.items()}
    if isinstance(value, list):
        return [_with_nulls(item, fills) for item in value]
    if (value is None or isinstance(value, float) and _odd_cells(value)
            or isinstance(value, int) and not -2**63 <= value < 2**64):
        fills.append(json.dumps(value).encode())
        return np.nan
    if not isinstance(value, np.ndarray):
        return value
    value = np.ascontiguousarray(value)
    odd = _odd_cells(value)
    if not odd.any():
        return value
    if value.ndim > 1:
        hits = odd.any(axis=tuple(range(1, value.ndim)))
        return [_with_nulls(row, fills) if hit else row
                for row, hit in zip(value, hits)]
    fills += [json.dumps(v).encode() for v in value[odd].tolist()]
    return np.where(odd, np.nan, value)


def train(config: NetworkConfig, x_train: np.ndarray, y_train,
          x_valid: np.ndarray, y_valid):
    """Full-batch Adam training; returns (TrainedModel, History).

    This is train_many with a stack of one; a divergence is raised as
    DivergenceError naming the epoch and the layer.
    """
    (outcome,) = train_many(
        [config],
        np.asarray(x_train)[None],
        np.asarray(y_train)[None],
        np.asarray(x_valid)[None],
        np.asarray(y_valid)[None],
    )
    if isinstance(outcome, DivergenceError):
        raise outcome
    return outcome[:2]


def train_many(configs, x_train, y_train, x_valid, y_valid,
               feature_names=None) -> list:
    """Train S configs that differ only in seed as one stacked network.

    x_train (S, rows, features) and y_train (S, rows) hold one training
    set per config, x_valid and y_valid one validation set; the shapes
    are shared, the contents need not be. Returns, per config and in
    order, (TrainedModel, History, labels) or the DivergenceError that
    stopped it; labels are predict_labels of the last epoch's pass over
    the validation rows, at the returned parameters: what the model's
    predict gives on them, and what the last val_acc scored. Every slot
    computes exactly what a run of its own would, bit for bit: each
    product, sum and elementwise operation acts on one slot at a time.

    The feature-normalization stage, when configured, is fitted on the
    stack, each slot on its own training rows only, and frozen; each
    model keeps its slot's statistics. Validation data always goes
    through the training statistics. A column whose statistics, or any
    of whose values standardized by them, are not finite is a
    DataError, named from feature_names if given. Each
    epoch performs one gradient step and then records train and
    validation loss/accuracy at the updated parameters. A slot's first
    non-finite pre-activation gives it DivergenceError("training
    diverged at epoch {e}: layer {i} pre-activation is non-finite") for
    its training rows' first non-finite layer, else its validation
    rows'. The run stops once every slot has failed.
    """
    configs = list(configs)
    if not configs:
        raise ConfigError("train_many needs at least one config")
    config = configs[0]
    if any(replace(c, seed=config.seed) != config for c in configs):
        raise ConfigError("stacked training configs may differ only in seed")
    x_train, x_valid = np.asarray(x_train), np.asarray(x_valid)
    for name, x in (("training", x_train), ("validation", x_valid)):
        if x.ndim != 3 or x.shape[0] != len(configs):
            raise ShapeError(
                f"{name} data must be stacked as ({len(configs)}, rows, "
                f"features), got shape {x.shape}"
            )
        if x.shape[2] != config.input_dim:
            raise ShapeError(
                f"{name} data has {x.shape[2]} features but the config "
                f"expects {config.input_dim}"
            )
    if x_train.shape[1] == 0 or x_valid.shape[1] == 0:
        raise DataError("training and validation sets must be non-empty")
    y_tr = _check_labels(y_train, x_train.shape[:2])
    y_va = _check_labels(y_valid, x_valid.shape[:2])

    # every slot's training rows, then its validation rows
    n = x_train.shape[1]
    x = np.concatenate([x_train, x_valid], axis=1)
    y = np.concatenate([y_tr, y_va], axis=1)
    norm = None
    if config.use_feature_layer:
        norm = FeatureNormLayer.fit(x_train, feature_names)
        # a row far from the training mean can overflow all the same
        with np.errstate(over="ignore", invalid="ignore"):
            x = norm.apply(x)
        bad = np.flatnonzero(~np.isfinite(x).all(axis=(0, 1)))
        if bad.size:
            raise DataError(f"feature {_column(feature_names, bad[0])}: a value "
                            "standardized by its training rows' mean and "
                            "standard deviation is not finite")

    # theta, a row of parameters per slot; see the module docstring
    nets = [network_init(c, SeededRng(c.seed)) for c in configs]
    theta = np.stack([np.concatenate(_parameters(net), axis=None) for net in nets])
    layers = _layer_views(theta, nets[0])
    del nets  # theta holds their parameters now
    state = AdamState([theta], config.learning_rate)
    outcomes = [None] * len(configs)
    # history row e of every slot: train loss, train accuracy,
    # validation loss and validation accuracy after epoch e + 1
    rows = np.empty((config.epochs, 4, len(configs)))
    ws = _Workspace(config.loss, layers, state, theta, x, y, n, config.epochs)

    def record_failures(forward, epoch) -> bool:
        """Record each slot's first failure; True once every slot has one."""
        for slot, layer in forward.failures().items():
            outcomes[slot] = outcomes[slot] or DivergenceError(
                f"training diverged at epoch {epoch}: layer {layer} "
                "pre-activation is non-finite", epoch, layer)
        return all(outcomes)

    # divergence is reported per slot from the forward passes'
    # finiteness masks, so numpy's own overflow warnings add nothing
    with np.errstate(over="ignore", invalid="ignore"):
        ws.first()
        epoch, stop = 0, record_failures(ws.first, 1)
        while not stop and epoch < config.epochs:
            epoch += 1
            _run(ws.step)
            ws.adam()
            ws.forward()
            stop = record_failures(ws.forward, epoch)
            if ws.keep():
                ws.score(rows, epoch)
        ws.score(rows, epoch)

    for slot, outcome in enumerate(outcomes):
        if outcome is None:
            kept = None if norm is None else FeatureNormLayer(
                norm.means[slot], norm.stds[slot])
            model = TrainedModel(configs[slot], kept,
                                 _layer_views(theta[slot].copy(), layers))
            history = History(*(rows[:, k, slot].tolist() for k in range(4)))
            labels = predict_labels(config.loss, ws.forward.output[slot, n:])
            outcomes[slot] = (model, history, labels)
    return outcomes


class _Workspace:
    """Every array an epoch of train_many writes, only those live at the
    same time (see the module docstring), and its calls bound to them; x
    and y hold each slot's n training rows and then its validation rows.
    first is the pass before epoch 1, step the loss gradient and the
    backward pass, adam the update of theta and forward the pass after it."""

    def __init__(self, kind: str, layers: list[DenseLayer], state: AdamState,
                 theta: np.ndarray, x: np.ndarray, y: np.ndarray, n: int,
                 epochs: int):
        buffers = _forward_buffers(layers, x.shape[-2])
        self.forward = _Forward(layers, x, buffers, n)
        self.first = _Forward(
            layers, x[:, :n],
            [tuple(a[:, :n] for a in group) for group in buffers])
        backward = _backward_buffers(layers, n)
        delta = backward[-1][0]
        grad = np.empty_like(theta)
        grads = _parameters(_layer_views(grad, layers))
        self.step = (
            _loss_delta_steps(self.first.output, _target(kind, y[:, :n]), delta)
            + _backward_steps(layers, self.first.caches, delta, grads, backward))
        self.adam = _adam(state, [theta], [grad])
        self.kind, self.n, self.y, self.is_one = kind, n, y, y == 1
        self.block = np.empty((min(epochs, _BLOCK),) + self.forward.output.shape)
        self.kept = 0

    def keep(self) -> bool:
        """Copy the last pass's probabilities into the block; True once
        the block is full."""
        np.copyto(self.block[self.kept], self.forward.output)
        self.kept += 1
        return self.kept == len(self.block)

    def score(self, rows: np.ndarray, epoch: int) -> None:
        """Write the history rows of the kept epochs, the last of which
        is epoch, into rows, and empty the block."""
        probs, n = self.block[:self.kept], self.n
        log_p = _log_p_true(self.kind, probs, self.is_one)
        hit = predict_labels(self.kind, probs) == self.y
        out = rows[epoch - self.kept:epoch]
        out[:, 0] = -np.mean(log_p[..., :n], axis=-1)
        out[:, 2] = -np.mean(log_p[..., n:], axis=-1)
        out[:, 1] = np.mean(hit[..., :n], axis=-1)
        out[:, 3] = np.mean(hit[..., n:], axis=-1)
        self.kept = 0

