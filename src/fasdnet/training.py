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
backward pass, so it covers the training rows alone.

The loop keeps three (S, P) buffers for the life of the run, P being
the parameter count of one network: the parameters theta (each layer's
weights and bias are views of their span of it) and Adam's two
moments. Everything else an epoch touches is made once per run, in a
_Workspace, with the epoch's calls bound to it (see layers), so that
an epoch runs only its ufunc and matmul calls and one finiteness check
per layer. Adam writes theta in place, so the layers' views stay bound.

The history is scored per block of up to _BLOCK epochs: each epoch
copies its probabilities into the block, and when it is full and at
the end, the loss and accuracy terms and their per-set means are taken
once over all its epochs. Each mean is the same float64 sum over one
slot's rows as a per-epoch mean, so the bits are too.

TrainedModel.to_json writes the text of json.dumps(indent=2) but
formats the weight arrays itself, a block of rows per orjson dump (see
_json_indented and data._float_text_rows): json's indenting encoder is
pure Python and cost as much as a short training run, and a block of
weights is formatted several times faster than by one repr per weight.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, replace
from functools import partial
from itertools import zip_longest

import numpy as np

from .data import _float_text_rows
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
    _Forward,
    _forward_buffers,
    _json_fields,
    _parameters,
    _run,
    activation_apply,
    network_forward,
    network_init,
    stack_layers,
    unstack_layers,
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
    if not np.all(np.isin(y, (0, 1))):
        bad = y[~np.isin(y, (0, 1))][0]
        raise DataError(f"labels must be 0 or 1, found {bad!r}")
    return y.astype(np.int64)


def _loss_labels(kind: str, output: np.ndarray, labels) -> np.ndarray:
    """loss_forward's and loss_grad's checks: labels, one per row of
    output, then the loss kind and output's width; returns the labels."""
    y = _check_labels(labels, (output.shape[0],))
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
    the moments in state are updated in place.

    m_hat = m / (1 - beta1^t),  v_hat = v / (1 - beta2^t)
    theta <- theta - lr * m_hat / (sqrt(v_hat) + eps)
    """
    new = [p.copy() for p in params]
    _adam(state, new, grads)()
    return new


def _adam(state: AdamState, params: list[np.ndarray],
          grads: list[np.ndarray]):
    """adam_step bound to its operands, checked once here, and to two
    scratch arrays per parameter: a function of no arguments that
    updates params in place (the update is elementwise)."""
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
    operands = [(p, g, m, v, np.empty_like(p), np.empty_like(p))
                for p, g, m, v in zip(params, grads, state.m, state.v)]
    lr = state.learning_rate

    def update() -> None:
        state.t += 1
        c1, c2 = 1.0 - BETA1**state.t, 1.0 - BETA2**state.t
        for p, g, m, v, tmp, step in operands:
            # adam_step's formula, one operation at a time and in its
            # order, in two temporaries
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
                np.multiply(m, lr, step)
            else:
                np.divide(m, c1, step)
                step *= lr
            step /= tmp
            p -= step

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

    def write_csv(self, path) -> None:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(self.to_csv_text())


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

    def to_json(self) -> str:
        """Exactly json.dumps(doc, indent=2) + "\\n" of the config, the
        norm statistics and the layers. _json_indented writes it,
        because with indent=2 json runs its pure-Python encoder."""
        doc = {
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
        return _json_indented(doc) + "\n"

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


# cells per orjson dump in _json_indented: blocks of 1 << 8 to
# 1 << 12 cells formatted model.json equally fast, and the smaller the
# block the less peak RSS rose over one call per row (feature-layer-train
# at --seconds 0: 2 MB at 1 << 12, the CSV blocks, and 0.3 MB at 1 << 8)
_JSON_BLOCK_CELLS = 1 << 8


def _json_indented(value, pad: str = "") -> str:
    """json.dumps(value, indent=2), each line after the first indented
    by pad, for a JSON value with string keys that may hold numpy
    arrays (written as their .tolist()).

    A finite float64 array of one or two dimensions gets its rows (a
    vector is one row) as comma-joined texts a block of up to
    _JSON_BLOCK_CELLS cells at a time from _float_text_rows, which
    gives the text json uses for finite floats (float.__repr__), and
    each comma becomes a comma and a newline.
    Dicts, lists and the rows of other arrays recurse. json.dumps writes the
    rest (scalars, strings, None, empty containers, arrays with NaN or
    inf), re-indented: a JSON string holds no raw newline, so every
    newline in json's output starts a line."""
    inner = pad + "  "
    finite = (isinstance(value, np.ndarray) and value.ndim in (1, 2)
              and value.size and value.dtype == np.float64
              and np.isfinite(value).all())
    if isinstance(value, np.ndarray) and value.ndim > 1 and not finite:
        value = list(value)
    if isinstance(value, dict) and value:
        brackets = "{}"
        items = (f"{json.dumps(key)}: {_json_indented(item, inner)}"
                 for key, item in value.items())
    elif isinstance(value, list) and value:
        brackets = "[]"
        items = (_json_indented(item, inner) for item in value)
    elif finite:
        brackets = "[]"
        rows = _float_text_rows(np.atleast_2d(value), _JSON_BLOCK_CELLS)
        if value.ndim == 1:
            items = (row.replace(",", f",\n{inner}") for row in rows)
        else:
            row_pad = inner + "  "
            items = (f"[\n{row_pad}" + row.replace(",", f",\n{row_pad}")
                     + f"\n{inner}]" for row in rows)
    else:
        if isinstance(value, np.ndarray):
            value = value.tolist()
        return json.dumps(value, indent=2).replace("\n", "\n" + pad)
    return (f"{brackets[0]}\n{inner}" + f",\n{inner}".join(items)
            + f"\n{pad}{brackets[1]}")


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
    return outcome


def train_many(configs, x_train, y_train, x_valid, y_valid) -> list:
    """Train S configs that differ only in seed as one stacked network.

    x_train (S, rows, features) and y_train (S, rows) hold one training
    set per config, x_valid and y_valid one validation set; the shapes
    are shared, the contents need not be. Returns, per config and in
    order, (TrainedModel, History) or the DivergenceError that stopped
    it. Every slot computes exactly what a run of its own would, bit
    for bit: each product, sum and elementwise operation acts on one
    slot at a time.

    The feature-normalization stage, when configured, is fitted on each
    slot's training rows only and frozen; validation data always goes
    through the training statistics. Each epoch performs one gradient
    step and then records train and validation loss/accuracy at the
    updated parameters. A slot's first non-finite pre-activation gives
    it DivergenceError("training diverged at epoch {e}: layer {i}
    pre-activation is non-finite") for its training rows' first
    non-finite layer, else its validation rows'. The run stops once
    every slot has failed.
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
    norms = [None] * len(configs)
    if config.use_feature_layer:
        norms = [FeatureNormLayer.fit(slot) for slot in x_train]
        x = np.stack([norm.apply(slot) for norm, slot in zip(norms, x)])

    layers = stack_layers(
        [network_init(c, SeededRng(c.seed)) for c in configs]
    )
    # one (S, P) buffer each for parameters and Adam's moments; see the
    # module docstring
    theta = np.concatenate(
        [a.reshape(len(configs), -1) for a in _parameters(layers)], axis=1
    )
    _set_parameters(layers, theta)
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
            model = TrainedModel(configs[slot], norms[slot],
                                 unstack_layers(layers, slot))
            history = History(*(rows[:, k, slot].tolist() for k in range(4)))
            outcomes[slot] = (model, history)
    return outcomes


class _Workspace:
    """Every array an epoch of train_many writes, and its calls bound to
    them; x and y hold each slot's n training rows and then its
    validation rows (see the module docstring). first is
    the pass before epoch 1, step the loss gradient and the backward
    pass, adam the update of theta and forward the pass after it."""

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
        self.step = (
            _loss_delta_steps(self.first.output, _target(kind, y[:, :n]), delta)
            + _backward_steps(layers, self.first.caches, delta,
                              _views(grad, layers), backward))
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


def _views(flat: np.ndarray, layers: list[DenseLayer]) -> list[np.ndarray]:
    """Views of an (S, P) buffer shaped like the layers' parameters, in
    parameter order: the spans the parameters occupy in theta."""
    views, start = [], 0
    for a in _parameters(layers):
        stop = start + a.shape[-2] * a.shape[-1]
        views.append(flat[:, start:stop].reshape((len(flat),) + a.shape[-2:]))
        start = stop
    return views


def _set_parameters(layers: list[DenseLayer], theta: np.ndarray) -> None:
    """Point each layer's weights and bias at its span of theta."""
    params = _views(theta, layers)
    for i, layer in enumerate(layers):
        layer.weights, layer.bias = params[2 * i], params[2 * i + 1]
