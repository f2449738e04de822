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
Adam uses the canonical constants (beta1=0.9, beta2=0.999, eps=1e-8).

There is one training loop, train_many. It trains S configs that
differ only in seed as one stacked network: parameters, Adam moments,
data and labels all carry a leading seed axis of length S, and each
slot's numbers are bit-identical to training that seed alone. A slot
that diverges is dropped from the stack and the others carry on.
train is the S = 1 call.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import (
    ConfigError,
    DataError,
    DivergenceError,
    NonFiniteError,
    ShapeError,
)
from .layers import (
    SIGMOID,
    SOFTMAX,
    Activation,
    DenseLayer,
    FeatureNormLayer,
    NetworkConfig,
    activation_apply,
    network_backward,
    network_forward,
    network_init,
    stack_layers,
    unstack_layers,
)
from .matrix import argmax_rows
from .rng import SeededRng

SPARSE_CATEGORICAL = "sparse_categorical"
BINARY = "binary"

_CLAMP = 1e-12  # probability floor/ceiling before any log

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


def _check_output(kind: str, shape: tuple) -> None:
    width = {SPARSE_CATEGORICAL: 2, BINARY: 1}.get(kind)
    if width is None:
        raise ConfigError(f"unknown loss kind {kind!r}")
    if shape[-1] != width:
        raise ShapeError(f"{kind} loss expects {width} column(s), got {shape}")


def _loss(kind: str, predictions: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Mean loss per stack slot (0-d for 2-D predictions) on labels that
    _check_labels has already validated."""
    p1 = predictions[..., -1]
    p0 = predictions[..., 0] if kind == SPARSE_CATEGORICAL else 1.0 - p1
    p_true = np.clip(np.where(y == 1, p1, p0), _CLAMP, 1.0 - _CLAMP)
    return -np.log(p_true).mean(axis=-1)


def _loss_delta(kind: str, z: np.ndarray, y: np.ndarray) -> np.ndarray:
    """(p - y) / n per stack slot on validated labels; see loss_grad."""
    if kind == SPARSE_CATEGORICAL:
        p, target = activation_apply(SOFTMAX, z), y[..., None] == (0, 1)
    else:
        p, target = activation_apply(SIGMOID, z), y[..., None]
    return (p - target) / z.shape[-2]


def _accuracy(kind: str, probabilities: np.ndarray, y: np.ndarray) -> np.ndarray:
    return np.mean(predict_labels(kind, probabilities) == y, axis=-1)


def loss_forward(kind: str, predictions: np.ndarray, labels) -> float:
    """Mean negative log-probability of the true class.

    predictions are post-activation probabilities (softmax rows for
    sparse_categorical, a single sigmoid column for binary), clamped to
    [1e-12, 1 - 1e-12] before the log.
    """
    y = _check_labels(labels, (predictions.shape[0],))
    _check_output(kind, predictions.shape)
    return float(_loss(kind, predictions, y))


def loss_grad(kind: str, pre_activation_final: np.ndarray, labels) -> np.ndarray:
    """Fused gradient of the mean loss w.r.t. the final pre-activations.

    For softmax + cross-entropy and sigmoid + binary cross-entropy this
    is the same expression: (p - y) / n.
    """
    z = pre_activation_final
    y = _check_labels(labels, (z.shape[0],))
    _check_output(kind, z.shape)
    return _loss_delta(kind, z, y)


class AdamState:
    """Per-parameter first/second moments plus the shared step counter."""

    def __init__(self, params: list[np.ndarray], learning_rate: float):
        self.learning_rate = learning_rate
        self.t = 0
        self.m = [np.zeros_like(p) for p in params]
        self.v = [np.zeros_like(p) for p in params]


def adam_step(state: AdamState, params: list[np.ndarray],
              grads: list[np.ndarray]) -> list[np.ndarray]:
    """One bias-corrected Adam update; returns the new parameter list.
    The moments in state are updated in place.

    m_hat = m / (1 - beta1^t),  v_hat = v / (1 - beta2^t)
    theta <- theta - lr * m_hat / (sqrt(v_hat) + eps)
    """
    if len(params) != len(grads) or len(params) != len(state.m):
        raise ShapeError(
            f"adam_step: got {len(params)} params, {len(grads)} grads, "
            f"state of size {len(state.m)}"
        )
    state.t += 1
    t = state.t
    out = []
    for i, (p, g) in enumerate(zip(params, grads)):
        if p.shape != g.shape:
            raise ShapeError(
                f"adam_step: param {i} shape {p.shape} vs grad {g.shape}"
            )
        m, v = state.m[i], state.v[i]
        m *= BETA1
        m += (1.0 - BETA1) * g
        v *= BETA2
        v += (1.0 - BETA2) * g * g
        # the formula above, one operation at a time and in its order,
        # reusing two temporaries
        denom = v / (1.0 - BETA2**t)
        np.sqrt(denom, out=denom)
        denom += EPSILON
        step = m / (1.0 - BETA1**t)
        step *= state.learning_rate
        step /= denom
        out.append(p - step)
    return out


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


def predict_proba(layers: list[DenseLayer], norm: FeatureNormLayer | None,
                  x: np.ndarray) -> np.ndarray:
    _, out = network_forward(layers, norm, x)
    return out


def predict_labels(kind: str, probabilities: np.ndarray) -> np.ndarray:
    """Hard 0/1 decisions. Softmax rows use argmax (ties to class 0);
    a sigmoid column goes to class 1 strictly above 0.5, matching the
    argmax tie rule on [1-p, p]."""
    if kind == SPARSE_CATEGORICAL:
        return argmax_rows(probabilities)
    return (probabilities[..., 0] > 0.5).astype(np.int64)


@dataclass
class TrainedModel:
    """Frozen result of a training run: config, norm statistics, layers."""

    config: NetworkConfig
    norm: FeatureNormLayer | None
    layers: list[DenseLayer]

    def predict_proba(self, x: np.ndarray) -> np.ndarray:
        return predict_proba(self.layers, self.norm, x)

    def predict(self, x: np.ndarray) -> np.ndarray:
        return predict_labels(self.config.loss, self.predict_proba(x))

    def to_json(self) -> str:
        doc = {
            "config": json.loads(self.config.to_json()),
            "norm": None
            if self.norm is None
            else {
                "means": self.norm.means.tolist(),
                "stds": self.norm.stds.tolist(),
            },
            "layers": [
                {
                    "weights": layer.weights.tolist(),
                    "bias": layer.bias[0].tolist(),
                    "activation": layer.activation.kind,
                    **(
                        {"slope": layer.activation.slope}
                        if layer.activation.kind == "leaky_relu"
                        else {}
                    ),
                }
                for layer in self.layers
            ],
        }
        return json.dumps(doc, indent=2) + "\n"

    @classmethod
    def from_json(cls, text: str) -> "TrainedModel":
        doc = json.loads(text)
        config = NetworkConfig.from_json(json.dumps(doc["config"]))
        norm = None
        if doc["norm"] is not None:
            norm = FeatureNormLayer()
            norm.means = np.asarray(doc["norm"]["means"], dtype=np.float64)
            norm.stds = np.asarray(doc["norm"]["stds"], dtype=np.float64)
        stack = []
        for entry in doc["layers"]:
            act = Activation(entry["activation"], entry.get("slope"))
            stack.append(
                DenseLayer(
                    np.asarray(entry["weights"], dtype=np.float64),
                    np.asarray(entry["bias"], dtype=np.float64).reshape(1, -1),
                    act,
                )
            )
        return cls(config, norm, stack)


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
    updated parameters. A non-finite pre-activation in any forward pass
    stops that slot with DivergenceError("training diverged at epoch
    {e}: layer {i} pre-activation is non-finite"); the slot is dropped
    from the stack (parameters, Adam moments, data and labels) and the
    forward passes of that epoch are repeated for the others.
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

    norms = [None] * len(configs)
    if config.use_feature_layer:
        norms = [FeatureNormLayer().fit(x) for x in x_train]
        x_tr = np.stack([n.apply(x) for n, x in zip(norms, x_train)])
        x_va = np.stack([n.apply(x) for n, x in zip(norms, x_valid)])
    else:
        x_tr, x_va = x_train, x_valid

    layers = stack_layers(
        [network_init(c, SeededRng(c.seed)) for c in configs]
    )
    state = AdamState(_parameters(layers), config.learning_rate)
    histories = [History() for _ in configs]
    outcomes = [None] * len(configs)
    live = list(range(len(configs)))  # config index of each stack slot
    data = [x_tr, y_tr, x_va, y_va]

    def guarded(forward, epoch):
        """forward() for the live slots. A slot it finds non-finite is
        dropped with its DivergenceError and forward() is repeated for
        the rest; returns None once no slot is left."""
        while live:
            try:
                return forward()
            except NonFiniteError as exc:
                for pos in exc.slots:
                    error = DivergenceError(
                        f"training diverged at epoch {epoch}: layer "
                        f"{exc.layer} pre-activation is non-finite",
                        epoch,
                    )
                    error.__cause__ = exc
                    outcomes[live[pos]] = error
                keep = [p for p in range(len(live)) if p not in exc.slots]
                live[:] = [live[p] for p in keep]
                data[:] = [a[keep] for a in data]
                for layer in layers:
                    layer.weights, layer.bias = layer.weights[keep], layer.bias[keep]
                state.m = [m[keep] for m in state.m]
                state.v = [v[keep] for v in state.v]
        return None

    kind = config.loss
    # divergence is reported by network_forward's finiteness guard, so
    # numpy's own overflow warnings add nothing
    with np.errstate(over="ignore", invalid="ignore"):
        train_pass = guarded(lambda: network_forward(layers, None, data[0]), 1)
        for epoch in range(1, config.epochs + 1):
            if train_pass is None:
                break
            caches, _ = train_pass
            delta = _loss_delta(kind, caches[-1][1], data[1])
            grads = network_backward(layers, caches, delta)
            params = adam_step(state, _parameters(layers), grads)
            for i, layer in enumerate(layers):
                layer.weights, layer.bias = params[2 * i], params[2 * i + 1]

            passes = guarded(
                lambda: (
                    network_forward(layers, None, data[0]),
                    network_forward(layers, None, data[2])[1],
                ),
                epoch,
            )
            if passes is None:
                break
            train_pass, va_probs = passes
            _, y_tr, _, y_va = data
            tr_probs = train_pass[1]
            rows = zip(
                live,
                _loss(kind, tr_probs, y_tr).tolist(),
                _accuracy(kind, tr_probs, y_tr).tolist(),
                _loss(kind, va_probs, y_va).tolist(),
                _accuracy(kind, va_probs, y_va).tolist(),
            )
            for slot, tr_loss, tr_acc, va_loss, va_acc in rows:
                history = histories[slot]
                history.train_loss.append(tr_loss)
                history.train_acc.append(tr_acc)
                history.val_loss.append(va_loss)
                history.val_acc.append(va_acc)

    for pos, slot in enumerate(live):
        model = TrainedModel(configs[slot], norms[slot],
                             unstack_layers(layers, pos))
        outcomes[slot] = (model, histories[slot])
    return outcomes


def _parameters(layers: list[DenseLayer]) -> list[np.ndarray]:
    return [a for layer in layers for a in (layer.weights, layer.bias)]
