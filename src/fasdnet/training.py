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
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

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
)
from .matrix import argmax_rows
from .rng import SeededRng

SPARSE_CATEGORICAL = "sparse_categorical"
BINARY = "binary"

_CLAMP = 1e-12  # probability floor/ceiling before any log

BETA1 = 0.9
BETA2 = 0.999
EPSILON = 1e-8


def _check_labels(labels: np.ndarray, n_rows: int) -> np.ndarray:
    y = np.asarray(labels)
    if y.shape != (n_rows,):
        raise ShapeError(
            f"labels must be a flat vector of length {n_rows}, got {y.shape}"
        )
    if not np.all(np.isin(y, (0, 1))):
        bad = y[~np.isin(y, (0, 1))][0]
        raise DataError(f"labels must be 0 or 1, found {bad!r}")
    return y.astype(np.int64)


def loss_forward(kind: str, predictions: np.ndarray, labels) -> float:
    """Mean negative log-probability of the true class.

    predictions are post-activation probabilities (softmax rows for
    sparse_categorical, a single sigmoid column for binary), clamped to
    [1e-12, 1 - 1e-12] before the log.
    """
    y = _check_labels(labels, predictions.shape[0])
    if kind == SPARSE_CATEGORICAL:
        if predictions.shape[1] != 2:
            raise ShapeError(
                f"sparse_categorical expects 2 columns, got {predictions.shape}"
            )
        p_true = predictions[np.arange(len(y)), y]
    elif kind == BINARY:
        if predictions.shape[1] != 1:
            raise ShapeError(
                f"binary loss expects 1 column, got {predictions.shape}"
            )
        p1 = predictions[:, 0]
        p_true = np.where(y == 1, p1, 1.0 - p1)
    else:
        raise ConfigError(f"unknown loss kind {kind!r}")
    p_true = np.clip(p_true, _CLAMP, 1.0 - _CLAMP)
    return float(-np.log(p_true).mean())


def loss_grad(kind: str, pre_activation_final: np.ndarray, labels) -> np.ndarray:
    """Fused gradient of the mean loss w.r.t. the final pre-activations.

    For softmax + cross-entropy and sigmoid + binary cross-entropy this
    is the same expression: (p - y) / n.
    """
    z = pre_activation_final
    y = _check_labels(labels, z.shape[0])
    n = z.shape[0]
    if kind == SPARSE_CATEGORICAL:
        if z.shape[1] != 2:
            raise ShapeError(
                f"sparse_categorical expects 2 columns, got {z.shape}"
            )
        p = activation_apply(SOFTMAX, z)
        onehot = np.zeros_like(p)
        onehot[np.arange(n), y] = 1.0
        return (p - onehot) / n
    if kind == BINARY:
        if z.shape[1] != 1:
            raise ShapeError(f"binary loss expects 1 column, got {z.shape}")
        p = activation_apply(SIGMOID, z)
        return (p - y.reshape(-1, 1)) / n
    raise ConfigError(f"unknown loss kind {kind!r}")


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
        state.m[i] = BETA1 * state.m[i] + (1.0 - BETA1) * g
        state.v[i] = BETA2 * state.v[i] + (1.0 - BETA2) * g * g
        m_hat = state.m[i] / (1.0 - BETA1**t)
        v_hat = state.v[i] / (1.0 - BETA2**t)
        out.append(p - state.learning_rate * m_hat / (np.sqrt(v_hat) + EPSILON))
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
    return (probabilities[:, 0] > 0.5).astype(np.int64)


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


def _scores(kind, probs, y):
    loss = loss_forward(kind, probs, y)
    acc = float(np.mean(predict_labels(kind, probs) == y))
    return loss, acc


def train(config: NetworkConfig, x_train: np.ndarray, y_train,
          x_valid: np.ndarray, y_valid):
    """Full-batch Adam training; returns (TrainedModel, History).

    The feature-normalization stage, when configured, is fitted on the
    training rows only and frozen; validation data always goes through
    the training statistics. Each epoch performs one gradient step and
    then records train and validation loss/accuracy at the updated
    parameters. A non-finite pre-activation in any forward pass raises
    DivergenceError naming the epoch and the layer.
    """
    if x_train.shape[1] != config.input_dim:
        raise ShapeError(
            f"training data has {x_train.shape[1]} features but the config "
            f"expects {config.input_dim}"
        )
    if x_valid.shape[1] != config.input_dim:
        raise ShapeError(
            f"validation data has {x_valid.shape[1]} features but the config "
            f"expects {config.input_dim}"
        )
    if x_train.shape[0] == 0 or x_valid.shape[0] == 0:
        raise DataError("training and validation sets must be non-empty")
    y_tr = _check_labels(y_train, x_train.shape[0])
    y_va = _check_labels(y_valid, x_valid.shape[0])

    norm = None
    if config.use_feature_layer:
        norm = FeatureNormLayer().fit(x_train)
        x_tr = norm.apply(x_train)
        x_va = norm.apply(x_valid)
    else:
        x_tr, x_va = x_train, x_valid

    layers = network_init(config, SeededRng(config.seed))
    params = []
    for layer in layers:
        params.extend([layer.weights, layer.bias])
    state = AdamState(params, config.learning_rate)
    history = History()

    # divergence is reported by network_forward's finiteness guard, so
    # numpy's own overflow warnings add nothing
    epoch = 1
    try:
        with np.errstate(over="ignore", invalid="ignore"):
            caches, _ = network_forward(layers, None, x_tr)
            for epoch in range(1, config.epochs + 1):
                delta = loss_grad(config.loss, caches[-1][1], y_tr)
                grads = network_backward(layers, caches, delta)
                params = adam_step(state, params, grads)
                for i, layer in enumerate(layers):
                    layer.weights = params[2 * i]
                    layer.bias = params[2 * i + 1]

                caches, probs = network_forward(layers, None, x_tr)
                tr_loss, tr_acc = _scores(config.loss, probs, y_tr)
                va_loss, va_acc = _scores(
                    config.loss, predict_proba(layers, None, x_va), y_va
                )
                history.train_loss.append(tr_loss)
                history.train_acc.append(tr_acc)
                history.val_loss.append(va_loss)
                history.val_acc.append(va_acc)
    except NonFiniteError as exc:
        raise DivergenceError(
            f"training diverged at epoch {epoch}: {exc}", epoch
        ) from exc

    return TrainedModel(config, norm, layers), history
