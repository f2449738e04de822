"""Dense layers, activations, and the feature-normalization input stage.

The forward rule for every dense layer is the usual weighted sum passed
through an elementwise activation:

    z = x @ W + b          (x: batch x in_dim, W: in_dim x out_dim)
    out = activation(z)

Every forward and backward function also takes stacked operands with a
leading seed axis: x of shape (S, batch, in_dim), W of shape
(S, in_dim, out_dim) and b of shape (S, 1, out_dim) describe S
independent networks of one architecture, and slot s of every result
is exactly what the 2-D call on slot s would return. The code is the
same for both: products use matmul, transposes swap the last two axes
and sums run over the batch axis, -2. This is how training runs all
seeds of a spec as one network (see training.train_many).

Backward rules are the textbook ones; see network_backward. The softmax
activation is special-cased: its gradient is only ever needed fused
with the cross-entropy loss (see training.loss_grad), so asking for a
standalone softmax derivative is a contract error.

The "feature layer" used by the second family of models is a
per-feature standardization stage: it learns column means and standard
deviations from the training rows only and maps every later input
through (x - mean) / std. It exists because the raw batteries mix
features on wildly different scales (single digits next to values near
100), which cripples an unnormalized first layer.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    ConfigError,
    ContractError,
    DataError,
    NonFiniteError,
    NotFittedError,
    ShapeError,
)
from .matrix import add_row_broadcast, matmul
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
                raise ConfigError(f"leaky_relu slope must be in (0, 1), got {s}")
            object.__setattr__(self, "slope", s)
        elif self.slope is not None:
            raise ConfigError(f"{self.kind} takes no slope parameter")


IDENTITY = Activation("identity")
RELU = Activation("relu")
SIGMOID = Activation("sigmoid")
SOFTMAX = Activation("softmax")


def leaky_relu(slope: float = 0.01) -> Activation:
    return Activation("leaky_relu", slope)


def _stable_sigmoid(z: np.ndarray) -> np.ndarray:
    # two-branch form avoids exp overflow for large |z|
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


def activation_apply(a: Activation, z: np.ndarray) -> np.ndarray:
    """Apply an activation elementwise (softmax: per row, stabilized)."""
    if a.kind == "identity":
        return z.copy()
    if a.kind == "relu":
        return np.maximum(z, 0.0)
    if a.kind == "leaky_relu":
        return np.where(z > 0.0, z, a.slope * z)
    if a.kind == "sigmoid":
        return _stable_sigmoid(z)
    # softmax with max subtraction so huge logits cannot overflow
    if z.shape[-1] < 2:
        raise ConfigError(
            f"softmax needs at least 2 columns, got shape {z.shape}"
        )
    shifted = z - z.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=-1, keepdims=True)


def activation_grad(a: Activation, z: np.ndarray) -> np.ndarray:
    """Elementwise derivative with respect to the pre-activation.

    leaky_relu at exactly 0 uses the slope (the pinned subgradient
    choice). softmax is rejected: its gradient is fused with the loss.
    """
    if a.kind == "softmax":
        raise ContractError(
            "softmax has no standalone gradient; use the fused "
            "cross-entropy gradient (training.loss_grad)"
        )
    if a.kind == "identity":
        return np.ones_like(z)
    if a.kind == "relu":
        return (z > 0.0).astype(np.float64)
    if a.kind == "leaky_relu":
        return np.where(z > 0.0, 1.0, a.slope)
    s = _stable_sigmoid(z)
    return s * (1.0 - s)


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


def stack_layers(networks) -> list[DenseLayer]:
    """One stacked network from S networks of the same architecture;
    slot s holds networks[s]."""
    return [
        DenseLayer(
            np.stack([layer.weights for layer in column]),
            np.stack([layer.bias for layer in column]),
            column[0].activation,
        )
        for column in zip(*networks)
    ]


def unstack_layers(layers: list[DenseLayer], slot: int) -> list[DenseLayer]:
    """Copy of slot `slot` of a stacked network as a 2-D network."""
    return [
        DenseLayer(layer.weights[slot].copy(), layer.bias[slot].copy(),
                   layer.activation)
        for layer in layers
    ]


def dense_forward(layer: DenseLayer, x: np.ndarray):
    """Forward pass; returns (pre_activation, output) for backprop caching."""
    if x.shape[-1] != layer.in_dim:
        raise ShapeError(
            f"dense_forward: input {x.shape} does not match weights "
            f"{layer.weights.shape}"
        )
    z = add_row_broadcast(matmul(x, layer.weights), layer.bias)
    return z, activation_apply(layer.activation, z)


def dense_backward_from_delta(layer: DenseLayer, x: np.ndarray,
                              delta: np.ndarray):
    """Backward pass through the affine map, given delta = dLoss/dz.

    grad_w = x^T @ delta
    grad_b = column sums of delta
    grad_x = delta @ W^T
    """
    if x.shape[-2] != delta.shape[-2] or delta.shape[-1] != layer.out_dim:
        raise ShapeError(
            f"dense_backward_from_delta: delta {delta.shape} inconsistent "
            f"with input {x.shape} and weights {layer.weights.shape}"
        )
    grad_w, grad_b = _param_grads(x, delta)
    return grad_w, grad_b, matmul(delta, np.swapaxes(layer.weights, -1, -2))


def _param_grads(x: np.ndarray, delta: np.ndarray):
    return (
        matmul(np.swapaxes(x, -1, -2), delta),
        delta.sum(axis=-2, keepdims=True),
    )


class FeatureNormLayer:
    """Fit-on-train z-score stage; the first layer of the second models.

    fit() learns per-column mean and population standard deviation from
    the training rows only. Columns with zero variance get std = 1 so
    apply() never divides by zero. apply() before fit() is an error;
    test data must be transformed with the training statistics.
    """

    def __init__(self):
        self.means: np.ndarray | None = None
        self.stds: np.ndarray | None = None

    @property
    def fitted(self) -> bool:
        return self.means is not None

    def fit(self, train_x: np.ndarray) -> "FeatureNormLayer":
        if train_x.shape[0] < 2:
            raise DataError(
                f"feature normalization needs >= 2 rows, got {train_x.shape[0]}"
            )
        self.means = train_x.mean(axis=0)
        stds = train_x.std(axis=0)  # population convention (ddof=0)
        self.stds = np.where(stds > 0.0, stds, 1.0)
        return self

    def apply(self, x: np.ndarray) -> np.ndarray:
        if not self.fitted:
            raise NotFittedError("feature normalization applied before fit")
        if x.shape[1] != self.means.shape[0]:
            raise ShapeError(
                f"feature normalization fitted on {self.means.shape[0]} "
                f"columns, got input {x.shape}"
            )
        return (x - self.means) / self.stds


LOSS_KINDS = ("sparse_categorical", "binary")


@dataclass(frozen=True)
class NetworkConfig:
    """Ordered layer plan plus the training knobs for one model.

    layers lists (width, activation) pairs applied after the optional
    feature-normalization stage. The final pair is the output layer:
    sparse_categorical loss requires (2, softmax), binary requires
    (1, sigmoid). softmax may appear nowhere else.
    """

    input_dim: int
    layers: tuple[tuple[int, Activation], ...]
    loss: str = "sparse_categorical"
    use_feature_layer: bool = False
    epochs: int = 50
    learning_rate: float = 0.001
    seed: int = 0

    def __post_init__(self):
        object.__setattr__(
            self,
            "layers",
            tuple((int(w), a) for w, a in self.layers),
        )
        if self.input_dim < 1:
            raise ConfigError(f"input_dim must be >= 1, got {self.input_dim}")
        if not self.layers:
            raise ConfigError("network needs at least one layer")
        if self.loss not in LOSS_KINDS:
            raise ConfigError(f"unknown loss kind {self.loss!r}")
        if self.epochs < 1:
            raise ConfigError(f"epochs must be >= 1, got {self.epochs}")
        if self.learning_rate <= 0.0:
            raise ConfigError(
                f"learning_rate must be positive, got {self.learning_rate}"
            )
        for width, act in self.layers:
            if width < 1:
                raise ConfigError(f"layer widths must be >= 1, got {width}")
            if not isinstance(act, Activation):
                raise ConfigError(f"layer activation must be an Activation, got {act!r}")
        for width, act in self.layers[:-1]:
            if act.kind == "softmax":
                raise ConfigError("softmax is only permitted on the final layer")
        final_width, final_act = self.layers[-1]
        if self.loss == "sparse_categorical":
            if final_width != 2 or final_act.kind != "softmax":
                raise ConfigError(
                    "sparse_categorical loss requires a final (2, softmax) "
                    f"layer, got ({final_width}, {final_act.kind})"
                )
        else:
            if final_width != 1 or final_act.kind != "sigmoid":
                raise ConfigError(
                    "binary loss requires a final (1, sigmoid) layer, got "
                    f"({final_width}, {final_act.kind})"
                )

    def with_overrides(self, **changes) -> "NetworkConfig":
        fields = {
            "input_dim": self.input_dim,
            "layers": self.layers,
            "loss": self.loss,
            "use_feature_layer": self.use_feature_layer,
            "epochs": self.epochs,
            "learning_rate": self.learning_rate,
            "seed": self.seed,
        }
        fields.update(changes)
        return NetworkConfig(**fields)

    def to_json(self) -> str:
        """Canonical JSON text; parsing and re-serializing is byte-stable."""
        layers = []
        for width, act in self.layers:
            entry = {"width": width, "activation": act.kind}
            if act.kind == "leaky_relu":
                entry["slope"] = act.slope
            layers.append(entry)
        doc = {
            "input_dim": self.input_dim,
            "layers": layers,
            "loss": self.loss,
            "use_feature_layer": self.use_feature_layer,
            "epochs": self.epochs,
            "learning_rate": self.learning_rate,
            "seed": self.seed,
        }
        return json.dumps(doc, indent=2) + "\n"

    @classmethod
    def from_json(cls, text: str) -> "NetworkConfig":
        try:
            doc = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config is not valid JSON: {exc}") from exc
        try:
            layers = []
            for entry in doc["layers"]:
                kind = entry["activation"]
                slope = entry.get("slope")
                layers.append((entry["width"], Activation(kind, slope)))
            return cls(
                input_dim=doc["input_dim"],
                layers=tuple(layers),
                loss=doc["loss"],
                use_feature_layer=doc["use_feature_layer"],
                epochs=doc["epochs"],
                learning_rate=doc["learning_rate"],
                seed=doc["seed"],
            )
        except (KeyError, TypeError) as exc:
            raise ConfigError(f"config JSON is missing field: {exc}") from exc


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
        draws = [rng.next_uniform() for _ in range(fan_in * fan_out)]
        w = (2.0 * np.array(draws).reshape(fan_in, fan_out) - 1.0) * bound
        stack.append(DenseLayer(w, np.zeros((1, fan_out)), act))
    return stack


def network_forward(layers: list[DenseLayer], norm: FeatureNormLayer | None,
                    x: np.ndarray):
    """Run the full stack; returns (caches, output).

    caches holds one (layer_input, pre_activation) pair per dense layer,
    exactly what network_backward needs. The normalization stage, when
    present, is applied first and has no trainable parameters (pass
    None for a stacked network; its input is normalized per slot).

    A NaN or infinity in any layer's pre-activation raises
    NonFiniteError naming the layer; on a stack it also names the
    failing slots (exc.slots), so the other slots can carry on. This is
    the only finiteness check of a training step.
    """
    h = norm.apply(x) if norm is not None else x
    caches = []
    for i, layer in enumerate(layers):
        z, out = dense_forward(layer, h)
        finite = np.isfinite(z).all(axis=(-2, -1))
        if not finite.all():
            message = f"layer {i} pre-activation is non-finite"
            slots = np.flatnonzero(~finite).tolist()
            if z.ndim > 2:
                message += f" in stack slots {slots}"
            raise NonFiniteError(message, layer=i, slots=slots)
        caches.append((h, z))
        h = out
    return caches, h


def network_backward(layers: list[DenseLayer], caches, delta: np.ndarray):
    """Backpropagate delta = dLoss/dz of the final layer through the stack.

    caches is network_forward's. Each earlier layer's delta is the next
    layer's grad_x times its own activation derivative; the first
    layer's grad_x has no consumer and is not computed. Returns the
    gradients in parameter order, [dW0, db0, dW1, db1, ...].
    """
    grads = [None] * (2 * len(layers))
    for i in range(len(layers) - 1, -1, -1):
        layer_x, z = caches[i]
        if i < len(layers) - 1:
            delta = delta * activation_grad(layers[i].activation, z)
        if i == 0:
            grads[0], grads[1] = _param_grads(layer_x, delta)
        else:
            grads[2 * i], grads[2 * i + 1], delta = dense_backward_from_delta(
                layers[i], layer_x, delta
            )
    return grads
