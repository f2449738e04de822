"""Build a tiny dense network by hand and check one gradient numerically.

Everything the trainer does is assembled here from the public pieces:
Glorot initialization, the forward pass, the fused loss gradient, and
the layer-by-layer backward pass. At the end a single weight is nudged
by +-h and the finite-difference slope is compared with the analytic
gradient -- the classic sanity check for backpropagation code.
"""

import numpy as np

from fasdnet import (
    SOFTMAX,
    NetworkConfig,
    SeededRng,
    leaky_relu,
    loss_forward,
    loss_grad,
    network_backward,
    network_forward,
    network_init,
)

# a 6-feature input, two small leaky-relu hidden layers, softmax pair out
config = NetworkConfig(
    input_dim=6,
    layers=(
        (8, leaky_relu()),
        (5, leaky_relu()),
        (2, SOFTMAX),
    ),
    loss="sparse_categorical",
    use_feature_layer=False,
    epochs=1,
    learning_rate=0.001,
    seed=42,
)

rng = SeededRng(7)
layers = network_init(config, SeededRng(config.seed))
x = np.array([[rng.next_normal() for _ in range(6)] for _ in range(8)])
y = np.array([0, 1] * 4, dtype=np.int64)

# forward: caches hold (layer input, pre-activation) for every layer
caches, probs = network_forward(layers, None, x)
loss = loss_forward(config.loss, probs, y)
print(f"loss on the random batch: {loss:.6f}")
print(f"output rows sum to 1: {np.allclose(probs.sum(axis=1), 1.0)}")

# backward: the softmax/cross-entropy pair collapses to (p - y)/n at the
# final pre-activations, then each layer peels off its own gradients;
# grads lists [dW0, db0, dW1, db1, dW2, db2]
delta = loss_grad(config.loss, caches[-1][1], y)
grads = network_backward(layers, caches, delta)

# numeric check on one arbitrary weight of the middle layer
h = 1e-6
i, j = 3, 2
layer = layers[1]


def loss_at(w_value):
    old = layer.weights[i, j]
    layer.weights[i, j] = w_value
    _, p = network_forward(layers, None, x)
    out = loss_forward(config.loss, p, y)
    layer.weights[i, j] = old
    return out


w = layer.weights[i, j]
numeric = (loss_at(w + h) - loss_at(w - h)) / (2 * h)
analytic = grads[2][i, j]
print(f"analytic gradient dL/dW[1][{i},{j}] = {analytic:+.10f}")
print(f"numeric  (central difference)      = {numeric:+.10f}")
print(f"absolute difference                = {abs(analytic - numeric):.2e}")
