"""Dense 2-D float64 arrays and the handful of operations layers need.

A "matrix" throughout the toolkit is a C-contiguous 2-D float64 numpy
array, rows = samples and columns = features. matmul, add_row_broadcast
and argmax_rows also take a stack of matrices with a leading axis,
(S, rows, cols), and work on each slot independently; that is how the
training loop trains several seeds as one network. These wrappers
attach the shape contract every caller relies on: a failed shape check
names both operand shapes. Only as_matrix checks finiteness, on input.
The operations themselves may overflow to infinity; the forward pass
(layers.network_forward) checks each layer's pre-activation once and
raises NonFiniteError there. Treat matrices as immutable; every
function here returns a new array. The training step's products do
not come through here: they write into preallocated buffers with
np.matmul(..., out=), see layers.dense_forward.
"""

from __future__ import annotations

import numpy as np

from .errors import NonFiniteError, ShapeError


def as_matrix(data) -> np.ndarray:
    """Coerce nested lists / arrays to a validated 2-D float64 matrix."""
    a = np.asarray(data, dtype=np.float64)
    if a.ndim == 1:
        a = a.reshape(1, -1)
    if a.ndim != 2:
        raise ShapeError(f"matrix must be 2-D, got {a.ndim}-D shape {a.shape}")
    if not np.all(np.isfinite(a)):
        raise NonFiniteError("matrix contains NaN or infinite entries")
    return a


def matmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Matrix product a @ b (per slot for stacks) with a shape check
    naming both operands."""
    if a.shape[-1] != b.shape[-2]:
        raise ShapeError(f"matmul: inner dims differ, {a.shape} @ {b.shape}")
    return a @ b


def add_row_broadcast(a: np.ndarray, bias: np.ndarray) -> np.ndarray:
    """Add a 1 x n bias row to every row of a (a stack takes one bias
    row per slot, shape (S, 1, n))."""
    expected = a.shape[:-2] + (1, a.shape[-1])
    if bias.shape != expected:
        raise ShapeError(
            f"add_row_broadcast: bias must be {expected} for operand "
            f"{a.shape}, got {bias.shape}"
        )
    return a + bias


def argmax_rows(a: np.ndarray) -> np.ndarray:
    """Index of the max entry in each row; ties go to the lower index."""
    if a.shape[-2] == 0:
        return np.zeros(a.shape[:-1], dtype=np.int64)
    if a.shape[-1] < 1:
        raise ShapeError(f"argmax_rows needs at least one column, got {a.shape}")
    return a.argmax(axis=-1)
