"""Dense 2-D float64 arrays: the input check and two reference operations.

A "matrix" throughout the toolkit is a C-contiguous 2-D float64 numpy
array, rows = samples and columns = features. as_matrix makes every
dataset's features one (data.Dataset) and rejects NaN and infinity.
matmul and add_row_broadcast are the dense layer's product and bias
add, per slot on stacks (S, rows, cols), with a shape check naming both
operands; each returns a new array. Training does not call them: it
writes into preallocated buffers (layers._dense_steps), and the tests
use these two as its reference.
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
