"""Matrix kernel tests, each derived op checked against a naive oracle."""

import numpy as np
import pytest

from fasdnet.errors import NonFiniteError, ShapeError
from fasdnet.matrix import (
    add_row_broadcast,
    as_matrix,
    matmul,
)
from fasdnet.layers import SPARSE_CATEGORICAL
from fasdnet.training import predict_labels


def triple_loop_matmul(a, b):
    """Entry-by-entry reference product, no vectorization."""
    n, k = a.shape
    k2, m = b.shape
    assert k == k2
    out = np.zeros((n, m))
    for i in range(n):
        for j in range(m):
            s = 0.0
            for t in range(k):
                s += a[i, t] * b[t, j]
            out[i, j] = s
    return out


def test_as_matrix_coerces_and_validates():
    m = as_matrix([[1, 2], [3, 4]])
    assert m.dtype == np.float64
    assert m.shape == (2, 2)
    # 1-D input becomes a single row
    assert as_matrix([1.0, 2.0, 3.0]).shape == (1, 3)
    with pytest.raises(ShapeError):
        as_matrix(np.zeros((2, 2, 2)))
    with pytest.raises(NonFiniteError):
        as_matrix([[1.0, np.nan]])
    with pytest.raises(NonFiniteError):
        as_matrix([[np.inf, 0.0]])


def test_matmul_identity():
    a = as_matrix([[3.0, 4.0], [5.0, 6.0]])
    assert np.array_equal(matmul(np.eye(2), a), a)


def test_matmul_hand_inner_product():
    out = matmul(as_matrix([[1.0, 2.0]]), as_matrix([[3.0], [4.0]]))
    assert out.shape == (1, 1)
    assert out[0, 0] == 11.0


def test_matmul_matches_triple_loop_oracle():
    rng = np.random.default_rng(0)
    for _ in range(10):
        a = rng.standard_normal((7, 5))
        b = rng.standard_normal((5, 3))
        np.testing.assert_allclose(matmul(a, b), triple_loop_matmul(a, b),
                                   atol=1e-12)


def test_matmul_shape_error_names_both_shapes():
    with pytest.raises(ShapeError) as err:
        matmul(np.zeros((2, 3)), np.zeros((4, 5)))
    assert "(2, 3)" in str(err.value) and "(4, 5)" in str(err.value)


def test_matmul_associativity():
    rng = np.random.default_rng(1)
    for _ in range(10):
        a = rng.standard_normal((4, 6))
        b = rng.standard_normal((6, 5))
        c = rng.standard_normal((5, 3))
        left = matmul(matmul(a, b), c)
        right = matmul(a, matmul(b, c))
        np.testing.assert_allclose(left, right, rtol=1e-9)


def test_add_row_broadcast_zero_bias_is_identity():
    a = as_matrix([[1.0, 1.0], [2.0, 2.0]])
    assert np.array_equal(add_row_broadcast(a, np.zeros((1, 2))), a)


def test_add_row_broadcast_hand_sum():
    out = add_row_broadcast(as_matrix([[1.0, 1.0]]), as_matrix([[5.0, -5.0]]))
    assert np.array_equal(out, [[6.0, -4.0]])


def test_add_row_broadcast_matches_loop_oracle():
    rng = np.random.default_rng(3)
    a = rng.standard_normal((4, 3))
    bias = rng.standard_normal((1, 3))
    expected = np.array([[a[i, j] + bias[0, j] for j in range(3)]
                         for i in range(4)])
    assert np.array_equal(add_row_broadcast(a, bias), expected)


def test_add_row_broadcast_rejects_width_mismatch():
    with pytest.raises(ShapeError):
        add_row_broadcast(np.zeros((2, 3)), np.zeros((1, 2)))
    with pytest.raises(ShapeError):
        # a flat vector is not an accepted bias shape
        add_row_broadcast(np.zeros((2, 3)), np.zeros(3))


# The row argmax is training.predict_labels on softmax rows.
def argmax_rows(a):
    return predict_labels(SPARSE_CATEGORICAL, a)


def test_argmax_rows_basic_and_tie_rule():
    assert argmax_rows(as_matrix([[0.1, 0.9]])).tolist() == [1]
    # exact ties break toward the lower index
    assert argmax_rows(as_matrix([[0.5, 0.5]])).tolist() == [0]
    assert argmax_rows(as_matrix([[3.0, 3.0, 3.0]])).tolist() == [0]


def test_argmax_rows_matches_scan_oracle():
    rng = np.random.default_rng(6)
    a = rng.standard_normal((10, 2))
    expected = []
    for row in a:
        best, best_j = row[0], 0
        for j, v in enumerate(row):
            if v > best:
                best, best_j = v, j
        expected.append(best_j)
    assert argmax_rows(a).tolist() == expected


def test_argmax_rows_empty_matrix():
    out = argmax_rows(np.zeros((0, 3)))
    assert out.shape == (0,) and out.dtype == np.int64
