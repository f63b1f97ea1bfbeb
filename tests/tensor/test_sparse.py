"""Tests for the sparse-dense products used by graph convolutions."""

import numpy as np
import pytest
import scipy.sparse as sp

from repro.errors import ShapeError
from repro.tensor import Tensor
from repro.tensor.sparse import csr_sort_rows, csr_take_rows, sparse_feature_matmul, spmm


class TestSpmm:
    def test_matches_dense_product(self):
        matrix = sp.random(6, 5, density=0.4, random_state=0, format="csr")
        dense = Tensor(np.random.default_rng(0).normal(size=(5, 3)))
        out = spmm(matrix, dense)
        np.testing.assert_allclose(out.data, matrix.toarray() @ dense.data)

    def test_backward_is_transpose_product(self):
        matrix = sp.random(4, 4, density=0.5, random_state=1, format="csr")
        dense = Tensor(np.random.default_rng(1).normal(size=(4, 2)), requires_grad=True)
        out = spmm(matrix, dense)
        grad = np.ones_like(out.data)
        out.backward(grad)
        np.testing.assert_allclose(dense.grad, matrix.toarray().T @ grad)

    def test_accepts_coo_input(self):
        matrix = sp.random(3, 3, density=0.5, random_state=2, format="coo")
        dense = Tensor(np.ones((3, 2)))
        out = spmm(matrix, dense)
        np.testing.assert_allclose(out.data, matrix.toarray() @ dense.data)

    def test_rejects_dense_matrix(self):
        with pytest.raises(TypeError):
            spmm(np.ones((3, 3)), Tensor(np.ones((3, 2))))

    def test_rejects_shape_mismatch(self):
        matrix = sp.identity(3, format="csr")
        with pytest.raises(ShapeError):
            spmm(matrix, Tensor(np.ones((4, 2))))

    def test_rejects_1d_dense(self):
        matrix = sp.identity(3, format="csr")
        with pytest.raises(ShapeError):
            spmm(matrix, Tensor(np.ones(3)))


class TestSparseFeatureMatmul:
    def test_matches_dense_product(self):
        features = sp.random(7, 10, density=0.3, random_state=3, format="csr")
        weight = Tensor(np.random.default_rng(3).normal(size=(10, 4)))
        out = sparse_feature_matmul(features, weight)
        np.testing.assert_allclose(out.data, features.toarray() @ weight.data)

    def test_gradient_wrt_weight(self):
        features = sp.random(5, 6, density=0.5, random_state=4, format="csr")
        weight = Tensor(np.random.default_rng(4).normal(size=(6, 2)), requires_grad=True)
        out = sparse_feature_matmul(features, weight)
        grad = np.random.default_rng(5).normal(size=out.shape)
        out.backward(grad)
        np.testing.assert_allclose(weight.grad, features.toarray().T @ grad)

    def test_rejects_mismatched_shapes(self):
        features = sp.identity(4, format="csr")
        with pytest.raises(ShapeError):
            sparse_feature_matmul(features, Tensor(np.ones((5, 2))))

    def test_rejects_dense_features(self):
        with pytest.raises(TypeError):
            sparse_feature_matmul(np.ones((3, 3)), Tensor(np.ones((3, 2))))


class TestRawCsrHelpers:
    @pytest.mark.parametrize("index_dtype", [np.int32, np.int64])
    def test_take_rows_matches_scipy_fancy_indexing(self, index_dtype):
        matrix = sp.random(30, 12, density=0.3, random_state=3, format="csr")
        matrix.indices = matrix.indices.astype(index_dtype)
        matrix.indptr = matrix.indptr.astype(index_dtype)
        rows = np.array([4, 0, 29, 4, 17, 3], dtype=np.int64)
        out, expected = csr_take_rows(matrix, rows), matrix[rows]
        assert out.shape == expected.shape
        assert out.data.tobytes() == expected.data.tobytes()
        np.testing.assert_array_equal(out.indices, expected.indices)
        np.testing.assert_array_equal(out.indptr, expected.indptr)
        assert out.indices.dtype == out.indptr.dtype == index_dtype
        assert csr_take_rows(matrix, np.empty(0, dtype=np.int64)).shape == (0, 12)

    def test_sort_rows_orders_columns_within_each_row(self):
        indptr = np.array([0, 3, 3, 5], dtype=np.int64)
        indices = np.array([2, 0, 1, 4, 3], dtype=np.int64)
        data = np.array([20.0, 0.0, 10.0, 24.0, 23.0])
        csr_sort_rows(indptr, indices, data)
        np.testing.assert_array_equal(indices, [0, 1, 2, 3, 4])
        np.testing.assert_array_equal(data, [0.0, 10.0, 20.0, 23.0, 24.0])
