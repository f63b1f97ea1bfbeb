"""Sparse-matrix operations for the autodiff engine.

Graph convolutions multiply a *constant* sparse matrix (the normalized
adjacency) by a dense activations tensor.  Because the sparse operand is
constant, only the dense side needs a gradient, which keeps the backward
pass a single transposed sparse-dense product.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

from repro.errors import ShapeError
from repro.tensor.tensor import Tensor, as_tensor, is_grad_enabled

# The raw CSR/CSC kernels scipy's own operators dispatch to.
from scipy.sparse import _sparsetools


def raw_csr(data: np.ndarray, indices: np.ndarray, indptr: np.ndarray,
            shape: tuple) -> sp.csr_matrix:
    """A ``csr_matrix`` wrapped directly around ``data/indices/indptr``.

    ``sp.csr_matrix((data, indices, indptr))`` re-validates and may
    re-cast the arrays, which costs as much as the work itself on the
    per-batch hot paths.  Callers guarantee the arrays already form a
    valid CSR structure of ``shape`` (matching index dtypes, in-range
    columns); nothing is checked or copied.
    """
    out = sp.csr_matrix.__new__(sp.csr_matrix)
    out.data = data
    out.indices = indices
    out.indptr = indptr
    out._shape = shape
    return out


def csr_take_rows(matrix: sp.csr_matrix, rows: np.ndarray) -> sp.csr_matrix:
    """``matrix[rows]`` for a CSR ``matrix`` and an int64 row-id array.

    Runs the same ``csr_row_index`` kernel as scipy's fancy indexing,
    without its index-dtype negotiation and container validation, so
    the result has the same ``data``/``indices``/``indptr`` values.
    Index arrays keep ``matrix``'s index dtype.  ``rows`` must be
    in range (unchecked).
    """
    indptr = matrix.indptr
    row_nnz = indptr[rows + 1] - indptr[rows]
    out_indptr = np.zeros(len(rows) + 1, dtype=indptr.dtype)
    np.cumsum(row_nnz, out=out_indptr[1:])
    nnz = int(out_indptr[-1])
    out_indices = np.empty(nnz, dtype=matrix.indices.dtype)
    out_data = np.empty(nnz, dtype=matrix.data.dtype)
    _sparsetools.csr_row_index(
        len(rows), rows.astype(indptr.dtype, copy=False), indptr, matrix.indices,
        matrix.data, out_indices, out_data,
    )
    return raw_csr(out_data, out_indices, out_indptr, (len(rows), matrix.shape[1]))


def csr_sort_rows(indptr: np.ndarray, indices: np.ndarray, data: np.ndarray) -> None:
    """Sort the column indices of every CSR row in place (data follows).

    Rows must not repeat a column, so the per-row order is unique.
    """
    _sparsetools.csr_sort_indices(len(indptr) - 1, indptr, indices, data)


def sparse_dense_matmul(matrix: sp.spmatrix, dense: np.ndarray) -> np.ndarray:
    """``matrix @ dense`` through the raw CSR/CSC kernel.

    The hot paths multiply the same sparse matrix by a small dense block
    thousands of times; scipy's operator dispatch (format checks, index
    upcasting, container wrapping) costs as much as the kernel for these
    sizes.  This calls the identical ``csr_matvecs``/``csc_matvecs``
    routine directly — same accumulation order, so results are bitwise
    equal to ``matrix @ dense`` — and falls back to the operator for
    anything it cannot handle (dtype mismatch, non-contiguous operand,
    other formats).
    """
    if (
        dense.ndim == 2
        and matrix.dtype == dense.dtype
        and dense.flags.c_contiguous
    ):
        rows, cols = matrix.shape
        if sp.isspmatrix_csr(matrix):
            out = np.zeros((rows, dense.shape[1]), dtype=dense.dtype)
            _sparsetools.csr_matvecs(
                rows, cols, dense.shape[1],
                matrix.indptr, matrix.indices, matrix.data,
                dense.ravel(), out.ravel(),
            )
            return out
        if sp.isspmatrix_csc(matrix):
            out = np.zeros((rows, dense.shape[1]), dtype=dense.dtype)
            _sparsetools.csc_matvecs(
                rows, cols, dense.shape[1],
                matrix.indptr, matrix.indices, matrix.data,
                dense.ravel(), out.ravel(),
            )
            return out
    return np.asarray(matrix @ dense)


def cached_transpose(matrix: sp.spmatrix) -> sp.spmatrix:
    """``matrix.T``, memoized on the matrix object.

    Backward passes transpose the same constant adjacency every epoch;
    scipy's ``.T`` rebuilds a container (with index checks) each time,
    which costs as much as a small product.  The transpose shares the
    original's data arrays, so the cache is only valid because graph
    matrices are never mutated in place anywhere in this codebase.
    """
    cached = getattr(matrix, "_repro_transpose", None)
    if cached is None:
        cached = matrix.T
        try:
            matrix._repro_transpose = cached
        except AttributeError:  # exotic sparse types without __dict__
            pass
    return cached


def spmm(matrix: sp.spmatrix, dense: Tensor) -> Tensor:
    """Multiply a constant sparse matrix by a dense tensor: ``matrix @ dense``.

    Parameters
    ----------
    matrix:
        A scipy sparse matrix (treated as a constant, no gradient).
    dense:
        A 2-D tensor; gradients flow into it via ``matrix.T @ grad``.
    """
    dense = as_tensor(dense)
    if not sp.issparse(matrix):
        raise TypeError(f"spmm expects a scipy sparse matrix, got {type(matrix).__name__}")
    if dense.ndim != 2:
        raise ShapeError(f"spmm expects a 2-D dense operand, got shape {dense.shape}")
    if matrix.shape[1] != dense.shape[0]:
        raise ShapeError(f"spmm shape mismatch: {matrix.shape} @ {dense.shape}")
    csr = matrix.tocsr()
    out_data = sparse_dense_matmul(csr, dense.data)
    if not is_grad_enabled():
        return Tensor._from_array(out_data)

    def backward(grad: np.ndarray) -> None:
        if dense.requires_grad:
            dense._accumulate(sparse_dense_matmul(cached_transpose(csr), grad))

    return Tensor._make(out_data, (dense,), backward)


def sparse_feature_matmul(features: sp.spmatrix, weight: Tensor) -> Tensor:
    """Multiply constant sparse features by a dense weight: ``features @ weight``.

    This is the first-layer product for datasets with very wide sparse
    feature matrices (e.g. the NELL one-hot features), where densifying
    ``features`` would be wasteful.  Gradient w.r.t. ``weight`` is
    ``features.T @ grad``.
    """
    weight = as_tensor(weight)
    if not sp.issparse(features):
        raise TypeError(f"expected a scipy sparse matrix, got {type(features).__name__}")
    if weight.ndim != 2 or features.shape[1] != weight.shape[0]:
        raise ShapeError(f"shape mismatch: {features.shape} @ {weight.shape}")
    csr = features.tocsr()
    out_data = sparse_dense_matmul(csr, weight.data)
    if not is_grad_enabled():
        return Tensor._from_array(out_data)

    def backward(grad: np.ndarray) -> None:
        if weight.requires_grad:
            weight._accumulate(sparse_dense_matmul(cached_transpose(csr), grad))

    return Tensor._make(out_data, (weight,), backward)
