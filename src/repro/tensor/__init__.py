"""Tape-based reverse-mode autodiff on numpy — the PyTorch stand-in.

Public surface:

* :class:`Tensor` and :func:`as_tensor` — the autodiff array type;
* :mod:`repro.tensor.ops` — differentiable primitive operations;
* :mod:`repro.tensor.sparse` — sparse-dense products for graph convolutions;
* :mod:`repro.tensor.functional` — losses (cross entropy, distillation MSE,
  edge regularization, KL) and metrics;
* :mod:`repro.tensor.gradcheck` — finite-difference gradient verification;
* :mod:`repro.tensor.fused` — fused training-step kernels (single-node
  softmax cross entropy, linear, GCN layer, dropout) plus
  :class:`use_fused_ops`, which scopes the elementary-tape reference.

Every training step runs the plain :meth:`Tensor.backward`: each
gradient is a fresh array, so one held from a step is never overwritten
by the next.
"""

from repro.tensor import functional, fused, ops
from repro.tensor.fused import fused_ops_enabled, use_fused_ops
from repro.tensor.gradcheck import check_gradients, numerical_gradient
from repro.tensor.sparse import sparse_feature_matmul, spmm
from repro.tensor.tensor import (
    Tensor,
    as_tensor,
    default_dtype,
    enable_grad,
    get_default_dtype,
    is_grad_enabled,
    no_grad,
    set_default_dtype,
    unbroadcast,
)

__all__ = [
    "Tensor",
    "as_tensor",
    "unbroadcast",
    "ops",
    "functional",
    "fused",
    "fused_ops_enabled",
    "use_fused_ops",
    "spmm",
    "sparse_feature_matmul",
    "check_gradients",
    "numerical_gradient",
    "no_grad",
    "enable_grad",
    "is_grad_enabled",
    "default_dtype",
    "get_default_dtype",
    "set_default_dtype",
]
