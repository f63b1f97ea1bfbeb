"""Tests for the trainers' backward seam and the fused-kernel switch.

``GradArena.backward`` is the call both trainers make; it must be plain
``Tensor.backward``, bit for bit, with the same errors.
"""

import numpy as np
import pytest
import scipy.sparse as sp

from repro.tensor import Tensor, fused, ops
from repro.tensor.fused import fused_ops_enabled, use_fused_ops
from repro.tensor.functional import masked_cross_entropy_logits
from repro.tensor.tensor import GradArena

RNG = np.random.default_rng(11)


def param(shape):
    return Tensor(RNG.normal(size=shape), requires_grad=True)


def small_loss(w1, w2, x, labels, index):
    h = ops.relu(ops.matmul(x, w1))
    logits = ops.matmul(h, w2)
    return masked_cross_entropy_logits(logits, labels, index)


class TestFusedSwitch:
    def test_default_on(self):
        assert fused_ops_enabled()

    def test_context_manager_restores(self):
        with use_fused_ops(False):
            assert not fused_ops_enabled()
        assert fused_ops_enabled()

    def test_restores_on_exception(self):
        with pytest.raises(RuntimeError):
            with use_fused_ops(False):
                raise RuntimeError("boom")
        assert fused_ops_enabled()


class TestGradArenaBackward:
    def _setup(self):
        w1, w2 = param((5, 4)), param((4, 3))
        x = Tensor(RNG.normal(size=(8, 5)))
        labels = RNG.integers(0, 3, size=8)
        index = np.array([0, 2, 4, 6])
        return w1, w2, x, labels, index

    def test_matches_plain_backward_bitwise(self):
        w1, w2, x, labels, index = self._setup()
        GradArena().backward(small_loss(w1, w2, x, labels, index))
        arena_grads = [np.array(w1.grad), np.array(w2.grad)]

        w1.zero_grad(), w2.zero_grad()
        small_loss(w1, w2, x, labels, index).backward()
        assert np.array_equal(arena_grads[0], w1.grad)
        assert np.array_equal(arena_grads[1], w2.grad)

    def test_non_scalar_output_raises(self):
        w = param((3, 3))
        with pytest.raises(Exception):
            GradArena().backward(ops.matmul(w, w))

    def test_no_grad_output_raises(self):
        with pytest.raises(RuntimeError):
            GradArena().backward(Tensor(1.0))


class TestZeroGradSemantics:
    def test_set_to_none_default(self):
        w = param((3,))
        ops.sum(ops.mul(w, w)).backward()
        assert w.grad is not None
        w.zero_grad()
        assert w.grad is None

    def test_in_place_zero_fill(self):
        w = param((3,))
        ops.sum(ops.mul(w, w)).backward()
        buffer = w.grad
        w.zero_grad(set_to_none=False)
        assert w.grad is buffer
        assert np.all(buffer == 0.0)

    def test_zero_fill_without_grad_is_noop(self):
        w = param((3,))
        w.zero_grad(set_to_none=False)
        assert w.grad is None


class TestFusedLayerDispatch:
    def test_linear_layer_uses_fused_node(self):
        from repro.nn.layers import Linear

        layer = Linear(4, 3, np.random.default_rng(0))
        x = Tensor(RNG.normal(size=(5, 4)))
        with use_fused_ops(True):
            fused_out = layer(x)
        with use_fused_ops(False):
            legacy_out = layer(x)
        # Fused: one tape node holding all parents; legacy: an add node
        # over the matmul node.
        assert len(fused_out._parents) == 3
        assert len(legacy_out._parents) == 2
        assert np.array_equal(fused_out.data, legacy_out.data)

    def test_gcn_layer_uses_fused_node(self):
        from repro.nn.layers import GraphConvolution

        layer = GraphConvolution(4, 3, np.random.default_rng(0))
        adj = sp.random(5, 5, density=0.4, random_state=0, format="csr")
        x = Tensor(RNG.normal(size=(5, 4)))
        with use_fused_ops(True):
            fused_out = layer(adj, x)
        with use_fused_ops(False):
            legacy_out = layer(adj, x)
        assert len(fused_out._parents) == 3
        assert np.array_equal(fused_out.data, legacy_out.data)

    def test_empty_index_short_circuits(self):
        logits = param((4, 3))
        out = fused.softmax_cross_entropy(logits, np.zeros(4, dtype=np.int64), np.array([], dtype=np.int64))
        assert out.item() == 0.0


class TestFusedDropoutArena:
    """``fused.dropout``'s identity and validation paths (its bitwise
    parity with ``ops.dropout`` lives in ``test_gradcheck.py``)."""

    def test_identity_paths_lease_nothing(self):
        x = Tensor(RNG.normal(size=(4, 4)))
        rng = np.random.default_rng(1)
        assert fused.dropout(x, 0.0, rng) is x
        assert fused.dropout(x, 0.5, rng, training=False) is x
        # Neither identity path draws from the rng stream.
        assert rng.random() == np.random.default_rng(1).random()

    def test_invalid_rate_raises(self):
        x = Tensor(RNG.normal(size=(4, 4)))
        with pytest.raises(ValueError):
            fused.dropout(x, 1.0, np.random.default_rng(1))
