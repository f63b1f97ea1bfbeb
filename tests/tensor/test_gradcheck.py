"""Finite-difference verification of every op's backward pass.

These are the ground-truth tests for the autodiff substrate: if these
pass, the gradients that train every model in this repository are right.
"""

import numpy as np
import pytest

import scipy.sparse as sp

from repro.tensor import Tensor, check_gradients, functional, fused, ops
from repro.tensor.fused import use_fused_ops
from repro.tensor.sparse import sparse_feature_matmul, spmm

RNG = np.random.default_rng(7)


def param(shape):
    return Tensor(RNG.normal(size=shape), requires_grad=True)


class TestElementwiseGradients:
    def test_add(self):
        a, b = param((3, 4)), param((3, 4))
        check_gradients(lambda: ops.sum(ops.add(a, b) * 1.5), [a, b])

    def test_add_broadcast_bias(self):
        a, b = param((3, 4)), param((4,))
        check_gradients(lambda: ops.sum(ops.mul(ops.add(a, b), ops.add(a, b))), [a, b])

    def test_sub(self):
        a, b = param((2, 5)), param((2, 5))
        check_gradients(lambda: ops.sum(ops.mul(ops.sub(a, b), ops.sub(a, b))), [a, b])

    def test_mul(self):
        a, b = param((4,)), param((4,))
        check_gradients(lambda: ops.sum(ops.mul(a, b)), [a, b])

    def test_div(self):
        a = param((3,))
        b = Tensor(np.abs(RNG.normal(size=3)) + 1.0, requires_grad=True)
        check_gradients(lambda: ops.sum(ops.div(a, b)), [a, b])

    def test_power(self):
        a = Tensor(np.abs(RNG.normal(size=4)) + 0.5, requires_grad=True)
        check_gradients(lambda: ops.sum(ops.power(a, 3.0)), [a])

    def test_relu(self):
        a = Tensor(RNG.normal(size=(3, 3)) + 0.05, requires_grad=True)
        check_gradients(lambda: ops.sum(ops.relu(a)), [a], epsilon=1e-7)

    def test_leaky_relu(self):
        a = Tensor(RNG.normal(size=(3, 3)) + 0.05, requires_grad=True)
        check_gradients(lambda: ops.sum(ops.leaky_relu(a, 0.2)), [a], epsilon=1e-7)

    def test_elu(self):
        a = param((3, 3))
        check_gradients(lambda: ops.sum(ops.elu(a)), [a])

    def test_exp(self):
        a = param((3,))
        check_gradients(lambda: ops.sum(ops.exp(a)), [a])

    def test_log(self):
        a = Tensor(np.abs(RNG.normal(size=3)) + 1.0, requires_grad=True)
        check_gradients(lambda: ops.sum(ops.log(a)), [a])

    def test_tanh(self):
        a = param((4,))
        check_gradients(lambda: ops.sum(ops.mul(ops.tanh(a), ops.tanh(a))), [a])

    def test_sigmoid(self):
        a = param((4,))
        check_gradients(lambda: ops.sum(ops.sigmoid(a)), [a])


class TestLinalgGradients:
    def test_matmul_both_operands(self):
        a, b = param((3, 4)), param((4, 2))
        check_gradients(lambda: ops.sum(ops.matmul(a, b)), [a, b])

    def test_matmul_quadratic(self):
        a = param((3, 3))
        check_gradients(lambda: ops.sum(ops.mul(ops.matmul(a, a), 0.5)), [a])

    def test_spmm(self):
        import scipy.sparse as sp

        matrix = sp.random(5, 4, density=0.5, random_state=1, format="csr")
        dense = param((4, 3))
        check_gradients(lambda: ops.sum(spmm(matrix, dense)), [dense])

    def test_transpose(self):
        a = param((2, 4))
        check_gradients(lambda: ops.sum(ops.mul(ops.transpose(a), ops.transpose(a))), [a])

    def test_reshape(self):
        a = param((2, 6))
        check_gradients(lambda: ops.sum(ops.mul(ops.reshape(a, (3, 4)), 2.0)), [a])


class TestReductionGradients:
    def test_sum_axis0(self):
        a = param((3, 4))
        check_gradients(lambda: ops.sum(ops.mul(ops.sum(a, axis=0), ops.sum(a, axis=0))), [a])

    def test_mean(self):
        a = param((4, 2))
        check_gradients(lambda: ops.mul(ops.mean(a), 3.0), [a])

    def test_mean_axis1_keepdims(self):
        a = param((3, 5))
        check_gradients(lambda: ops.sum(ops.mul(ops.mean(a, axis=1, keepdims=True), 2.0)), [a])

    def test_max_along(self):
        # Use well-separated values so the argmax is stable under epsilon.
        a = Tensor(np.arange(12, dtype=np.float64).reshape(3, 4) * 2.0, requires_grad=True)
        check_gradients(lambda: ops.sum(ops.max_along(a, axis=1)), [a])


class TestSoftmaxGradients:
    def test_softmax(self):
        a = param((3, 4))
        weights = Tensor(RNG.normal(size=(3, 4)))
        check_gradients(lambda: ops.sum(ops.mul(ops.softmax(a, axis=1), weights)), [a])

    def test_log_softmax(self):
        a = param((4, 3))
        weights = Tensor(RNG.normal(size=(4, 3)))
        check_gradients(lambda: ops.sum(ops.mul(ops.log_softmax(a, axis=1), weights)), [a])


class TestIndexingGradients:
    def test_gather_rows(self):
        a = param((5, 3))
        idx = np.array([0, 2, 2, 4])
        check_gradients(lambda: ops.sum(ops.mul(ops.gather(a, idx), ops.gather(a, idx))), [a])

    def test_scatter_add(self):
        a = param((6, 2))
        seg = np.array([0, 0, 1, 2, 2, 2])
        check_gradients(
            lambda: ops.sum(ops.mul(ops.scatter_add_rows(a, seg, 3), ops.scatter_add_rows(a, seg, 3))),
            [a],
        )

    def test_concat(self):
        a, b = param((2, 2)), param((2, 3))
        check_gradients(lambda: ops.sum(ops.mul(ops.concat([a, b], axis=1), 2.0)), [a, b])


class TestCompositeGradients:
    def test_two_layer_network(self):
        x = Tensor(RNG.normal(size=(6, 5)))
        w1, w2 = param((5, 4)), param((4, 2))
        targets = Tensor(RNG.normal(size=(6, 2)))

        def loss():
            h = ops.relu(ops.matmul(x, w1))
            out = ops.matmul(h, w2)
            diff = ops.sub(out, targets)
            return ops.mean(ops.sum(ops.mul(diff, diff), axis=1))

        check_gradients(loss, [w1, w2], atol=1e-4)

    def test_cross_entropy_pipeline(self):
        from repro.tensor.functional import cross_entropy

        logits_w = param((5, 3))
        x = Tensor(RNG.normal(size=(7, 5)))
        labels = np.array([0, 1, 2, 0, 1, 2, 0])
        check_gradients(
            lambda: cross_entropy(ops.log_softmax(ops.matmul(x, logits_w), axis=1), labels),
            [logits_w],
            atol=1e-4,
        )


class TestFusedOpGradients:
    """Central finite-difference checks for the fused training-step ops.

    The fused kernels carry hand-written combined backward closures, so
    they get the same ground-truth treatment as the elementary ops, plus
    bitwise parity against the elementary chains they replace.
    """

    def test_fused_softmax_cross_entropy_full(self):
        logits = param((6, 4))
        labels = np.array([0, 1, 2, 3, 0, 1])
        check_gradients(
            lambda: fused.softmax_cross_entropy(logits, labels), [logits], atol=1e-4
        )

    def test_fused_softmax_cross_entropy_masked(self):
        logits = param((8, 3))
        labels = np.array([0, 1, 2, 0, 1, 2, 0, 1])
        index = np.array([1, 3, 6])
        check_gradients(
            lambda: fused.softmax_cross_entropy(logits, labels, index), [logits], atol=1e-4
        )

    def test_fused_linear_dense(self):
        x, w, b = param((5, 4)), param((4, 3)), param((3,))
        check_gradients(lambda: ops.sum(ops.mul(fused.linear(x, w, b), 1.5)), [x, w, b])

    def test_fused_linear_sparse_features(self):
        x = sp.random(6, 4, density=0.5, random_state=3, format="csr")
        w, b = param((4, 3)), param((3,))
        check_gradients(lambda: ops.sum(ops.mul(fused.linear(x, w, b), 1.5)), [w, b])

    def test_fused_linear_no_bias(self):
        x, w = param((4, 3)), param((3, 2))
        check_gradients(lambda: ops.sum(ops.mul(fused.linear(x, w), 2.0)), [x, w])

    def test_fused_gcn_layer_dense_features(self):
        adj = sp.random(5, 5, density=0.4, random_state=1, format="csr")
        x, w, b = param((5, 3)), param((3, 2)), param((2,))
        check_gradients(
            lambda: ops.sum(ops.mul(fused.gcn_layer(adj, x, w, b), 1.5)), [x, w, b]
        )

    def test_fused_gcn_layer_sparse_features(self):
        adj = sp.random(5, 5, density=0.4, random_state=1, format="csr")
        x = sp.random(5, 3, density=0.5, random_state=2, format="csr")
        w, b = param((3, 2)), param((2,))
        check_gradients(
            lambda: ops.sum(ops.mul(fused.gcn_layer(adj, x, w, b), 1.5)), [w, b]
        )

    def test_taped_spmm_cached_transpose_backward(self):
        # spmm's backward routes through the cached sparse transpose;
        # check it against finite differences like any other op.
        adj = sp.random(6, 6, density=0.3, random_state=4, format="csr")
        h = param((6, 3))
        check_gradients(lambda: ops.sum(ops.mul(spmm(adj, h), spmm(adj, h))), [h])

    def test_fused_dropout(self):
        # A fixed-seed rng per evaluation makes the mask deterministic,
        # so finite differencing sees a fixed (masked, rescaled) linear
        # map.
        x = param((6, 5))

        def forward():
            out = fused.dropout(x, 0.4, np.random.default_rng(17))
            return ops.sum(ops.mul(out, 1.5))

        check_gradients(forward, [x])


class TestFusedBitwiseParity:
    """Fused ops must match the elementary chains bit for bit (float64)."""

    def _grads(self, build, params):
        for p in params:
            p.zero_grad()
        loss = build()
        loss.backward()
        return np.asarray(loss.data).copy(), [np.array(p.grad) for p in params]

    def _assert_parity(self, fused_build, legacy_build, params):
        fused_loss, fused_grads = self._grads(fused_build, params)
        legacy_loss, legacy_grads = self._grads(legacy_build, params)
        assert np.array_equal(fused_loss, legacy_loss)
        for fg, lg in zip(fused_grads, legacy_grads):
            assert np.array_equal(fg, lg)

    def test_softmax_cross_entropy_parity(self):
        logits = param((9, 4))
        labels = RNG.integers(0, 4, size=9)
        index = np.array([0, 2, 5, 8])
        self._assert_parity(
            lambda: fused.softmax_cross_entropy(logits, labels, index),
            lambda: functional.cross_entropy(
                ops.log_softmax(ops.gather(logits, index), axis=1), labels[index]
            ),
            [logits],
        )

    def test_linear_parity_dense(self):
        x, w, b = param((6, 5)), param((5, 3)), param((3,))
        self._assert_parity(
            lambda: ops.sum(ops.mul(fused.linear(x, w, b), 1.5)),
            lambda: ops.sum(ops.mul(ops.add(ops.matmul(x, w), b), 1.5)),
            [x, w, b],
        )

    def test_linear_parity_sparse(self):
        x = sp.random(7, 5, density=0.4, random_state=5, format="csr")
        w, b = param((5, 3)), param((3,))
        self._assert_parity(
            lambda: ops.sum(ops.mul(fused.linear(x, w, b), 1.5)),
            lambda: ops.sum(ops.mul(ops.add(sparse_feature_matmul(x, w), b), 1.5)),
            [w, b],
        )

    def test_gcn_layer_parity_dense(self):
        adj = sp.random(6, 6, density=0.4, random_state=6, format="csr")
        x, w, b = param((6, 4)), param((4, 3)), param((3,))
        self._assert_parity(
            lambda: ops.sum(ops.mul(fused.gcn_layer(adj, x, w, b), 1.5)),
            lambda: ops.sum(ops.mul(ops.add(spmm(adj, ops.matmul(x, w)), b), 1.5)),
            [x, w, b],
        )

    def test_gcn_layer_parity_sparse(self):
        adj = sp.random(6, 6, density=0.4, random_state=7, format="csr")
        x = sp.random(6, 4, density=0.5, random_state=8, format="csr")
        w, b = param((4, 3)), param((3,))
        self._assert_parity(
            lambda: ops.sum(ops.mul(fused.gcn_layer(adj, x, w, b), 1.5)),
            lambda: ops.sum(ops.mul(ops.add(spmm(adj, sparse_feature_matmul(x, w)), b), 1.5)),
            [w, b],
        )

    def test_masked_cross_entropy_logits_dispatch_parity(self):
        # The functional seam itself: fused on vs off, same everything.
        logits = param((10, 3))
        labels = RNG.integers(0, 3, size=10)
        index = np.array([1, 4, 7, 9])
        with use_fused_ops(True):
            fused_loss, fused_grads = self._grads(
                lambda: functional.masked_cross_entropy_logits(logits, labels, index), [logits]
            )
        with use_fused_ops(False):
            legacy_loss, legacy_grads = self._grads(
                lambda: functional.masked_cross_entropy_logits(logits, labels, index), [logits]
            )
        assert np.array_equal(fused_loss, legacy_loss)
        assert np.array_equal(fused_grads[0], legacy_grads[0])

    def test_dropout_parity_arena_leased_buffers(self):
        # Identical seeds give identical rng streams, so the in-place
        # mask formulation must reproduce the elementary op bit for bit.
        data = RNG.normal(size=(7, 5))
        x_fused = Tensor(data.copy(), requires_grad=True)
        x_legacy = Tensor(data.copy(), requires_grad=True)

        def fused_build():
            out = fused.dropout(x_fused, 0.35, np.random.default_rng(23))
            return ops.sum(ops.mul(out, 1.5))

        fused_loss, fused_grads = self._grads(fused_build, [x_fused])
        legacy_loss, legacy_grads = self._grads(
            lambda: ops.sum(
                ops.mul(ops.dropout(x_legacy, 0.35, np.random.default_rng(23)), 1.5)
            ),
            [x_legacy],
        )
        assert np.array_equal(fused_loss, legacy_loss)
        assert np.array_equal(fused_grads[0], legacy_grads[0])

    def test_dropout_without_arena_falls_back(self):
        # Outside any training loop the fused op still matches the
        # elementary one (same rng consumption, same output).
        x = param((5, 4))
        fused_out = fused.dropout(x, 0.5, np.random.default_rng(3))
        legacy_out = ops.dropout(x, 0.5, np.random.default_rng(3))
        assert np.array_equal(fused_out.data, legacy_out.data)
