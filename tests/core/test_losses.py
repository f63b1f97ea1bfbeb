"""Tests for the composite RDD student loss (Eq. 10)."""

import numpy as np
import pytest

from repro.core.losses import (
    DISTILL_MODES,
    RDDLossState,
    rdd_student_loss,
    sampled_rdd_student_loss,
)
from repro.tensor import Tensor, ops
from repro.tensor.functional import masked_cross_entropy


def make_state(graph, **overrides):
    n, k = graph.num_nodes, graph.num_classes
    rng = np.random.default_rng(0)
    teacher_probs = rng.dirichlet(np.ones(k), size=n)
    defaults = dict(
        teacher_embeddings=np.log(teacher_probs + 1e-9),
        teacher_probs=teacher_probs,
        distill_index=np.arange(5),
        edge_src=np.array([0, 1]),
        edge_dst=np.array([2, 3]),
        gamma=1.0,
        beta=1.0,
    )
    defaults.update(overrides)
    return RDDLossState(**defaults)


def logits_for(graph, seed=1):
    rng = np.random.default_rng(seed)
    return Tensor(rng.normal(size=(graph.num_nodes, graph.num_classes)), requires_grad=True)


class TestComposition:
    def test_reduces_to_supervised_when_terms_off(self, tiny_graph):
        logits = logits_for(tiny_graph)
        state = make_state(tiny_graph, gamma=0.0, beta=0.0)
        loss = rdd_student_loss(tiny_graph, logits, state)
        expected = masked_cross_entropy(
            ops.log_softmax(Tensor(logits.data), axis=1), tiny_graph.labels, tiny_graph.train_index
        )
        assert loss.item() == pytest.approx(expected.item())

    def test_gamma_adds_distillation_term(self, tiny_graph):
        logits = logits_for(tiny_graph)
        base = rdd_student_loss(tiny_graph, logits, make_state(tiny_graph, gamma=0.0, beta=0.0))
        with_l2 = rdd_student_loss(tiny_graph, logits_for(tiny_graph), make_state(tiny_graph, beta=0.0))
        assert with_l2.item() > base.item()

    def test_beta_adds_edge_term(self, tiny_graph):
        base = rdd_student_loss(tiny_graph, logits_for(tiny_graph), make_state(tiny_graph, gamma=0.0, beta=0.0))
        with_reg = rdd_student_loss(tiny_graph, logits_for(tiny_graph), make_state(tiny_graph, gamma=0.0, beta=5.0))
        assert with_reg.item() > base.item()

    def test_empty_distill_index_skips_l2(self, tiny_graph):
        logits = logits_for(tiny_graph)
        state = make_state(tiny_graph, distill_index=np.empty(0, dtype=np.int64), beta=0.0)
        base = make_state(tiny_graph, gamma=0.0, beta=0.0)
        assert rdd_student_loss(tiny_graph, logits, state).item() == pytest.approx(
            rdd_student_loss(tiny_graph, logits_for(tiny_graph), base).item()
        )

    def test_empty_edges_skip_reg(self, tiny_graph):
        empty = np.empty(0, dtype=np.int64)
        state = make_state(tiny_graph, gamma=0.0, edge_src=empty, edge_dst=empty)
        base = make_state(tiny_graph, gamma=0.0, beta=0.0)
        assert rdd_student_loss(tiny_graph, logits_for(tiny_graph), state).item() == pytest.approx(
            rdd_student_loss(tiny_graph, logits_for(tiny_graph), base).item()
        )

    def test_loss_is_differentiable(self, tiny_graph):
        logits = logits_for(tiny_graph)
        loss = rdd_student_loss(tiny_graph, logits, make_state(tiny_graph))
        loss.backward()
        assert logits.grad is not None
        assert np.isfinite(logits.grad).all()


class TestDistillModes:
    @pytest.mark.parametrize("mode", DISTILL_MODES)
    def test_all_modes_produce_finite_positive_terms(self, tiny_graph, mode):
        logits = logits_for(tiny_graph)
        state = make_state(tiny_graph, distill_mode=mode, beta=0.0)
        loss = rdd_student_loss(tiny_graph, logits, state)
        assert np.isfinite(loss.item())

    @pytest.mark.parametrize("mode", DISTILL_MODES)
    def test_all_modes_backprop(self, tiny_graph, mode):
        logits = logits_for(tiny_graph)
        state = make_state(tiny_graph, distill_mode=mode)
        rdd_student_loss(tiny_graph, logits, state).backward()
        assert np.isfinite(logits.grad).all()

    def test_unknown_mode_raises(self, tiny_graph):
        state = make_state(tiny_graph, distill_mode="cosine")
        with pytest.raises(ValueError):
            rdd_student_loss(tiny_graph, logits_for(tiny_graph), state)

    def test_prob_mse_zero_when_student_matches_teacher(self, tiny_graph):
        n, k = tiny_graph.num_nodes, tiny_graph.num_classes
        teacher_probs = np.full((n, k), 1.0 / k)
        logits = Tensor(np.zeros((n, k)), requires_grad=True)  # softmax → uniform
        state = make_state(
            tiny_graph, teacher_probs=teacher_probs, beta=0.0, distill_mode="prob_mse"
        )
        base = make_state(tiny_graph, gamma=0.0, beta=0.0)
        assert rdd_student_loss(tiny_graph, logits, state).item() == pytest.approx(
            rdd_student_loss(tiny_graph, Tensor(np.zeros((n, k))), base).item()
        )


class TestSampledStudentLoss:
    """``sampled_rdd_student_loss``: Eq. 10 over a batch of sorted seeds."""

    @staticmethod
    def rich_state(graph, **overrides):
        # Unsorted V_b and reliable edges spread over the whole graph.
        rng = np.random.default_rng(3)
        n = graph.num_nodes
        defaults = dict(
            distill_index=rng.permutation(n)[: n // 2],
            edge_src=rng.integers(0, n, size=40),
            edge_dst=rng.integers(0, n, size=40),
            gamma=0.7,
            beta=1.3,
        )
        defaults.update(overrides)
        return make_state(graph, **defaults)

    @pytest.mark.parametrize("mode", DISTILL_MODES)
    def test_batch_of_every_node_is_bitwise_full_batch(self, tiny_graph, mode):
        state = self.rich_state(tiny_graph, distill_mode=mode)
        full_logits, batch_logits = logits_for(tiny_graph), logits_for(tiny_graph)
        full = rdd_student_loss(tiny_graph, full_logits, state)
        seeds = np.arange(tiny_graph.num_nodes)
        batch = sampled_rdd_student_loss(tiny_graph, batch_logits, state, seeds)
        assert batch.item() == full.item()
        full.backward()
        batch.backward()
        np.testing.assert_array_equal(batch_logits.grad, full_logits.grad)

    def test_partial_batch_matches_brute_force(self, tiny_graph):
        graph = tiny_graph
        state = self.rich_state(graph, record_components=True)
        k = graph.num_classes
        # Includes labeled and unlabeled nodes, and the largest node id so
        # that ids beyond the last seed are looked up too.
        seeds = np.array([1, 4, 7, 10, 20, 30, 33, 41, 45, 50, 58])
        seeds = np.union1d(seeds, state.edge_src[:6])
        batch_logits = np.random.default_rng(5).normal(size=(len(seeds), k))
        loss = sampled_rdd_student_loss(graph, Tensor(batch_logits), state, seeds)

        row_of = {int(node): row for row, node in enumerate(seeds)}
        log_probs = batch_logits - np.log(np.exp(batch_logits).sum(axis=1, keepdims=True))
        probs = np.exp(log_probs)
        labeled = [row_of[v] for v in graph.train_index if v in row_of]
        l1 = -np.mean([log_probs[r, graph.labels[seeds[r]]] for r in labeled])
        distilled = [v for v in state.distill_index if v in row_of]
        l2 = np.mean([np.sum((probs[row_of[v]] - state.teacher_probs[v]) ** 2) for v in distilled])
        inside = [(row_of[u], row_of[v]) for u, v in zip(state.edge_src, state.edge_dst)
                  if u in row_of and v in row_of]
        lreg = np.mean([np.sum((batch_logits[a] - batch_logits[b]) ** 2) for a, b in inside])
        assert labeled and distilled and inside
        assert len(distilled) < len(state.distill_index)
        assert len(inside) < len(state.edge_src)

        components = state.components
        np.testing.assert_allclose(components["L1"], l1, rtol=1e-12)
        np.testing.assert_allclose(components["L2"], l2, rtol=1e-12)
        np.testing.assert_allclose(components["Lreg"], lreg, rtol=1e-12)
        expected = l1 + state.gamma * l2 + state.beta / k * lreg
        np.testing.assert_allclose(loss.item(), expected, rtol=1e-12)

    def test_state_reused_across_batches_matches_fresh_state(self, tiny_graph):
        # The state's id -> batch-row map keeps entries from earlier
        # batches; they must never be read as members of a later one.
        logits = logits_for(tiny_graph).data
        state = self.rich_state(tiny_graph)
        for seeds in (np.arange(0, 60, 2), np.arange(40, 60), np.array([3, 7, 41, 45, 59])):
            reused = sampled_rdd_student_loss(tiny_graph, Tensor(logits[seeds]), state, seeds)
            fresh = sampled_rdd_student_loss(
                tiny_graph, Tensor(logits[seeds]), self.rich_state(tiny_graph), seeds
            )
            assert reused.item() == fresh.item()

    def test_batch_without_applicable_term_is_none(self, tiny_graph):
        # No labeled node, no V_b member, and every reliable edge has at
        # most one endpoint in the batch.
        state = make_state(
            tiny_graph,
            distill_index=np.array([40, 2, 59]),
            edge_src=np.array([10, 12, 50]),
            edge_dst=np.array([11, 13, 51]),
            record_components=True,
        )
        seeds = np.array([10, 13, 20, 51])
        logits = logits_for(tiny_graph)
        batch = Tensor(logits.data[seeds], requires_grad=True)
        assert sampled_rdd_student_loss(tiny_graph, batch, state, seeds) is None
        assert state.components == {"L1": 0.0, "L2": 0.0, "Lreg": 0.0, "total": 0.0}
