"""Tests for the Trainer loop."""

import numpy as np
import pytest

from repro.errors import TrainingError
from repro.models import GCN
from repro.tensor import Tensor, ops
from repro.tensor.functional import masked_cross_entropy_logits
from repro.training import Trainer, make_rng
from repro.training.sampled import SampledTrainer


def nan_gradient_term(logits):
    """A loss term that is exactly 0 but whose gradient is NaN: the
    derivative of ``x ** 0.5`` at 0 is infinite, and the chain rule
    multiplies it by the 0 of ``logits * 0``."""
    return ops.sum(ops.power(ops.mul(logits, 0.0), 0.5))


class TestTrainerBasics:
    def test_returns_result_with_history(self, tiny_graph):
        model = GCN(tiny_graph.num_features, tiny_graph.num_classes, make_rng(0), hidden=8)
        result = Trainer(max_epochs=20, record_history=True).fit(model, tiny_graph)
        assert len(result.history) == result.epochs_run
        assert {"epoch", "loss", "val_accuracy"} <= set(result.history[0])

    def test_no_history_by_default(self, tiny_graph):
        model = GCN(tiny_graph.num_features, tiny_graph.num_classes, make_rng(0), hidden=8)
        result = Trainer(max_epochs=10).fit(model, tiny_graph)
        assert result.history == []

    def test_restores_best_checkpoint(self, tiny_graph):
        from repro.tensor.functional import accuracy

        model = GCN(tiny_graph.num_features, tiny_graph.num_classes, make_rng(0), hidden=8)
        result = Trainer(max_epochs=60, patience=10).fit(model, tiny_graph)
        val_now = accuracy(model.predict_logits(tiny_graph), tiny_graph.labels, tiny_graph.val_index)
        assert val_now == pytest.approx(result.val_accuracy)

    def test_early_stopping_respects_min_epochs(self, tiny_graph):
        model = GCN(tiny_graph.num_features, tiny_graph.num_classes, make_rng(0), hidden=8)
        trainer = Trainer(max_epochs=100, patience=1, min_epochs=30)
        result = trainer.fit(model, tiny_graph)
        assert result.epochs_run >= 30

    def test_early_stopping_caps_epochs(self, tiny_graph):
        model = GCN(tiny_graph.num_features, tiny_graph.num_classes, make_rng(0), hidden=8)
        result = Trainer(max_epochs=200, patience=5, min_epochs=1).fit(model, tiny_graph)
        assert result.epochs_run <= 200

    def test_invalid_max_epochs(self):
        with pytest.raises(TrainingError):
            Trainer(max_epochs=0)

    def test_summary_string(self, tiny_graph):
        model = GCN(tiny_graph.num_features, tiny_graph.num_classes, make_rng(0), hidden=8)
        result = Trainer(max_epochs=10).fit(model, tiny_graph)
        assert "val=" in result.summary() and "test=" in result.summary()


class TestCustomization:
    def test_custom_loss_fn_used(self, tiny_graph):
        model = GCN(tiny_graph.num_features, tiny_graph.num_classes, make_rng(0), hidden=8)
        calls = []

        def loss_fn(m, logits, epoch):
            calls.append(epoch)
            return ops.mean(ops.mul(logits, logits))

        Trainer(max_epochs=5, min_epochs=1).fit(model, tiny_graph, loss_fn=loss_fn)
        assert calls == [0, 1, 2, 3, 4]

    def test_epoch_callback_invoked_before_each_epoch(self, tiny_graph):
        model = GCN(tiny_graph.num_features, tiny_graph.num_classes, make_rng(0), hidden=8)
        seen = []
        Trainer(max_epochs=4, min_epochs=1).fit(
            model, tiny_graph, epoch_callback=lambda e, m, logits: seen.append((e, m is model))
        )
        assert seen == [(0, True), (1, True), (2, True), (3, True)]

    def test_non_finite_loss_raises_naming_the_epoch(self, tiny_graph):
        model = GCN(tiny_graph.num_features, tiny_graph.num_classes, make_rng(0), hidden=8)
        with np.errstate(all="ignore"), pytest.raises(TrainingError, match="at epoch 1$"):
            Trainer(lr=1e200, max_epochs=10).fit(model, tiny_graph)

    def test_non_finite_gradient_raises_before_the_update(self, tiny_graph):
        model = GCN(tiny_graph.num_features, tiny_graph.num_classes, make_rng(0), hidden=8)
        snapshot = []

        def loss_fn(m, logits, epoch):
            loss = masked_cross_entropy_logits(logits, tiny_graph.labels, tiny_graph.train_index)
            return ops.add(loss, nan_gradient_term(logits)) if epoch == 1 else loss

        def callback(epoch, m, logits):
            snapshot[:] = [p.data.copy() for p in m.parameters()]

        with np.errstate(all="ignore"), pytest.raises(
            TrainingError, match=r"non-finite gradient in \S+ at epoch 1$"
        ):
            Trainer(max_epochs=5).fit(model, tiny_graph, loss_fn=loss_fn, epoch_callback=callback)
        # The optimizer never consumed the NaN gradients.
        for param, before in zip(model.parameters(), snapshot):
            assert np.array_equal(param.data, before)

    def test_weight_decay_shrinks_weights(self, tiny_graph):
        def norm_after(weight_decay):
            model = GCN(tiny_graph.num_features, tiny_graph.num_classes, make_rng(0),
                        hidden=8, dropout=0.0)
            Trainer(max_epochs=40, patience=40, weight_decay=weight_decay).fit(model, tiny_graph)
            return sum(np.abs(p.data).sum() for p in model.parameters())

        assert norm_after(0.05) < norm_after(0.0)


class TestHeldGradients:
    """Every backward writes fresh gradient arrays, so one a caller keeps
    from a training step is never overwritten by a later step."""

    @pytest.mark.parametrize(
        "trainer",
        [Trainer(max_epochs=3), SampledTrainer(fanouts=(3, 3), batch_size=8, max_epochs=3)],
        ids=["full_batch", "sampled"],
    )
    def test_held_gradient_survives_next_backward(self, tiny_graph, trainer):
        model = GCN(tiny_graph.num_features, tiny_graph.num_classes, make_rng(0), hidden=8)
        held, intact = [], []

        def callback(epoch, m, logits):
            # Runs before epoch ``epoch``'s forward: the parameters still
            # carry the gradients of the previous epoch's last step.
            if epoch == 1:
                held.extend((p.grad, p.grad.copy()) for p in m.parameters())
            elif epoch == 2:
                intact.extend(np.array_equal(grad, copy) for grad, copy in held)

        trainer.fit(model, tiny_graph, epoch_callback=callback)
        assert held and intact == [True] * len(held)
