"""Full-batch training loop with validation early stopping.

Matches the paper's budget: Adam (lr 0.01), up to 500 epochs, stop when
the validation accuracy has not improved for 20 evaluations, restore the
best checkpoint.  A pluggable ``loss_fn`` lets RDD and the KD baselines
inject their extra objective terms while reusing the same loop.
"""

from __future__ import annotations

import math
import time
from typing import Callable, Optional

import numpy as np

import repro.obs as obs
from repro.errors import TrainingError
from repro.graph.graph import Graph
from repro.models.base import GraphModel
from repro.nn.optim import Adam
from repro.nn.schedules import EarlyStopping
from repro.tensor.functional import accuracy, masked_cross_entropy_logits
from repro.tensor.tensor import GradArena, Tensor
from repro.testing.faults import fault_point
from repro.training.records import TrainResult

# Signature: loss_fn(model, logits, epoch) -> scalar Tensor.
LossFn = Callable[[GraphModel, Tensor, int], Tensor]


class Trainer:
    """Reusable full-batch trainer.

    Parameters
    ----------
    max_epochs:
        Upper bound on training epochs (paper: 500).
    patience:
        Early-stopping patience on validation accuracy (paper: 20).
    lr / weight_decay:
        Adam settings (paper: 0.01 and 5e-4 on citation networks).
    record_history:
        When True the returned :class:`TrainResult` carries per-epoch
        train/val metrics (used by the examples and diagnostics).

    A step whose loss is not finite raises :class:`TrainingError` before
    its backward pass, and one whose parameter gradients are not finite
    raises it before the optimizer update: a diverged model never
    reaches early stopping or the caller.
    """

    def __init__(
        self,
        max_epochs: int = 300,
        patience: int = 20,
        lr: float = 0.01,
        weight_decay: float = 5e-4,
        record_history: bool = False,
        min_epochs: Optional[int] = None,
    ):
        if max_epochs < 1:
            raise TrainingError(f"max_epochs must be >= 1, got {max_epochs}")
        self.max_epochs = max_epochs
        self.patience = patience
        self.lr = lr
        self.weight_decay = weight_decay
        self.record_history = record_history
        # Early stopping only arms after a warmup: small validation sets
        # plateau by chance in the first noisy epochs.
        self.min_epochs = min_epochs if min_epochs is not None else max_epochs // 2

    def fit(
        self,
        model: GraphModel,
        graph: Graph,
        loss_fn: Optional[LossFn] = None,
        epoch_callback: Optional[Callable] = None,
    ) -> TrainResult:
        """Train ``model`` on ``graph``; returns metrics of the best epoch.

        Parameters
        ----------
        loss_fn:
            Custom objective; defaults to cross entropy on the training
            split.  Receives ``(model, logits, epoch)``.
        epoch_callback:
            ``(epoch, model, eval_logits)``, invoked before each epoch's
            forward pass — RDD uses it to refresh reliability sets.
            ``eval_logits`` are the current eval-mode logits: the ones the
            trainer computed for last epoch's validation pass (the model
            has not changed since), so an epoch costs two full-graph
            forwards.  Epoch 0 bootstraps them with one extra forward.
        """
        start = time.perf_counter()
        if loss_fn is None:
            loss_fn = supervised_loss(graph)
        optimizer = Adam(model.parameters(), lr=self.lr, weight_decay=self.weight_decay)
        stopper = EarlyStopping(patience=self.patience)
        best_state = model.state_dict()
        history = []
        eval_logits = None
        # Stateless: arena.backward(loss) is loss.backward(), named so
        # the benchmark tracer can time it.
        arena = GradArena()

        epochs_run = 0
        fit_span = obs.span("trainer:fit", max_epochs=self.max_epochs)
        with fit_span:
            for epoch in range(self.max_epochs):
                fault_point("trainer:epoch", key=epoch)
                epochs_run = epoch + 1
                with obs.span("epoch", epoch=epoch) as epoch_span:
                    if epoch_callback is not None:
                        if eval_logits is None:  # bootstrap forward for epoch 0 only
                            eval_logits = model.predict_logits(graph)
                        epoch_callback(epoch, model, eval_logits)

                    model.train()
                    logits = model(graph)
                    loss = loss_fn(model, logits, epoch)
                    loss_value = loss.item()
                    if not math.isfinite(loss_value):
                        raise TrainingError(f"non-finite loss {loss_value} at epoch {epoch}")
                    optimizer.zero_grad()
                    arena.backward(loss)
                    check_finite_gradients(model, f"at epoch {epoch}")
                    optimizer.step()

                    eval_logits = model.predict_logits(graph)
                    val_acc = accuracy(eval_logits, graph.labels, graph.val_index)
                    if epoch_span:
                        epoch_span.set(loss=loss_value, val_accuracy=val_acc)
                if self.record_history:
                    history.append({"epoch": epoch, "loss": loss_value, "val_accuracy": val_acc})
                should_stop = stopper.update(val_acc, epoch)
                if stopper.improved:
                    best_state = model.state_dict()
                if should_stop and epoch + 1 >= self.min_epochs:
                    break
            if fit_span:
                fit_span.set(epochs_run=epochs_run, best_epoch=stopper.best_epoch)

        model.load_state_dict(best_state)
        predictions = model.predict_logits(graph)
        wall = time.perf_counter() - start
        return TrainResult(
            train_accuracy=accuracy(predictions, graph.labels, graph.train_index),
            val_accuracy=accuracy(predictions, graph.labels, graph.val_index),
            test_accuracy=accuracy(predictions, graph.labels, graph.test_index),
            epochs_run=epochs_run,
            best_epoch=stopper.best_epoch,
            wall_time_s=wall,
            history=history,
            predictions=predictions,
        )


def check_finite_gradients(model: GraphModel, where: str) -> None:
    """Raise :class:`TrainingError` if any parameter gradient of ``model``
    holds a NaN or an infinity; ``where`` locates the step in the message."""
    for name, param in model.named_parameters():
        if param.grad is not None and not np.isfinite(param.grad).all():
            raise TrainingError(f"non-finite gradient in {name} {where}")


def supervised_loss(graph: Graph) -> LossFn:
    """Factory for the default objective: cross entropy on the training
    split (paper Eq. 3)."""

    def loss_fn(model: GraphModel, logits: Tensor, epoch: int) -> Tensor:
        return masked_cross_entropy_logits(logits, graph.labels, graph.train_index)

    return loss_fn
