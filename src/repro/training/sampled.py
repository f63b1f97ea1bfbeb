"""Mini-batch neighbor-sampled training loop.

The memory-bounded counterpart of :class:`repro.training.trainer.Trainer`:
instead of one full-graph forward per epoch, each epoch visits the seed
pool in shuffled batches, builds per-batch normalized Â blocks with a
:class:`repro.sampling.BlockBuilder`, and steps the optimizer once per
batch.  Training cost and the training-pass peak memory then scale with
``batch_size × prod(fanouts)`` instead of with the graph.

The loop keeps the full-batch trainer's contract wherever it can: same
Adam/early-stopping budget, same best-checkpoint restore, the same
``epoch_callback`` signature (RDD's reliability refresh plugs in
unchanged), the same non-finite loss and gradient checks, and a
:class:`TrainResult` with identical fields.  Two things necessarily differ:

* ``loss_fn`` is batch-aware — ``(model, logits, seeds, epoch)`` where
  ``logits`` covers only the (sorted, deduplicated) batch ``seeds``.  It
  may return ``None`` to skip a batch none of whose loss terms apply.
* validation still needs full-graph eval logits; ``eval_every`` lets
  memory-bound runs amortize that full forward over several epochs
  (early stopping then counts evaluations, not epochs).

With full fanouts, ``batch_size >= len(pool)``, and dropout disabled,
one epoch is a single batch whose blocks reproduce the global Â rows
bitwise (see :mod:`repro.sampling.blocks`), so the trajectory matches
full-batch training up to BLAS summation-order noise — the differential
tests in ``tests/training/test_sampled.py`` pin that equivalence.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence, Union

import numpy as np
import scipy.sparse as sp

import repro.obs as obs
from repro.errors import TrainingError
from repro.graph.graph import Graph
from repro.models.base import GraphModel
from repro.models.gcn import GCN
from repro.nn.optim import Adam
from repro.nn.schedules import EarlyStopping
from repro.sampling import BlockBuilder, ItemSampler, MiniBatch
from repro.tensor import ops
from repro.tensor.functional import accuracy, masked_cross_entropy_logits
from repro.tensor.sparse import csr_take_rows
from repro.tensor.tensor import GradArena, Tensor
from repro.testing.faults import fault_point
from repro.training.records import TrainResult
from repro.training.trainer import Trainer, check_finite_gradients

# Batch-aware objective: receives the logits of the sorted/deduplicated
# batch seeds (row i of ``logits`` is global node ``seeds[i]``).  May
# return None when no loss term applies to this batch.
SampledLossFn = Callable[[GraphModel, Tensor, np.ndarray, int], Optional[Tensor]]


@dataclass
class SamplingPlan:
    """One epoch's sampling directives (recomputed per epoch when the
    caller supplies a ``plan_fn``).

    Attributes
    ----------
    seeds:
        The epoch's seed pool (global node ids); every pool node is
        visited exactly once per epoch.
    seed_weights:
        Optional positive weights aligned with ``seeds`` — biases the
        batch shuffle so heavy seeds land in earlier batches (RDD:
        reliable nodes first).
    node_weights:
        Optional per-global-node positive weights for *neighbor*
        selection on over-fanout rows (RDD: prefer reliable neighbors).
    reliable_mask:
        Optional boolean mask over all nodes; when set (and obs is
        enabled) every ``sampler:batch`` span reports how many of its
        seeds are currently reliable.
    """

    seeds: np.ndarray
    seed_weights: Optional[np.ndarray] = None
    node_weights: Optional[np.ndarray] = None
    reliable_mask: Optional[np.ndarray] = None


class SampledTrainer(Trainer):
    """Neighbor-sampled mini-batch trainer for GCN and RobustGCN.

    The block forward replays the model's own ``dropout → layer(Â, h) →
    relu`` chain over ``model.layers``, so only models whose forward is
    exactly that chain (:class:`GCN` and
    :class:`~repro.robustness.aggregation.RobustGCN`) are accepted; any
    other model raises :class:`TrainingError` before training starts.

    Parameters
    ----------
    fanouts:
        Per-layer fanouts ordered from the *output* layer inward, as
        :class:`repro.sampling.BlockBuilder` takes them (``fanouts[0]``
        samples the seeds' neighbors).  An int replicates across all
        layers; a sequence must have one entry per model layer.
    batch_size:
        Seed nodes per optimizer step.
    sample_seed:
        Seeds the two sampling streams (batch shuffle, neighbor
        selection), independent of the model's init/dropout RNG.
    eval_every:
        Run the full-graph validation forward every N epochs.  1 (the
        default) matches the full-batch trainer's schedule; larger
        values trade early-stopping granularity for memory/throughput —
        the full-graph eval forward is the one remaining graph-sized
        allocation in the loop.
    """

    def __init__(
        self,
        fanouts: Union[int, Sequence[int]] = (10, 10),
        batch_size: int = 512,
        sample_seed: int = 0,
        eval_every: int = 1,
        **trainer_kwargs,
    ):
        super().__init__(**trainer_kwargs)
        if isinstance(fanouts, (int, np.integer)):
            fanouts = (int(fanouts),)
        self.fanouts = tuple(int(f) for f in fanouts)
        if not self.fanouts or any(f < 1 for f in self.fanouts):
            raise TrainingError(f"fanouts must be a non-empty tuple of ints >= 1, got {fanouts}")
        if batch_size < 1:
            raise TrainingError(f"batch_size must be >= 1, got {batch_size}")
        if eval_every < 1:
            raise TrainingError(f"eval_every must be >= 1, got {eval_every}")
        self.batch_size = int(batch_size)
        self.sample_seed = int(sample_seed)
        self.eval_every = int(eval_every)

    # ------------------------------------------------------------------
    def _model_fanouts(self, model: GraphModel) -> tuple:
        # Imported lazily: repro.robustness sits above training in the
        # layering (its sweep harness imports the RDD trainer).
        from repro.robustness.aggregation import RobustGCN

        if not isinstance(model, (GCN, RobustGCN)):
            raise TrainingError(
                "SampledTrainer replays the dropout -> layer(adjacency, h) -> relu "
                "chain over .layers, which only GCN and RobustGCN run; got "
                f"{type(model).__name__}"
            )
        num_layers = len(model.layers)
        fanouts = self.fanouts
        if len(fanouts) == 1 and num_layers > 1:
            fanouts = fanouts * num_layers
        if len(fanouts) != num_layers:
            raise TrainingError(
                f"{num_layers}-layer model needs {num_layers} fanouts, got {len(self.fanouts)}"
            )
        return fanouts

    @staticmethod
    def _forward_blocks(model: GraphModel, graph: Graph, batch: MiniBatch) -> Tensor:
        """Layer-wise forward over the batch's blocks.

        Mirrors :meth:`GCN.forward` restricted to the sampled receptive
        field: block ``i`` maps layer ``i``'s input rows to its output
        rows (consecutive blocks chain — ``blocks[i].output_nodes ==
        blocks[i+1].input_nodes``), so the returned logits cover exactly
        ``batch.seeds``.
        """
        features, rows = graph.features, batch.blocks[0].input_nodes
        # Graph keeps sparse features as CSR; gather through the raw
        # kernel rather than scipy's fancy indexing (same arrays out).
        h = csr_take_rows(features, rows) if sp.issparse(features) else features[rows]
        last = len(batch.blocks) - 1
        for i, layer in enumerate(model.layers):
            h = model.dropout(h)
            h = layer(batch.blocks[i].adjacency, h)
            if i < last:
                h = ops.relu(h)
        return h

    # ------------------------------------------------------------------
    def fit(
        self,
        model: GraphModel,
        graph: Graph,
        loss_fn: Optional[SampledLossFn] = None,
        epoch_callback: Optional[Callable] = None,
        plan_fn: Optional[Callable[[int], SamplingPlan]] = None,
    ) -> TrainResult:
        """Mini-batch train ``model``; returns metrics of the best epoch.

        Parameters
        ----------
        loss_fn:
            Batch-aware objective (see :data:`SampledLossFn`); defaults
            to cross entropy over each batch's training seeds.
        epoch_callback:
            Same contract as the full-batch trainer: ``(epoch, model,
            eval_logits)``, invoked before the epoch's batches, where
            ``eval_logits`` are the latest full-graph evaluation (epoch 0
            bootstraps one).
        plan_fn:
            ``epoch -> SamplingPlan`` recomputing the seed pool and
            sampling weights each epoch (runs *after* the callback, so
            RDD's refreshed reliability sets feed the same epoch's
            plan).  Default: uniform shuffle of ``graph.train_index``.
        """
        start = time.perf_counter()
        fanouts = self._model_fanouts(model)
        if loss_fn is None:
            loss_fn = sampled_supervised_loss(graph)
        optimizer = Adam(model.parameters(), lr=self.lr, weight_decay=self.weight_decay)
        stopper = EarlyStopping(patience=self.patience)
        best_state = model.state_dict()
        history: List[dict] = []
        eval_logits = None

        shuffle_rng, neighbor_rng = (
            np.random.default_rng(s) for s in np.random.SeedSequence(self.sample_seed).spawn(2)
        )
        builder = BlockBuilder(graph.adjacency, fanouts, rng=neighbor_rng)
        arena = GradArena()
        obs_on = obs.enabled()

        epochs_run = 0
        val_acc = 0.0
        fit_span = obs.span(
            "trainer:fit",
            max_epochs=self.max_epochs,
            sampler="neighbor",
            fanouts=list(fanouts),
            batch_size=self.batch_size,
        )
        with fit_span:
            for epoch in range(self.max_epochs):
                fault_point("trainer:epoch", key=epoch)
                epochs_run = epoch + 1
                with obs.span("epoch", epoch=epoch) as epoch_span:
                    if epoch_callback is not None:
                        if eval_logits is None:  # bootstrap forward for epoch 0 only
                            eval_logits = model.predict_logits(graph)
                        epoch_callback(epoch, model, eval_logits)

                    plan = plan_fn(epoch) if plan_fn is not None else SamplingPlan(graph.train_index)
                    builder.set_weights(plan.node_weights)
                    batches = ItemSampler(
                        plan.seeds, self.batch_size, rng=shuffle_rng
                    ).epoch(weights=plan.seed_weights)

                    model.train()
                    epoch_loss = 0.0
                    steps = 0
                    for batch_idx, seed_batch in enumerate(batches):
                        batch = builder.build(seed_batch)
                        batch_span = None
                        if obs_on:
                            attrs = dict(
                                epoch=epoch,
                                batch=batch_idx,
                                num_seeds=len(batch.seeds),
                                num_input_nodes=len(batch.input_nodes),
                            )
                            if plan.reliable_mask is not None:
                                attrs["reliable_seeds"] = int(
                                    np.count_nonzero(plan.reliable_mask[batch.seeds])
                                )
                            batch_span = obs.span("sampler:batch", **attrs)
                        with batch_span or _NULL_CONTEXT:
                            logits = self._forward_blocks(model, graph, batch)
                            loss = loss_fn(model, logits, batch.seeds, epoch)
                            if loss is None:  # no applicable loss term in this batch
                                continue
                            loss_value = loss.item()
                            if not math.isfinite(loss_value):
                                raise TrainingError(
                                    f"non-finite loss {loss_value} at epoch {epoch}, "
                                    f"batch {batch_idx}"
                                )
                            optimizer.zero_grad()
                            arena.backward(loss)
                            check_finite_gradients(
                                model, f"at epoch {epoch}, batch {batch_idx}"
                            )
                            optimizer.step()
                            if batch_span:
                                batch_span.set(loss=loss_value)
                        epoch_loss += loss_value
                        steps += 1

                    evaluate = (epoch + 1) % self.eval_every == 0 or epoch + 1 == self.max_epochs
                    if evaluate:
                        eval_logits = model.predict_logits(graph)
                        val_acc = accuracy(eval_logits, graph.labels, graph.val_index)
                    if epoch_span:
                        epoch_span.set(
                            loss=epoch_loss / max(steps, 1), val_accuracy=val_acc, steps=steps
                        )
                if self.record_history:
                    history.append(
                        {"epoch": epoch, "loss": epoch_loss / max(steps, 1), "val_accuracy": val_acc}
                    )
                if evaluate:
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


class _NullContext:
    def __enter__(self):
        return None

    def __exit__(self, *exc):
        return False


_NULL_CONTEXT = _NullContext()


def sampled_supervised_loss(graph: Graph) -> SampledLossFn:
    """Batch-aware default objective: cross entropy on the batch's
    training seeds (the sampled counterpart of ``supervised_loss``)."""
    train_sorted = np.sort(np.asarray(graph.train_index, dtype=np.int64))

    def loss_fn(model: GraphModel, logits: Tensor, seeds: np.ndarray, epoch: int):
        local = np.flatnonzero(np.isin(seeds, train_sorted, assume_unique=True))
        if local.size == 0:
            return None
        return masked_cross_entropy_logits(logits, graph.labels[seeds], local)

    return loss_fn
