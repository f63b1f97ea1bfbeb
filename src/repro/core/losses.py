"""The composite RDD student objective (paper §4.2.3, Eq. 10).

``L = L1 + γ(e)·L2 + β·Lreg`` where

* ``L1`` — cross entropy on the labeled nodes (Eq. 6);
* ``L2`` — squared embedding distance to the teacher on ``V_b`` (Eq. 7);
* ``Lreg`` — Graph-Laplacian pull on the reliable edges ``E_r`` (Eq. 9);
* ``γ(e)`` — cosine-annealed knowledge-transfer weight (Eq. 14).

The paper writes ``L2``/``Lreg`` as sums; we average over rows/edges *and*
over the embedding dimension so the three terms share the cross-entropy's
scale and the γ/β settings transfer across datasets of different class
counts.  This changes only the effective magnitude of γ and β, which the
paper tunes per dataset anyway (Table 7 sweeps them here too).
"""

from __future__ import annotations

from dataclasses import dataclass, field
import numpy as np

from repro.graph.graph import Graph
from repro.tensor import ops
from repro.tensor.functional import (
    edge_regularization,
    embedding_mse,
    masked_cross_entropy_logits,
)
from repro.tensor.tensor import Tensor


#: Supported formulations of the L2 distillation term.
#:
#: * ``"logit_mse"`` — squared distance between student logits and the
#:   teacher's (weight-averaged) last-layer embeddings, the literal Eq. 7;
#: * ``"prob_mse"``  — squared distance between student softmax rows and the
#:   teacher's softmax rows (same information, bounded scale — markedly more
#:   stable when the teacher is an average of independently-trained models
#:   whose raw logit scales differ);
#: * ``"kl"``        — cross entropy toward the teacher distribution, the
#:   classic KD objective.
DISTILL_MODES = ("logit_mse", "prob_mse", "kl")


@dataclass
class RDDLossState:
    """Mutable per-epoch state consumed by :func:`rdd_student_loss`.

    The RDD trainer refreshes ``distill_index`` / reliable edge arrays at
    the start of every epoch (Algorithms 1–2 run inside the epoch loop)
    and updates ``gamma`` from the cosine schedule.
    """

    teacher_embeddings: np.ndarray
    teacher_probs: np.ndarray = field(default_factory=lambda: np.empty((0, 0)))
    distill_index: np.ndarray = field(default_factory=lambda: np.empty(0, dtype=np.int64))
    edge_src: np.ndarray = field(default_factory=lambda: np.empty(0, dtype=np.int64))
    edge_dst: np.ndarray = field(default_factory=lambda: np.empty(0, dtype=np.int64))
    gamma: float = 0.0
    beta: float = 0.0
    distill_mode: str = "prob_mse"
    # Observability: when True, each rdd_student_loss call stores the raw
    # (unscaled) term values in ``components`` — pure reads off the tape,
    # so the recorded training trajectory is bitwise unchanged.
    record_components: bool = False
    components: "dict | None" = None
    # Scratch global id -> batch row map of sampled_rdd_student_loss,
    # allocated on first use: once per student fit, never per batch.
    batch_rows: "np.ndarray | None" = field(default=None, repr=False)


def rdd_student_loss(graph: Graph, logits: Tensor, state: RDDLossState) -> Tensor:
    """Assemble Eq. 10 for the current epoch.

    Parameters
    ----------
    graph:
        Provides labels and the labeled index for ``L1``.
    logits:
        Student's last-layer embeddings (pre-softmax), the tape's live node.
    state:
        Current reliability sets, teacher targets, and loss coefficients.
    """
    k = logits.shape[1]
    l1 = masked_cross_entropy_logits(logits, graph.labels, graph.train_index)
    loss = l1
    l2 = lreg = None
    if state.gamma > 0.0 and len(state.distill_index):
        l2 = _distill_term(logits, state, k)
        loss = ops.add(loss, ops.mul(l2, state.gamma))
    if state.beta > 0.0 and len(state.edge_src):
        lreg = edge_regularization(logits, state.edge_src, state.edge_dst)
        loss = ops.add(loss, ops.mul(lreg, state.beta / k))
    if state.record_components:
        state.components = {
            "L1": l1.item(),
            "L2": 0.0 if l2 is None else l2.item(),
            "Lreg": 0.0 if lreg is None else lreg.item(),
            "total": loss.item(),
        }
    return loss


def sampled_rdd_student_loss(
    graph: Graph, logits: Tensor, state: RDDLossState, seeds: np.ndarray
) -> "Tensor | None":
    """Eq. 10 restricted to a mini-batch of sampled ``seeds``.

    ``logits`` covers only the batch: row ``i`` is global node
    ``seeds[i]`` (sorted, deduplicated — the block builder's output
    contract).  Each term keeps its full-batch formulation averaged over
    the members present in the batch: ``L1`` over the batch's labeled
    nodes, ``L2`` over the batch's slice of ``V_b``, and ``Lreg`` over
    the reliable edges with *both* endpoints in the batch (cross-batch
    edges contribute nothing that epoch — the standard mini-batch
    compromise).  With one batch covering the whole seed pool every term
    reduces to its full-batch value exactly.

    Returns ``None`` when no term applies (the trainer skips the batch).
    """
    k = logits.shape[1]
    loss = l1 = l2 = lreg = None
    local_train = np.flatnonzero(np.isin(seeds, graph.train_index))
    if local_train.size:
        l1 = masked_cross_entropy_logits(logits, graph.labels[seeds], local_train)
        loss = l1
    use_l2 = state.gamma > 0.0 and len(state.distill_index)
    use_reg = state.beta > 0.0 and len(state.edge_src)
    if use_l2 or use_reg:
        row_map = _batch_row_map(state, graph.num_nodes, seeds)
    if use_l2:
        rows, in_batch = _batch_rows(row_map, seeds, state.distill_index)
        if in_batch.any():
            l2 = _distill_term(logits, state, k, local_index=rows[in_batch],
                               teacher_index=state.distill_index[in_batch])
            term = ops.mul(l2, state.gamma)
            loss = term if loss is None else ops.add(loss, term)
    if use_reg:
        src_rows, src_in = _batch_rows(row_map, seeds, state.edge_src)
        dst_rows, dst_in = _batch_rows(row_map, seeds, state.edge_dst)
        both = src_in & dst_in
        if both.any():
            lreg = edge_regularization(logits, src_rows[both], dst_rows[both])
            term = ops.mul(lreg, state.beta / k)
            loss = term if loss is None else ops.add(loss, term)
    if state.record_components:
        state.components = {
            "L1": 0.0 if l1 is None else l1.item(),
            "L2": 0.0 if l2 is None else l2.item(),
            "Lreg": 0.0 if lreg is None else lreg.item(),
            "total": 0.0 if loss is None else loss.item(),
        }
    return loss


def _batch_row_map(state: RDDLossState, num_nodes: int, seeds: np.ndarray) -> np.ndarray:
    """``state.batch_rows`` with each seed's entry set to its batch row.

    Entries of nodes outside the batch are left stale from earlier
    batches; :func:`_batch_rows` checks every hit against ``seeds``, so
    the map needs no reset and the per-batch work is O(batch).
    """
    if state.batch_rows is None or len(state.batch_rows) != num_nodes:
        state.batch_rows = np.zeros(num_nodes, dtype=np.int64)
    state.batch_rows[seeds] = np.arange(len(seeds))
    return state.batch_rows


def _batch_rows(row_map: np.ndarray, seeds: np.ndarray, ids: np.ndarray):
    """``(rows, in_batch)``: the batch row of each of ``ids`` and which
    ids the batch contains — one gather and one equality check per id.
    ``rows`` is meaningful only where ``in_batch`` is set."""
    rows = row_map[ids]
    if len(seeds) == 0:
        return rows, np.zeros(len(ids), dtype=bool)
    return rows, seeds.take(rows, mode="clip") == ids


def _distill_term(
    logits: Tensor,
    state: RDDLossState,
    k: int,
    local_index: "np.ndarray | None" = None,
    teacher_index: "np.ndarray | None" = None,
) -> Tensor:
    """The L2 term in the configured formulation (see :data:`DISTILL_MODES`).

    In the full-batch path student rows and teacher rows share one index
    (``state.distill_index``).  The sampled path passes a ``local_index``
    into the batch logits plus the matching ``teacher_index`` of global
    node ids.
    """
    if local_index is None:
        local_index = teacher_index = state.distill_index
    if state.distill_mode == "logit_mse":
        picked = ops.gather(logits, local_index)
        teacher = np.asarray(state.teacher_embeddings)[teacher_index]
        return ops.mul(embedding_mse(picked, teacher), 1.0 / k)
    if state.distill_mode == "prob_mse":
        probs = ops.softmax(ops.gather(logits, local_index), axis=1)
        diff = ops.sub(probs, Tensor(state.teacher_probs[teacher_index]))
        return ops.mean(ops.sum(ops.mul(diff, diff), axis=1))
    if state.distill_mode == "kl":
        # Log-softmax after row selection — row-wise, so identical to
        # gathering rows of the full log-softmax.
        picked = ops.log_softmax(ops.gather(logits, local_index), axis=1)
        per_row = -ops.sum(ops.mul(Tensor(state.teacher_probs[teacher_index]), picked), axis=1)
        return ops.mean(per_row)
    raise ValueError(f"unknown distill_mode {state.distill_mode!r}; choose from {DISTILL_MODES}")
