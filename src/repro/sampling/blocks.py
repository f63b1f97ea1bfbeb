"""Per-batch normalized Â blocks for layer-wise sampled training.

A :class:`BlockBuilder` turns a batch of seed nodes into a chain of
:class:`Block` objects, one per GCN layer, each carrying a *rectangular*
normalized adjacency slice ``Â_block`` of shape
``(len(output_nodes), len(input_nodes))`` in local (block-relative)
indices.  The forward pass then runs ``h_out = Â_block @ h_in @ W`` layer
by layer — the same contract as full-batch GCN, restricted to the
sampled receptive field.

Value semantics (the full-fanout parity contract)
-------------------------------------------------
Entries mirror :func:`repro.graph.normalize.gcn_normalize` exactly:

* self loop of output node ``v``:      ``inv_sqrt[v] * inv_sqrt[v]``
* sampled neighbor edge ``u -> v``:    ``(inv_sqrt[u] * inv_sqrt[v]) * (deg_v / s_v)``

where ``inv_sqrt = 1 / sqrt(degree + 1)`` over the **global** graph and
``deg_v / s_v`` is the GraphSAGE-style estimator rescale (full neighbor
count over sampled count), restricted to the block.  When the fanout
covers every neighbor the rescale is exactly ``1.0`` — an exact float
multiplication — so each block row is **bitwise equal** to the
corresponding row of the global ``gcn_normalize`` output under
renumbering.  That identity is what makes the differential tests
(full-fanout sampled training == full-batch training) meaningful.

Construction cost
-----------------
Per-batch work is proportional to the batch, not to the graph, and
nothing sorts the sampled edges as a whole.  The builder owns one
scratch array of length ``num_nodes``, allocated once: a global→local
id map.  Each layer writes the map at its sampled sources and outputs
before reading it there, so no entry carries over between layers or
builds and nothing needs resetting.  The map tells the newly reached
sources apart from the outputs, maps every source to its local column
with one gather, and each row's self loop and sampled edges are written
straight into the row's CSR slots, whose columns are then sorted in C.
Columns within a row are distinct — the builder rejects weighted
adjacencies, self loops and duplicate entries at construction — so the
per-row sort is unique.

Memory
------
The three CSR arrays of every block (``data``/``indices``/``indptr``)
are leased from a grow-only scratch pool owned by the builder, so
steady-state batch construction allocates nothing proportional to the
block size.  The flip side of the lease: **blocks are valid only until
the next** ``build()`` **call on the same builder.**
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

import numpy as np
import scipy.sparse as sp

from repro.errors import GraphError
from repro.sampling.neighbor import NeighborSampler, check_node_ids
from repro.tensor.sparse import csr_sort_rows, raw_csr


@dataclass
class Block:
    """One layer's sampled computation block.

    ``output_nodes`` is always a prefix of ``input_nodes`` (every output
    node feeds itself through its self loop), and ``adjacency`` is the
    normalized rectangular slice mapping input activations to output
    activations: local row ``i`` aggregates for global node
    ``output_nodes[i]``, local column ``j`` reads global node
    ``input_nodes[j]``.
    """

    input_nodes: np.ndarray
    output_nodes: np.ndarray
    adjacency: sp.csr_matrix


@dataclass
class MiniBatch:
    """A batch of seeds plus its layer blocks, input layer first.

    ``blocks[0].input_nodes`` are the nodes whose raw features enter the
    network; ``blocks[-1].output_nodes`` equal ``seeds`` (sorted,
    deduplicated).
    """

    seeds: np.ndarray
    blocks: List[Block]

    @property
    def input_nodes(self) -> np.ndarray:
        return self.blocks[0].input_nodes


class _ScratchPool:
    """Grow-only keyed buffer pool.

    ``take`` returns a view of a persistent buffer, growing it only when
    a batch needs more room than any previous one.  Lease discipline is
    the caller's job: views are valid until the next ``take`` with the
    same key.
    """

    def __init__(self):
        self._buffers: Dict[object, np.ndarray] = {}

    def take(self, key: object, size: int, dtype) -> np.ndarray:
        buf = self._buffers.get(key)
        if buf is None or buf.size < size or buf.dtype != np.dtype(dtype):
            buf = np.empty(size, dtype=dtype)
            self._buffers[key] = buf
        return buf[:size]


class BlockBuilder:
    """Builds per-batch normalized Â blocks by layer-wise fanout sampling.

    Parameters
    ----------
    adjacency:
        Global symmetric adjacency (unweighted, zero diagonal) — the
        same matrix :func:`gcn_normalize` consumes.  A non-square or
        weighted matrix, a self loop or a duplicate entry raises
        :class:`GraphError`.
    fanouts:
        Per-layer fanouts ordered from the *output* layer inward:
        ``fanouts[0]`` samples the neighbors of the seeds (the last
        layer's outputs), ``fanouts[-1]`` those of the first layer's
        outputs.  :meth:`build` still returns blocks input layer first.
    seed / rng:
        Sampling stream; full-fanout builds consume no randomness.
    weights:
        Optional per-node neighbor-selection weights (RDD reliability
        prioritization); see :meth:`NeighborSampler.set_weights`.
    """

    def __init__(
        self,
        adjacency: sp.spmatrix,
        fanouts: Sequence[int],
        seed: int = 0,
        rng: Optional[np.random.Generator] = None,
        weights: Optional[np.ndarray] = None,
    ):
        fanouts = tuple(int(f) for f in fanouts)
        if len(fanouts) == 0:
            raise GraphError("need at least one fanout")
        if any(f < 1 for f in fanouts):
            raise GraphError(f"fanouts must all be >= 1, got {fanouts}")
        self.fanouts = fanouts
        self.sampler = NeighborSampler(
            _check_adjacency(adjacency), seed=seed, rng=rng, weights=weights
        )
        # Global D̂^{-1/2} with d̂ = degree + 1, computed with the same
        # float expression as gcn_normalize so block entries can be
        # bitwise equal to the global Â at full fanout.  Row sums equal
        # structural degrees because the adjacency is unweighted.
        self.degrees = np.diff(self.sampler.indptr)
        self.inv_sqrt = 1.0 / np.sqrt(self.degrees + 1.0)
        self._pool = _ScratchPool()
        # Global -> local id map, allocated once; see "Construction cost".
        self._local = np.empty(self.sampler.num_nodes, dtype=np.int64)

    def set_weights(self, weights: Optional[np.ndarray]) -> None:
        self.sampler.set_weights(weights)

    def build(self, seeds: np.ndarray) -> MiniBatch:
        """Sample blocks for ``seeds``; valid until the next ``build``."""
        seeds = check_node_ids(seeds, self.sampler.num_nodes, "seeds")
        current = np.unique(seeds)
        blocks: List[Block] = []
        for layer, fanout in enumerate(self.fanouts):
            blocks.append(self._build_layer(layer, current, fanout))
            current = blocks[-1].input_nodes
        blocks.reverse()  # input layer first
        return MiniBatch(seeds=blocks[-1].output_nodes, blocks=blocks)

    def _build_layer(self, layer: int, current: np.ndarray, fanout: int) -> Block:
        src, _, counts = self.sampler.sample(current, fanout)
        num_out = len(current)
        num_edges = len(src)
        local = self._local

        # Input frontier: outputs first, then the newly reached sources
        # in ascending id order (np.unique(src) minus current).  Sources
        # outside ``current`` read -1 from the map; of the repeated
        # writes of such an id exactly one survives, which picks that
        # id's representative among its repeats.
        local[src] = -1
        local[current] = np.arange(num_out)
        reached = src[local[src] < 0]
        slots = np.arange(len(reached))
        local[reached] = slots
        new = np.sort(reached[local[reached] == slots])
        local[new] = np.arange(num_out, num_out + len(new))
        input_nodes = np.concatenate([current, new])

        # Estimator rescale deg/s per output row; exactly 1.0 when the
        # fanout covered every neighbor, so full-fanout entries reproduce
        # the global Â bitwise.
        deg = self.degrees[current].astype(np.float64)
        rescale = np.divide(deg, counts, out=np.zeros(num_out), where=counts > 0)

        # Row i holds its self loop at indptr[i], then its sampled edges
        # in sampler order; sorting each row's columns then yields the
        # canonical CSR.  Written straight into leased buffers.
        total = num_out + num_edges
        data = self._pool.take((layer, "data"), total, np.float64)
        indices = self._pool.take((layer, "indices"), total, np.int64)
        indptr = self._pool.take((layer, "indptr"), num_out + 1, np.int64)
        indptr[0] = 0
        np.cumsum(counts + 1, out=indptr[1:])
        rows = np.repeat(np.arange(num_out, dtype=np.int64), counts)
        edge_slots = np.arange(num_edges, dtype=np.int64) + rows + 1
        inv_cur = self.inv_sqrt[current]
        indices[indptr[:-1]] = np.arange(num_out)
        data[indptr[:-1]] = inv_cur * inv_cur
        indices[edge_slots] = local[src]
        data[edge_slots] = (self.inv_sqrt[src] * inv_cur[rows]) * rescale[rows]
        csr_sort_rows(indptr, indices, data)
        adjacency = raw_csr(data, indices, indptr, (num_out, len(input_nodes)))
        return Block(input_nodes=input_nodes, output_nodes=current, adjacency=adjacency)


def _check_adjacency(adjacency: sp.spmatrix) -> sp.csr_matrix:
    """Enforce the contract block values rely on: a square, unweighted
    adjacency with zero diagonal and no duplicate entries (so row sums
    are the structural degrees and no block row repeats a column)."""
    csr = sp.csr_matrix(adjacency)
    if csr.shape[0] != csr.shape[1]:
        raise GraphError(f"adjacency must be square, got shape {csr.shape}")
    if not csr.has_canonical_format:
        canonical = csr.copy()
        canonical.sum_duplicates()
        if canonical.nnz != csr.nnz:
            raise GraphError("adjacency has duplicate entries")
    if not (csr.data == 1).all():
        raise GraphError("adjacency must be unweighted (every stored entry 1)")
    if csr.diagonal().any():
        raise GraphError("adjacency must have a zero diagonal (no self loops)")
    return csr
