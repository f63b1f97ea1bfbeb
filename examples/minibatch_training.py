"""Scenario: memory-bounded training with sampled neighborhoods.

The paper's related work (§6) notes that spatial GCNs can train on "a
batch of nodes instead of the whole graph".  This example contrasts the
two regimes on a Pubmed-like graph with the paper's 2-layer GCN:

1. full-batch GCN (one forward over the whole normalized Â per epoch);
2. mini-batch GCN on layer-wise sampled blocks (``SampledTrainer`` +
   ``BlockBuilder``) — each training step touches only a few hundred
   nodes regardless of graph size.

Run with::

    python examples/minibatch_training.py
"""

from __future__ import annotations

import time

from repro import pubmed_like
from repro.models import GCN
from repro.sampling import BlockBuilder
from repro.training import Trainer, make_rng
from repro.training.sampled import SampledTrainer

FANOUTS = (5, 5)
BATCH_SIZE = 32


def main() -> None:
    graph = pubmed_like(seed=5, scale=0.08)
    print(f"dataset: {graph}\n")

    # Full-batch: every epoch aggregates over all edges.
    start = time.perf_counter()
    full = GCN(graph.num_features, graph.num_classes, make_rng(0), hidden=16)
    full_result = Trainer(max_epochs=100).fit(full, graph)
    print(f"full-batch GCN : {full_result.summary()} "
          f"({time.perf_counter() - start:.1f}s)")

    # Mini-batch: sampled 2-layer blocks, 32 seeds per optimizer step.
    start = time.perf_counter()
    sampled = GCN(graph.num_features, graph.num_classes, make_rng(0), hidden=16)
    trainer = SampledTrainer(fanouts=FANOUTS, batch_size=BATCH_SIZE, max_epochs=100)
    sampled_result = trainer.fit(sampled, graph)
    print(f"sampled GCN    : {sampled_result.summary()} "
          f"({time.perf_counter() - start:.1f}s)")

    # Show how small one sampled computation graph actually is.
    batch = BlockBuilder(graph.adjacency, FANOUTS, seed=1).build(graph.train_index[:BATCH_SIZE])
    touched = len(batch.input_nodes)
    print(f"\none minibatch touches {touched} of {graph.num_nodes} nodes "
          f"({touched / graph.num_nodes:.1%} of the graph)")
    print("Expected: comparable accuracy, with per-step cost independent of graph size.")


if __name__ == "__main__":
    main()
