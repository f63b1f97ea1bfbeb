"""Block construction: chaining invariants, full-fanout Â parity, batching.

The load-bearing property here is *full-fanout parity*: when the fanout
covers every neighbor, each block row must be **bitwise** equal to the
corresponding row of the global ``gcn_normalize`` output under local
renumbering.  The differential tests (sampled training == full-batch
training) in ``tests/training/test_sampled.py`` rest on this identity.
"""

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import GraphError
from repro.graph import build_adjacency
from repro.graph.normalize import gcn_normalize
from repro.sampling import BlockBuilder, ItemSampler


def random_graph(num_nodes, edge_prob, seed):
    """Random symmetric adjacency with no isolated nodes (ring + noise)."""
    rng = np.random.default_rng(seed)
    ring = [(i, (i + 1) % num_nodes) for i in range(num_nodes)]
    upper = [(i, j) for i in range(num_nodes) for j in range(i + 1, num_nodes)
             if rng.random() < edge_prob]
    return build_adjacency(num_nodes, np.asarray(ring + upper))


class TestBlockStructure:
    def test_blocks_chain(self, tiny_graph):
        builder = BlockBuilder(tiny_graph.adjacency, (3, 3), seed=0)
        batch = builder.build(tiny_graph.train_index[:6])
        assert len(batch.blocks) == 2
        np.testing.assert_array_equal(
            batch.blocks[0].output_nodes, batch.blocks[1].input_nodes
        )
        np.testing.assert_array_equal(batch.blocks[-1].output_nodes, batch.seeds)
        np.testing.assert_array_equal(batch.input_nodes, batch.blocks[0].input_nodes)

    def test_outputs_are_input_prefix(self, tiny_graph):
        builder = BlockBuilder(tiny_graph.adjacency, (3, 3), seed=0)
        batch = builder.build(tiny_graph.train_index[:6])
        for block in batch.blocks:
            n_out = len(block.output_nodes)
            np.testing.assert_array_equal(block.input_nodes[:n_out], block.output_nodes)
            assert block.adjacency.shape == (n_out, len(block.input_nodes))

    def test_seeds_are_sorted_unique(self, tiny_graph):
        builder = BlockBuilder(tiny_graph.adjacency, (2,), seed=0)
        batch = builder.build(np.array([5, 3, 5, 1]))
        np.testing.assert_array_equal(batch.seeds, [1, 3, 5])

    def test_rows_sum_to_at_most_global_row_sum(self, tiny_graph):
        # Sampled rows are unbiased estimates: self loop + rescaled
        # neighbor slice; every entry positive, rows canonical CSR.
        builder = BlockBuilder(tiny_graph.adjacency, (2, 2), seed=0)
        batch = builder.build(tiny_graph.train_index[:6])
        for block in batch.blocks:
            assert (block.adjacency.data > 0).all()
            assert block.adjacency.has_sorted_indices

    def test_fanout_validation(self, tiny_graph):
        with pytest.raises(GraphError):
            BlockBuilder(tiny_graph.adjacency, ())
        with pytest.raises(GraphError):
            BlockBuilder(tiny_graph.adjacency, (3, 0))

    def test_deterministic_given_seed(self, tiny_graph):
        seeds = tiny_graph.train_index[:5]
        a = BlockBuilder(tiny_graph.adjacency, (2, 2), seed=9).build(seeds)
        b = BlockBuilder(tiny_graph.adjacency, (2, 2), seed=9).build(seeds)
        for x, y in zip(a.blocks, b.blocks):
            np.testing.assert_array_equal(x.input_nodes, y.input_nodes)
            np.testing.assert_array_equal(x.adjacency.toarray(), y.adjacency.toarray())

    def test_buffers_are_reused_across_builds(self, tiny_graph):
        # The lease contract: a block is valid only until the next build.
        builder = BlockBuilder(tiny_graph.adjacency, (3,), seed=0)
        first = builder.build(tiny_graph.train_index[:6])
        data_before = first.blocks[0].adjacency.data
        builder.build(tiny_graph.train_index[6:12])
        # Same (grown-once) backing buffer — the pool leased it again.
        assert data_before.base is not None
        second_data = builder.build(tiny_graph.train_index[:6]).blocks[0].adjacency.data
        assert second_data.base is data_before.base


def assert_full_fanout_rows_match_global(adjacency, seeds, num_layers=2):
    """Every block row equals the global Â row, bitwise, under renumbering."""
    max_deg = int(np.diff(adjacency.tocsr().indptr).max())
    a_hat = gcn_normalize(adjacency).toarray()
    builder = BlockBuilder(adjacency, (max_deg,) * num_layers, seed=0)
    batch = builder.build(seeds)
    for block in batch.blocks:
        dense = block.adjacency.toarray()
        for local_row, node in enumerate(block.output_nodes):
            global_row = np.zeros(adjacency.shape[1])
            global_row[block.input_nodes] = dense[local_row]
            # Bitwise: full fanout implies rescale == 1.0 exactly and the
            # same float expression as gcn_normalize per entry.
            np.testing.assert_array_equal(global_row, a_hat[node])


class TestFullFanoutParity:
    def test_two_block_graph(self, tiny_graph):
        assert_full_fanout_rows_match_global(tiny_graph.adjacency, tiny_graph.train_index[:8])

    def test_single_seed(self, tiny_graph):
        assert_full_fanout_rows_match_global(tiny_graph.adjacency, np.array([0]))

    @settings(max_examples=25, deadline=None)
    @given(
        num_nodes=st.integers(4, 24),
        edge_prob=st.floats(0.0, 0.5),
        graph_seed=st.integers(0, 1000),
        seed_seed=st.integers(0, 1000),
    )
    def test_property_block_rows_equal_global_rows(
        self, num_nodes, edge_prob, graph_seed, seed_seed
    ):
        adjacency = random_graph(num_nodes, edge_prob, graph_seed)
        rng = np.random.default_rng(seed_seed)
        num_seeds = int(rng.integers(1, num_nodes + 1))
        seeds = rng.choice(num_nodes, size=num_seeds, replace=False)
        assert_full_fanout_rows_match_global(adjacency, seeds)

    def test_under_fanout_rescales_by_degree_over_sampled(self):
        # Star with 8 leaves, fanout 2: the hub row keeps 2 neighbors,
        # each scaled by deg/s = 8/2 = 4 on top of the Â entry.
        adj = build_adjacency(9, np.array([[0, i] for i in range(1, 9)]))
        a_hat = gcn_normalize(adj).toarray()
        builder = BlockBuilder(adj, (2,), seed=0)
        batch = builder.build(np.array([0]))
        block = batch.blocks[0]
        dense = block.adjacency.toarray().ravel()
        np.testing.assert_allclose(dense[0], a_hat[0, 0])  # self loop unscaled
        kept = block.input_nodes[1:]
        np.testing.assert_allclose(dense[1:], a_hat[0, kept] * (8.0 / 2.0))


class TestItemSampler:
    def test_partitions_index_exactly(self):
        index = np.arange(10, 33)
        sampler = ItemSampler(index, batch_size=7, seed=0)
        batches = sampler.epoch()
        assert len(batches) == len(sampler) == 4
        assert [len(b) for b in batches] == [7, 7, 7, 2]
        np.testing.assert_array_equal(np.sort(np.concatenate(batches)), index)

    def test_weighted_epoch_still_visits_every_seed_once(self):
        index = np.arange(20)
        weights = np.ones(20)
        weights[:5] = 100.0
        batches = ItemSampler(index, batch_size=6, seed=0).epoch(weights=weights)
        np.testing.assert_array_equal(np.sort(np.concatenate(batches)), index)

    def test_weighted_shuffle_front_loads_heavy_seeds(self):
        index = np.arange(100)
        weights = np.ones(100)
        weights[:10] = 1000.0
        first = ItemSampler(index, batch_size=10, seed=4).epoch(weights=weights)[0]
        assert np.count_nonzero(first < 10) >= 8

    def test_deterministic_stream(self):
        a = ItemSampler(np.arange(17), 5, seed=3).epoch()
        b = ItemSampler(np.arange(17), 5, seed=3).epoch()
        for x, y in zip(a, b):
            np.testing.assert_array_equal(x, y)

    def test_validation(self):
        with pytest.raises(GraphError):
            ItemSampler(np.arange(4), 0)
        with pytest.raises(GraphError):
            ItemSampler(np.empty(0, dtype=np.int64), 2)
        sampler = ItemSampler(np.arange(4), 2)
        with pytest.raises(GraphError, match="align"):
            sampler.epoch(weights=np.ones(3))
        with pytest.raises(GraphError, match="positive"):
            sampler.epoch(weights=np.zeros(4))
        for bad in (np.nan, np.inf):
            with pytest.raises(GraphError, match="finite"):
                sampler.epoch(weights=np.array([1.0, bad, 1.0, 1.0]))
