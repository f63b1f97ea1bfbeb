"""Block construction: chaining invariants, full-fanout Â parity, batching.

The load-bearing property here is *full-fanout parity*: when the fanout
covers every neighbor, each block row must be **bitwise** equal to the
corresponding row of the global ``gcn_normalize`` output under local
renumbering.  The differential tests (sampled training == full-batch
training) in ``tests/training/test_sampled.py`` rest on this identity.
"""

import copy

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import GraphError
from repro.graph import build_adjacency
from repro.graph.normalize import gcn_normalize
from repro.sampling import BlockBuilder, ItemSampler, sample_adjacent


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


def ring(num_nodes=6):
    return build_adjacency(num_nodes, np.array([[i, (i + 1) % num_nodes] for i in range(num_nodes)]))


class TestAdjacencyContract:
    """The builder rejects adjacencies whose blocks would be wrong."""

    def test_weighted_adjacency_rejected(self):
        # Weight 3 would give block row [1/3]*3 where gcn_normalize gives
        # [0.143, 0.429, 0.429].
        with pytest.raises(GraphError, match="unweighted"):
            BlockBuilder(ring() * 3.0, (2,))

    def test_self_loops_rejected(self):
        # A stored diagonal would repeat the self-loop column in the block.
        with pytest.raises(GraphError, match="diagonal"):
            BlockBuilder(ring() + sp.eye(6, format="csr"), (2,))

    def test_non_square_rejected(self):
        with pytest.raises(GraphError, match="square"):
            BlockBuilder(sp.csr_matrix(np.ones((3, 4))), (2,))

    def test_duplicate_entries_rejected(self):
        adj = ring().tocsr()
        dup = sp.csr_matrix(
            (np.ones(adj.nnz + 1), np.append(adj.indices, adj.indices[-1]),
             np.append(adj.indptr[:-1], adj.indptr[-1] + 1)),
            shape=adj.shape,
        )
        with pytest.raises(GraphError, match="duplicate"):
            BlockBuilder(dup, (2,))


def reference_blocks(adjacency, fanouts, rng, seeds, weights=None):
    """Blocks rebuilt from the sampler's edges by plain COO → CSR
    conversion: the oracle for the builder's scratch-map assembly."""
    csr = adjacency.tocsr()
    indptr, indices = csr.indptr.astype(np.int64), csr.indices.astype(np.int64)
    degrees = np.diff(indptr)
    inv_sqrt = 1.0 / np.sqrt(degrees + 1.0)
    current = np.unique(seeds)
    blocks = []
    for fanout in fanouts:
        src, dst, counts = sample_adjacent(indptr, indices, current, fanout, rng, weights=weights)
        input_nodes = np.concatenate([current, np.setdiff1d(src, current)])
        local = {int(node): i for i, node in enumerate(input_nodes)}
        num_out = len(current)
        rows = np.concatenate([np.arange(num_out), np.repeat(np.arange(num_out), counts)])
        cols = np.concatenate([np.arange(num_out), [local[int(u)] for u in src]]).astype(np.int64)
        rescale = degrees[dst] / np.repeat(counts, counts)
        vals = np.concatenate([inv_sqrt[current] * inv_sqrt[current],
                               (inv_sqrt[src] * inv_sqrt[dst]) * rescale])
        matrix = sp.coo_matrix((vals, (rows, cols)), shape=(num_out, len(input_nodes))).tocsr()
        matrix.sort_indices()
        blocks.append((input_nodes, current, matrix))
        current = input_nodes
    return blocks[::-1]


def assert_same_block(block, input_nodes, output_nodes, matrix):
    np.testing.assert_array_equal(block.input_nodes, input_nodes)
    np.testing.assert_array_equal(block.output_nodes, output_nodes)
    adj = block.adjacency
    assert adj.shape == matrix.shape
    assert adj.data.dtype == matrix.data.dtype
    assert adj.data.tobytes() == matrix.data.tobytes()
    np.testing.assert_array_equal(adj.indices, matrix.indices)
    np.testing.assert_array_equal(adj.indptr, matrix.indptr)


class TestReferenceAssembly:
    @settings(max_examples=40, deadline=None)
    @given(
        num_nodes=st.integers(2, 40),
        edge_prob=st.floats(0.0, 0.6),
        graph_seed=st.integers(0, 1000),
        fanouts=st.lists(st.integers(1, 6), min_size=1, max_size=3),
        weighted=st.booleans(),
        draw_seed=st.integers(0, 1000),
    )
    def test_blocks_equal_coo_oracle(
        self, num_nodes, edge_prob, graph_seed, fanouts, weighted, draw_seed
    ):
        adjacency = random_graph(num_nodes, edge_prob, graph_seed)
        draws = np.random.default_rng(draw_seed)
        weights = draws.random(num_nodes) + 0.05 if weighted else None
        batches = [draws.choice(num_nodes, size=int(draws.integers(1, num_nodes + 1)))
                   for _ in range(3)]
        rng = np.random.default_rng(draw_seed + 1)
        oracle_rng = copy.deepcopy(rng)
        builder = BlockBuilder(adjacency, fanouts, rng=rng, weights=weights)
        for seeds in batches:
            batch = builder.build(seeds)
            expected = reference_blocks(adjacency, fanouts, oracle_rng, seeds, weights)
            assert len(batch.blocks) == len(expected)
            for block, (input_nodes, output_nodes, matrix) in zip(batch.blocks, expected):
                assert_same_block(block, input_nodes, output_nodes, matrix)

    def test_scratch_maps_do_not_leak_between_builds(self, tiny_graph):
        adjacency = tiny_graph.adjacency
        full = int(np.diff(adjacency.indptr).max())
        first, second = np.array([0, 5, 31, 47]), np.array([5, 12, 13, 40, 59])

        def snapshot(batch):
            return [(b.input_nodes.copy(), b.output_nodes.copy(), b.adjacency.copy())
                    for b in batch.blocks]

        reused = BlockBuilder(adjacency, (full, full))
        reused.build(first)
        reused.build(second)
        again = snapshot(reused.build(first))
        fresh = BlockBuilder(adjacency, (full, full)).build(first)
        for block, (input_nodes, output_nodes, matrix) in zip(fresh.blocks, again):
            assert_same_block(block, input_nodes, output_nodes, matrix)


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
