"""Vectorized CSR neighbor sampling: semantics, validation, determinism."""

import numpy as np
import pytest

from repro.errors import GraphError
from repro.graph import build_adjacency
from repro.sampling import (
    BlockBuilder,
    NeighborSampler,
    check_node_ids,
    layerwise_neighborhood,
    sample_adjacent,
)


def star_graph(leaves=8):
    edges = np.array([[0, i] for i in range(1, leaves + 1)])
    return build_adjacency(leaves + 1, edges)


def csr_arrays(adjacency):
    csr = adjacency.tocsr()
    return csr.indptr.astype(np.int64), csr.indices.astype(np.int64)


class TestCheckNodeIds:
    @pytest.mark.parametrize("dtype", [np.int8, np.int16, np.int32, np.int64, np.uint8, np.uint32])
    def test_accepts_any_integer_dtype(self, dtype):
        out = check_node_ids(np.array([0, 3, 7], dtype=dtype), 10)
        assert out.dtype == np.int64
        np.testing.assert_array_equal(out, [0, 3, 7])

    def test_accepts_python_int_lists(self):
        out = check_node_ids([1, 2], 5)
        assert out.dtype == np.int64

    def test_rejects_fractional_floats(self):
        with pytest.raises(GraphError, match="must be integers"):
            check_node_ids(np.array([0.5, 1.0]), 10)

    def test_rejects_strings(self):
        with pytest.raises(GraphError, match="must be integers"):
            check_node_ids(np.array(["a"]), 10)

    def test_rejects_out_of_range(self):
        with pytest.raises(GraphError, match=r"in \[0, 10\)"):
            check_node_ids(np.array([0, 10]), 10)

    def test_rejects_negative(self):
        with pytest.raises(GraphError, match=r"in \[0, 10\)"):
            check_node_ids(np.array([-1]), 10)

    def test_empty_is_fine(self):
        assert check_node_ids(np.array([], dtype=np.int64), 10).size == 0

    def test_rejects_boolean_masks(self):
        # A mask must not be read as the ids 0 and 1.
        mask = np.array([True, False, True, False, False, False])
        with pytest.raises(GraphError, match="booleans"):
            check_node_ids(mask, 10)
        with pytest.raises(GraphError, match="booleans"):
            check_node_ids([True, False], 10)
        ring = build_adjacency(6, np.array([[i, (i + 1) % 6] for i in range(6)]))
        with pytest.raises(GraphError, match="booleans"):
            BlockBuilder(ring, (2, 2)).build(mask)


class TestSampleAdjacent:
    def test_fanout_caps_and_distinct(self, rng):
        indptr, indices = csr_arrays(star_graph(10))
        src, dst, counts = sample_adjacent(indptr, indices, np.array([0]), 4, rng)
        assert len(src) == 4 and len(set(src.tolist())) == 4
        np.testing.assert_array_equal(dst, [0, 0, 0, 0])
        np.testing.assert_array_equal(counts, [4])
        assert set(src.tolist()) <= set(range(1, 11))

    def test_under_fanout_keeps_all_neighbors_and_no_rng(self):
        indptr, indices = csr_arrays(star_graph(3))
        rng = np.random.default_rng(0)
        before = rng.bit_generator.state
        src, _, counts = sample_adjacent(indptr, indices, np.array([0]), 10, rng)
        assert sorted(src.tolist()) == [1, 2, 3]
        np.testing.assert_array_equal(counts, [3])
        # Full-fanout rows must consume no randomness: determinism of
        # full-fanout builds depends on it.
        assert rng.bit_generator.state == before

    def test_grouped_by_seed_order(self, rng):
        adj = build_adjacency(5, np.array([[0, 1], [0, 2], [3, 4]]))
        indptr, indices = csr_arrays(adj)
        src, dst, counts = sample_adjacent(indptr, indices, np.array([3, 0]), 10, rng)
        np.testing.assert_array_equal(counts, [1, 2])
        np.testing.assert_array_equal(dst, [3, 0, 0])
        assert src[0] == 4 and sorted(src[1:].tolist()) == [1, 2]

    def test_isolated_without_flag_contributes_nothing(self, rng):
        adj = build_adjacency(3, np.array([[0, 1]]))
        indptr, indices = csr_arrays(adj)
        src, dst, counts = sample_adjacent(indptr, indices, np.array([2]), 4, rng)
        assert src.size == 0 and dst.size == 0
        np.testing.assert_array_equal(counts, [0])

    def test_invalid_fanout(self, rng):
        indptr, indices = csr_arrays(star_graph())
        with pytest.raises(GraphError, match="fanout"):
            sample_adjacent(indptr, indices, np.array([0]), 0, rng)

    def test_weighted_sampling_prefers_heavy_neighbors(self):
        adj = star_graph(20)
        indptr, indices = csr_arrays(adj)
        weights = np.ones(21)
        weights[1] = 200.0  # leaf 1 is ~200x more likely per draw
        rng = np.random.default_rng(7)
        hits = 0
        trials = 200
        for _ in range(trials):
            src, _, _ = sample_adjacent(indptr, indices, np.array([0]), 2, rng, weights=weights)
            hits += int(1 in src)
        # Uniform sampling keeps leaf 1 with p = 2/20; the heavy weight
        # pushes that to ~1.  150/200 is > 6 sigma from uniform.
        assert hits > 150

    def test_weighted_sampling_stays_without_replacement(self):
        indptr, indices = csr_arrays(star_graph(10))
        weights = np.ones(11)
        weights[5] = 1000.0
        rng = np.random.default_rng(3)
        for _ in range(20):
            src, _, _ = sample_adjacent(indptr, indices, np.array([0]), 4, rng, weights=weights)
            assert len(set(src.tolist())) == 4


class TestNeighborSampler:
    def test_deterministic_given_seed(self):
        adj = star_graph(30)
        a = NeighborSampler(adj, seed=11).sample(np.array([0]), 5)
        b = NeighborSampler(adj, seed=11).sample(np.array([0]), 5)
        for x, y in zip(a, b):
            np.testing.assert_array_equal(x, y)

    def test_different_seeds_differ(self):
        adj = star_graph(30)
        a = NeighborSampler(adj, seed=0).sample(np.array([0]), 5)[0]
        b = NeighborSampler(adj, seed=1).sample(np.array([0]), 5)[0]
        assert sorted(a.tolist()) != sorted(b.tolist())

    def test_validates_node_ids(self):
        sampler = NeighborSampler(star_graph(4))
        with pytest.raises(GraphError):
            sampler.sample(np.array([99]), 2)

    def test_set_weights_validation(self):
        sampler = NeighborSampler(star_graph(4))
        with pytest.raises(GraphError, match="shape"):
            sampler.set_weights(np.ones(3))
        with pytest.raises(GraphError, match="positive"):
            sampler.set_weights(np.zeros(5))
        for bad in (np.nan, np.inf):
            weights = np.ones(5)
            weights[2] = bad
            with pytest.raises(GraphError, match="finite"):
                sampler.set_weights(weights)
        sampler.set_weights(np.ones(5))
        sampler.set_weights(None)  # clearing is allowed

    def test_accepts_int32_ids(self):
        sampler = NeighborSampler(star_graph(6))
        src, _, _ = sampler.sample(np.array([0], dtype=np.int32), 3)
        assert len(src) == 3


class TestLayerwiseNeighborhood:
    def test_contains_seeds_and_is_sorted(self, tiny_graph):
        rng = np.random.default_rng(0)
        seeds = tiny_graph.train_index[:3]
        context = layerwise_neighborhood(tiny_graph.adjacency, seeds, 3, 2, rng)
        assert np.all(np.isin(seeds, context))
        np.testing.assert_array_equal(context, np.sort(context))
        assert len(np.unique(context)) == len(context)

    def test_full_fanout_reaches_exact_k_hop_ball(self):
        # Path graph 0-1-2-3-4: 2 hops from node 0 reach {0, 1, 2}.
        adj = build_adjacency(5, np.array([[i, i + 1] for i in range(4)]))
        context = layerwise_neighborhood(adj, np.array([0]), 10, 2, np.random.default_rng(0))
        np.testing.assert_array_equal(context, [0, 1, 2])

    def test_deterministic_for_equal_rng(self, tiny_graph):
        seeds = tiny_graph.train_index[:4]
        a = layerwise_neighborhood(tiny_graph.adjacency, seeds, 2, 2, np.random.default_rng(5))
        b = layerwise_neighborhood(tiny_graph.adjacency, seeds, 2, 2, np.random.default_rng(5))
        np.testing.assert_array_equal(a, b)

    def test_zero_hops_returns_seeds(self, tiny_graph):
        seeds = np.array([4, 2, 2])
        context = layerwise_neighborhood(tiny_graph.adjacency, seeds, 3, 0, np.random.default_rng(0))
        np.testing.assert_array_equal(context, [2, 4])
