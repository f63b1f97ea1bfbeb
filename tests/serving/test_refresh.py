"""Serving parity + staleness tests for delta-aware engines.

The streaming contract, in decreasing order of strength:

1. **Full-refresh parity** — after any delta sequence, a refreshed
   streaming engine's ``predict_nodes`` is bitwise identical to a
   freshly-constructed streaming engine on the updated graph.  (The
   row-pure forward makes this exact, not approximate.)
2. **Laziness** — queries touching only rows outside the k-hop affected
   set are answered from the existing table without recomputing
   anything, and those rows are provably unchanged anyway.
3. **Versioned inductive LRU** — a cache entry computed before a delta
   is never returned after it.
"""

import time

import numpy as np
import pytest
import scipy.sparse as sp

from repro.graph import GraphDelta, apply_delta
from repro.serving import (
    BackgroundRefresher,
    PredictionEngine,
    RowRefresher,
    ServingError,
)

from .conftest import build_gcn


def edge_pairs(graph):
    coo = sp.triu(graph.adjacency, k=1).tocoo()
    return list(zip(coo.row.tolist(), coo.col.tolist()))


def absent_edge(graph, start=0):
    present = set(edge_pairs(graph))
    for u in range(start, graph.num_nodes):
        for v in range(u + 1, graph.num_nodes):
            if (u, v) not in present:
                return (u, v)
    raise AssertionError("graph is complete")


@pytest.fixture()
def streaming_engine(gcn_artifact_path, tiny_graph):
    return PredictionEngine(gcn_artifact_path, tiny_graph, streaming=True)


@pytest.fixture(scope="module")
def some_deltas(tiny_graph):
    """A deterministic 3-delta sequence: removals, adds, node appends."""
    pairs = edge_pairs(tiny_graph)
    deltas = [
        GraphDelta(removed_edges=[pairs[3], pairs[17]]),
        GraphDelta(added_edges=[absent_edge(tiny_graph)]),
        GraphDelta(
            added_edges=[[2, tiny_graph.num_nodes], [40, tiny_graph.num_nodes]],
            new_features=np.linspace(0, 1, tiny_graph.num_features)[None, :],
            new_labels=[1],
        ),
    ]
    return deltas


def updated_graph(graph, deltas):
    for delta in deltas:
        graph = apply_delta(graph, delta)
    return graph


class TestStreamingConstruction:
    def test_requires_gcn_single_model(self, ensemble_artifact_path, tiny_graph):
        with pytest.raises(ServingError, match="streaming"):
            PredictionEngine(ensemble_artifact_path, tiny_graph, streaming=True)

    def test_static_engine_rejects_apply_delta(self, gcn_artifact_path, tiny_graph):
        engine = PredictionEngine(gcn_artifact_path, tiny_graph)
        with pytest.raises(ServingError, match="streaming=True"):
            engine.apply_delta(GraphDelta(added_edges=[absent_edge(tiny_graph)]))

    def test_streaming_table_matches_static_closely(self, gcn_artifact_path, tiny_graph):
        """The row-pure table and the static table are the same numbers up
        to summation order — tight float tolerance, not bitwise."""
        static = PredictionEngine(gcn_artifact_path, tiny_graph)
        streaming = PredictionEngine(gcn_artifact_path, tiny_graph, streaming=True)
        np.testing.assert_allclose(
            streaming.logits_table(), static.logits_table(), rtol=1e-12, atol=1e-12
        )

    def test_engine_on_updated_graph_normalizes_its_own_adjacency(
        self, gcn_artifact_path, tiny_graph, some_deltas
    ):
        """The init-time Â install must not leak the training graph's
        propagation matrix onto a structurally different serving graph."""
        plain = updated_graph(tiny_graph, some_deltas[:1])
        plain._normalized = None
        engine = PredictionEngine(gcn_artifact_path, plain, verify_graph=False)
        expected = plain.normalized_adjacency()  # freshly normalized
        assert engine.graph._normalized.nnz == expected.nnz


class TestFullRefreshParity:
    def test_refreshed_matches_fresh_engine_bitwise(
        self, gcn_artifact_path, tiny_graph, some_deltas, streaming_engine
    ):
        streaming_engine.logits_table()  # build at version 0
        for delta in some_deltas:
            streaming_engine.apply_delta(delta)
        streaming_engine.refresh()
        fresh = PredictionEngine(
            gcn_artifact_path,
            updated_graph(tiny_graph, some_deltas),
            streaming=True,
            verify_graph=False,
        )
        nodes = np.arange(fresh.graph.num_nodes)
        assert np.array_equal(
            streaming_engine.predict_nodes(nodes), fresh.predict_nodes(nodes)
        )

    def test_refresh_per_delta_matches_one_shot(
        self, gcn_artifact_path, tiny_graph, some_deltas
    ):
        """Refreshing after every delta and refreshing once at the end
        land on the same bytes."""
        eager = PredictionEngine(gcn_artifact_path, tiny_graph, streaming=True)
        eager.logits_table()
        lazy = PredictionEngine(gcn_artifact_path, tiny_graph, streaming=True)
        lazy.logits_table()
        for delta in some_deltas:
            eager.apply_delta(delta)
            eager.refresh()
            lazy.apply_delta(delta)
        lazy.refresh()
        assert np.array_equal(eager.logits_table(), lazy.logits_table())

    def test_refresh_before_first_build_is_the_build(
        self, gcn_artifact_path, tiny_graph, some_deltas
    ):
        engine = PredictionEngine(gcn_artifact_path, tiny_graph, streaming=True)
        engine.apply_delta(some_deltas[0])
        refreshed = engine.refresh()
        assert refreshed == engine.graph.num_nodes  # full build
        fresh = PredictionEngine(
            gcn_artifact_path,
            updated_graph(tiny_graph, some_deltas[:1]),
            streaming=True,
            verify_graph=False,
        )
        assert np.array_equal(engine.logits_table(), fresh.logits_table())

    def test_float32_artifact_parity(self, tiny_graph, tmp_path):
        from repro.serving.artifacts import ModelSpec, export_model_artifact

        graph32 = tiny_graph.astype(np.float32)
        model = build_gcn(graph32)
        for parameter in model.parameters():
            parameter.data = parameter.data.astype(np.float32)
        path = export_model_artifact(
            tmp_path / "gcn32.rddart", model, ModelSpec("gcn", {"hidden": 8}), graph32
        )
        engine = PredictionEngine(path, tiny_graph, streaming=True)
        engine.logits_table()
        delta = GraphDelta(removed_edges=[edge_pairs(tiny_graph)[0]])
        engine.apply_delta(delta)
        engine.refresh()
        assert engine.logits_table().dtype == np.float32
        fresh = PredictionEngine(
            path, apply_delta(tiny_graph, delta), streaming=True, verify_graph=False
        )
        assert np.array_equal(engine.logits_table(), fresh.logits_table())

    def test_version_increments_monotonically(self, streaming_engine, some_deltas):
        assert streaming_engine.version == 0
        versions = [streaming_engine.apply_delta(d) for d in some_deltas]
        assert versions == [1, 2, 3]
        streaming_engine.refresh()
        assert streaming_engine.version == 3  # refresh is not a graph change


class TestLaziness:
    def test_clean_rows_served_without_recompute(self, streaming_engine, tiny_graph):
        table_before = streaming_engine.logits_table().copy()
        delta = GraphDelta(removed_edges=[edge_pairs(tiny_graph)[5]])
        streaming_engine.apply_delta(delta)
        stale = streaming_engine._stale.copy()
        assert stale.any() and not stale.all(), "need both stale and clean rows"
        clean = np.flatnonzero(~stale)
        out = streaming_engine.predict_nodes(clean)
        # No refresh happened: the stale mask is untouched and no rows
        # were recomputed.
        assert streaming_engine._stale.any()
        assert streaming_engine.metrics.counter("rows_refreshed_total") == 0
        assert streaming_engine.metrics.counter("stale_row_hits_total") == 0
        # ... and clean rows are exactly their pre-delta bytes.
        assert np.array_equal(out, table_before[clean])

    def test_clean_rows_equal_post_refresh_rows(self, streaming_engine, tiny_graph):
        """Laziness is sound: rows outside the k-hop set would not have
        changed anyway."""
        streaming_engine.logits_table()
        delta = GraphDelta(removed_edges=[edge_pairs(tiny_graph)[5]])
        streaming_engine.apply_delta(delta)
        clean = np.flatnonzero(~streaming_engine._stale)
        before = streaming_engine.predict_nodes(clean)
        streaming_engine.refresh()
        after = streaming_engine.predict_nodes(clean)
        assert np.array_equal(before, after)

    def test_stale_row_query_triggers_refresh(self, streaming_engine, tiny_graph):
        streaming_engine.logits_table()
        streaming_engine.apply_delta(
            GraphDelta(removed_edges=[edge_pairs(tiny_graph)[5]])
        )
        stale_node = int(np.flatnonzero(streaming_engine._stale)[0])
        streaming_engine.predict_nodes([stale_node])
        assert not streaming_engine._stale.any()
        assert streaming_engine.metrics.counter("stale_row_hits_total") == 1
        assert streaming_engine.metrics.counter("rows_refreshed_total") > 0

    def test_stale_mask_is_khop_closure(self, streaming_engine, tiny_graph):
        from repro.graph import k_hop_rows

        streaming_engine.logits_table()
        pair = edge_pairs(tiny_graph)[5]
        streaming_engine.apply_delta(GraphDelta(removed_edges=[pair]))
        expected = k_hop_rows(
            [tiny_graph.adjacency, streaming_engine.graph.adjacency],
            np.asarray(pair),
            streaming_engine._refresher.num_layers,
        )
        np.testing.assert_array_equal(
            np.flatnonzero(streaming_engine._stale), expected
        )

    def test_appended_node_is_stale_until_served(self, streaming_engine, tiny_graph):
        streaming_engine.logits_table()
        new_id = tiny_graph.num_nodes
        streaming_engine.apply_delta(
            GraphDelta(
                added_edges=[[0, new_id]],
                new_features=np.zeros((1, tiny_graph.num_features)),
            )
        )
        assert streaming_engine._stale[new_id]
        row = streaming_engine.predict_nodes([new_id])
        assert row.shape[0] == 1 and np.isfinite(row).all()
        assert not streaming_engine._stale.any()


class TestVersionedInductiveLRU:
    def test_pre_delta_entry_never_served_post_delta(
        self, streaming_engine, tiny_graph, rng
    ):
        features = rng.random(tiny_graph.num_features)
        neighbors = [0, 7]
        first = streaming_engine.predict_inductive(features, neighbors)
        # Hitting the cache returns the identical object bytes.
        assert np.array_equal(
            streaming_engine.predict_inductive(features, neighbors), first
        )
        assert len(streaming_engine._inductive_cache) == 1
        # Remove one of the attachment points' edges: same query must be
        # recomputed (new cache entry), not served from version 0.
        row = tiny_graph.adjacency.indices[
            tiny_graph.adjacency.indptr[0] : tiny_graph.adjacency.indptr[1]
        ]
        streaming_engine.apply_delta(
            GraphDelta(removed_edges=[[0, int(row[0])]])
        )
        second = streaming_engine.predict_inductive(features, neighbors)
        assert len(streaming_engine._inductive_cache) == 2
        fresh = PredictionEngine(
            streaming_engine.artifact,
            streaming_engine.graph,
            streaming=True,
            verify_graph=False,
            seed=streaming_engine.seed,
        )
        assert np.array_equal(second, fresh.predict_inductive(features, neighbors))

    def test_static_engine_keys_unchanged_by_version_field(self, engine, rng):
        """Static engines stay at version 0 — memoization still works."""
        features = rng.random(engine.graph.num_features)
        first = engine.predict_inductive(features, [1, 2])
        assert np.array_equal(engine.predict_inductive(features, [1, 2]), first)


class TestBackgroundRefresher:
    def wait_fresh(self, engine, timeout=5.0):
        deadline = time.time() + timeout
        while time.time() < deadline:
            with engine._lock:
                if engine._refresher.table is not None and not engine._stale.any():
                    return True
            time.sleep(0.005)
        return False

    def test_refreshes_eagerly_after_delta(
        self, gcn_artifact_path, tiny_graph, some_deltas
    ):
        engine = PredictionEngine(gcn_artifact_path, tiny_graph, streaming=True)
        engine.logits_table()
        with BackgroundRefresher(engine, interval_s=0.01):
            for delta in some_deltas:
                engine.apply_delta(delta)
            assert self.wait_fresh(engine)
        assert engine.metrics.counter("refresh_cycles_total") >= 1
        fresh = PredictionEngine(
            gcn_artifact_path,
            updated_graph(tiny_graph, some_deltas),
            streaming=True,
            verify_graph=False,
        )
        assert np.array_equal(engine.logits_table(), fresh.logits_table())

    def test_stop_is_idempotent_and_restartable(self, streaming_engine):
        refresher = BackgroundRefresher(streaming_engine, interval_s=0.01)
        refresher.start()
        refresher.stop()
        refresher.stop()
        refresher.start()
        refresher.stop()
        assert not streaming_engine._delta_listeners

    def test_start_twice_rejected(self, streaming_engine):
        refresher = BackgroundRefresher(streaming_engine, interval_s=0.01)
        refresher.start()
        try:
            with pytest.raises(RuntimeError, match="already started"):
                refresher.start()
        finally:
            refresher.stop()


class TestRowRefresherUnit:
    def test_rebuild_is_idempotent_bitwise(self, gcn_model, tiny_graph):
        refresher = RowRefresher(gcn_model, np.float64)
        first = refresher.rebuild(tiny_graph).copy()
        second = refresher.rebuild(tiny_graph)
        assert np.array_equal(first, second)

    def test_refresh_of_everything_equals_rebuild(self, gcn_model, tiny_graph):
        refresher = RowRefresher(gcn_model, np.float64)
        expected = refresher.rebuild(tiny_graph).copy()
        everything = np.arange(tiny_graph.num_nodes)
        closures = [everything] * (refresher.num_layers + 1)
        refresher.refresh(tiny_graph, closures)
        assert np.array_equal(refresher.table, expected)

    def test_refresh_before_rebuild_rejected(self, gcn_model, tiny_graph):
        refresher = RowRefresher(gcn_model, np.float64)
        with pytest.raises(RuntimeError, match="rebuild"):
            refresher.refresh(tiny_graph, [np.arange(1)] * (refresher.num_layers + 1))

    def test_wrong_closure_count_rejected(self, gcn_model, tiny_graph):
        refresher = RowRefresher(gcn_model, np.float64)
        refresher.rebuild(tiny_graph)
        with pytest.raises(ValueError, match="closures"):
            refresher.refresh(tiny_graph, [np.arange(1)])
