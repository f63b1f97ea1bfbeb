"""Concurrency + chaos battery for streaming serving.

Clients hammer ``predict_many`` through a :class:`MicroBatcher` while
deltas land and a :class:`BackgroundRefresher` races them.  The
invariants under fire:

* **no torn reads** — every response is bitwise equal to some
  *committed* graph version's table rows (precomputed reference engines,
  one per version), never a mixture of two versions;
* **attribution** — ``predict_many_versioned`` returns a version, and
  the rows match *that* version's reference exactly;
* **fault degradation** — a ``serving:refresh`` crash in the refresher
  thread leaves the engine lazily consistent and never wedges the
  batching loop.

The delta sequence is deterministic and all queried node ids stay below
the initial node count, so every (version, node) pair has a well-defined
reference row.
"""

import threading
import time

import numpy as np
import pytest
import scipy.sparse as sp

from repro.graph import GraphDelta, apply_delta
from repro.serving import (
    BackgroundRefresher,
    MicroBatcher,
    PredictionEngine,
)
from repro.testing.faults import FaultPlan, inject


def edge_pairs(graph):
    coo = sp.triu(graph.adjacency, k=1).tocoo()
    return list(zip(coo.row.tolist(), coo.col.tolist()))


@pytest.fixture(scope="module")
def delta_sequence(tiny_graph):
    """Six deterministic deltas: removals, re-adds, and node appends."""
    pairs = edge_pairs(tiny_graph)
    victims = [pairs[2], pairs[9], pairs[21]]
    n = tiny_graph.num_nodes
    features = np.full((1, tiny_graph.num_features), 0.25)
    return [
        GraphDelta(removed_edges=[victims[0]]),
        GraphDelta(removed_edges=[victims[1], victims[2]]),
        GraphDelta(added_edges=[victims[0]]),
        GraphDelta(added_edges=[[5, n]], new_features=features),
        GraphDelta(removed_edges=[pairs[30]]),
        GraphDelta(added_edges=[victims[1]]),
    ]


@pytest.fixture(scope="module")
def reference_tables(gcn_artifact_path, tiny_graph, delta_sequence):
    """Per-version ground truth: the streaming table at each version."""
    tables = []
    graph = tiny_graph
    engine = PredictionEngine(gcn_artifact_path, graph, streaming=True)
    tables.append(engine.logits_table().copy())
    for delta in delta_sequence:
        graph = apply_delta(graph, delta)
        fresh = PredictionEngine(
            gcn_artifact_path, graph, streaming=True, verify_graph=False
        )
        tables.append(fresh.logits_table().copy())
    return tables


class TestConcurrentDeltasAndQueries:
    def run_storm(
        self,
        gcn_artifact_path,
        tiny_graph,
        delta_sequence,
        reference_tables,
        *,
        use_refresher,
        fault_plan=None,
    ):
        engine = PredictionEngine(gcn_artifact_path, tiny_graph, streaming=True)
        engine.logits_table()
        num_nodes = tiny_graph.num_nodes  # queried ids valid at every version
        rng = np.random.default_rng(0)
        violations = []
        stop = threading.Event()

        def client(worker: int):
            local = np.random.default_rng(worker)
            while not stop.is_set():
                nodes = local.integers(0, num_nodes, size=3)
                rows, version = engine.predict_many_versioned([nodes])
                expected = reference_tables[version][nodes]
                if not np.array_equal(rows[0], expected):
                    violations.append(
                        (worker, version, nodes.tolist())
                    )  # pragma: no cover - failure path
                    return

        def run():
            threads = [
                threading.Thread(target=client, args=(w,), daemon=True)
                for w in range(4)
            ]
            for thread in threads:
                thread.start()
            try:
                for delta in delta_sequence:
                    engine.apply_delta(delta)
                    time.sleep(0.01)
                time.sleep(0.05)
            finally:
                stop.set()
                for thread in threads:
                    thread.join(timeout=10)

        refresher_ctx = (
            BackgroundRefresher(engine, interval_s=0.005)
            if use_refresher
            else None
        )
        if fault_plan is not None:
            with inject(fault_plan):
                if refresher_ctx is not None:
                    with refresher_ctx:
                        run()
                else:
                    run()
        elif refresher_ctx is not None:
            with refresher_ctx:
                run()
        else:
            run()
        return engine, violations

    def test_no_torn_reads_lazy_only(
        self, gcn_artifact_path, tiny_graph, delta_sequence, reference_tables
    ):
        engine, violations = self.run_storm(
            gcn_artifact_path,
            tiny_graph,
            delta_sequence,
            reference_tables,
            use_refresher=False,
        )
        assert not violations, f"torn/unattributable reads: {violations[:5]}"
        assert engine.version == len(delta_sequence)

    def test_no_torn_reads_with_background_refresher(
        self, gcn_artifact_path, tiny_graph, delta_sequence, reference_tables
    ):
        engine, violations = self.run_storm(
            gcn_artifact_path,
            tiny_graph,
            delta_sequence,
            reference_tables,
            use_refresher=True,
        )
        assert not violations, f"torn/unattributable reads: {violations[:5]}"
        # Final state equals the last version's reference everywhere.
        final = reference_tables[-1]
        np.testing.assert_array_equal(
            engine.predict_nodes(np.arange(final.shape[0])), final
        )

    def test_refresher_crashes_degrade_to_lazy(
        self, gcn_artifact_path, tiny_graph, delta_sequence, reference_tables
    ):
        """Every refresh cycle faults; clients still only ever see valid
        versioned rows, and the engine ends consistent via lazy refresh."""
        plan = FaultPlan().fail("serving:refresh", at=None)
        engine, violations = self.run_storm(
            gcn_artifact_path,
            tiny_graph,
            delta_sequence,
            reference_tables,
            use_refresher=True,
            fault_plan=plan,
        )
        assert not violations, f"torn/unattributable reads: {violations[:5]}"
        assert plan.fired("serving:refresh") >= 1
        assert engine.metrics.counter("refresh_errors_total") >= 1
        final = reference_tables[-1]
        np.testing.assert_array_equal(
            engine.predict_nodes(np.arange(final.shape[0])), final
        )


class TestBatcherUnderDeltas:
    def test_microbatcher_clients_with_concurrent_deltas(
        self, gcn_artifact_path, tiny_graph, delta_sequence, reference_tables
    ):
        """The batching loop coalesces requests while deltas land; every
        batched response must match the pre- or post-delta reference for
        its nodes (the engine versions the whole batch atomically)."""
        engine = PredictionEngine(gcn_artifact_path, tiny_graph, streaming=True)
        engine.logits_table()
        num_nodes = tiny_graph.num_nodes

        def batch_fn(payloads):
            results, version = engine.predict_many_versioned(payloads)
            return [(rows, version) for rows in results]

        with MicroBatcher(batch_fn, max_batch_size=8) as batcher:
            with BackgroundRefresher(engine, interval_s=0.005):
                futures = []
                rng = np.random.default_rng(7)
                for i, delta in enumerate(delta_sequence):
                    for _ in range(10):
                        nodes = rng.integers(0, num_nodes, size=2)
                        futures.append((nodes, batcher.submit(nodes)))
                    engine.apply_delta(delta)
                for nodes, future in futures:
                    rows, version = future.result(timeout=10)
                    expected = reference_tables[version][nodes]
                    assert np.array_equal(rows, expected), (
                        f"response for nodes {nodes} not attributable to "
                        f"version {version}"
                    )

    def test_faulted_refresher_never_wedges_batching(
        self, gcn_artifact_path, tiny_graph, delta_sequence
    ):
        """serving:refresh faults must not leak into request futures or
        stall the batcher: every submitted request completes."""
        engine = PredictionEngine(gcn_artifact_path, tiny_graph, streaming=True)
        plan = FaultPlan().fail("serving:refresh", at=None)
        answered = 0
        with inject(plan):
            with MicroBatcher(engine.predict_many, max_batch_size=4) as batcher:
                with BackgroundRefresher(engine, interval_s=0.002):
                    futures = []
                    for delta in delta_sequence:
                        engine.apply_delta(delta)
                        futures.extend(
                            batcher.submit([node]) for node in (0, 1, 2, 3)
                        )
                    for future in futures:
                        rows = future.result(timeout=10)
                        assert rows.shape[0] == 1 and np.isfinite(rows).all()
                        answered += 1
        assert answered == 4 * len(delta_sequence)
        assert plan.fired("serving:refresh") >= 1
        # The engine is still healthy after the storm of failed cycles.
        assert np.isfinite(engine.logits_table()).all()
