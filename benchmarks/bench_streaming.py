"""Streaming-delta benchmark: k-hop invalidation vs full-table recompute.

Two measurements back the streaming subsystem (committed to
``BENCH_streaming.json``, guarded by
``scripts/check_bench.py --bench streaming``):

1. **Invalidation speedup** — at small delta rates (a handful of edge
   events per batch), applying a delta and refreshing only the
   k-hop-affected logits rows must beat the naive alternative — renormalize
   ``Â`` from scratch and recompute the whole table — by at least
   :data:`SPEEDUP_FLOOR`.  Both arms use the same row-pure forward
   (:class:`repro.serving.refresh.RowRefresher`), so the comparison is
   incremental-vs-full of the *same* computation, and both arms produce
   bitwise-identical tables (asserted here, not just tested elsewhere).

2. **Freshness vs latency** — a loadgen-style scenario: client threads
   hammer a micro-batched streaming engine while deltas land at a fixed
   rate.  In **lazy** mode queries pay stale-row recomputes inline; with
   a **BackgroundRefresher** the eager thread absorbs them and queries
   mostly hit a fresh table.  Latencies are reported, not gated (they
   are wall-clock noisy and the refresher thread competes for the GIL);
   the gated shape is eager stale hits << lazy stale hits.

Run ``python scripts/bench.py streaming`` to refresh the baseline.  The
pytest entries are ``perf``-marked and excluded from tier-1.
"""

from __future__ import annotations

import json
import sys
import tempfile
import threading
import time
from pathlib import Path
from typing import Dict, List

import numpy as np

REPO_ROOT = Path(__file__).resolve().parents[1]
for entry in (str(REPO_ROOT / "src"), str(REPO_ROOT)):
    if entry not in sys.path:
        sys.path.insert(0, entry)

import pytest  # noqa: E402
import scipy.sparse as sp  # noqa: E402

OUTPUT_PATH = REPO_ROOT / "BENCH_streaming.json"

#: Incremental apply+refresh must beat scratch normalize+rebuild by this.
SPEEDUP_FLOOR = 5.0

#: Edge events per delta batch ("small delta rates").
DELTA_EDGES = 4

NUM_NODES = 50_000
NUM_EDGES = 100_000
NUM_CLASSES = 7
NUM_FEATURES = 1_000
HIDDEN = 16


def make_serving_stack(seed: int = 0):
    """A citation-like DC-SBM graph at serving scale (~25k nodes, sparse
    bag-of-words features) + untrained GCN artifact + streaming engine.

    Big enough that a full-table recompute has real cost, while a small
    delta's k-hop closure stays a sliver of the table — the regime the
    streaming subsystem is built for.
    """
    from repro.datasets.features import generate_topic_features
    from repro.datasets.sbm import generate_dcsbm_graph
    from repro.datasets.splits import planetoid_split
    from repro.graph.graph import Graph
    from repro.models.gcn import GCN
    from repro.serving import ModelSpec, PredictionEngine, export_model_artifact

    rng = np.random.default_rng(seed)
    adjacency, labels = generate_dcsbm_graph(
        NUM_NODES,
        NUM_CLASSES,
        NUM_EDGES,
        homophily=0.85,
        rng=rng,
        degree_exponent=3.0,  # bounded hubs: k-hop closures stay local
    )
    features = generate_topic_features(labels, NUM_FEATURES, rng)
    train, val, test = planetoid_split(labels, rng)
    graph = Graph(adjacency, features, labels, train, val, test, name="stream-bench")
    model = GCN(
        graph.num_features, graph.num_classes, np.random.default_rng(3), hidden=HIDDEN
    )
    model.eval()
    tmp = tempfile.mkdtemp(prefix="bench-streaming-")
    path = Path(tmp) / "gcn.rddart"
    export_model_artifact(path, model, ModelSpec("gcn", {"hidden": HIDDEN}), graph)
    engine = PredictionEngine(path, graph, streaming=True)
    return graph, path, engine


def make_deltas(graph, count: int, seed: int = 1) -> List:
    """``count`` small deltas, each flipping :data:`DELTA_EDGES` edges
    (half removals of present edges, half additions of absent ones),
    valid against the evolving graph."""
    from repro.graph import GraphDelta, apply_delta

    rng = np.random.default_rng(seed)
    deltas = []
    state = graph
    for _ in range(count):
        coo = sp.triu(state.adjacency, k=1).tocoo()
        present = np.stack([coo.row, coo.col], axis=1)
        removed = present[
            rng.choice(len(present), size=DELTA_EDGES // 2, replace=False)
        ]
        present_set = set(map(tuple, present.tolist()))
        added = []
        while len(added) < DELTA_EDGES - DELTA_EDGES // 2:
            u, v = rng.integers(0, state.num_nodes, size=2)
            edge = (int(min(u, v)), int(max(u, v)))
            if u != v and edge not in present_set and edge not in added:
                added.append(edge)
        delta = GraphDelta(
            added_edges=np.asarray(added, dtype=np.int64),
            removed_edges=removed.astype(np.int64),
        )
        deltas.append(delta)
        state = apply_delta(state, delta)
    return deltas


# ----------------------------------------------------------------------
# 1. k-hop invalidation vs full-table recompute
# ----------------------------------------------------------------------
def invalidation_speedup(quick: bool = False) -> Dict[str, object]:
    from repro.graph import apply_delta
    from repro.serving import PredictionEngine
    from repro.serving.refresh import RowRefresher

    graph, artifact_path, engine = make_serving_stack()
    count = 5 if quick else 15
    deltas = make_deltas(graph, count)
    engine.logits_table()  # build the version-0 table outside the timing

    # Arm A: incremental — apply the delta, refresh the k-hop closure.
    incremental_s, refreshed_rows = [], []
    for delta in deltas:
        started = time.perf_counter()
        engine.apply_delta(delta)
        rows = engine.refresh()
        incremental_s.append(time.perf_counter() - started)
        refreshed_rows.append(rows)

    # Arm B: naive — renormalize Â from scratch and rebuild the whole
    # table with the *same* row-pure routine.  Graph edits are applied
    # outside the timed region (the naive cost being measured is the
    # recompute, not the CSR splice).
    updated = []
    state = graph
    for delta in deltas:
        state = apply_delta(state, delta)
        stripped = state.astype(engine.artifact.dtype)
        updated.append(stripped)
    full_s = []
    rebuilt = RowRefresher(engine._model, engine.artifact.dtype)
    for state in updated:
        state._normalized = None  # force the from-scratch normalization
        started = time.perf_counter()
        state.normalized_adjacency()
        rebuilt.rebuild(state)
        full_s.append(time.perf_counter() - started)

    # Both arms end on the same graph: the tables must agree bitwise.
    if not np.array_equal(engine.logits_table(), rebuilt.table):
        raise AssertionError("incremental and full-recompute tables diverged")

    incremental_median = float(np.median(incremental_s))
    full_median = float(np.median(full_s))
    return {
        "nodes": int(graph.num_nodes),
        "edges": int(graph.num_edges),
        "hidden": HIDDEN,
        "deltas": count,
        "edges_per_delta": DELTA_EDGES,
        "mean_rows_refreshed": float(np.mean(refreshed_rows)),
        "incremental_median_s": incremental_median,
        "full_median_s": full_median,
        "speedup": full_median / incremental_median,
    }


# ----------------------------------------------------------------------
# 2. Freshness vs p99 under load
# ----------------------------------------------------------------------
def freshness_scenario(quick: bool = False) -> Dict[str, object]:
    from repro.serving import BackgroundRefresher, MicroBatcher, PredictionEngine

    graph, artifact_path, _ = make_serving_stack()
    duration_s = 0.6 if quick else 2.0
    delta_interval_s = 0.05
    num_clients = 4

    def run_mode(eager: bool) -> Dict[str, object]:
        engine = PredictionEngine(artifact_path, graph, streaming=True)
        engine.logits_table()
        deltas = make_deltas(graph, int(duration_s / delta_interval_s) + 2)
        latencies: List[float] = []
        lat_lock = threading.Lock()
        stop = threading.Event()

        def client(worker: int):
            rng = np.random.default_rng(worker)
            while not stop.is_set():
                nodes = rng.integers(0, graph.num_nodes, size=4)
                started = time.perf_counter()
                future = batcher.submit(nodes)
                future.result(timeout=30)
                elapsed = time.perf_counter() - started
                with lat_lock:
                    latencies.append(elapsed)

        refresher = BackgroundRefresher(engine, interval_s=0.01) if eager else None
        with MicroBatcher(
            engine.predict_many, max_batch_size=8, max_wait_s=0.001
        ) as batcher:
            if refresher is not None:
                refresher.start()
            threads = [
                threading.Thread(target=client, args=(w,), daemon=True)
                for w in range(num_clients)
            ]
            for thread in threads:
                thread.start()
            deadline = time.time() + duration_s
            applied = 0
            try:
                while time.time() < deadline and applied < len(deltas):
                    engine.apply_delta(deltas[applied])
                    applied += 1
                    time.sleep(delta_interval_s)
            finally:
                stop.set()
                for thread in threads:
                    thread.join(timeout=10)
                if refresher is not None:
                    refresher.stop()
        latencies_ms = np.asarray(latencies) * 1e3
        return {
            "mode": "eager" if eager else "lazy",
            "queries": len(latencies),
            "deltas_applied": applied,
            "p50_ms": float(np.percentile(latencies_ms, 50)),
            "p99_ms": float(np.percentile(latencies_ms, 99)),
            "stale_hit_queries": engine.metrics.counter("stale_row_hits_total"),
            "rows_refreshed_total": engine.metrics.counter("rows_refreshed_total"),
            "refresh_cycles": engine.metrics.counter("refresh_cycles_total"),
        }

    return {"lazy": run_mode(eager=False), "eager": run_mode(eager=True)}


def run_benchmark(quick: bool = False) -> Dict[str, object]:
    invalidation = invalidation_speedup(quick=quick)
    freshness = freshness_scenario(quick=quick)
    return {
        "invalidation": invalidation,
        "freshness": freshness,
        "invalidation_speedup": invalidation["speedup"],
    }


def main(argv=None) -> int:
    results = run_benchmark()
    OUTPUT_PATH.write_text(json.dumps(results, indent=2) + "\n")
    print(json.dumps(results, indent=2))
    print(f"\nresults written to {OUTPUT_PATH}")
    return 0


# ----------------------------------------------------------------------
# pytest entries (perf-marked; excluded from tier-1)
# ----------------------------------------------------------------------
@pytest.mark.perf
def test_khop_refresh_beats_full_recompute_floor():
    result = invalidation_speedup(quick=True)
    assert result["speedup"] >= SPEEDUP_FLOOR, (
        f"incremental refresh only {result['speedup']:.1f}x over full "
        f"recompute (needs >= {SPEEDUP_FLOOR:.0f}x)"
    )


@pytest.mark.perf
def test_eager_mode_reduces_stale_hits():
    result = freshness_scenario(quick=True)
    assert (
        result["eager"]["stale_hit_queries"] <= result["lazy"]["stale_hit_queries"]
    ), (
        f"eager refreshing should not increase query-side stale hits: "
        f"{result['eager']['stale_hit_queries']} > "
        f"{result['lazy']['stale_hit_queries']}"
    )


if __name__ == "__main__":
    raise SystemExit(main())
