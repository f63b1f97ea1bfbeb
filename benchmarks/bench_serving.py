"""Serving benchmark: batching and overload behavior.

Measures the serving stack under closed-loop concurrent load — the
workload an HTTP front end produces — in two regimes:

* **unbatched vs batched** — with the logits cache off each lone
  request pays its own full eval-mode forward; through the
  :class:`MicroBatcher` concurrent callers coalesce and each batch pays
  **one** forward shared by up to ``max_batch_size`` requests.  The
  batched/unbatched ratio is floored at 2.0x.
* **overload** — submissions far beyond a deliberately tiny admission
  queue, against the serving path itself: a :class:`MicroBatcher` over
  a default (logits-cached) engine.  The point is *graceful
  degradation*: some requests shed (:class:`Overloaded`), every
  accepted request still answers, and the accepted p99 stays bounded
  instead of the whole tail collapsing.

Batched results are bitwise identical to unbatched ones (asserted
before any timing).  Run ``python benchmarks/bench_serving.py`` to
refresh ``BENCH_serving.json``; ``scripts/check_bench.py`` guards it
against regression.  The pytest entries are ``perf``-marked and
excluded from tier-1.
"""

from __future__ import annotations

import json
import tempfile
import threading
import time
from pathlib import Path
from typing import Callable, Dict, List

import numpy as np
import pytest

from repro.datasets import cora_like
from repro.models.gcn import GCN
from repro.serving.artifacts import ModelSpec, export_model_artifact
from repro.serving.batching import MicroBatcher, Overloaded
from repro.serving.engine import PredictionEngine
from repro.serving.metrics import ServingMetrics

REPO_ROOT = Path(__file__).resolve().parents[1]
OUTPUT_PATH = REPO_ROOT / "BENCH_serving.json"

CONCURRENCY = 8
NODES_PER_REQUEST = 8
MAX_BATCH_SIZE = 16
MAX_WAIT_S = 0.002

OVERLOAD_QUEUE = 64


def _export_bench_model(tmp: Path):
    """Export the benchmark artifact; returns ``(path, graph)``.

    The served model is a 4-layer, width-64 GCN: a production-weight
    forward (~5 ms on full-scale Cora) so the measurement captures the
    regime batching exists for — compute-dominated requests — rather
    than queue ping-pong around a sub-millisecond kernel.  Weights are
    untrained; serving cost is architecture-, not accuracy-, dependent.
    """
    graph = cora_like(seed=0, scale=1.0)
    spec = ModelSpec("gcn", {"hidden": [64, 64, 64], "num_layers": 4})
    model = GCN(
        graph.num_features, graph.num_classes, np.random.default_rng(0),
        hidden=[64, 64, 64], num_layers=4,
    )
    model.eval()
    path = export_model_artifact(tmp / "bench.rddart", model, spec, graph)
    return path, graph


def _make_requests(
    num_nodes: int, per_thread: int, rng: np.random.Generator, concurrency: int = CONCURRENCY
) -> List[List[np.ndarray]]:
    return [
        [rng.integers(0, num_nodes, size=NODES_PER_REQUEST) for _ in range(per_thread)]
        for _ in range(concurrency)
    ]


def _drive(requests: List[List[np.ndarray]], call: Callable[[np.ndarray], np.ndarray]) -> Dict[str, float]:
    """Closed-loop load: one thread per request list, each issuing its
    requests back to back; returns throughput + latency percentiles."""
    concurrency = len(requests)
    latencies: List[List[float]] = [[] for _ in range(concurrency)]
    errors: List[BaseException] = []

    def client(thread_index: int) -> None:
        try:
            for nodes in requests[thread_index]:
                started = time.perf_counter()
                call(nodes)
                latencies[thread_index].append(time.perf_counter() - started)
        except BaseException as error:  # surface in the main thread
            errors.append(error)

    threads = [threading.Thread(target=client, args=(i,)) for i in range(concurrency)]
    started = time.perf_counter()
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    wall = time.perf_counter() - started
    if errors:
        raise errors[0]
    flat = np.asarray([latency for per_thread in latencies for latency in per_thread])
    return {
        "requests": int(flat.size),
        "wall_s": wall,
        "rps": float(flat.size / wall),
        "p50_ms": float(np.percentile(flat, 50) * 1000.0),
        "p99_ms": float(np.percentile(flat, 99) * 1000.0),
    }


def _assert_parity(engine: PredictionEngine, rng: np.random.Generator) -> None:
    """Batched results must be bitwise identical to unbatched ones."""
    probes = [rng.integers(0, engine.num_nodes, size=NODES_PER_REQUEST) for _ in range(24)]
    expected = [engine.predict_nodes(nodes) for nodes in probes]
    with MicroBatcher(
        engine.predict_many, max_batch_size=MAX_BATCH_SIZE, max_wait_s=MAX_WAIT_S
    ) as batcher:
        futures = [batcher.submit(nodes) for nodes in probes]
        for future, reference in zip(futures, expected):
            assert np.array_equal(future.result(timeout=30), reference), (
                "batched prediction diverged from unbatched"
            )


def _bench_overload(path: Path, graph, submitters: int, per_thread: int) -> Dict[str, object]:
    """Offer far more than a tiny admission queue accepts; measure shape.

    Submissions outrun the queue (no waiting for results), so shedding
    *must* happen; the accepted requests are then collected and their
    p99 measured — bounded queue, bounded tail.
    """
    engine = PredictionEngine(path, graph)
    with MicroBatcher(
        engine.predict_many, max_batch_size=MAX_BATCH_SIZE,
        max_wait_s=MAX_WAIT_S, max_queue=OVERLOAD_QUEUE,
    ) as batcher:
        futures: List = []
        shed = 0
        lock = threading.Lock()

        def submitter(index: int) -> None:
            nonlocal shed
            rng = np.random.default_rng(100 + index)
            for _ in range(per_thread):
                nodes = rng.integers(0, graph.num_nodes, size=NODES_PER_REQUEST)
                started = time.perf_counter()
                try:
                    future = batcher.submit(nodes)
                except Overloaded:
                    with lock:
                        shed += 1
                    continue
                with lock:
                    futures.append((future, started))

        threads = [threading.Thread(target=submitter, args=(i,)) for i in range(submitters)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        latencies = []
        for future, started in futures:
            future.result(timeout=60)
            latencies.append(time.perf_counter() - started)
    flat = np.asarray(latencies)
    return {
        "max_queue": OVERLOAD_QUEUE,
        "submitted": len(futures) + shed,
        "accepted": len(futures),
        "shed": shed,
        "accepted_p99_ms": float(np.percentile(flat, 99) * 1000.0) if flat.size else 0.0,
    }


def run_benchmark(quick: bool = False) -> Dict[str, object]:
    # quick trims the request count, never the workload: the measured
    # ratios must stay comparable to the committed full-run baseline.
    with tempfile.TemporaryDirectory() as tmp:
        path, graph = _export_bench_model(Path(tmp))
        engine = PredictionEngine(path, graph, cache_logits=False)
        rng = np.random.default_rng(7)
        _assert_parity(engine, rng)

        per_thread = 40 if quick else 150
        # Unbatched: every request pays its own forward (cache is off).
        unbatched = _drive(
            _make_requests(engine.num_nodes, per_thread, np.random.default_rng(11)),
            engine.predict_nodes,
        )
        # Batched: concurrent requests coalesce onto shared forwards.
        metrics = ServingMetrics()
        with MicroBatcher(
            engine.predict_many,
            max_batch_size=MAX_BATCH_SIZE,
            max_wait_s=MAX_WAIT_S,
            metrics=metrics,
        ) as batcher:
            batched = _drive(
                _make_requests(engine.num_nodes, per_thread, np.random.default_rng(11)),
                lambda nodes: batcher.predict(nodes, timeout=60),
            )
        batch_summary = metrics.snapshot()["histograms"].get("batch_size", {})

        # Overload: offered load far beyond a tiny admission queue.
        overload = _bench_overload(
            path, graph, submitters=8, per_thread=250 if quick else 1000
        )

    return {
        "graph": {"name": engine.graph.name, "nodes": engine.num_nodes},
        "concurrency": CONCURRENCY,
        "nodes_per_request": NODES_PER_REQUEST,
        "max_batch_size": MAX_BATCH_SIZE,
        "max_wait_ms": MAX_WAIT_S * 1000.0,
        "unbatched": unbatched,
        "batched": batched,
        "mean_batch_size": batch_summary.get("mean", 1.0),
        "batched_speedup": batched["rps"] / unbatched["rps"],
        "overload": overload,
    }


def main() -> int:
    results = run_benchmark()
    OUTPUT_PATH.write_text(json.dumps(results, indent=2) + "\n")
    print(json.dumps(results, indent=2))
    print(f"\nresults written to {OUTPUT_PATH}")
    return 0


# ----------------------------------------------------------------------
# pytest entries (perf-marked; excluded from tier-1)
# ----------------------------------------------------------------------
@pytest.mark.perf
def test_batched_throughput_beats_unbatched():
    results = run_benchmark(quick=True)
    assert results["batched_speedup"] >= 2.0, (
        f"batched serving is only {results['batched_speedup']:.2f}x unbatched "
        f"at concurrency {CONCURRENCY} (acceptance floor 2.0x)"
    )
    overload = results["overload"]
    assert overload["shed"] > 0, "overload run never shed — queue bound not engaged"
    assert overload["accepted"] > 0, "overload run accepted nothing"


if __name__ == "__main__":
    raise SystemExit(main())
