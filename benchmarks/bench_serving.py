"""Serving benchmark: the keep-alive HTTP path, and overload behavior.

Measures the serving stack on the path ``repro serve`` users take, in
two regimes:

* **keep-alive** — an in-process :class:`PredictionServer` over a
  logits-cached engine, driven by ``CONCURRENCY`` closed-loop callers,
  each holding one keep-alive ``http.client`` connection and asking for
  ``NODES_PER_REQUEST`` nodes per request.  Records throughput, p50/p99
  latency and the mean micro-batch size.  The p50 is capped outright at
  ``KEEPALIVE_P50_CEILING_MS``: a reply that waits on the client's
  delayed ACK (Nagle on the server socket) costs ~40 ms by itself.
* **overload** — submissions far beyond a deliberately tiny admission
  queue, against a :class:`MicroBatcher` over a default (logits-cached)
  engine.  The point is *graceful degradation*: some requests shed
  (:class:`Overloaded`), every accepted request still answers, and the
  accepted p99 stays bounded instead of the whole tail collapsing.

Before any timing, ``return_logits`` replies are asserted bitwise equal
to ``engine.predict_nodes`` (JSON round-trips float64 exactly).  Run
``python scripts/bench.py serving`` to refresh ``BENCH_serving.json``;
``scripts/check_bench.py`` guards it against regression.  The pytest
entries are ``perf``-marked and excluded from tier-1.
"""

from __future__ import annotations

import http.client
import json
import tempfile
import threading
import time
from pathlib import Path
from typing import Dict, List, Tuple

import numpy as np
import pytest

from repro.datasets import cora_like
from repro.models.gcn import GCN
from repro.serving.artifacts import ModelSpec, export_model_artifact
from repro.serving.batching import MicroBatcher, Overloaded
from repro.serving.engine import PredictionEngine
from repro.serving.server import PredictionServer

REPO_ROOT = Path(__file__).resolve().parents[1]
OUTPUT_PATH = REPO_ROOT / "BENCH_serving.json"

CONCURRENCY = 8
NODES_PER_REQUEST = 8
MAX_BATCH_SIZE = 16
ROUNDS = 5

# Absolute ceiling on the keep-alive p50, whatever the baseline: a
# cached-table lookup costs well under a millisecond of engine time, so
# ~40 ms means replies are stalling on delayed ACKs again.
KEEPALIVE_P50_CEILING_MS = 15.0

OVERLOAD_QUEUE = 64


def _export_bench_model(tmp: Path):
    """Export the benchmark artifact; returns ``(path, graph)``.

    The served model is a 4-layer, width-64 GCN on full-scale Cora.
    Weights are untrained; serving cost is architecture-, not
    accuracy-, dependent.
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
    num_nodes: int, per_thread: int, rng: np.random.Generator
) -> List[List[List[int]]]:
    return [
        [rng.integers(0, num_nodes, size=NODES_PER_REQUEST).tolist() for _ in range(per_thread)]
        for _ in range(CONCURRENCY)
    ]


def _post(connection: http.client.HTTPConnection, body: dict) -> dict:
    connection.request(
        "POST", "/predict", body=json.dumps(body).encode("utf-8"),
        headers={"Content-Type": "application/json"},
    )
    response = connection.getresponse()
    payload = json.loads(response.read())
    if response.status != 200:
        raise RuntimeError(f"/predict answered {response.status}: {payload}")
    return payload


def _connect(server: PredictionServer) -> http.client.HTTPConnection:
    return http.client.HTTPConnection(server.host, server.port, timeout=60)


def _drive(server: PredictionServer, requests: List[List[List[int]]]) -> Tuple[float, List[float]]:
    """Closed-loop keep-alive load: one thread and one connection per
    request list, each issuing its requests back to back; returns the
    wall time and every request's latency, in seconds."""
    latencies: List[List[float]] = [[] for _ in requests]
    errors: List[BaseException] = []

    def client(thread_index: int) -> None:
        connection = _connect(server)
        try:
            for nodes in requests[thread_index]:
                started = time.perf_counter()
                _post(connection, {"nodes": nodes})
                latencies[thread_index].append(time.perf_counter() - started)
        except BaseException as error:  # surface in the main thread
            errors.append(error)
        finally:
            connection.close()

    threads = [threading.Thread(target=client, args=(i,)) for i in range(len(requests))]
    started = time.perf_counter()
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    wall = time.perf_counter() - started
    if errors:
        raise errors[0]
    return wall, [latency for per_thread in latencies for latency in per_thread]


def _bench_keepalive(server: PredictionServer, num_nodes: int, per_thread: int) -> Dict[str, object]:
    """``ROUNDS`` closed-loop rounds; throughput is the median round's
    (one slow round on a shared box cannot move it), latency percentiles
    pool every request."""
    rng = np.random.default_rng(11)
    rates, latencies = [], []
    for _ in range(ROUNDS):
        wall, round_latencies = _drive(server, _make_requests(num_nodes, per_thread, rng))
        rates.append(len(round_latencies) / wall)
        latencies += round_latencies
    return {
        "requests": len(latencies),
        "rps": float(np.median(rates)),
        "rps_rounds": rates,
        "p50_ms": float(np.percentile(latencies, 50) * 1000.0),
        "p99_ms": float(np.percentile(latencies, 99) * 1000.0),
    }


def _assert_parity(server: PredictionServer, engine: PredictionEngine,
                   rng: np.random.Generator) -> None:
    """Served logits must be bitwise identical to the engine's own."""
    connection = _connect(server)
    try:
        for _ in range(24):
            nodes = rng.integers(0, engine.num_nodes, size=NODES_PER_REQUEST)
            reply = _post(connection, {"nodes": nodes.tolist(), "return_logits": True})
            assert np.array_equal(np.asarray(reply["logits"]), engine.predict_nodes(nodes)), (
                "served logits diverged from engine.predict_nodes"
            )
    finally:
        connection.close()


def _bench_overload(path: Path, graph, submitters: int, per_thread: int) -> Dict[str, object]:
    """Offer far more than a tiny admission queue accepts; measure shape.

    Submissions outrun the queue (no waiting for results), so shedding
    *must* happen; the accepted requests are then collected and their
    p99 measured — bounded queue, bounded tail.
    """
    engine = PredictionEngine(path, graph)
    with MicroBatcher(
        engine.predict_many, max_batch_size=MAX_BATCH_SIZE, max_queue=OVERLOAD_QUEUE
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
    # numbers must stay comparable to the committed full-run baseline.
    with tempfile.TemporaryDirectory() as tmp:
        path, graph = _export_bench_model(Path(tmp))
        engine = PredictionEngine(path, graph)
        with PredictionServer(engine, port=0, max_batch_size=MAX_BATCH_SIZE).start() as server:
            _assert_parity(server, engine, np.random.default_rng(7))
            before = server.metrics.snapshot()["counters"]
            keepalive = _bench_keepalive(server, engine.num_nodes, 50 if quick else 200)
            after = server.metrics.snapshot()["counters"]
        batches = after["batches_total"] - before["batches_total"]
        requests = after["requests_total"] - before["requests_total"]

        # Overload: offered load far beyond a tiny admission queue.
        overload = _bench_overload(
            path, graph, submitters=8, per_thread=250 if quick else 1000
        )

    return {
        "graph": {"name": engine.graph.name, "nodes": engine.num_nodes},
        "concurrency": CONCURRENCY,
        "nodes_per_request": NODES_PER_REQUEST,
        "max_batch_size": MAX_BATCH_SIZE,
        **{f"keepalive_{name}": value for name, value in keepalive.items()},
        "mean_batch_size": requests / batches,
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
def test_keepalive_p50_stays_under_the_ceiling():
    results = run_benchmark(quick=True)
    assert results["keepalive_p50_ms"] <= KEEPALIVE_P50_CEILING_MS, (
        f"keep-alive p50 is {results['keepalive_p50_ms']:.1f} ms at concurrency "
        f"{CONCURRENCY} (ceiling {KEEPALIVE_P50_CEILING_MS:.0f} ms)"
    )
    overload = results["overload"]
    assert overload["shed"] > 0, "overload run never shed — queue bound not engaged"
    assert overload["accepted"] > 0, "overload run accepted nothing"


if __name__ == "__main__":
    raise SystemExit(main())
