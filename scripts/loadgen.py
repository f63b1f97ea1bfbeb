#!/usr/bin/env python
"""HTTP load generator for a running ``repro serve`` instance.

Every client thread keeps one persistent HTTP/1.1 keep-alive connection
— the path real clients take — and reopens it after a transport error.
Two traffic shapes, stdlib only:

* **closed loop** (default): ``--concurrency`` client threads each issue
  ``--requests`` POSTs to ``/predict`` back to back.  Offered load
  adapts to the server's speed — good for measuring peak throughput,
  useless for studying overload (a slowing server throttles its own
  clients).
* **open loop** (``--rate R``): arrivals are scheduled at a fixed R
  requests/second for ``--duration`` seconds, regardless of how fast
  responses come back — the shape real traffic has, and the only way to
  actually saturate an admission-controlled server.  Sender threads
  claim arrival slots and fire at their scheduled instants; a slot
  whose time has already passed fires immediately (the backlog is part
  of the story being measured).

Every response is counted by status — 200s land in the latency
percentiles, 429s are shed load (the server protecting itself), 503s
are timeouts — so the report distinguishes "the server collapsed" from
"the server degraded exactly as designed".

Usage::

    python -m repro serve --artifact model.rddart --port 8080 &
    python scripts/loadgen.py --url http://127.0.0.1:8080 \
        --requests 200 --concurrency 8 --out loadgen.json
    python scripts/loadgen.py --url http://127.0.0.1:8080 \
        --rate 2000 --duration 5 --concurrency 64
"""

from __future__ import annotations

import argparse
import http.client
import itertools
import json
import random
import sys
import threading
import time
import urllib.request
from typing import Dict, List, Optional
from urllib.parse import urlsplit


def _get_json(url: str, timeout: float = 10.0) -> dict:
    with urllib.request.urlopen(url, timeout=timeout) as response:
        return json.loads(response.read())


def _connect(url: str, timeout: float) -> http.client.HTTPConnection:
    """One persistent connection to ``url``'s host (opened on first use)."""
    parts = urlsplit(url)
    return http.client.HTTPConnection(parts.hostname, parts.port or 80, timeout=timeout)


def _post_json(connection: http.client.HTTPConnection, path: str, body: dict) -> int:
    """POST on ``connection``; returns the HTTP status (4xx/5xx included)."""
    connection.request(
        "POST", path, body=json.dumps(body).encode("utf-8"),
        headers={"Content-Type": "application/json"},
    )
    response = connection.getresponse()
    response.read()
    return response.status


class _Tally:
    """Thread-safe per-status counts + success latencies."""

    def __init__(self) -> None:
        self.lock = threading.Lock()
        self.statuses: Dict[str, int] = {}
        self.latencies: List[float] = []
        self.transport_errors = 0

    def record(self, status: Optional[int], latency: float) -> None:
        with self.lock:
            if status is None:
                self.transport_errors += 1
                return
            key = str(status)
            self.statuses[key] = self.statuses.get(key, 0) + 1
            if status == 200:
                self.latencies.append(latency)


def _fire(connection: http.client.HTTPConnection, rng: random.Random,
          nodes_per_request: int, num_nodes: int, tally: _Tally) -> None:
    nodes = [rng.randrange(num_nodes) for _ in range(nodes_per_request)]
    started = time.perf_counter()
    try:
        status = _post_json(connection, "/predict", {"nodes": nodes})
    except (OSError, http.client.HTTPException, ValueError):
        # Drop the half-finished exchange; the next request reconnects.
        connection.close()
        tally.record(None, 0.0)
        return
    tally.record(status, time.perf_counter() - started)


def _summarize(tally: _Tally, wall: float, extra: dict) -> dict:
    flat = sorted(tally.latencies)
    if not flat and tally.transport_errors:
        raise SystemExit(
            f"every request failed at the transport layer "
            f"({tally.transport_errors} errors); is the server up?"
        )

    def percentile(p: float) -> float:
        if not flat:
            return 0.0
        return flat[min(len(flat) - 1, int(round(p / 100.0 * (len(flat) - 1))))]

    total = sum(tally.statuses.values()) + tally.transport_errors
    summary = {
        "requests": total,
        "statuses": dict(sorted(tally.statuses.items())),
        "ok": len(flat),
        "shed": tally.statuses.get("429", 0),
        "timeouts": tally.statuses.get("503", 0),
        "transport_errors": tally.transport_errors,
        "failures": total - len(flat),
        "wall_s": wall,
        "rps": len(flat) / wall if wall > 0 else 0.0,
        "p50_ms": percentile(50) * 1000.0,
        "p90_ms": percentile(90) * 1000.0,
        "p99_ms": percentile(99) * 1000.0,
    }
    summary.update(extra)
    return summary


def run_load(
    url: str,
    requests_per_thread: int,
    concurrency: int,
    nodes_per_request: int,
    num_nodes: int,
    seed: int = 0,
    timeout: float = 30.0,
) -> dict:
    """Closed loop: each thread fires its next request on completion."""
    tally = _Tally()

    def client(thread_index: int) -> None:
        rng = random.Random(f"{seed}:{thread_index}")
        connection = _connect(url, timeout)
        try:
            for _ in range(requests_per_thread):
                _fire(connection, rng, nodes_per_request, num_nodes, tally)
        finally:
            connection.close()

    threads = [threading.Thread(target=client, args=(i,)) for i in range(concurrency)]
    started = time.perf_counter()
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    wall = time.perf_counter() - started
    return _summarize(tally, wall, {"mode": "closed", "url": url,
                                    "concurrency": concurrency,
                                    "nodes_per_request": nodes_per_request})


def run_open_loop(
    url: str,
    rate: float,
    duration: float,
    concurrency: int,
    nodes_per_request: int,
    num_nodes: int,
    seed: int = 0,
    timeout: float = 30.0,
) -> dict:
    """Open loop: arrivals at ``rate``/s for ``duration`` seconds.

    Sender threads claim arrival slot *i* (scheduled at ``i / rate``)
    from a shared counter and sleep until its instant.  When the server
    falls behind, slots fire the moment a sender frees up — offered
    load never adapts to the server, which is the point.
    """
    tally = _Tally()
    total_arrivals = max(1, int(rate * duration))
    slots = itertools.count()
    slot_lock = threading.Lock()
    epoch = time.perf_counter()

    def sender(thread_index: int) -> None:
        rng = random.Random(f"{seed}:{thread_index}")
        connection = _connect(url, timeout)
        try:
            while True:
                with slot_lock:
                    slot = next(slots)
                if slot >= total_arrivals:
                    return
                delay = epoch + slot / rate - time.perf_counter()
                if delay > 0:
                    time.sleep(delay)
                _fire(connection, rng, nodes_per_request, num_nodes, tally)
        finally:
            connection.close()

    threads = [threading.Thread(target=sender, args=(i,)) for i in range(concurrency)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    wall = time.perf_counter() - epoch
    return _summarize(tally, wall, {"mode": "open", "url": url,
                                    "concurrency": concurrency,
                                    "nodes_per_request": nodes_per_request,
                                    "offered_rate": rate,
                                    "offered_rps": total_arrivals / wall if wall > 0 else 0.0})


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--url", type=str, default="http://127.0.0.1:8080", help="server base URL")
    parser.add_argument("--requests", type=int, default=100, help="requests per client thread (closed loop)")
    parser.add_argument("--concurrency", type=int, default=8, help="client/sender threads")
    parser.add_argument("--nodes-per-request", type=int, default=8, help="node ids per /predict")
    parser.add_argument(
        "--rate", type=float, default=None, metavar="RPS",
        help="open-loop mode: schedule arrivals at this fixed rate "
             "instead of the closed request loop",
    )
    parser.add_argument(
        "--duration", type=float, default=5.0, metavar="SECONDS",
        help="how long to offer load in open-loop mode",
    )
    parser.add_argument("--timeout", type=float, default=30.0, help="per-request client timeout")
    parser.add_argument("--seed", type=int, default=0, help="request-stream seed")
    parser.add_argument("--out", type=str, default=None, help="write the summary as JSON here")
    parser.add_argument(
        "--metrics", action="store_true", help="also print the server's /metrics snapshot"
    )
    args = parser.parse_args(argv)

    health = _get_json(f"{args.url}/healthz")
    if health.get("status") != "ok":
        print(f"server unhealthy: {health}", file=sys.stderr)
        return 1
    num_nodes = int(health["nodes"])
    print(f"target: {health.get('model')} over {num_nodes} nodes at {args.url}")

    if args.rate is not None:
        summary = run_open_loop(
            args.url, args.rate, args.duration, args.concurrency,
            args.nodes_per_request, num_nodes, args.seed, args.timeout,
        )
    else:
        summary = run_load(
            args.url, args.requests, args.concurrency, args.nodes_per_request,
            num_nodes, args.seed, args.timeout,
        )
    print(json.dumps(summary, indent=2))
    if args.metrics:
        print(json.dumps(_get_json(f"{args.url}/metrics"), indent=2))
    if args.out:
        with open(args.out, "w") as handle:
            json.dump(summary, handle, indent=2)
        print(f"summary written to {args.out}")
    # Shed (429) and timed-out (503) responses are the server degrading
    # as designed, not a load-generation failure; only transport-level
    # errors fail the run.
    return 1 if summary["transport_errors"] else 0


if __name__ == "__main__":
    raise SystemExit(main())
