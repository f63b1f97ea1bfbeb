"""Serving workload ``serve_mixed``: ``repro export`` + ``repro serve`` under a closed loop.

Run by ``run.py`` as its own process:

    python3 perfbench/serve.py --workload serve_mixed --seed 0 --seconds 32 \
        --trace 0 --out result.json [--setup-only]

Set-up exports a default single-GCN cora artifact, boots ``repro serve``
as a subprocess and sends one warm-up request of each class.  Then two
callers, each on one persistent HTTP/1.1 connection, run a closed loop:
a caller sends its next request only when the previous reply has been
read, and each latency is timed from the send to the end of the reply.
The mix is 80% lookups of 8 uniform node ids and 20% inductive queries,
half of them repeats of 16 fixed hot queries and half fresh (a test-split
node's features with 3 random neighbor ids).

After the loop every served label is checked against an in-process
``PredictionEngine`` on the same artifact and engine seed.

With ``--trace 1`` the loop runs twice for half the time each: against
plain ``repro serve``, then against ``traced_server.py``; the second
phase yields the per-layer metrics.
"""

from __future__ import annotations

import http.client
import json
import os
import select
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np

from checks import check_inductive, check_lookup
from child import parse_args, write_result

HERE = Path(__file__).resolve().parent
CALLERS = 2
LOOKUP_NODES = 8
HOT_QUERIES = 16
NEIGHBORS = 3
BOOT_TIMEOUT_S = 120.0


class Server:
    """A ``repro serve`` subprocess (optionally the traced launcher)."""

    def __init__(self, artifact, workdir, spans_path=None):
        serve_args = ["--artifact", str(artifact), "--port", "0"]
        if spans_path is None:
            command = [sys.executable, "-u", "-m", "repro", "serve", *serve_args]
        else:
            command = [sys.executable, "-u", str(HERE / "traced_server.py"), str(spans_path),
                       *serve_args]
        self.log_path = Path(workdir) / f"server-{time.monotonic_ns()}.log"
        self._log = open(self.log_path, "w")
        self.proc = subprocess.Popen(command, stdout=subprocess.PIPE, stderr=self._log, text=True)
        line = self._read_line(BOOT_TIMEOUT_S)
        if not line.startswith("serving "):
            self.stop()
            raise RuntimeError(f"server did not start: {line!r}; see {self.log_path}")
        url = line.split()[3]
        host, port = url.rsplit("//", 1)[1].split(":")
        self.host, self.port = host, int(port)

    def _read_line(self, timeout):
        ready, _, _ = select.select([self.proc.stdout], [], [], timeout)
        return self.proc.stdout.readline() if ready else ""

    def peak_rss_mb(self):
        with open(f"/proc/{self.proc.pid}/status") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise RuntimeError("VmHWM not found")

    def stop(self):
        """SIGTERM; the traced launcher turns it into a clean shutdown and span dump."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.proc.stdout.close()
        self._log.close()


def request_stream(graph, seed, caller):
    """Endless seeded request stream of one caller: (rid, class, body, query)."""
    rng = np.random.default_rng([seed, caller])
    hot_rng = np.random.default_rng([seed, CALLERS])
    test_nodes = np.asarray(graph.test_index)
    num_nodes = graph.num_nodes

    def query(source):
        node = int(source.choice(test_nodes))
        neighbors = source.integers(0, num_nodes, NEIGHBORS).tolist()
        return node, neighbors

    hot = [query(hot_rng) for _ in range(HOT_QUERIES)]
    index = 0
    while True:
        rid = index * CALLERS + caller
        index += 1
        if rng.random() < 0.8:
            nodes = rng.integers(0, num_nodes, LOOKUP_NODES).tolist()
            yield rid, "lookup", {"nodes": nodes, "rid": rid}, nodes
        else:
            node, neighbors = hot[rng.integers(HOT_QUERIES)] if rng.random() < 0.5 else query(rng)
            body = {"features": features_of(graph, node), "neighbors": neighbors, "rid": rid}
            yield rid, "inductive", body, (node, neighbors)


def features_of(graph, node):
    row = graph.features[node]
    return (row.toarray()[0] if hasattr(row, "toarray") else np.asarray(row)).tolist()


def post(conn, body):
    conn.request("POST", "/predict", body, {"Content-Type": "application/json"})
    reply = conn.getresponse()
    return reply.status, reply.read()


def run_callers(server, graph, seed, seconds):
    """Closed loop of CALLERS persistent connections; returns (records, wall_s)."""
    records = [[] for _ in range(CALLERS)]
    start = time.monotonic()
    deadline = start + seconds

    def caller(index):
        stream = request_stream(graph, seed, index)
        conn = http.client.HTTPConnection(server.host, server.port, timeout=60)
        try:
            while time.monotonic() < deadline:
                rid, cls, body, query = next(stream)
                payload = json.dumps(body).encode()
                began = time.perf_counter()
                try:
                    status, data = post(conn, payload)
                except (OSError, http.client.HTTPException):
                    status, data = None, b""
                    conn.close()
                    conn = http.client.HTTPConnection(server.host, server.port, timeout=60)
                latency = time.perf_counter() - began
                records[index].append((rid, cls, latency, status, data, query))
        finally:
            conn.close()

    threads = [threading.Thread(target=caller, args=(i,)) for i in range(CALLERS)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    wall = time.monotonic() - start
    return [record for per_caller in records for record in per_caller], wall


def warm_up(server, graph):
    conn = http.client.HTTPConnection(server.host, server.port, timeout=60)
    try:
        for body in ({"nodes": [0]}, {"features": features_of(graph, 0), "neighbors": [1]}):
            status, _ = post(conn, json.dumps(body).encode())
            if status != 200:
                raise RuntimeError(f"warm-up request failed with HTTP {status}")
    finally:
        conn.close()


def verify(records, artifact, graph):
    """Failed-request count and served accuracy against ground truth."""
    from repro.serving.engine import PredictionEngine

    engine = PredictionEngine(artifact, graph)
    table = engine.logits_table()
    expected_inductive = {}
    failed = correct = answered = 0
    for rid, cls, latency, status, data, query in records:
        try:
            reply = json.loads(data) if status == 200 else {}
        except ValueError:  # a garbled body is a wrong answer
            reply = {}
        if not isinstance(reply, dict):
            reply = {}
        if cls == "lookup":
            expected = table[query].argmax(axis=1).tolist()
            wrong = check_lookup(status, reply, expected)
            truth = graph.labels[query]
            served = reply.get("labels")
        else:
            node, neighbors = query
            key = (node, tuple(neighbors))
            if key not in expected_inductive:
                logits = engine.predict_inductive(features_of(graph, node), neighbors)
                expected_inductive[key] = int(np.argmax(logits))
            wrong = check_inductive(status, reply, expected_inductive[key])
            truth = graph.labels[[node]]
            served = [reply.get("label")]
        failed += wrong
        if not wrong:
            correct += int(np.sum(np.asarray(served) == truth))
            answered += len(truth)
    return failed, correct / answered if answered else 0.0


def percentile(values, q):
    return float(np.percentile(values, q)) if values else 0.0


def summarize(records, wall):
    ok = [r for r in records if r[3] == 200]
    lookups = [r[2] for r in records if r[1] == "lookup"]
    inductive = [r[2] for r in records if r[1] == "inductive"]
    return {
        "rps": len(ok) / wall,
        "mean_latency_s": statistics.fmean(r[2] for r in records) if records else 0.0,
        "lookup_p50_ms": percentile(lookups, 50) * 1e3,
        "lookup_p99_ms": percentile(lookups, 99) * 1e3,
        "inductive_p50_ms": percentile(inductive, 50) * 1e3,
        "inductive_p90_ms": percentile(inductive, 90) * 1e3,
        "lookups": len(lookups),
        "inductive": len(inductive),
    }


def main():
    args = parse_args()
    if args.workload != "serve_mixed":
        raise SystemExit(f"unknown serving workload {args.workload!r}")

    from repro.datasets import load_dataset

    workdir = Path(args.out).parent
    artifact = workdir / f"model-{os.getpid()}.rddart"
    subprocess.run(
        [sys.executable, "-m", "repro", "export", "--dataset", "cora", "--scale", "1.0",
         "--seed", str(args.seed), "--out", str(artifact)],
        check=True, stdout=subprocess.DEVNULL,
    )
    server = Server(artifact, workdir)
    try:
        graph = load_dataset("cora", seed=args.seed, scale=1.0)
        warm_up(server, graph)
        ready = time.monotonic()
        if args.setup_only:
            write_result(args.out, {"ready": ready})
            return
        seconds = args.seconds / 2 if args.trace else args.seconds
        records, wall = run_callers(server, graph, args.seed, seconds)
        peak_rss = server.peak_rss_mb()
    finally:
        server.stop()

    summary = summarize(records, wall)
    checked = records
    per_layer = None
    if args.trace:
        per_layer, traced_records = traced_phase(artifact, workdir, graph, args.seed, seconds,
                                                 summary)
        checked = records + traced_records
    failed, accuracy = verify(checked, artifact, graph)
    e2e = {
        "setup_s": None,  # filled in by run.py from the process start
        "throughput": summary["rps"],
        "peak_rss_mb": peak_rss,
        "accuracy": accuracy,
    }
    write_result(args.out, {
        "ready": ready,
        "e2e": e2e,
        "details": summary,
        "per_layer": per_layer,
        "attempted": len(checked),
        "failed": failed,
    })


def traced_phase(artifact, workdir, graph, seed, seconds, untraced):
    from layers import serving_metrics
    from tracer import load_spans

    spans_path = workdir / f"spans-{os.getpid()}.json"
    server = Server(artifact, workdir, spans_path=spans_path)
    try:
        warm_up(server, graph)
        records, wall = run_callers(server, graph, seed, seconds)
    finally:
        server.stop()
    spans, counts = load_spans(spans_path)
    latencies = {r[0]: (r[1], r[2]) for r in records}
    metrics, mean_parts = serving_metrics(spans, counts, latencies)
    traced = summarize(records, wall)
    metrics["trace.overhead"] = untraced["rps"] / traced["rps"]
    metrics["trace.accounted_share"] = mean_parts / untraced["mean_latency_s"]
    return metrics, records


if __name__ == "__main__":
    main()
