"""Stdlib HTTP front end for the prediction engine.

A :class:`PredictionServer` wires the pieces of the serving subsystem
together along one path — HTTP handler →
:class:`~repro.serving.batching.MicroBatcher` (the only admission
queue) → one in-process :class:`~repro.serving.engine.PredictionEngine`
— plus a :class:`~repro.serving.metrics.ServingMetrics` sink.  Node
lookups that arrive while a batch computes are coalesced into the next
one, which shares a single engine-lock acquisition and table read; an
idle server answers a lookup at once.  The API is JSON over
``http.server.ThreadingHTTPServer`` with keep-alive (HTTP/1.1; every
response carries ``Content-Length``; ``TCP_NODELAY`` so a reply never
waits on the client's delayed ACK) and these routes:

``POST /predict``
    ``{"nodes": [0, 5, 9]}`` → transductive logits/labels for known
    nodes, or ``{"features": [...], "neighbors": [3, 4]}`` → an
    inductive prediction for one unseen node.  ``"return_probs": true``
    adds softmax probabilities.
``POST /admin/reload``
    ``{"artifact": "/path/to/v2.rddart"}`` → atomic in-process artifact
    swap: a fresh engine is built, verified against the serving graph
    and given its logits table, then replaces the old one under a lock.
    Each batch runs entirely on one engine, the old engine's inductive
    cache leaves with it, and a failed reload (400) leaves the old
    artifact serving.
``GET /healthz``
    Liveness + model identity + ``artifact_version`` (used by load
    balancers and CI smoke).
``GET /metrics``
    The metrics snapshot: request/error/batch/shed counters, the
    engine's ``inductive_cache_*`` counters, and latency and
    batch-size percentile summaries.

Failure modes are typed, bounded, and observable:

* client errors (bad JSON, bad ``Content-Length``, ids that are not
  in-range JSON integers, non-numeric or non-finite features, wrong
  shapes, inductive queries to a table-only artifact) → 400;
* **overload** — the bounded admission queue is full — → 429 with a
  ``Retry-After`` header (and the ``http_429`` counter), so saturation
  sheds excess load instead of queueing without bound;
* a request exceeding ``request_timeout_s`` (e.g. a wedged worker) →
  503 ``{"error": "timed out"}`` and the handler thread is released —
  no request can hang a thread forever;
* a client that disconnects mid-write is counted
  (``http_disconnects_total``) and the thread stays clean, never a
  traceback;
* other server-side failures — including injected ``serving:request``
  faults — → 500, and never take the batching loop down with them.
"""

from __future__ import annotations

import json
import math
import threading
from concurrent.futures import ThreadPoolExecutor
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import List, Optional, Sequence
from urllib.parse import parse_qs, urlparse

import numpy as np

from repro.errors import ReproError
from repro.models.base import softmax_rows
from repro.serving.batching import MicroBatcher, Overloaded
from repro.serving.engine import PredictionEngine, ServingError
from repro.serving.metrics import ServingMetrics, prometheus_text


class PredictionServer:
    """An HTTP prediction service around one engine.

    Parameters
    ----------
    engine:
        The loaded :class:`PredictionEngine` to serve.  ``POST
        /admin/reload`` replaces it (see :meth:`handle_reload`).
    host / port:
        Bind address; ``port=0`` picks a free port (see :attr:`port`).
    max_batch_size / max_queue:
        Micro-batching and admission-control knobs, forwarded to the
        batcher that serves transductive requests.
    request_timeout_s:
        Deadline for any single prediction; expiry returns 503 and
        frees the handler thread.
    metrics:
        Metrics sink; defaults to a fresh one.
    """

    def __init__(
        self,
        engine: PredictionEngine,
        host: str = "127.0.0.1",
        port: int = 8080,
        *,
        max_batch_size: int = 32,
        max_queue: int = 1024,
        request_timeout_s: float = 30.0,
        metrics: Optional[ServingMetrics] = None,
    ):
        if request_timeout_s <= 0:
            raise ReproError(f"request_timeout_s must be > 0, got {request_timeout_s}")
        self.engine = engine
        self.artifact_version = 0
        self._reload_lock = threading.Lock()
        self.request_timeout_s = float(request_timeout_s)
        self.metrics = metrics if metrics is not None else ServingMetrics()
        self.batcher = MicroBatcher(
            self._predict_many,
            max_batch_size=max_batch_size,
            max_queue=max_queue,
            metrics=self.metrics,
        )
        # Inductive queries run on this pool so the handler can abandon
        # them at the deadline instead of blocking forever.
        self._compute = ThreadPoolExecutor(max_workers=4, thread_name_prefix="serving-compute")
        handler = _make_handler(self)
        self.httpd = _Server((host, port), handler)
        self.httpd.daemon_threads = True
        self._thread: Optional[threading.Thread] = None

    # ------------------------------------------------------------------
    @property
    def host(self) -> str:
        return self.httpd.server_address[0]

    @property
    def port(self) -> int:
        return self.httpd.server_address[1]

    @property
    def url(self) -> str:
        return f"http://{self.host}:{self.port}"

    # ------------------------------------------------------------------
    def start(self) -> "PredictionServer":
        """Serve in a background thread (tests, embedded use)."""
        self._thread = threading.Thread(
            target=self.httpd.serve_forever, name="prediction-server", daemon=True
        )
        self._thread.start()
        return self

    def serve_forever(self) -> None:
        """Serve on the calling thread until interrupted."""
        try:
            self.httpd.serve_forever()
        except KeyboardInterrupt:
            pass
        finally:
            self.close()

    def close(self) -> None:
        self.httpd.shutdown()
        self.httpd.server_close()
        self.batcher.close()
        self._compute.shutdown(wait=False, cancel_futures=True)
        if self._thread is not None:
            self._thread.join(timeout=5.0)
            self._thread = None

    def __enter__(self) -> "PredictionServer":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        self.close()
        return False

    # ------------------------------------------------------------------
    # Request handling (called from handler threads)
    # ------------------------------------------------------------------
    def _predict_many(self, requests: Sequence) -> List[np.ndarray]:
        # The batcher's batch function: the engine reference is read once
        # per batch, so a concurrent reload never splits a batch.
        return self.engine.predict_many(requests)

    def handle_predict(self, body: dict) -> dict:
        if not isinstance(body, dict):
            raise ServingError("request body must be a JSON object")
        if "nodes" in body:
            return self._predict_nodes(body)
        if "features" in body:
            return self._predict_inductive(body)
        raise ServingError('request must contain "nodes" or "features"')

    def _predict_nodes(self, body: dict) -> dict:
        nodes = body["nodes"]
        if type(nodes) is int:
            nodes = [nodes]
        logits = self.batcher.predict(nodes, timeout=self.request_timeout_s)
        response = {
            "nodes": [int(n) for n in nodes],
            "labels": logits.argmax(axis=1).tolist(),
        }
        if body.get("return_probs"):
            response["probs"] = softmax_rows(logits).tolist()
        if body.get("return_logits"):
            response["logits"] = logits.tolist()
        return response

    def _predict_inductive(self, body: dict) -> dict:
        self.metrics.inc("inductive_requests_total")
        neighbors = body.get("neighbors")
        if neighbors is None:
            raise ServingError('inductive requests need "neighbors" (known node ids)')
        self.metrics.inc("requests_total")
        logits = self._compute.submit(
            self.engine.predict_inductive, body["features"], neighbors
        ).result(timeout=self.request_timeout_s)
        response = {"label": int(np.argmax(logits))}
        if body.get("return_probs"):
            response["probs"] = softmax_rows(logits[None, :])[0].tolist()
        if body.get("return_logits"):
            response["logits"] = logits.tolist()
        return response

    def handle_reload(self, body: dict) -> dict:
        """``POST /admin/reload``: swap in a new artifact, atomically.

        The fresh engine is built on the serving graph, verified against
        it and given its logits table *before* the swap, so requests
        never wait on it; any failure there is a 400 and the old
        artifact keeps serving.
        """
        if not isinstance(body, dict):
            raise ServingError("request body must be a JSON object")
        path = body.get("artifact")
        if not isinstance(path, str) or not path:
            raise ServingError('reload needs "artifact" (path to the new .rddart)')
        with self._reload_lock:
            try:
                engine = self.engine.rebuild(path)
            except (OSError, ReproError) as error:
                raise ServingError(
                    f"reload failed, still serving the old artifact: {error}"
                ) from error
            self.engine = engine
            self.artifact_version += 1
            version = self.artifact_version
        self.metrics.inc("reloads_total")
        return {"status": "reloaded", "artifact_version": version}

    def health(self) -> dict:
        engine = self.engine
        return {
            "status": "ok",
            "model": engine.model_kind,
            "nodes": engine.num_nodes,
            "artifact_version": self.artifact_version,
        }

    def metrics_snapshot(self) -> dict:
        """The server's metrics plus the current engine's (inductive cache)."""
        snapshot = self.metrics.snapshot()
        counters = {**snapshot["counters"], **self.engine.metrics.snapshot()["counters"]}
        snapshot["counters"] = dict(sorted(counters.items()))
        return snapshot


class _Server(ThreadingHTTPServer):
    # TCPServer's default listen backlog is 5 — at open-loop arrival
    # rates (hundreds of fresh connections/s) the accept queue overflows
    # and the kernel refuses connections before admission control ever
    # sees them.  Overload policy belongs to the bounded request queue
    # (429), not to the TCP layer.
    request_queue_size = 128


def _make_handler(server: PredictionServer):
    """A handler class bound to one :class:`PredictionServer`."""

    class Handler(BaseHTTPRequestHandler):
        # Keep-alive: one TCP connection serves many requests.  Safe
        # because every response sets Content-Length explicitly.
        protocol_version = "HTTP/1.1"
        # TCP_NODELAY.  Headers and body go out as two writes; with
        # Nagle on, the body waits for the client to ACK the headers,
        # and a keep-alive client delays that ACK by ~40 ms.
        disable_nagle_algorithm = True

        def log_message(self, format, *args):  # noqa: A002 - stdlib signature
            pass  # request logging would swamp test output; metrics cover it

        # -- client-disconnect containment -----------------------------
        def handle_one_request(self) -> None:
            # Loadgen clients time out and close mid-response; the write
            # (or the keep-alive flush) then raises.  That is the
            # client's failure, not ours: count it, drop the connection,
            # keep the handler thread clean.
            try:
                super().handle_one_request()
            except (BrokenPipeError, ConnectionResetError):
                server.metrics.inc("http_disconnects_total")
                self.close_connection = True

        # -- helpers ---------------------------------------------------
        def _send_blob(
            self, status: int, blob: bytes, content_type: str, headers: Optional[dict]
        ) -> None:
            try:
                self.send_response(status)
                self.send_header("Content-Type", content_type)
                self.send_header("Content-Length", str(len(blob)))
                for name, value in (headers or {}).items():
                    self.send_header(name, value)
                self.end_headers()
                self.wfile.write(blob)
            except (BrokenPipeError, ConnectionResetError):
                server.metrics.inc("http_disconnects_total")
                self.close_connection = True
                return
            server.metrics.inc(f"http_{status}")

        def _send_json(
            self, status: int, payload: dict, headers: Optional[dict] = None
        ) -> None:
            blob = json.dumps(payload).encode("utf-8")
            self._send_blob(status, blob, "application/json", headers)

        def _send_text(
            self, status: int, text: str, content_type: str
        ) -> None:
            self._send_blob(status, text.encode("utf-8"), content_type, None)

        # -- routes ----------------------------------------------------
        def do_GET(self) -> None:
            parsed = urlparse(self.path)
            if parsed.path == "/healthz":
                self._send_json(200, server.health())
            elif parsed.path == "/metrics":
                # JSON snapshot by default (the original contract);
                # ?format=prometheus serves the text exposition format
                # via the shared repro.obs.metrics exporter.
                formats = parse_qs(parsed.query).get("format", [])
                if formats and formats[-1] == "prometheus":
                    self._send_text(
                        200,
                        prometheus_text(server.metrics_snapshot()),
                        "text/plain; version=0.0.4; charset=utf-8",
                    )
                else:
                    self._send_json(200, server.metrics_snapshot())
            else:
                self._send_json(404, {"error": f"unknown path {self.path}"})

        def do_POST(self) -> None:
            if self.path == "/predict":
                route = server.handle_predict
            elif self.path == "/admin/reload":
                route = server.handle_reload
            else:
                self._send_json(404, {"error": f"unknown path {self.path}"})
                return
            try:
                length = int(self.headers.get("Content-Length", 0))
            except ValueError:
                length = -1
            if length < 0:
                # read(-1) would block until the client closes; with no
                # usable framing the connection cannot be reused either.
                self.close_connection = True
                self._send_json(400, {"error": "invalid Content-Length"})
                return
            try:
                body = json.loads(self.rfile.read(length) or b"")
            except (ValueError, RecursionError) as error:
                self._send_json(400, {"error": f"invalid JSON body: {error}"})
                return
            try:
                response = route(body)
            except Overloaded as error:
                # Admission control: the queue is full.  Shed fast with
                # a retry hint — graceful-degradation beats collapse.
                self._send_json(
                    429,
                    {"error": str(error)},
                    headers={"Retry-After": str(max(1, math.ceil(error.retry_after_s)))},
                )
            except TimeoutError:
                # The deadline passed (wedged worker, overlong queue
                # wait).  The handler thread is released; the stale
                # result, if it ever lands, is discarded with its future.
                server.metrics.inc("http_timeouts_total")
                self._send_json(503, {"error": "timed out"})
            except (ServingError, KeyError, TypeError) as error:
                server.metrics.inc("http_client_errors_total")
                self._send_json(400, {"error": str(error)})
            except ReproError as error:
                # Includes injected faults surfacing through a request's
                # future: the request fails cleanly, the server lives on.
                self._send_json(500, {"error": str(error)})
            except Exception as error:  # pragma: no cover - defensive
                self._send_json(500, {"error": f"{type(error).__name__}: {error}"})
            else:
                self._send_json(200, response)

    return Handler
