"""HTTP front end: routes, status codes, metrics, fault survival.

Each test boots a real :class:`PredictionServer` on an ephemeral port and
talks to it over stdlib ``urllib`` — the same path ``scripts/loadgen.py``
and the CI smoke use.  The overload/timeout/disconnect classes pin the
bugfix contract: saturation answers 429 + ``Retry-After`` instead of
queueing without bound, a wedged worker answers 503 instead of hanging
the handler thread forever, a client dropping mid-response is
counted — never a traceback, never a dead server — and malformed
bodies or framing answer 400, never 500 and never a hung thread.
``POST /admin/reload`` swaps artifacts in process under load.
"""

import http.client
import json
import socket
import struct
import threading
import time
import urllib.error
import urllib.request

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.serving.artifacts import ModelSpec, export_ensemble_artifact, export_model_artifact
from repro.serving.engine import PredictionEngine
from repro.serving.server import PredictionServer
from repro.testing.faults import FaultPlan, inject

from .conftest import GCN_OPTIONS, build_gcn


_GET = object()


def _call(url: str, body=_GET, timeout: float = 10.0):
    """(status, payload) for a GET (no body) or JSON POST; 4xx/5xx included."""
    if body is _GET:
        request = urllib.request.Request(url)
    else:
        request = urllib.request.Request(
            url,
            data=json.dumps(body).encode("utf-8"),
            headers={"Content-Type": "application/json"},
        )
    try:
        with urllib.request.urlopen(request, timeout=timeout) as response:
            return response.status, json.loads(response.read())
    except urllib.error.HTTPError as error:
        return error.code, json.loads(error.read())


NUM_NODES = 60  # tiny_graph size
NUM_FEATURES = 24  # tiny_graph feature width

_json_scalars = (
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4)
)
_json = st.recursive(
    _json_scalars,
    lambda inner: (
        st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=4), inner, max_size=3)
    ),
    max_leaves=8,
)
_ids = st.lists(
    st.integers(min_value=-2, max_value=NUM_NODES + 2) | _json_scalars, min_size=0, max_size=5
)
_features = st.lists(
    st.floats(width=32) | st.integers(min_value=-10, max_value=10) | _json_scalars,
    min_size=NUM_FEATURES, max_size=NUM_FEATURES,
) | _json
_bodies = (
    st.fixed_dictionaries({"nodes": _ids | _json}, optional={"return_probs": _json})
    | st.fixed_dictionaries(
        {"features": _features}, optional={"neighbors": _ids | _json, "return_logits": _json}
    )
    | _json
)


@pytest.fixture(scope="module")
def server(engine):
    with PredictionServer(engine, port=0).start() as running:
        yield running


class TestRoutes:
    def test_healthz_reports_identity(self, server, engine):
        status, payload = _call(f"{server.url}/healthz")
        assert status == 200
        assert payload == {
            "status": "ok",
            "model": "gcn",
            "nodes": engine.num_nodes,
            "artifact_version": 0,
        }

    def test_predict_nodes_matches_engine(self, server, engine):
        nodes = [0, 17, 59]
        status, payload = _call(f"{server.url}/predict", {"nodes": nodes})
        assert status == 200
        assert payload["nodes"] == nodes
        assert payload["labels"] == engine.predict_nodes(nodes).argmax(axis=1).tolist()

    def test_predict_scalar_node_and_logits(self, server, engine):
        status, payload = _call(
            f"{server.url}/predict", {"nodes": 5, "return_probs": True, "return_logits": True}
        )
        assert status == 200
        assert payload["nodes"] == [5]
        assert np.array_equal(np.asarray(payload["logits"]), engine.predict_nodes([5]))
        assert np.isclose(sum(payload["probs"][0]), 1.0)

    def test_predict_inductive(self, server, engine, tiny_graph):
        features = np.asarray(tiny_graph.features[4]).ravel()
        body = {"features": features.tolist(), "neighbors": [4, 9], "return_probs": True}
        status, payload = _call(f"{server.url}/predict", body)
        assert status == 200
        expected = engine.predict_inductive(features, [4, 9])
        assert payload["label"] == int(np.argmax(expected))
        assert np.isclose(sum(payload["probs"]), 1.0)

    def test_metrics_populate_after_traffic(self, server):
        for _ in range(3):
            assert _call(f"{server.url}/predict", {"nodes": [1, 2]})[0] == 200
        status, snapshot = _call(f"{server.url}/metrics")
        assert status == 200
        assert snapshot["counters"]["requests_total"] >= 3
        assert snapshot["counters"]["http_200"] >= 3
        latency = snapshot["histograms"]["latency_ms"]
        assert latency["count"] >= 3
        assert latency["p50"] > 0.0 and latency["p99"] >= latency["p50"]
        assert snapshot["histograms"]["batch_size"]["count"] >= 1

    def test_metrics_include_the_engines_inductive_cache_counters(self, server, tiny_graph):
        features = np.asarray(tiny_graph.features[6]).ravel().tolist()
        body = {"features": features, "neighbors": [6, 7]}
        for _ in range(2):
            assert _call(f"{server.url}/predict", body)[0] == 200
        counters = _call(f"{server.url}/metrics")[1]["counters"]
        assert counters["inductive_cache_misses_total"] >= 1
        assert counters["inductive_cache_cold_hits_total"] + counters.get(
            "inductive_cache_hot_hits_total", 0
        ) >= 1
        request = urllib.request.Request(f"{server.url}/metrics?format=prometheus")
        with urllib.request.urlopen(request, timeout=10) as response:
            assert "inductive_cache_misses_total" in response.read().decode("utf-8")


class TestErrors:
    def test_unknown_paths_404(self, server):
        assert _call(f"{server.url}/nope")[0] == 404
        assert _call(f"{server.url}/nope", {"x": 1})[0] == 404

    def test_invalid_json_400(self, server):
        request = urllib.request.Request(
            f"{server.url}/predict",
            data=b"{not json",
            headers={"Content-Type": "application/json"},
        )
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(request, timeout=10)
        assert excinfo.value.code == 400
        assert "invalid JSON" in json.loads(excinfo.value.read())["error"]

    @pytest.mark.parametrize(
        "body",
        [
            {"wrong": "keys"},
            {"nodes": [10**6]},
            {"nodes": []},
            {"features": [1.0, 2.0]},
            {"features": [1.0, 2.0], "neighbors": [0]},
            {"nodes": "abc"},
            {"nodes": [10**30]},
            {"nodes": float("nan")},
            {"nodes": [1.5]},
            {"nodes": [True]},
            {"nodes": True},
            {"nodes": ["1"]},
            {"nodes": [[1]]},
            {"features": "x", "neighbors": [0]},
            {"features": ["a"] * NUM_FEATURES, "neighbors": [0]},
            {"features": [True] * NUM_FEATURES, "neighbors": [0]},
            {"features": [float("nan")] * NUM_FEATURES, "neighbors": [0]},
            {"features": [float("inf")] * NUM_FEATURES, "neighbors": [0]},
            {"features": [10**400] * NUM_FEATURES, "neighbors": [0]},
            {"features": [1.0] * NUM_FEATURES, "neighbors": "ab"},
            {"features": [1.0] * NUM_FEATURES, "neighbors": [10**30]},
            {"features": [1.0] * NUM_FEATURES, "neighbors": [1.5]},
            [1, 2],
        ],
        ids=[
            "no-route", "unknown-id", "empty", "no-neighbors", "bad-features",
            "nodes-string", "nodes-huge", "nodes-nan", "nodes-float", "nodes-bool-list",
            "nodes-bool", "nodes-string-id", "nodes-nested", "features-string",
            "features-strings", "features-bools", "features-nan", "features-inf",
            "features-huge-int", "neighbors-string", "neighbors-huge", "neighbors-float",
            "not-an-object",
        ],
    )
    def test_client_errors_400_with_json_error(self, server, body):
        status, payload = _call(f"{server.url}/predict", body)
        assert status == 400
        assert isinstance(payload["error"], str) and payload["error"]

    @settings(
        max_examples=60,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(body=_bodies)
    def test_fuzzed_bodies_answer_200_or_400(self, server, body):
        status, payload = _call(f"{server.url}/predict", body)
        assert status in (200, 400), (status, payload)

    @pytest.mark.parametrize("length", [b"-1", b"-50", b"abc"])
    def test_bad_content_length_answers_400_without_waiting_for_close(self, server, length):
        # Regression: Content-Length -1 reached rfile.read(-1), which
        # blocks until the client closes — a hung handler thread.
        client = socket.create_connection((server.host, server.port), timeout=10)
        try:
            client.sendall(
                b"POST /predict HTTP/1.1\r\nHost: test\r\n"
                b"Content-Length: " + length + b"\r\n\r\n" + b'{"nodes": [0]}'
            )
            reply = client.recv(4096)  # the client keeps its side open
        finally:
            client.close()
        assert reply.startswith(b"HTTP/1.1 400"), reply
        assert b"Content-Length" in reply

    def test_client_errors_counted(self, server):
        before = _call(f"{server.url}/metrics")[1]["counters"].get("http_client_errors_total", 0)
        _call(f"{server.url}/predict", {"nodes": [10**6]})
        after = _call(f"{server.url}/metrics")[1]["counters"]["http_client_errors_total"]
        assert after == before + 1


class TestFaultSurvival:
    def test_injected_fault_returns_clean_json_and_server_lives(self, engine):
        # A worker-side fault on one request must surface as a clean 500
        # {"error": ...} for that caller only — the batching loop and the
        # server keep answering.
        with PredictionServer(engine, port=0).start() as server:
            with inject(FaultPlan().fail("serving:request", key=0)) as plan:
                status, payload = _call(f"{server.url}/predict", {"nodes": [0]})
                assert status == 500
                assert "injected fault" in payload["error"]
                status, payload = _call(f"{server.url}/predict", {"nodes": [0]})
                assert status == 200
                assert payload["labels"] == engine.predict_nodes([0]).argmax(axis=1).tolist()
            assert plan.fired("serving:request") == 1
            snapshot = _call(f"{server.url}/metrics")[1]
            assert snapshot["counters"]["errors_total"] == 1
            assert snapshot["counters"]["http_500"] == 1
            assert snapshot["counters"]["http_200"] >= 1


def _wedge():
    """(plan, entered, release): a serving:request fault whose action
    parks the worker until ``release`` is set — the deterministic stand-in
    for a slow or wedged backend."""
    entered, release = threading.Event(), threading.Event()

    def block(context):
        entered.set()
        release.wait(timeout=30)

    return FaultPlan().fail("serving:request", at=0, action=block), entered, release


class TestOverload:
    def test_full_queue_answers_429_with_retry_after(self, engine):
        # Regression: a saturated server used to queue without bound —
        # every request eventually answered, minutes late.  Now the
        # bounded admission queue sheds the excess immediately.
        plan, entered, release = _wedge()
        with PredictionServer(engine, port=0, max_batch_size=1, max_queue=1).start() as server:
            statuses = []

            def post(nodes):
                statuses.append(_call(f"{server.url}/predict", {"nodes": nodes})[0])

            with inject(plan):
                wedged = threading.Thread(target=post, args=([0],))
                wedged.start()
                assert entered.wait(timeout=10), "worker never reached the wedge"
                queued = threading.Thread(target=post, args=([1],))
                queued.start()
                deadline = time.monotonic() + 10
                while not server.batcher._queue.full() and time.monotonic() < deadline:
                    time.sleep(0.005)
                assert server.batcher._queue.full()

                request = urllib.request.Request(
                    f"{server.url}/predict",
                    data=json.dumps({"nodes": [2]}).encode("utf-8"),
                    headers={"Content-Type": "application/json"},
                )
                with pytest.raises(urllib.error.HTTPError) as excinfo:
                    urllib.request.urlopen(request, timeout=10)
                assert excinfo.value.code == 429
                assert int(excinfo.value.headers["Retry-After"]) >= 1
                assert "full" in json.loads(excinfo.value.read())["error"]

                release.set()
                wedged.join(timeout=30)
                queued.join(timeout=30)
            # The in-flight and queued requests were not casualties.
            assert statuses == [200, 200]
            counters = _call(f"{server.url}/metrics")[1]["counters"]
            assert counters["http_429"] >= 1
            assert counters["shed_total"] >= 1

    def test_wedged_worker_answers_503_not_a_hung_request(self, engine):
        # Regression: a request whose worker never answered used to hang
        # its handler thread (and the client) forever.  The deadline now
        # frees both with a clean 503.
        plan, entered, release = _wedge()
        with PredictionServer(
            engine, port=0, max_batch_size=1, request_timeout_s=0.3
        ).start() as server:
            try:
                with inject(plan):
                    started = time.monotonic()
                    status, payload = _call(f"{server.url}/predict", {"nodes": [0]})
                    elapsed = time.monotonic() - started
                    assert status == 503
                    assert payload == {"error": "timed out"}
                    assert elapsed < 10.0, f"503 took {elapsed:.1f}s — the deadline did not fire"
            finally:
                release.set()
            assert entered.is_set()
            # The handler thread survived; once the wedge clears the
            # server answers normally again.
            status, payload = _call(f"{server.url}/predict", {"nodes": [3]})
            assert status == 200
            assert payload["labels"] == engine.predict_nodes([3]).argmax(axis=1).tolist()
            counters = _call(f"{server.url}/metrics")[1]["counters"]
            assert counters["http_timeouts_total"] >= 1

    def test_timeout_applies_to_inductive_requests(self, engine, tiny_graph):
        # Inductive queries run on the compute pool, not the batcher;
        # the deadline must hold there as well.  No fault point sits on
        # that path, so wedge the engine itself.
        release = threading.Event()

        class SlowEngine:
            def __getattr__(self, name):
                return getattr(engine, name)

            def predict_inductive(self, features, neighbors):
                release.wait(timeout=30)
                return engine.predict_inductive(features, neighbors)

        body = {"features": np.asarray(tiny_graph.features[0]).ravel().tolist(), "neighbors": [1]}
        with PredictionServer(SlowEngine(), port=0, request_timeout_s=0.3).start() as server:
            try:
                status, payload = _call(f"{server.url}/predict", body)
                assert (status, payload) == (503, {"error": "timed out"})
            finally:
                release.set()
            assert _call(f"{server.url}/predict", body)[0] == 200


class TestClientDisconnect:
    def test_client_dropping_mid_response_is_counted_not_fatal(self, engine):
        # Regression: a loadgen client timing out and resetting its
        # connection used to leave a BrokenPipe/ConnectionReset traceback
        # in the handler thread.  The wedge holds the response until the
        # client is certainly gone, so the write deterministically hits a
        # dead socket.
        plan, entered, release = _wedge()
        with PredictionServer(engine, port=0, max_batch_size=1).start() as server:
            with inject(plan):
                client = socket.create_connection((server.host, server.port), timeout=10)
                # SO_LINGER(on, 0): close() sends RST, so the server's
                # later write fails instead of landing in a kernel buffer.
                client.setsockopt(
                    socket.SOL_SOCKET, socket.SO_LINGER, struct.pack("ii", 1, 0)
                )
                body = json.dumps({"nodes": [0]}).encode("utf-8")
                client.sendall(
                    b"POST /predict HTTP/1.1\r\n"
                    b"Host: test\r\n"
                    b"Content-Type: application/json\r\n"
                    + f"Content-Length: {len(body)}\r\n\r\n".encode("utf-8")
                    + body
                )
                assert entered.wait(timeout=10), "request never reached the worker"
                client.close()  # RST while the response is still pending
                release.set()

            deadline = time.monotonic() + 10
            while time.monotonic() < deadline:
                counters = _call(f"{server.url}/metrics")[1]["counters"]
                if counters.get("http_disconnects_total", 0) >= 1:
                    break
                time.sleep(0.02)
            assert counters.get("http_disconnects_total", 0) >= 1
            # The server shrugged it off and keeps serving.
            status, payload = _call(f"{server.url}/predict", {"nodes": [1]})
            assert status == 200
            assert payload["labels"] == engine.predict_nodes([1]).argmax(axis=1).tolist()


class TestKeepAlive:
    def test_one_connection_serves_many_requests(self, server):
        connection = http.client.HTTPConnection(server.host, server.port, timeout=10)
        try:
            sockets = []
            for _ in range(3):
                connection.request(
                    "POST", "/predict", body=json.dumps({"nodes": [0, 1]}),
                    headers={"Content-Type": "application/json"},
                )
                response = connection.getresponse()
                assert response.status == 200
                assert response.getheader("Connection") != "close"
                json.loads(response.read())
                sockets.append(connection.sock)
            # HTTP/1.1 keep-alive: the TCP connection was reused, not
            # re-established per request.
            assert all(sock is sockets[0] for sock in sockets)
        finally:
            connection.close()

    def test_sequential_requests_do_not_stall_on_delayed_acks(self, server):
        # Regression: with Nagle on, each reply's body waited for the
        # client's delayed ACK of its headers, ~44 ms per request.
        connection = http.client.HTTPConnection(server.host, server.port, timeout=10)
        latencies = []
        try:
            for _ in range(20):
                started = time.perf_counter()
                connection.request("POST", "/predict", body=json.dumps({"nodes": [0, 1, 2]}))
                response = connection.getresponse()
                assert (response.status, json.loads(response.read())["nodes"]) == (200, [0, 1, 2])
                latencies.append(time.perf_counter() - started)
        finally:
            connection.close()
        assert np.median(latencies) < 0.020, f"median {np.median(latencies) * 1e3:.1f} ms"


def _export_v2(tmp_path, graph):
    """A second (differently seeded) artifact to swap in."""
    model = build_gcn(graph, seed=11)
    spec = ModelSpec("gcn", dict(GCN_OPTIONS))
    return export_model_artifact(tmp_path / "v2.rddart", model, spec, graph)


def _logits(payload) -> np.ndarray:
    return np.asarray(payload["logits"])


class TestAdminReload:
    PROBE = [0, 13, 31]

    def test_reload_swaps_the_artifact(self, gcn_artifact_path, tiny_graph, tmp_path):
        v2_path = _export_v2(tmp_path, tiny_graph)
        engine_v2 = PredictionEngine(v2_path, tiny_graph)
        engine = PredictionEngine(gcn_artifact_path, tiny_graph)
        with PredictionServer(engine, port=0).start() as server:
            status, payload = _call(f"{server.url}/admin/reload", {"artifact": str(v2_path)})
            assert (status, payload) == (200, {"status": "reloaded", "artifact_version": 1})
            assert _call(f"{server.url}/healthz")[1]["artifact_version"] == 1
            status, payload = _call(
                f"{server.url}/predict", {"nodes": self.PROBE, "return_logits": True}
            )
            assert status == 200
            assert np.array_equal(_logits(payload), engine_v2.predict_nodes(self.PROBE))
            assert _call(f"{server.url}/metrics")[1]["counters"]["reloads_total"] == 1

    def test_reload_under_load_has_zero_downtime(
        self, gcn_artifact_path, tiny_graph, engine, tmp_path
    ):
        v2_path = _export_v2(tmp_path, tiny_graph)
        engine_v2 = PredictionEngine(v2_path, tiny_graph)
        v1_answer = engine.predict_nodes(self.PROBE)
        v2_answer = engine_v2.predict_nodes(self.PROBE)
        assert not np.array_equal(v1_answer, v2_answer), "v2 must be distinguishable"
        features = np.asarray(tiny_graph.features[7]).ravel()
        inductive = {"features": features.tolist(), "neighbors": [3, 4], "return_logits": True}

        served = PredictionEngine(gcn_artifact_path, tiny_graph)
        with PredictionServer(served, port=0).start() as server:
            stop = threading.Event()
            statuses, torn = [], []

            def hammer():
                body = {"nodes": self.PROBE, "return_logits": True}
                while not stop.is_set():
                    status, payload = _call(f"{server.url}/predict", body)
                    statuses.append(status)
                    # Either version may answer mid-swap, never a torn mix.
                    answers = (v1_answer, v2_answer)
                    if status == 200 and not any(
                        np.array_equal(_logits(payload), answer) for answer in answers
                    ):
                        torn.append(payload)

            clients = [threading.Thread(target=hammer) for _ in range(3)]
            for client in clients:
                client.start()
            try:
                time.sleep(0.05)
                status, payload = _call(f"{server.url}/admin/reload", {"artifact": str(v2_path)})
            finally:
                stop.set()
                for client in clients:
                    client.join(timeout=30)
            assert status == 200 and payload["artifact_version"] == 1
            assert statuses and set(statuses) == {200}, sorted(set(statuses))
            assert not torn
            # After the swap every answer is the new artifact's, bitwise.
            for _ in range(5):
                status, payload = _call(
                    f"{server.url}/predict", {"nodes": self.PROBE, "return_logits": True}
                )
                assert status == 200 and np.array_equal(_logits(payload), v2_answer)
                status, payload = _call(f"{server.url}/predict", inductive)
                assert status == 200
                assert np.array_equal(
                    _logits(payload), engine_v2.predict_inductive(features, [3, 4])
                )

    def test_inductive_cache_does_not_outlive_a_reload(
        self, gcn_artifact_path, tiny_graph, tmp_path
    ):
        v2_path = _export_v2(tmp_path, tiny_graph)
        features = np.asarray(tiny_graph.features[9]).ravel()
        v1 = PredictionEngine(gcn_artifact_path, tiny_graph).predict_inductive(features, [9])
        v2 = PredictionEngine(v2_path, tiny_graph).predict_inductive(features, [9])
        assert not np.array_equal(v1, v2), "v2 must be distinguishable"
        body = {"features": features.tolist(), "neighbors": [9], "return_logits": True}

        engine = PredictionEngine(gcn_artifact_path, tiny_graph)
        with PredictionServer(engine, port=0).start() as server:
            for _ in range(3):  # cached, and promoted to the hot tier
                assert np.array_equal(_logits(_call(f"{server.url}/predict", body)[1]), v1)
            assert _call(f"{server.url}/admin/reload", {"artifact": str(v2_path)})[0] == 200
            status, payload = _call(f"{server.url}/predict", body)
            assert status == 200 and np.array_equal(_logits(payload), v2)

    @pytest.mark.parametrize("case", ["missing-file", "graph-mismatch", "no-path"])
    def test_failed_reload_answers_400_and_keeps_serving(
        self, gcn_artifact_path, tiny_graph, small_citation, engine, tmp_path, case
    ):
        if case == "missing-file":
            body = {"artifact": str(tmp_path / "missing.rddart")}
        elif case == "graph-mismatch":
            other = build_gcn(small_citation)
            path = export_model_artifact(
                tmp_path / "other.rddart", other, ModelSpec("gcn", dict(GCN_OPTIONS)),
                small_citation,
            )
            body = {"artifact": str(path)}
        else:
            body = {"artifact": 7}
        served = PredictionEngine(gcn_artifact_path, tiny_graph)
        with PredictionServer(served, port=0).start() as server:
            status, payload = _call(f"{server.url}/admin/reload", body)
            assert status == 400 and payload["error"]
            if case == "graph-mismatch":
                assert "does not match" in payload["error"]
            assert _call(f"{server.url}/healthz")[1]["artifact_version"] == 0
            status, payload = _call(
                f"{server.url}/predict", {"nodes": self.PROBE, "return_logits": True}
            )
            assert status == 200
            assert np.array_equal(_logits(payload), engine.predict_nodes(self.PROBE))


class TestEnsembleServer:
    def test_ensemble_artifact_serves_end_to_end(
        self, ensemble_artifact_path, ensemble, tiny_graph
    ):
        engine = PredictionEngine(ensemble_artifact_path, tiny_graph)
        with PredictionServer(engine, port=0).start() as server:
            status, health = _call(f"{server.url}/healthz")
            assert status == 200 and health["model"] == "ensemble[3]"

            nodes = [0, 21, 42]
            status, payload = _call(f"{server.url}/predict", {"nodes": nodes})
            assert status == 200
            assert payload["labels"] == ensemble.embeddings()[nodes].argmax(axis=1).tolist()

            features = np.asarray(tiny_graph.features[2]).ravel()
            status, payload = _call(
                f"{server.url}/predict", {"features": features.tolist(), "neighbors": [2, 3]}
            )
            assert status == 200
            expected = engine.predict_inductive(features, [2, 3])
            assert payload["label"] == int(np.argmax(expected))

    def test_table_only_ensemble_answers_inductive_with_400(
        self, ensemble, tiny_graph, tmp_path
    ):
        # Regression: inductive queries against an artifact without
        # member weights (what `repro export --ensemble` writes) were 500s.
        path = export_ensemble_artifact(tmp_path / "tables.rddart", ensemble, tiny_graph)
        engine = PredictionEngine(path, tiny_graph)
        with PredictionServer(engine, port=0).start() as server:
            features = np.asarray(tiny_graph.features[2]).ravel().tolist()
            status, payload = _call(
                f"{server.url}/predict", {"features": features, "neighbors": [2, 3]}
            )
            assert status == 400
            assert "re-export" in payload["error"]
            assert _call(f"{server.url}/predict", {"nodes": [2]})[0] == 200
