#!/usr/bin/env python
"""CI smoke test: export a tiny artifact, serve it, hit the endpoints.

Covers the full train→export→serve→query path in a few seconds:

1. train a tiny GCN on a scaled-down Cora stand-in,
2. export a serving artifact,
3. start a :class:`PredictionServer` on a free port,
4. assert 200s (and sane payloads) from ``/healthz``, ``/predict``
   (transductive + inductive), and ``/metrics``,
5. export a *second* artifact and swap it in via ``POST /admin/reload``
   **while background clients hammer /predict** — asserting zero
   downtime: every request during the swap answers 200, and
   predictions after the swap match the new artifact.

Exit status 0 on success; any assertion or HTTP failure is fatal.
"""

from __future__ import annotations

import json
import sys
import tempfile
import threading
import time
import urllib.request
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[1]
for entry in (str(REPO_ROOT / "src"), str(REPO_ROOT)):
    if entry not in sys.path:
        sys.path.insert(0, entry)

import numpy as np  # noqa: E402

from repro.datasets import cora_like  # noqa: E402
from repro.models.gcn import GCN  # noqa: E402
from repro.serving import (  # noqa: E402
    ModelSpec,
    PredictionEngine,
    PredictionServer,
    export_model_artifact,
)
from repro.training.trainer import Trainer  # noqa: E402


def _get(url: str):
    with urllib.request.urlopen(url, timeout=10) as response:
        return response.status, json.loads(response.read())


def _post(url: str, body: dict):
    request = urllib.request.Request(
        url, data=json.dumps(body).encode(), headers={"Content-Type": "application/json"}
    )
    with urllib.request.urlopen(request, timeout=30) as response:
        return response.status, json.loads(response.read())


def _smoke_endpoints(server: PredictionServer, engine: PredictionEngine, graph) -> None:
    status, health = _get(f"{server.url}/healthz")
    assert status == 200 and health["status"] == "ok", health
    print(f"healthz ok: {health}")

    status, predict = _post(f"{server.url}/predict", {"nodes": [0, 1, 2]})
    assert status == 200 and len(predict["labels"]) == 3, predict
    expected = engine.predict_nodes([0, 1, 2]).argmax(axis=1).tolist()
    assert predict["labels"] == expected, (predict["labels"], expected)
    print(f"predict ok: {predict}")

    features = np.asarray(
        graph.features[0].todense()
    ).ravel() if hasattr(graph.features, "todense") else graph.features[0]
    status, inductive = _post(
        f"{server.url}/predict",
        {"features": features.tolist(), "neighbors": [1, 2]},
    )
    assert status == 200 and "label" in inductive, inductive
    print(f"inductive ok: {inductive}")

    status, metrics = _get(f"{server.url}/metrics")
    assert status == 200, metrics
    assert metrics["counters"].get("requests_total", 0) >= 2, metrics
    assert metrics["histograms"].get("latency_ms", {}).get("count", 0) >= 1, metrics
    print(f"metrics ok: {metrics['counters']}")


def _reload_under_load(server: PredictionServer, second_path: Path, graph) -> None:
    """One /admin/reload while background clients hammer /predict.

    Every response during the swap must be 200 — the new engine is
    built beside the old one and swapped in by reference, so serving
    never stops.
    """
    stop = threading.Event()
    statuses: list = []
    errors: list = []

    def hammer() -> None:
        rng = np.random.default_rng(42)
        while not stop.is_set():
            nodes = rng.integers(0, graph.num_nodes, size=4).tolist()
            try:
                status, _ = _post(f"{server.url}/predict", {"nodes": nodes})
                statuses.append(status)
            except Exception as error:  # noqa: BLE001 - recorded and asserted below
                errors.append(error)
                return

    clients = [threading.Thread(target=hammer) for _ in range(4)]
    for client in clients:
        client.start()
    deadline = time.monotonic() + 10
    while len(statuses) < 20 and time.monotonic() < deadline:
        time.sleep(0.01)  # let the load build before swapping
    try:
        status, reloaded = _post(f"{server.url}/admin/reload", {"artifact": str(second_path)})
        assert status == 200 and reloaded["artifact_version"] == 1, reloaded
    finally:
        stop.set()
        for client in clients:
            client.join(timeout=30)
    assert not errors, f"request failed during reload: {errors[0]}"
    assert statuses and all(s == 200 for s in statuses), (
        f"non-200 during reload: {sorted(set(statuses))} over {len(statuses)} requests"
    )
    print(f"reload ok: {len(statuses)} requests served during the swap, all 200")

    # Post-swap predictions must come from the *new* artifact.
    engine_v2 = PredictionEngine(second_path, graph)
    status, predict = _post(f"{server.url}/predict", {"nodes": [0, 1, 2]})
    expected = engine_v2.predict_nodes([0, 1, 2]).argmax(axis=1).tolist()
    assert status == 200 and predict["labels"] == expected, (predict, expected)
    status, health = _get(f"{server.url}/healthz")
    assert health["artifact_version"] == 1, health
    print(f"post-swap predictions match v2: {predict['labels']}")


def main() -> int:
    graph = cora_like(seed=0, scale=0.1)
    model = GCN(graph.num_features, graph.num_classes, np.random.default_rng(0))
    Trainer(max_epochs=20, patience=10).fit(model, graph)
    # A second (differently-initialized, briefly trained) model to swap in.
    model_v2 = GCN(graph.num_features, graph.num_classes, np.random.default_rng(1))
    Trainer(max_epochs=5, patience=5).fit(model_v2, graph)

    with tempfile.TemporaryDirectory() as tmp:
        dataset = {"name": "cora", "kwargs": {"seed": 0, "scale": 0.1}, "dtype": None}
        path = export_model_artifact(
            Path(tmp) / "smoke.rddart", model, ModelSpec("gcn"), graph, dataset=dataset
        )
        second_path = export_model_artifact(
            Path(tmp) / "smoke-v2.rddart", model_v2, ModelSpec("gcn"), graph, dataset=dataset
        )
        engine = PredictionEngine(path, graph)
        with PredictionServer(engine, port=0).start() as server:
            _smoke_endpoints(server, engine, graph)
            _reload_under_load(server, second_path, graph)
    print("serve smoke: PASS")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
