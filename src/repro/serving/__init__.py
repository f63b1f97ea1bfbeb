"""Inference serving: model artifacts, prediction engine, batching, HTTP.

The subsystem that takes a trained RDD student or teacher from training
to traffic::

    from repro.serving import (
        ModelSpec, export_model_artifact, load_artifact,
        PredictionEngine, MicroBatcher, PredictionServer,
    )

    export_model_artifact("model.rddart", model, ModelSpec("gcn"), graph)
    engine = PredictionEngine("model.rddart", graph)
    PredictionServer(engine, port=8080).serve_forever()

or, from the command line, ``repro export`` + ``repro serve``.  There is
one serving path: HTTP handler → :class:`MicroBatcher` (the only
admission queue) → one in-process :class:`PredictionEngine`.
``POST /admin/reload`` swaps in a new artifact atomically —
:meth:`PredictionEngine.rebuild` prepares the new engine on the same
graph, then the server swaps its reference.
"""

from repro.serving.artifacts import (
    ArtifactError,
    ModelArtifact,
    ModelSpec,
    export_ensemble_artifact,
    export_model_artifact,
    graph_fingerprint,
    load_artifact,
    model_kinds,
    register_model_kind,
)
from repro.serving.batching import BatcherClosed, MicroBatcher, Overloaded
from repro.serving.cache import TieredCache
from repro.serving.engine import PredictionEngine, ServingError
from repro.serving.refresh import BackgroundRefresher, RowRefresher
from repro.serving.metrics import (
    MetricRegistry,
    ServingMetrics,
    WindowHistogram,
    prometheus_text,
)
from repro.serving.server import PredictionServer

__all__ = [
    "ArtifactError",
    "BackgroundRefresher",
    "BatcherClosed",
    "RowRefresher",
    "MetricRegistry",
    "MicroBatcher",
    "ModelArtifact",
    "ModelSpec",
    "Overloaded",
    "PredictionEngine",
    "PredictionServer",
    "ServingError",
    "ServingMetrics",
    "TieredCache",
    "WindowHistogram",
    "export_ensemble_artifact",
    "export_model_artifact",
    "graph_fingerprint",
    "load_artifact",
    "model_kinds",
    "prometheus_text",
    "register_model_kind",
]
