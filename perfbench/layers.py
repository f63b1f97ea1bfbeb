"""Which public functions the traced runs wrap, and how spans become metrics.

Every per-layer time is a *self* time: a span's duration minus its child
spans.  Because the wrapped functions nest, the self times of one traced
operation add up exactly to its traced duration; compared with the
untraced duration they account for the end-to-end time up to the tracing
overhead (see ``ACCOUNTING_TOLERANCE``).

Training metrics are totals per harness call.  Serving metrics are means
per request (``batch_*`` per lookup, ``*_engine``/``context``/``subgraph``
/``query_forward`` per inductive request, everything else per request).
A layer a workload never enters reads 0.
"""

from __future__ import annotations

import threading
from collections import defaultdict

from tracer import self_times

# Self times must sum to the untraced end-to-end value within this share.
# The tracing overhead is 1-3%; the rest is room for the run-to-run
# drift of a shared 2-core box, where neighbouring harness calls differ by
# up to 15%.
ACCOUNTING_TOLERANCE = 0.15

# (name, unit) of every per-layer metric, in report order.
PER_LAYER = [
    ("datasets.load_s", "s"),
    ("evaluation.harness_ms", "ms"),
    ("training.self_s", "s"),
    ("models.forward_train_ms", "ms"),
    ("models.forward_train_calls", "count"),
    ("models.forward_eval_ms", "ms"),
    ("models.forward_eval_calls", "count"),
    ("tensor.backward_ms", "ms"),
    ("tensor.backward_calls", "count"),
    ("tensor.spmm_ms", "ms"),
    ("tensor.spmm_calls", "count"),
    ("tensor.spmm_gflop", "GFLOP"),
    ("tensor.spmm_gbytes", "GB"),
    ("tensor.gcn_layer_ms", "ms"),
    ("tensor.dropout_ms", "ms"),
    ("nn.optim_step_ms", "ms"),
    ("nn.optim_steps", "count"),
    ("core.rdd_self_ms", "ms"),
    ("core.loss_ms", "ms"),
    ("core.node_reliability_ms", "ms"),
    ("core.edge_reliability_ms", "ms"),
    ("core.distill_share", "share"),
    ("graph.pagerank_ms", "ms"),
    ("sampling.build_ms", "ms"),
    ("sampling.batches", "count"),
    ("sampling.input_nodes_mean", "count"),
    ("serving.http_ms", "ms"),
    ("serving.handler_ms", "ms"),
    ("serving.batch_wait_ms", "ms"),
    ("serving.batch_size_mean", "count"),
    ("serving.lookup_engine_ms", "ms"),
    ("serving.inductive_engine_ms", "ms"),
    ("serving.context_sample_ms", "ms"),
    ("serving.subgraph_ms", "ms"),
    ("serving.query_forward_ms", "ms"),
    ("serving.cache_hit_share", "share"),
    ("trace.overhead", "ratio"),
    ("trace.accounted_share", "ratio"),
]


def _spmm_cost(args, kwargs, result):
    """GFLOP and GB of one sparse x dense product, computed (not counted).

    FLOPs are ``2 * nnz * k``.  Bytes are the compulsory traffic: the CSR
    arrays (indptr, indices, data), the dense operand and the output, each
    touched once at its dtype's width.
    """
    matrix, dense = args[0], args[1]
    k = dense.shape[1] if dense.ndim == 2 else 1
    nnz = matrix.nnz
    item = result.dtype.itemsize
    index = getattr(matrix, "indices", None)
    index_item = index.dtype.itemsize if index is not None else 8
    rows, cols = matrix.shape
    nbytes = (rows + 1 + nnz) * index_item + nnz * matrix.dtype.itemsize + (cols + rows) * k * item
    return (2.0 * nnz * k * 1e-9, nbytes * 1e-9)


def _forward_mode(args, kwargs, result):
    return "train" if args[0].training else "eval"


def _input_nodes(args, kwargs, result):
    return len(result.input_nodes)


def _install_common(tracer):
    from repro.datasets import registry
    from repro.models.gcn import GCN
    from repro.tensor import sparse

    tracer.wrap_function(registry, "load_dataset", "datasets.load")
    tracer.wrap_method(GCN, "forward", "models.forward", _forward_mode)
    tracer.wrap_function(sparse, "sparse_dense_matmul", "tensor.spmm", _spmm_cost)


def install_training(tracer):
    """Wrap the layers the harness RDD fit runs through."""
    import repro.evaluation.common as common
    from repro.core import losses, reliability
    from repro.core.rdd import RDDTrainer
    from repro.graph.graph import Graph
    from repro.nn.optim import Adam
    from repro.sampling.blocks import BlockBuilder
    from repro.tensor import fused
    from repro.tensor.tensor import GradArena
    from repro.training.sampled import SampledTrainer
    from repro.training.trainer import Trainer

    _install_common(tracer)
    tracer.wrap_function(common, "run_over_seeds", "evaluation.harness")
    tracer.wrap_method(RDDTrainer, "fit", "core.rdd_fit")
    tracer.wrap_method(Trainer, "fit", "training.fit")
    tracer.wrap_method(SampledTrainer, "fit", "training.fit")
    tracer.wrap_method(GradArena, "backward", "tensor.backward")
    tracer.wrap_function(fused, "gcn_layer", "tensor.gcn_layer")
    tracer.wrap_function(fused, "dropout", "tensor.dropout")
    tracer.wrap_method(Adam, "step", "nn.optim_step")
    tracer.wrap_function(losses, "rdd_student_loss", "core.loss")
    tracer.wrap_function(losses, "sampled_rdd_student_loss", "core.loss")
    tracer.wrap_function(reliability, "node_reliability", "core.node_reliability")
    tracer.wrap_function(reliability, "edge_reliability", "core.edge_reliability")
    tracer.wrap_method(Graph, "pagerank", "graph.pagerank")
    tracer.wrap_method(BlockBuilder, "build", "sampling.build", _input_nodes)


def install_serving(tracer):
    """Wrap the serving path: HTTP handler, admission, engine, cache.

    Work hops threads twice: lookups go through the micro-batcher's worker
    and inductive queries through the server's compute pool.  The request
    payload object travels unchanged, so spans are linked by its identity.
    """
    from repro.graph import subgraph
    from repro.sampling import neighbor
    from repro.serving.batching import MicroBatcher
    from repro.serving.cache import TieredCache
    from repro.serving.engine import PredictionEngine
    from repro.serving.server import PredictionServer

    _install_common(tracer)
    tracer.wrap_function(neighbor, "layerwise_neighborhood", "serving.context_sample")
    tracer.wrap_function(subgraph, "induced_subgraph", "serving.subgraph")

    def handle_predict(original):
        def traced(server, body):
            payload = body.get("nodes", body.get("features")) if isinstance(body, dict) else None
            attrs = {
                "rid": body.get("rid") if isinstance(body, dict) else None,
                "cls": "lookup" if isinstance(body, dict) and "nodes" in body else "inductive",
            }
            span_id = tracer.reserve()
            tracer.link(payload, span_id)
            try:
                return tracer.call("serving.handle", original, (server, body), {},
                                   lambda *_: attrs, span_id=span_id)
            finally:
                tracer.unlink(payload)

        return traced

    def batcher_predict(original):
        def traced(batcher, payload, timeout=None):
            span_id = tracer.reserve()
            tracer.link(payload, span_id)
            return tracer.call("serving.batcher_predict", original, (batcher, payload, timeout),
                               {}, span_id=span_id)

        return traced

    def predict_many(original):
        def traced(engine, requests):
            served = [tracer.linked(request) for request in requests]
            return tracer.call("serving.predict_many", original, (engine, requests), {},
                               lambda *_: served, parent=0)

        return traced

    def predict_inductive(original):
        def traced(engine, features, neighbor_ids):
            return tracer.call("serving.predict_inductive", original,
                               (engine, features, neighbor_ids), {},
                               parent=tracer.linked(features))

        return traced

    def cache_get(original):
        lock = threading.Lock()

        def traced(cache, key):
            value = original(cache, key)
            with lock:
                tracer.counts["cache_gets"] += 1
                tracer.counts["cache_hits"] += value is not None
            return value

        return traced

    tracer.wrap_method(PredictionServer, "handle_predict", None, wrapper=handle_predict)
    tracer.wrap_method(MicroBatcher, "predict", None, wrapper=batcher_predict)
    tracer.wrap_method(PredictionEngine, "predict_many", None, wrapper=predict_many)
    tracer.wrap_method(PredictionEngine, "predict_inductive", None, wrapper=predict_inductive)
    tracer.wrap_method(TieredCache, "get", None, wrapper=cache_get)


def zero_metrics():
    return {name: 0.0 for name, _ in PER_LAYER}


# ----------------------------------------------------------------------
# Span analysis
# ----------------------------------------------------------------------
_TRAIN_SELF = {
    "evaluation.harness": "evaluation.harness_ms",
    "training.fit": "training.self_s",
    "models.forward.train": "models.forward_train_ms",
    "models.forward.eval": "models.forward_eval_ms",
    "tensor.backward": "tensor.backward_ms",
    "tensor.spmm": "tensor.spmm_ms",
    "tensor.gcn_layer": "tensor.gcn_layer_ms",
    "tensor.dropout": "tensor.dropout_ms",
    "nn.optim_step": "nn.optim_step_ms",
    "core.rdd_fit": "core.rdd_self_ms",
    "core.loss": "core.loss_ms",
    "core.node_reliability": "core.node_reliability_ms",
    "core.edge_reliability": "core.edge_reliability_ms",
    "graph.pagerank": "graph.pagerank_ms",
    "sampling.build": "sampling.build_ms",
}
_TRAIN_CALLS = {
    "models.forward.train": "models.forward_train_calls",
    "models.forward.eval": "models.forward_eval_calls",
    "tensor.backward": "tensor.backward_calls",
    "tensor.spmm": "tensor.spmm_calls",
    "nn.optim_step": "nn.optim_steps",
    "sampling.build": "sampling.batches",
}


def _kind(span):
    name, attrs = span[2], span[5]
    return f"{name}.{attrs}" if name == "models.forward" else name


def training_metrics(spans, harness_calls):
    """Per-layer totals per harness call, from the spans of ``harness_calls`` calls.

    Returns the metrics and the summed self time (seconds per call) of all
    spans under the harness root, for the accounting check.
    """
    selfs = self_times(spans)
    metrics = zero_metrics()
    accounted = 0.0
    input_nodes = 0
    for span in spans:
        kind = _kind(span)
        if kind == "datasets.load":
            metrics["datasets.load_s"] += span[4] - span[3]
            continue
        seconds = selfs[span[0]]
        accounted += seconds
        name = _TRAIN_SELF[kind]
        metrics[name] += seconds if name.endswith("_s") else seconds * 1e3
        if kind in _TRAIN_CALLS:
            metrics[_TRAIN_CALLS[kind]] += 1
        if kind == "tensor.spmm":
            metrics["tensor.spmm_gflop"] += span[5][0]
            metrics["tensor.spmm_gbytes"] += span[5][1]
        elif kind == "sampling.build":
            input_nodes += span[5]
    if metrics["sampling.batches"]:
        metrics["sampling.input_nodes_mean"] = input_nodes / metrics["sampling.batches"]
    for name in metrics:
        if name != "sampling.input_nodes_mean":
            metrics[name] /= harness_calls
    return metrics, accounted / harness_calls


def serving_metrics(spans, counts, latencies):
    """Per-request means from server spans and client latencies.

    ``latencies`` maps request id -> (class, seconds measured by the
    client).  Returns the metrics and the mean per-request sum of the
    parts (seconds), for the accounting check.
    """
    selfs = self_times(spans)
    children = defaultdict(list)
    batch_of = {}
    metrics = zero_metrics()
    sizes = []
    for span in spans:
        if span[1]:
            children[span[1]].append(span)
        if span[2] == "serving.predict_many":
            sizes.append(len(span[5]))
            for served in span[5]:
                batch_of[served] = span
        elif span[2] == "datasets.load":
            metrics["datasets.load_s"] += span[4] - span[3]

    totals = defaultdict(float)
    n = {"lookup": 0, "inductive": 0}
    parts_sum = 0.0

    def add_subtree(span_id):
        for child in children[span_id]:
            kind = _kind(child)
            if kind == "models.forward.eval":
                totals["models.forward_eval_ms"] += selfs[child[0]]
                totals["models.forward_eval_calls"] += 1
            elif kind == "tensor.spmm":
                totals["tensor.spmm_ms"] += selfs[child[0]]
                totals["tensor.spmm_calls"] += 1
                totals["tensor.spmm_gflop"] += child[5][0]
                totals["tensor.spmm_gbytes"] += child[5][1]
            add_subtree(child[0])

    for span in spans:
        if span[2] != "serving.handle" or span[5]["rid"] not in latencies:
            continue
        cls, latency = latencies[span[5]["rid"]]
        n[cls] += 1
        handle = span[4] - span[3]
        totals["serving.http_ms"] += latency - handle
        totals["serving.handler_ms"] += selfs[span[0]]
        parts = latency - handle + selfs[span[0]]
        for child in children[span[0]]:
            if child[2] == "serving.batcher_predict":
                batch = batch_of[child[0]]
                engine = batch[4] - batch[3]
                totals["serving.batch_wait_ms"] += (child[4] - child[3]) - engine
                totals["serving.lookup_engine_ms"] += engine
                parts += child[4] - child[3]
            elif child[2] == "serving.predict_inductive":
                totals["serving.inductive_engine_ms"] += selfs[child[0]]
                for part in children[child[0]]:
                    key = {
                        "serving.context_sample": "serving.context_sample_ms",
                        "serving.subgraph": "serving.subgraph_ms",
                        "models.forward": "serving.query_forward_ms",
                    }[part[2]]
                    totals[key] += part[4] - part[3]
                add_subtree(child[0])
                parts += child[4] - child[3]
        parts_sum += parts

    requests = n["lookup"] + n["inductive"]
    per = {
        "serving.http_ms": requests,
        "serving.handler_ms": requests,
        "serving.batch_wait_ms": n["lookup"],
        "serving.lookup_engine_ms": n["lookup"],
        "serving.inductive_engine_ms": n["inductive"],
        "serving.context_sample_ms": n["inductive"],
        "serving.subgraph_ms": n["inductive"],
        "serving.query_forward_ms": n["inductive"],
    }
    for name, value in totals.items():
        scale = 1e3 if name.endswith("_ms") else 1.0
        metrics[name] = scale * value / max(per.get(name, requests), 1)
    metrics["serving.batch_size_mean"] = sum(sizes) / len(sizes) if sizes else 0.0
    gets = counts.get("cache_gets", 0)
    metrics["serving.cache_hit_share"] = counts.get("cache_hits", 0) / gets if gets else 0.0
    return metrics, parts_sum / max(requests, 1)
