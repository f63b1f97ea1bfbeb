"""Serving observability: counters and windowed latency/batch histograms.

The primitives live in :mod:`repro.obs.metrics` — one
:class:`~repro.obs.metrics.MetricRegistry` implementation shared by the
serving stack and the training observability layer, with one Prometheus
exporter behind both ``GET /metrics?format=prometheus`` and
``repro report``.  This module keeps the serving-flavoured surface:
:class:`ServingMetrics` adds the latency/batch-size conveniences the
batcher and HTTP server record, and ``WindowHistogram`` /
``prometheus_text`` are re-exported for compatibility with existing
imports.
"""

from __future__ import annotations

from repro.obs.metrics import MetricRegistry, WindowHistogram, prometheus_text

__all__ = [
    "MetricRegistry",
    "ServingMetrics",
    "WindowHistogram",
    "prometheus_text",
]


class ServingMetrics(MetricRegistry):
    """Thread-safe counters + histograms for one serving process."""

    def observe_latency(self, seconds: float) -> None:
        """Record one request's end-to-end latency (stored in ms)."""
        self.observe("latency_ms", seconds * 1000.0)

    def observe_batch_size(self, size: int) -> None:
        self.observe("batch_size", size)
        self.inc("batches_total")

