"""Hot-path performance benchmark for the inference/training overhaul.

Measures the four optimizations shipped together:

1. **No-grad inference** — evaluation-mode forwards through
   :func:`~repro.tensor.tensor.no_grad` skip tape construction and take
   the raw-ndarray layer fast paths.  Compared against the legacy
   behavior (eval-mode forward with the tape armed).
2. **Forward-pass dedup** — with ``share_eval_forward`` the RDD student
   reuses the trainer's validation forward for its reliability refresh,
   cutting full-graph forwards per epoch from 3 to 2 (counted via a
   forward-counter model hook).
3. **Teacher-context hoisting** — :func:`node_reliability` with a
   precomputed :class:`TeacherContext` vs. recomputing the frozen
   teacher's argmax/threshold work every call.
4. **Process-parallel + float32 harness** — the multi-seed harness in
   its seed-parity configuration (serial, float64, legacy 3-forward
   schedule) vs. the optimized stack (``workers=4``, ``float32``,
   shared eval forward).

Run ``python scripts/bench.py hotpath`` (or ``python -m
benchmarks.bench_hotpath`` with ``src`` on the path) to write
``BENCH_hotpath.json`` at the repo root.  The pytest entries are marked
``perf`` and excluded from the default (tier-1) test run.
"""

from __future__ import annotations

import contextlib
import json
import time
from pathlib import Path
from typing import Dict, List

import numpy as np
import pytest

import scipy.sparse as sp

from repro.core.reliability import node_reliability, teacher_context
from repro.core.rdd import RDDTrainer
from repro.datasets import cora_like
from repro.evaluation.common import HarnessConfig, load_graphs, run_over_seeds, run_rdd
from repro.models import base as base_module
from repro.models.base import GraphModel, softmax_rows
from repro.models.gcn import GCN
from repro.nn import layers as layers_module
from repro.tensor import ops
from repro.tensor import sparse as sparse_module
from repro.tensor.tensor import as_tensor, enable_grad
from repro.training.seed import make_rng

REPO_ROOT = Path(__file__).resolve().parents[1]
OUTPUT_PATH = REPO_ROOT / "BENCH_hotpath.json"


def _best_of(fn, repeats: int) -> float:
    """Best-of-N wall time of ``fn()`` (minimum is the noise-robust stat)."""
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


# ----------------------------------------------------------------------
# 1. Eval-mode forward: tape (legacy) vs. no_grad fast path
# ----------------------------------------------------------------------
def _seed_predict_logits(self, graph):
    """The seed's ``predict_logits``: recursive eval() switch, tape armed."""
    was_training = self.training
    self.eval()
    try:
        with enable_grad():  # the seed had no no_grad(); tape always built
            logits = self.forward(graph).data
    finally:
        if was_training:
            self.train()
    return logits


def _seed_dropout_forward(self, x):
    """The seed's ``Dropout.forward``: sparse inputs round-trip via COO."""
    if sp.issparse(x):
        if not self.training or self.rate <= 0.0:
            return x
        x = x.tocoo(copy=True)
        keep = 1.0 - self.rate
        mask = self.rng.random(x.nnz) < keep
        x.data = x.data * mask / keep
        return x.tocsr()
    return ops.dropout(as_tensor(x), self.rate, self.rng, training=self.training)


@contextlib.contextmanager
def _seed_behavior():
    """Restore the seed's hot-path implementations for a measurement.

    Swaps back the three seams this overhaul changed, so the baseline
    timings below execute the seed's actual code paths while producing
    bitwise-identical results:

    * sparse products via scipy operator dispatch instead of the raw
      ``csr_matvecs`` kernel, with per-backward ``.T`` reconstruction;
    * ``predict_logits`` with the autodiff tape armed (the seed had no
      ``no_grad``) and the unconditional recursive ``eval()`` switch;
    * sparse dropout through the COO round-trip.

    The seed's other removed costs (per-step optimizer ``zeros_like``
    allocations, full-matrix log-softmax in the losses) are not patched
    back, so baselines measured under this context are still slightly
    *faster* than the true seed — measured speedups are conservative.
    """
    saved = (
        sparse_module.sparse_dense_matmul,
        sparse_module.cached_transpose,
        base_module.GraphModel.predict_logits,
        layers_module.Dropout.forward,
    )
    sparse_module.sparse_dense_matmul = lambda matrix, dense: np.asarray(matrix @ dense)
    sparse_module.cached_transpose = lambda matrix: matrix.T
    base_module.GraphModel.predict_logits = _seed_predict_logits
    layers_module.Dropout.forward = _seed_dropout_forward
    try:
        yield
    finally:
        (
            sparse_module.sparse_dense_matmul,
            sparse_module.cached_transpose,
            base_module.GraphModel.predict_logits,
            layers_module.Dropout.forward,
        ) = saved


def bench_eval_forward(scale: float = 0.1, repeats: int = 150) -> Dict[str, float]:
    graph = cora_like(seed=0, scale=scale)
    graph.normalized_adjacency()  # pre-normalize outside the timed region
    model = GCN(graph.num_features, graph.num_classes, make_rng(0))
    model.eval()

    def legacy_forward():
        # The seed's predict_logits (see _seed_behavior): run it only
        # with that context active.
        return model.predict_logits(graph)

    def fast_forward():
        return model.predict_logits(graph)

    # Warm both code paths (allocator/caches) before any timing.
    with _seed_behavior():
        legacy_logits = legacy_forward()
        for _ in range(5):
            legacy_forward()
    for _ in range(5):
        fast_forward()
    assert np.array_equal(legacy_logits, fast_forward())

    # Alternate best-of rounds so machine drift hits both paths equally.
    rounds = 5
    taped = untaped = float("inf")
    per_round = max(1, repeats // rounds)
    for _ in range(rounds):
        with _seed_behavior():
            taped = min(taped, _best_of(legacy_forward, per_round))
        untaped = min(untaped, _best_of(fast_forward, per_round))
    return {
        "eval_forward_taped_s": taped,
        "eval_forward_no_grad_s": untaped,
        "eval_forward_speedup": taped / untaped,
    }


# ----------------------------------------------------------------------
# 2. RDD full-graph forwards per epoch (forward-counter hook)
# ----------------------------------------------------------------------
class _CountingGCN(GCN):
    """GCN whose every full-graph forward bumps a shared counter."""

    def __init__(self, *args, counter: Dict[str, int], **kwargs):
        super().__init__(*args, **kwargs)
        self._counter = counter

    def forward(self, graph):
        self._counter["forwards"] += 1
        return super().forward(graph)


def count_rdd_forwards(share_eval_forward: bool, epochs: int = 12) -> Dict[str, float]:
    """Steady-state full-graph forwards per epoch for one RDD student."""
    graph = cora_like(seed=0, scale=0.1)
    counters: List[Dict[str, int]] = []

    def factory(g, rng):
        counters.append({"forwards": 0})
        return _CountingGCN(
            g.num_features, g.num_classes, rng, hidden=16, dropout=0.5,
            counter=counters[-1],
        )

    trainer = RDDTrainer(
        HarnessConfig(
            num_base_models=2,
            max_epochs=epochs,
            patience=epochs,  # disable early stopping: fixed epoch count
            share_eval_forward=share_eval_forward,
        ).rdd_config(),
        model_factory=factory,
    )
    result = trainer.fit(graph, seed=0)

    student_forwards = counters[1]["forwards"]
    student_epochs = result.base_results[1].epochs_run
    assert student_epochs == epochs
    # One-time forwards outside the per-epoch loop: the best-checkpoint
    # restore forward, plus (shared schedule only) the epoch-0 bootstrap.
    one_time = 2 if share_eval_forward else 1
    per_epoch = (student_forwards - one_time) / student_epochs
    return {
        "share_eval_forward": share_eval_forward,
        "student_total_forwards": student_forwards,
        "student_epochs": student_epochs,
        "forwards_per_epoch": per_epoch,
    }


# ----------------------------------------------------------------------
# 3. Reliability refresh: per-call teacher work vs. hoisted context
# ----------------------------------------------------------------------
def bench_reliability_refresh(scale: float = 0.3, repeats: int = 50) -> Dict[str, float]:
    graph = cora_like(seed=0, scale=scale)
    rng = np.random.default_rng(0)
    teacher_probs = softmax_rows(rng.normal(size=(graph.num_nodes, graph.num_classes)))
    student_probs = softmax_rows(rng.normal(size=(graph.num_nodes, graph.num_classes)))
    labels, train_index = graph.labels, graph.train_index

    cold = _best_of(
        lambda: node_reliability(teacher_probs, student_probs, labels, train_index),
        repeats,
    )
    context = teacher_context(teacher_probs, labels, train_index)
    hoisted = _best_of(
        lambda: node_reliability(
            teacher_probs, student_probs, labels, train_index, context=context
        ),
        repeats,
    )
    return {
        "refresh_cold_s": cold,
        "refresh_hoisted_s": hoisted,
        "refresh_speedup": cold / hoisted,
    }


# ----------------------------------------------------------------------
# 4. Multi-seed harness: seed-parity stack vs. optimized stack
# ----------------------------------------------------------------------
def _harness_config(optimized: bool, **overrides) -> HarnessConfig:
    # Paper protocol on the Cora stand-in: T=5 base models, fixed epoch
    # count (patience == max_epochs disables early stopping so both
    # configurations train the same number of epochs).
    budget = dict(
        scale=1.0,
        seeds=(0, 1, 2, 3),
        num_base_models=5,
        max_epochs=25,
        patience=25,
        hidden=16,
    )
    budget.update(overrides)
    if optimized:
        return HarnessConfig(
            workers=4, dtype="float32", share_eval_forward=True, **budget
        )
    # Seed parity: the exact pre-overhaul execution (serial float64,
    # legacy 3-forward schedule).
    return HarnessConfig(workers=1, dtype=None, share_eval_forward=False, **budget)


def _time_harness(config: HarnessConfig, seed_behavior: bool = False) -> Dict[str, float]:
    graphs = load_graphs(config, "cora")
    context = _seed_behavior() if seed_behavior else contextlib.nullcontext()
    with context:
        start = time.perf_counter()
        results = run_over_seeds(run_rdd, graphs, config)
        elapsed = time.perf_counter() - start
    accs = [r.ensemble_test_accuracy for r in results]
    epochs = sum(br.epochs_run for r in results for br in r.base_results)
    return {
        "wall_s": elapsed,
        "epoch_time_s": elapsed / max(epochs, 1),
        "mean_ensemble_accuracy": float(np.mean(accs)),
    }


def bench_harness(**overrides) -> Dict[str, object]:
    # The baseline is the seed stack: seed configuration (serial,
    # float64, 3-forward schedule) AND seed code paths (_seed_behavior).
    baseline = _time_harness(
        _harness_config(optimized=False, **overrides), seed_behavior=True
    )
    optimized = _time_harness(_harness_config(optimized=True, **overrides))
    return {
        "seed_parity": baseline,
        "optimized": optimized,
        "harness_speedup": baseline["wall_s"] / optimized["wall_s"],
        "workers": 4,
    }


# ----------------------------------------------------------------------
# Entry points
# ----------------------------------------------------------------------
def run_benchmark(quick: bool = False) -> Dict[str, object]:
    forward = bench_eval_forward(repeats=10 if quick else 30)
    counts = {
        "legacy": count_rdd_forwards(share_eval_forward=False),
        "shared": count_rdd_forwards(share_eval_forward=True),
    }
    refresh = bench_reliability_refresh(repeats=20 if quick else 50)
    harness = bench_harness(
        **({"seeds": (0, 1), "max_epochs": 10, "patience": 10} if quick else {})
    )
    return {
        "eval_forward": forward,
        "rdd_forward_counts": counts,
        "reliability_refresh": refresh,
        "multi_seed_harness": harness,
    }


def main(argv=None) -> int:
    results = run_benchmark()
    OUTPUT_PATH.write_text(json.dumps(results, indent=2) + "\n")
    forward = results["eval_forward"]
    counts = results["rdd_forward_counts"]
    harness = results["multi_seed_harness"]
    print(f"eval forward speedup (no_grad vs tape): {forward['eval_forward_speedup']:.2f}x")
    print(
        "RDD forwards/epoch: "
        f"{counts['legacy']['forwards_per_epoch']:.2f} -> "
        f"{counts['shared']['forwards_per_epoch']:.2f}"
    )
    print(f"reliability refresh speedup: {results['reliability_refresh']['refresh_speedup']:.2f}x")
    print(f"multi-seed harness speedup: {harness['harness_speedup']:.2f}x")
    print(f"wrote {OUTPUT_PATH}")
    return 0


# ----------------------------------------------------------------------
# pytest entries (perf-marked; excluded from the tier-1 run)
# ----------------------------------------------------------------------
@pytest.mark.perf
def test_eval_forward_speedup():
    result = bench_eval_forward()
    assert result["eval_forward_speedup"] >= 1.3


@pytest.mark.perf
def test_rdd_forwards_per_epoch():
    legacy = count_rdd_forwards(share_eval_forward=False)
    shared = count_rdd_forwards(share_eval_forward=True)
    assert legacy["forwards_per_epoch"] == pytest.approx(3.0)
    assert shared["forwards_per_epoch"] == pytest.approx(2.0)


@pytest.mark.perf
def test_reliability_refresh_speedup():
    result = bench_reliability_refresh()
    assert result["refresh_speedup"] > 1.0


@pytest.mark.perf
def test_harness_speedup():
    result = bench_harness(seeds=(0, 1), max_epochs=10, patience=10)
    assert result["harness_speedup"] > 1.0


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
