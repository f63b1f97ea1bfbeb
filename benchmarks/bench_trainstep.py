"""Training-step benchmark: fused kernels vs the elementary op-by-op tape.

Times the **full taped train step** — forward, backward, optimizer
update — in two configurations that are bitwise identical in output:

* **legacy** — the op-by-op tape (``use_fused_ops(False)``): the
  training step as it existed before the fused layer;
* **fused** — the fused kernels every trainer runs (single-node softmax
  cross entropy, ``linear``, ``gcn_layer``, in-place-mask ``dropout``,
  the validation-free sparse-dropout rebuild).

Both run the plain ``Tensor.backward`` and ``zero_grad(set_to_none=True)``.

Workloads span the regimes the distillation pipeline hits:

* ``gcn``        — the paper's student (2-layer GCN, sparse features,
  full-scale Cora stand-in).  Kernel-bound: the sparse products and the
  dropout RNG dominate, so the tape overhead the fused path removes is
  a modest slice.
* ``deep_dense`` — a 3-layer DenseGCN with a dense running state (the
  Table-5 deep-model regime).  Many taped ops over large dense
  intermediates: the regime where the tape nodes and feature-sized
  intermediates the fused kernels remove weigh the most.
* ``jknet``      — 3-layer jumping-knowledge net, between the two.
* ``mlp``        — graph-free baseline (fused ``linear`` only).

Every workload asserts fused-vs-legacy bitwise parity on the updated
parameters, in process, before any timing.  Each configuration is then
timed in its own freshly spawned interpreter, the two stepping in turn
and alternating which goes first: timed side by side in one process,
each path would run under the allocator state the other left behind.
Run ``python scripts/bench.py trainstep`` to write
``BENCH_trainstep.json`` at the repo root; ``scripts/check_bench.py``
compares a fresh run against the committed baseline.  The pytest
entries are ``perf``-marked and excluded from tier-1.
"""

from __future__ import annotations

import contextlib
import json
import multiprocessing
import os
import time
from pathlib import Path
from typing import Dict

import numpy as np
import pytest

from repro.datasets import cora_like
from repro.models.densegcn import DenseGCN
from repro.models.gcn import GCN
from repro.models.jknet import JKNet
from repro.models.mlp import MLP
from repro.nn.optim import Adam
from repro.tensor.fused import use_fused_ops
from repro.training.trainer import supervised_loss

REPO_ROOT = Path(__file__).resolve().parents[1]
OUTPUT_PATH = REPO_ROOT / "BENCH_trainstep.json"

WORKLOADS = {
    "gcn": dict(scale=1.0, factory=lambda g, rng: GCN(g.num_features, g.num_classes, rng)),
    "deep_dense": dict(
        scale=0.3,
        factory=lambda g, rng: DenseGCN(
            g.num_features, g.num_classes, rng, hidden=[32, 16], num_layers=3
        ),
    ),
    "jknet": dict(
        scale=0.3,
        factory=lambda g, rng: JKNet(g.num_features, g.num_classes, rng),
    ),
    "mlp": dict(scale=1.0, factory=lambda g, rng: MLP(g.num_features, g.num_classes, rng)),
}


# Untimed steps a child runs before timing (caches, allocator).
WARMUP_STEPS = 5


def _graph(spec):
    graph = cora_like(seed=0, scale=spec["scale"])
    graph.normalized_adjacency()  # pre-normalize outside the timed region
    return graph


def _make_step(graph, factory, fused: bool):
    """One full train step (forward + backward + optimizer) as a closure,
    on the fused kernels or on the elementary tape."""
    model = factory(graph, np.random.default_rng(0))
    optimizer = Adam(model.parameters(), lr=0.01, weight_decay=5e-4)
    loss_fn = supervised_loss(graph)

    def step(epoch: int) -> None:
        with use_fused_ops(fused):
            model.train()
            loss = loss_fn(model, model(graph), epoch)
            optimizer.zero_grad()
            loss.backward()
            optimizer.step()

    return model, step


def _assert_parity(graph, factory, steps: int = 5) -> None:
    """Fused and legacy steps must leave identical parameters behind."""
    legacy_model, legacy_step = _make_step(graph, factory, fused=False)
    fused_model, fused_step = _make_step(graph, factory, fused=True)
    for epoch in range(steps):
        legacy_step(epoch)
        fused_step(epoch)
    for (name_a, a), (name_b, b) in zip(
        legacy_model.named_parameters(), fused_model.named_parameters()
    ):
        assert name_a == name_b
        assert np.array_equal(a.data, b.data), f"parameter {name_a} diverged"


def _step_server(name: str, fused: bool, cores, conn) -> None:
    """Child process body: build one path's train step, warm it up, then
    time one step per epoch number received until ``None`` arrives."""
    if cores is not None:
        os.sched_setaffinity(0, cores)
    spec = WORKLOADS[name]
    _, step = _make_step(_graph(spec), spec["factory"], fused)
    for epoch in range(WARMUP_STEPS):
        step(epoch)
    conn.send("ready")
    while (epoch := conn.recv()) is not None:
        start = time.perf_counter()
        step(epoch)
        conn.send(time.perf_counter() - start)


def bench_workload(name: str, repeats: int = 50) -> Dict[str, float]:
    """Best-of-``repeats`` step time of each path.

    Each path runs in its own spawned interpreter.  The parent steps the
    two children in turn, alternating which goes first, so both see the
    same machine drift.  Only one computes at a time, so both are pinned
    to the same core: on a shared host one core can be persistently
    slower than another, which would otherwise bias whichever child the
    scheduler kept there.
    """
    spec = WORKLOADS[name]
    _assert_parity(_graph(spec), spec["factory"])

    context = multiprocessing.get_context("spawn")
    cores = {min(os.sched_getaffinity(0))} if hasattr(os, "sched_setaffinity") else None
    conns, children = {}, []
    try:
        for fused in (False, True):
            conns[fused], child_end = context.Pipe()
            child = context.Process(
                target=_step_server, args=(name, fused, cores, child_end)
            )
            child.start()
            child_end.close()
            children.append(child)
        for conn in conns.values():
            conn.recv()  # warmed up
        best = {False: float("inf"), True: float("inf")}
        for offset in range(repeats):
            for fused in (False, True) if offset % 2 == 0 else (True, False):
                conns[fused].send(WARMUP_STEPS + offset)
                best[fused] = min(best[fused], conns[fused].recv())
    finally:
        for conn in conns.values():
            with contextlib.suppress(OSError):  # the child may already be gone
                conn.send(None)
            conn.close()
        for child in children:
            child.join(timeout=60)
            if child.is_alive():
                child.kill()
    legacy, fused_s = best[False], best[True]
    return {
        "scale": spec["scale"],
        "legacy_step_s": legacy,
        "fused_step_s": fused_s,
        "speedup": legacy / fused_s,
    }


def run_benchmark(quick: bool = False) -> Dict[str, object]:
    # The legacy path's allocation jitter needs a few dozen samples for
    # a stable best-of minimum, so even quick mode keeps 30 repeats.
    repeats = 30 if quick else 50
    workloads = {name: bench_workload(name, repeats=repeats) for name in WORKLOADS}
    speedups = [w["speedup"] for w in workloads.values()]
    return {
        "workloads": workloads,
        # Headline: the deep taped regime the fused layer targets.
        "trainstep_speedup": workloads["deep_dense"]["speedup"],
        "geomean_speedup": float(np.exp(np.mean(np.log(speedups)))),
    }


def main(argv=None) -> int:
    results = run_benchmark()
    OUTPUT_PATH.write_text(json.dumps(results, indent=2) + "\n")
    for name, w in results["workloads"].items():
        print(
            f"{name:11s} legacy {w['legacy_step_s'] * 1e3:8.3f} ms  "
            f"fused {w['fused_step_s'] * 1e3:8.3f} ms  {w['speedup']:.2f}x"
        )
    print(f"train-step speedup (deep taped regime): {results['trainstep_speedup']:.2f}x")
    print(f"geometric-mean speedup over workloads:  {results['geomean_speedup']:.2f}x")
    print(f"wrote {OUTPUT_PATH}")
    return 0


# ----------------------------------------------------------------------
# pytest entries (perf-marked; excluded from the tier-1 run)
# ----------------------------------------------------------------------
@pytest.mark.perf
def test_trainstep_speedup_deep_taped_regime():
    result = bench_workload("deep_dense")
    assert result["speedup"] >= 1.5


@pytest.mark.perf
def test_trainstep_never_slower():
    # Kernel-bound workloads can't gain much, but the fused path must
    # not cost anything either (small tolerance for timer noise).
    for name in ("gcn", "mlp"):
        result = bench_workload(name, repeats=30)
        assert result["speedup"] >= 0.9, (name, result)


@pytest.mark.perf
def test_trainstep_parity_is_enforced():
    # bench_workload refuses to time configurations that diverge.
    spec = WORKLOADS["gcn"]
    graph = cora_like(seed=0, scale=0.1)
    _assert_parity(graph, spec["factory"])


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
