"""Neighbor-sampled training benchmark: sampler speed and memory-boundedness.

Two claims back the ``repro.sampling`` subsystem, and this bench
measures both against committed baselines (``BENCH_sampling.json``,
guarded by ``scripts/check_bench.py --bench sampling``):

1. **Sampler speed** — the vectorized CSR kernel
   (:func:`repro.sampling.sample_adjacent`) must beat the per-node
   Python loop it replaced (kept here as :func:`_sample_neighbors_loop`)
   by at least :data:`SAMPLER_FLOOR` on a 10k-seed batch of a
   dense-degree DC-SBM.

2. **Memory-boundedness** — on an SBM graph **10× larger** than the
   repo's largest full-scale bench graph (cora_like: 2708 nodes /
   5278 edges), mini-batch sampled GCN training must peak below
   :data:`MEMORY_RATIO_LIMIT` of full-batch training's peak RSS.
   Peak RSS is read per mode in a fresh subprocess
   (``resource.getrusage(...).ru_maxrss``), so the high-water marks
   don't contaminate each other.  The sampled run's residual floor is
   the final full-graph eval forward plus the graph itself — the
   training pass proper scales with ``batch_size × prod(fanouts)``.

The same subprocess harness also runs a 2-student RDD fit in both modes
at 10× scale, demonstrating that reliability-weighted sampled
distillation trains at a graph size where its memory profile matters
(reported, not gated: RDD's reliability refresh is full-graph in both
modes, so its ratio is structurally milder than the GCN pair's).

Run ``python scripts/bench.py sampling`` to refresh the baseline.  The
pytest entries are ``perf``-marked and excluded from tier-1.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List

import numpy as np
import scipy.sparse as sp

REPO_ROOT = Path(__file__).resolve().parents[1]
for entry in (str(REPO_ROOT / "src"), str(REPO_ROOT)):
    if entry not in sys.path:
        sys.path.insert(0, entry)

import pytest  # noqa: E402

OUTPUT_PATH = REPO_ROOT / "BENCH_sampling.json"

#: Vectorized sampler must beat the per-node loop by at least this much.
SAMPLER_FLOOR = 5.0

#: Sampled GCN peak RSS over full-batch peak RSS at 10x scale.
MEMORY_RATIO_LIMIT = 0.5

#: The repo's largest full-scale bench graph (cora_like at scale=1.0).
BASE_NODES = 2708
BASE_EDGES = 5278

#: Training shape for the memory pair: wide hidden state so graph-sized
#: activations/gradients dominate the interpreter baseline.
NUM_FEATURES = 128
HIDDEN = 384
NUM_CLASSES = 7
EPOCHS = 3
BATCH_SIZE = 256
FANOUTS = (10, 10)


# ----------------------------------------------------------------------
# Shared graph builders
# ----------------------------------------------------------------------
def make_bench_graph(scale: int, seed: int = 0):
    """Class-informative DC-SBM at ``scale``× the largest bench graph."""
    from repro.datasets.sbm import generate_dcsbm_graph
    from repro.datasets.splits import planetoid_split
    from repro.graph.graph import Graph

    rng = np.random.default_rng(seed)
    num_nodes = BASE_NODES * scale
    adjacency, labels = generate_dcsbm_graph(
        num_nodes, NUM_CLASSES, BASE_EDGES * scale, homophily=0.85, rng=rng
    )
    centers = rng.normal(size=(NUM_CLASSES, NUM_FEATURES))
    features = centers[labels] + 1.2 * rng.normal(size=(num_nodes, NUM_FEATURES))
    train, val, test = planetoid_split(labels, rng)
    return Graph(adjacency, features, labels, train, val, test, name=f"sbm-{scale}x")


def make_sampler_graph(seed: int = 0):
    """Dense-degree DC-SBM for the kernel microbench (avg degree ~22,
    well above the fanout, so the over-fanout sort path dominates)."""
    from repro.datasets.sbm import generate_dcsbm_graph

    rng = np.random.default_rng(seed)
    adjacency, _ = generate_dcsbm_graph(
        BASE_NODES * 10, NUM_CLASSES, 300_000, homophily=0.85, rng=rng
    )
    return adjacency


# ----------------------------------------------------------------------
# 1. Sampler kernel speedup (vectorized vs per-node loop)
# ----------------------------------------------------------------------
def _sample_neighbors_loop(
    adjacency: sp.spmatrix,
    nodes: np.ndarray,
    fanout: int,
    rng: np.random.Generator,
) -> tuple:
    """Per-node-loop reference the vectorized kernel is timed against.

    Returns ``(src, dst)`` sampled edges ``neighbor -> node`` with the
    same without-replacement fanout rule as
    :func:`repro.sampling.sample_adjacent`, except that an isolated node
    emits a ``node -> node`` self edge.  The RNG draw pattern differs, so
    the two agree exactly only where no randomness is consumed (full
    fanout).
    """
    from repro.errors import GraphError
    from repro.sampling.neighbor import check_node_ids

    if fanout < 1:
        raise GraphError(f"fanout must be >= 1, got {fanout}")
    csr = adjacency.tocsr()
    nodes = check_node_ids(nodes, csr.shape[0])
    src_parts: List[np.ndarray] = []
    dst_parts: List[np.ndarray] = []
    for node in nodes:
        neighbors = csr.indices[csr.indptr[node] : csr.indptr[node + 1]]
        if len(neighbors) == 0:
            chosen = np.asarray([node])
        elif len(neighbors) <= fanout:
            chosen = neighbors
        else:
            chosen = rng.choice(neighbors, size=fanout, replace=False)
        src_parts.append(chosen.astype(np.int64))
        dst_parts.append(np.full(len(chosen), node, dtype=np.int64))
    if not src_parts:
        empty = np.empty(0, dtype=np.int64)
        return empty, empty.copy()
    return np.concatenate(src_parts), np.concatenate(dst_parts)


def sampler_speedup(quick: bool = False) -> Dict[str, object]:
    from repro.sampling import NeighborSampler

    adjacency = make_sampler_graph()
    rng = np.random.default_rng(1)
    seeds = rng.choice(adjacency.shape[0], size=10_000, replace=False)
    fanout = 10
    repeats = 3 if quick else 5

    sampler = NeighborSampler(adjacency, seed=0)
    sampler.sample(seeds, fanout)  # warm-up (page/cache touch)
    vec_times, loop_times = [], []
    for _ in range(repeats):
        started = time.perf_counter()
        sampler.sample(seeds, fanout)
        vec_times.append(time.perf_counter() - started)
        started = time.perf_counter()
        _sample_neighbors_loop(adjacency, seeds, fanout, rng)
        loop_times.append(time.perf_counter() - started)
    vec_s, loop_s = min(vec_times), min(loop_times)
    return {
        "nodes": int(adjacency.shape[0]),
        "edges": int(adjacency.nnz // 2),
        "num_seeds": len(seeds),
        "fanout": fanout,
        "repeats": repeats,
        "vectorized_s": vec_s,
        "loop_s": loop_s,
        "speedup": loop_s / vec_s,
    }


# ----------------------------------------------------------------------
# 2. Memory / throughput pairs (fresh subprocess per mode)
# ----------------------------------------------------------------------
CHILD_MODES = ("graph_only", "gcn_full", "gcn_sampled", "rdd_full", "rdd_sampled")


def _child_run(mode: str, scale: int) -> Dict[str, object]:
    """Executed inside the child process: train, report peak RSS."""
    import resource

    from repro.models.gcn import GCN
    from repro.training.trainer import Trainer

    graph = make_bench_graph(scale)
    epochs = EPOCHS
    test_accuracy = None
    started = time.perf_counter()
    if mode == "graph_only":
        pass  # baseline: imports + graph construction, no training
    elif mode in ("gcn_full", "gcn_sampled"):
        model = GCN(
            graph.num_features,
            graph.num_classes,
            np.random.default_rng(0),
            hidden=HIDDEN,
            dropout=0.5,
        )
        if mode == "gcn_full":
            trainer = Trainer(max_epochs=epochs, patience=epochs)
        else:
            from repro.training.sampled import SampledTrainer

            trainer = SampledTrainer(
                fanouts=FANOUTS,
                batch_size=BATCH_SIZE,
                sample_seed=0,
                eval_every=epochs,
                max_epochs=epochs,
                patience=epochs,
            )
        test_accuracy = trainer.fit(model, graph).test_accuracy
    elif mode in ("rdd_full", "rdd_sampled"):
        from repro.core.config import RDDConfig
        from repro.core.rdd import RDDTrainer

        config = RDDConfig(
            num_base_models=2,
            max_epochs=epochs,
            patience=epochs,
            hidden=HIDDEN,
            sampler="neighbor" if mode == "rdd_sampled" else "full",
            fanouts=FANOUTS,
            batch_size=BATCH_SIZE,
            eval_every=epochs,
        )
        test_accuracy = RDDTrainer(config).fit(graph, seed=0).ensemble_test_accuracy
    else:
        raise ValueError(f"unknown child mode {mode!r}")
    wall = time.perf_counter() - started
    # Linux reports ru_maxrss in KiB.
    peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return {
        "mode": mode,
        "scale": scale,
        "peak_rss_mb": peak_kib / 1024.0,
        "wall_s": wall,
        "epochs": epochs,
        "epoch_s": wall / epochs if mode != "graph_only" else None,
        "test_accuracy": test_accuracy,
    }


def _measure_child(mode: str, scale: int) -> Dict[str, object]:
    """Run one training mode in a fresh interpreter and parse its JSON."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(REPO_ROOT / "src"), str(REPO_ROOT), env.get("PYTHONPATH")) if p
    )
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--child", mode, "--scale", str(scale)],
        capture_output=True,
        text=True,
        env=env,
        check=False,
    )
    if proc.returncode != 0:
        raise RuntimeError(
            f"child {mode}@{scale}x failed (exit {proc.returncode}):\n{proc.stderr}"
        )
    return json.loads(proc.stdout.strip().splitlines()[-1])


def memory_pairs(quick: bool = False) -> Dict[str, object]:
    results: Dict[str, object] = {}
    scales = (10,) if quick else (1, 10)
    for scale in scales:
        modes = CHILD_MODES if scale == 10 else ("graph_only", "gcn_full", "gcn_sampled")
        runs = {mode: _measure_child(mode, scale) for mode in modes}
        entry: Dict[str, object] = {"runs": runs}
        entry["gcn_peak_ratio"] = (
            runs["gcn_sampled"]["peak_rss_mb"] / runs["gcn_full"]["peak_rss_mb"]
        )
        if "rdd_sampled" in runs:
            entry["rdd_peak_ratio"] = (
                runs["rdd_sampled"]["peak_rss_mb"] / runs["rdd_full"]["peak_rss_mb"]
            )
        results[f"{scale}x"] = entry
    return results


def run_benchmark(quick: bool = False) -> Dict[str, object]:
    sampler = sampler_speedup(quick=quick)
    memory = memory_pairs(quick=quick)
    return {
        "base_graph": {"nodes": BASE_NODES, "edges": BASE_EDGES},
        "training_shape": {
            "num_features": NUM_FEATURES,
            "hidden": HIDDEN,
            "epochs": EPOCHS,
            "batch_size": BATCH_SIZE,
            "fanouts": list(FANOUTS),
        },
        "sampler": sampler,
        "memory": memory,
        "sampler_speedup": sampler["speedup"],
        "gcn_peak_ratio_10x": memory["10x"]["gcn_peak_ratio"],
    }


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if argv and argv[0] == "--child":
        mode = argv[1]
        scale = int(argv[argv.index("--scale") + 1])
        print(json.dumps(_child_run(mode, scale)))
        return 0
    results = run_benchmark()
    OUTPUT_PATH.write_text(json.dumps(results, indent=2) + "\n")
    print(json.dumps(results, indent=2))
    print(f"\nresults written to {OUTPUT_PATH}")
    return 0


# ----------------------------------------------------------------------
# pytest entries (perf-marked; excluded from tier-1)
# ----------------------------------------------------------------------
@pytest.mark.perf
def test_sampler_beats_loop_floor():
    result = sampler_speedup(quick=True)
    assert result["speedup"] >= SAMPLER_FLOOR, (
        f"vectorized sampler only {result['speedup']:.1f}x over the loop "
        f"(needs >= {SAMPLER_FLOOR:.0f}x)"
    )


@pytest.mark.perf
def test_sampled_training_is_memory_bounded_at_10x():
    runs = {mode: _measure_child(mode, 10) for mode in ("gcn_full", "gcn_sampled")}
    ratio = runs["gcn_sampled"]["peak_rss_mb"] / runs["gcn_full"]["peak_rss_mb"]
    assert ratio <= MEMORY_RATIO_LIMIT, (
        f"sampled peak {runs['gcn_sampled']['peak_rss_mb']:.0f}MB is "
        f"{ratio:.2f}x of full-batch {runs['gcn_full']['peak_rss_mb']:.0f}MB "
        f"(budget {MEMORY_RATIO_LIMIT:.2f}x)"
    )


if __name__ == "__main__":
    raise SystemExit(main())
