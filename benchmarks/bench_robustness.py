"""Robustness benchmark: attack scale-up + the defense margin.

Two measurements back the robustness subsystem (committed to
``BENCH_robustness.json``, guarded by
``scripts/check_bench.py --bench robustness``):

1. **Attack scale-up** — every registered attack must generate its
   :class:`~repro.graph.delta.DeltaLog` and replay it through the
   incremental ``Â`` maintenance path on a serving-scale DC-SBM graph
   (50k nodes / 100k edges).  Generation and replay throughputs are
   recorded for inspection but not gated — they are machine-dependent
   wall clock; the budget accounting (flips == ``attack_edge_count``)
   is asserted outright.

2. **Defense margin** — the gated headline.  A small
   :func:`~repro.robustness.sweep.run_sweep` trains GCN, vanilla
   knowledge distillation (``kd`` = RDD with both reliability switches
   off) and full RDD on dice-poisoned graphs; the margins
   ``rdd - gcn`` and ``rdd - kd`` in accuracy-under-attack must hold
   :data:`GCN_MARGIN_FLOOR` / :data:`KD_MARGIN_FLOOR`.  Margins are
   small accuracy differences near zero, so (like the obs overhead
   bench) only absolute floors are enforced — a relative band against
   the committed value would be all noise.  Every ingredient is seeded
   (attack RNG, model init, harness seed loop), so the margins are
   reproducible on one machine.

Run ``python scripts/bench.py robustness`` to refresh the baseline.
The pytest entries are ``perf``-marked and excluded from tier-1.
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path
from typing import Dict

import numpy as np

REPO_ROOT = Path(__file__).resolve().parents[1]
for entry in (str(REPO_ROOT / "src"), str(REPO_ROOT)):
    if entry not in sys.path:
        sys.path.insert(0, entry)

import pytest  # noqa: E402

OUTPUT_PATH = REPO_ROOT / "BENCH_robustness.json"

#: RDD must beat a plain GCN on the poisoned graph by at least this.
GCN_MARGIN_FLOOR = 0.02

#: RDD must not lose to reliability-free distillation on the poisoned
#: graph — the floor that pins the reliability filter itself.
KD_MARGIN_FLOOR = 0.0

# Attack scale-up: a serving-scale DC-SBM graph.
ATTACK_NUM_NODES = 50_000
ATTACK_NUM_EDGES = 100_000
ATTACK_NUM_CLASSES = 7
ATTACK_BUDGET = 0.05

# Defense sweep: the setting the margin is measured at.
SWEEP_ATTACK = "dice"
SWEEP_BUDGET = 0.25


def make_attack_graph(quick: bool = False, seed: int = 0):
    """A citation-like DC-SBM graph at attack scale (labels matter to the
    label-aware attacks; features are a thin stand-in — no attack reads
    them)."""
    from repro.datasets.features import generate_topic_features
    from repro.datasets.sbm import generate_dcsbm_graph
    from repro.datasets.splits import planetoid_split
    from repro.graph.graph import Graph

    num_nodes = ATTACK_NUM_NODES // 5 if quick else ATTACK_NUM_NODES
    num_edges = ATTACK_NUM_EDGES // 5 if quick else ATTACK_NUM_EDGES
    rng = np.random.default_rng(seed)
    adjacency, labels = generate_dcsbm_graph(
        num_nodes,
        ATTACK_NUM_CLASSES,
        num_edges,
        homophily=0.85,
        rng=rng,
        degree_exponent=3.0,
    )
    features = generate_topic_features(labels, 16, rng)
    train, val, test = planetoid_split(labels, rng)
    return Graph(adjacency, features, labels, train, val, test, name="attack-bench")


# ----------------------------------------------------------------------
# 1. Attack generation + incremental replay at scale
# ----------------------------------------------------------------------
def attack_scale(quick: bool = False) -> Dict[str, object]:
    from repro.robustness.attacks import ATTACKS, attack_edge_count, generate_attack

    graph = make_attack_graph(quick=quick)
    graph.normalized_adjacency()  # warm the cache: replay goes incremental
    expected = attack_edge_count(graph, ATTACK_BUDGET)

    attacks: Dict[str, object] = {}
    for name in sorted(ATTACKS):
        started = time.perf_counter()
        log = generate_attack(graph, name, ATTACK_BUDGET, seed=0)
        generate_s = time.perf_counter() - started
        flips = sum(len(d.added_edges) + len(d.removed_edges) for d in log)
        if flips != expected:
            raise AssertionError(
                f"{name}: spent {flips} flips of a {expected}-flip budget"
            )
        started = time.perf_counter()
        attacked = log.replay(graph)
        replay_s = time.perf_counter() - started
        if attacked._normalized is None:
            raise AssertionError(f"{name}: replay dropped the incremental Â cache")
        attacks[name] = {
            "flips": int(flips),
            "generate_s": generate_s,
            "generate_flips_per_s": flips / generate_s,
            "replay_s": replay_s,
        }
    return {
        "nodes": int(graph.num_nodes),
        "edges": int(graph.num_edges),
        "budget": ATTACK_BUDGET,
        "attacks": attacks,
    }


# ----------------------------------------------------------------------
# 2. Defense margin: RDD vs GCN / reliability-free KD under attack
# ----------------------------------------------------------------------
def defense_sweep(quick: bool = False) -> Dict[str, object]:
    from repro.evaluation.common import HarnessConfig
    from repro.robustness.report import defense_margins
    from repro.robustness.sweep import run_sweep

    config = HarnessConfig(
        scale=0.1 if quick else 0.2,
        seeds=(0, 1) if quick else (0, 1, 2),
        num_base_models=3 if quick else 5,
        max_epochs=40 if quick else 100,
        patience=15 if quick else 30,
        workers=2,
    )
    started = time.perf_counter()
    report = run_sweep(
        config,
        attacks=(SWEEP_ATTACK,),
        budgets=(SWEEP_BUDGET,),
        methods=("gcn", "kd", "rdd"),
    )
    sweep_s = time.perf_counter() - started

    margins = defense_margins(report)
    attacked = [m for m in margins if m["attack"] != "none"]
    return {
        "dataset": "cora",
        "scale": config.scale,
        "seeds": list(config.seeds),
        "attack": SWEEP_ATTACK,
        "attack_budget": SWEEP_BUDGET,
        "sweep_s": sweep_s,
        "rows": report.rows,
        "margins": margins,
        "margin_vs_gcn": max(m["margin_vs_gcn"] for m in attacked),
        "margin_vs_kd": max(m["margin_vs_kd"] for m in attacked),
    }


def run_benchmark(quick: bool = False) -> Dict[str, object]:
    scale = attack_scale(quick=quick)
    defense = defense_sweep(quick=quick)
    return {
        "attack_scale": scale,
        "defense": defense,
        "defense_margin_vs_gcn": defense["margin_vs_gcn"],
        "defense_margin_vs_kd": defense["margin_vs_kd"],
    }


def main(argv=None) -> int:
    results = run_benchmark()
    OUTPUT_PATH.write_text(json.dumps(results, indent=2) + "\n")
    print(json.dumps(results, indent=2))
    print(f"\nresults written to {OUTPUT_PATH}")
    return 0


# ----------------------------------------------------------------------
# pytest entries (perf-marked; excluded from tier-1)
# ----------------------------------------------------------------------
@pytest.mark.perf
def test_attacks_scale_and_replay_incrementally():
    result = attack_scale(quick=True)
    assert set(result["attacks"]) == {"degree_target", "dice", "random_flip"}
    for name, stats in result["attacks"].items():
        assert stats["flips"] > 0, name
        assert stats["generate_flips_per_s"] > 0, name


@pytest.mark.perf
def test_reliability_filter_holds_defense_floors():
    result = defense_sweep(quick=True)
    assert result["margin_vs_gcn"] >= GCN_MARGIN_FLOOR, (
        f"rdd beat gcn by only {result['margin_vs_gcn']:+.3f} under "
        f"{SWEEP_ATTACK}@{SWEEP_BUDGET} (needs >= {GCN_MARGIN_FLOOR:+.3f})"
    )
    assert result["margin_vs_kd"] >= KD_MARGIN_FLOOR, (
        f"rdd trailed reliability-free distillation by "
        f"{result['margin_vs_kd']:+.3f} under {SWEEP_ATTACK}@{SWEEP_BUDGET}"
    )


if __name__ == "__main__":
    raise SystemExit(main())
