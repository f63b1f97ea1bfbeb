"""Observability overhead benchmark: enabled vs disabled training time.

The tracing layer promises **zero overhead when disabled** (one module-
global read per ``span()``/``event()`` call) and **under 5% epoch-time
overhead when enabled** — per-epoch it emits a handful of JSON lines
(the epoch span plus, for distilled RDD students, one ``rdd_epoch``
diagnostics record) against an epoch dominated by forward/backward
passes.

The benchmark times an identical RDD fit (ensemble of 2, fixed epoch
count — patience equals ``max_epochs`` so early stopping never fires)
with observability off and with it writing to a throwaway run
directory, alternating the order across paired repeats.  The headline
number is the ``enabled / disabled`` ratio of the *total* wall time
across repeats: per-fit scheduler noise at this runtime is the same
order as the true overhead, so a min-of-N ratio is a coin flip while
the paired-sum ratio averages the noise away.  The ratio is capped at
:data:`OVERHEAD_LIMIT` by the perf test and guarded by
``scripts/check_bench.py`` (``BENCH_obs.json`` is the committed
baseline).

The same protocol runs twice: once for the full-batch trainer and once
for the neighbor-sampled loop (``sampler="neighbor"``), which emits one
``sampler:batch`` span per optimizer step — the chattiest span site in
the repo — so the sampled ratio is the stress case for the budget.

Run ``python scripts/bench.py obs`` to refresh the baseline.  The pytest
entry is ``perf``-marked and excluded from tier-1.
"""

from __future__ import annotations

import json
import tempfile
import time
from pathlib import Path
from typing import Dict

import pytest

import repro.obs as obs
from repro.core.config import RDDConfig
from repro.core.rdd import RDDTrainer
from repro.datasets import cora_like
from repro.obs import EVENT_LOG_NAME

REPO_ROOT = Path(__file__).resolve().parents[1]
OUTPUT_PATH = REPO_ROOT / "BENCH_obs.json"

#: Enabled-mode wall time may be at most this multiple of disabled-mode.
OVERHEAD_LIMIT = 1.05


def _timed_fit(config: RDDConfig, graph, run_dir) -> float:
    """One full RDD fit; returns wall seconds.  ``run_dir`` None = obs off."""
    if run_dir is None:
        obs.disable()
    else:
        obs.enable(run_dir)
    try:
        started = time.perf_counter()
        RDDTrainer(config).fit(graph, seed=0)
        return time.perf_counter() - started
    finally:
        obs.disable()


def _paired_overhead(config: RDDConfig, graph, repeats: int) -> Dict[str, float]:
    """Alternating-order paired enabled/disabled timing for one config."""
    # Warm-up: JIT-free numpy still benefits from touched caches/pages.
    _timed_fit(config, graph, None)

    disabled_times, enabled_times = [], []
    events_logged = 0
    with tempfile.TemporaryDirectory() as tmp:
        for repeat in range(repeats):
            run_dir = Path(tmp) / f"run{repeat}"
            # Alternate order so drift (thermal, page cache) cancels.
            if repeat % 2 == 0:
                disabled_times.append(_timed_fit(config, graph, None))
                enabled_times.append(_timed_fit(config, graph, run_dir))
            else:
                enabled_times.append(_timed_fit(config, graph, run_dir))
                disabled_times.append(_timed_fit(config, graph, None))
            with open(run_dir / EVENT_LOG_NAME, "r", encoding="utf-8") as handle:
                events_logged = sum(1 for line in handle if line.strip())

    # Paired-sum ratio: each repeat ran both modes back to back, so
    # summing before dividing cancels drift that a min-of-N would not.
    disabled_s, enabled_s = sum(disabled_times), sum(enabled_times)
    return {
        "events_per_run": events_logged,
        "disabled_s": disabled_s,
        "enabled_s": enabled_s,
        "overhead": enabled_s / disabled_s,
    }


def run_benchmark(quick: bool = False) -> Dict[str, object]:
    # quick trims the repeat count, never the workload: both modes
    # always run the same fixed-epoch fit, so the ratio stays
    # comparable.  The workload must keep epochs at paper scale
    # (milliseconds of numpy, not microseconds) — the obs cost is a
    # fixed few JSON lines per epoch, so a toy epoch would overstate
    # the relative overhead — and each fit must be long enough that
    # per-fit scheduler jitter (a few ms) averages out across pairs.
    scale = 1.0
    max_epochs = 20
    repeats = 5 if quick else 8
    graph = cora_like(seed=0, scale=scale)
    full_config = RDDConfig(
        num_base_models=2, max_epochs=max_epochs, patience=max_epochs, hidden=32
    )
    sampled_config = RDDConfig(
        num_base_models=2, max_epochs=max_epochs, patience=max_epochs, hidden=32,
        sampler="neighbor", fanouts=(10, 10), batch_size=512,
    )

    full = _paired_overhead(full_config, graph, repeats)
    sampled = _paired_overhead(sampled_config, graph, repeats)
    return {
        "graph": {"name": graph.name, "nodes": graph.num_nodes},
        "max_epochs": max_epochs,
        "num_base_models": full_config.num_base_models,
        "repeats": repeats,
        "events_per_run": full["events_per_run"],
        "disabled_s": full["disabled_s"],
        "enabled_s": full["enabled_s"],
        "overhead": full["overhead"],
        "sampled": sampled,
        "sampled_overhead": sampled["overhead"],
    }


def main() -> int:
    results = run_benchmark()
    OUTPUT_PATH.write_text(json.dumps(results, indent=2) + "\n")
    print(json.dumps(results, indent=2))
    print(f"\nresults written to {OUTPUT_PATH}")
    return 0


# ----------------------------------------------------------------------
# pytest entry (perf-marked; excluded from tier-1)
# ----------------------------------------------------------------------
@pytest.mark.perf
def test_obs_overhead_within_budget():
    results = run_benchmark(quick=True)
    assert results["overhead"] <= OVERHEAD_LIMIT, (
        f"observability overhead {results['overhead']:.3f}x exceeds the "
        f"{OVERHEAD_LIMIT:.2f}x budget (enabled {results['enabled_s']:.2f}s "
        f"vs disabled {results['disabled_s']:.2f}s)"
    )
    assert results["sampled_overhead"] <= OVERHEAD_LIMIT, (
        f"sampled-path observability overhead {results['sampled_overhead']:.3f}x "
        f"exceeds the {OVERHEAD_LIMIT:.2f}x budget"
    )


if __name__ == "__main__":
    raise SystemExit(main())
