#!/usr/bin/env python
"""Guard against performance regressions in the committed benchmarks.

Six benches are guarded, each against its committed baseline JSON:

* **trainstep** (``BENCH_trainstep.json``) — fused-kernel vs legacy-tape
  train-step speedups;
* **serving** (``BENCH_serving.json``) — micro-batched vs unbatched
  prediction throughput at concurrency 8, and the overload/shedding
  sanity run;
* **obs** (``BENCH_obs.json``) — training-time overhead of the enabled
  observability layer (event log + per-epoch RDD diagnostics), for both
  the full-batch and the neighbor-sampled training loop;
* **sampling** (``BENCH_sampling.json``) — vectorized CSR sampler
  speedup over the per-node loop, and the sampled-vs-full-batch peak
  RSS ratio at 10x graph scale;
* **streaming** (``BENCH_streaming.json``) — k-hop invalidation
  (apply-delta + closure refresh) speedup over a from-scratch Â
  normalize + full-table rebuild at small delta rates;
* **robustness** (``BENCH_robustness.json``) — the defense margin:
  RDD's accuracy-under-attack minus plain GCN's and minus
  reliability-free distillation's on the same dice-poisoned graphs.

Absolute times are machine-dependent, so only the *ratios* are compared:
a fresh speedup may drift down to ``TOLERANCE`` (default 0.75) times the
committed value before the check fails.  Each bench also keeps an
absolute acceptance bound regardless of the baseline: 1.5x for the
trainstep headline (deep taped regime), 2.0x for the serving
batched/unbatched ratio (with a shed-engaged, bounded-tail overload
gate), at most 1.05x enabled-vs-disabled wall time
for obs, for sampling at least 5x sampler speedup with the sampled
peak RSS at most half of full-batch, and for streaming at least 5x
incremental-over-full refresh speedup.  The robustness margins are
accuracy *differences* near zero, so (like obs) they are absolute-only:
RDD must beat GCN by the committed floor and must not trail
reliability-free distillation.

Usage::

    python scripts/check_bench.py                    # all benches
    python scripts/check_bench.py --bench serving    # one bench
    python scripts/check_bench.py --quick            # fewer timing repeats
    pytest scripts/check_bench.py -m perf            # same checks under pytest

Exit status is non-zero when any workload regresses.  After an
intentional performance change, refresh the baseline with
``python scripts/bench.py NAME`` (for example
``python scripts/bench.py serving``) and commit the new JSON.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Dict, List

REPO_ROOT = Path(__file__).resolve().parents[1]
for entry in (str(REPO_ROOT / "src"), str(REPO_ROOT)):
    if entry not in sys.path:
        sys.path.insert(0, entry)

import pytest  # noqa: E402

BASELINE_PATH = REPO_ROOT / "BENCH_trainstep.json"
SERVING_BASELINE_PATH = REPO_ROOT / "BENCH_serving.json"
OBS_BASELINE_PATH = REPO_ROOT / "BENCH_obs.json"
SAMPLING_BASELINE_PATH = REPO_ROOT / "BENCH_sampling.json"
STREAMING_BASELINE_PATH = REPO_ROOT / "BENCH_streaming.json"
ROBUSTNESS_BASELINE_PATH = REPO_ROOT / "BENCH_robustness.json"

# A fresh speedup may drop to this fraction of the committed one before
# the check fails — wide enough for cross-machine and scheduler noise,
# tight enough to catch a real regression (e.g. the fused path silently
# falling back to the legacy tape).
TOLERANCE = 0.75

# The deep taped regime must keep the acceptance-floor speedup outright.
HEADLINE_FLOOR = 1.5

# Micro-batched serving must stay at least this much faster than
# unbatched at the benchmark's concurrency, no matter the baseline.
SERVING_FLOOR = 2.0

# Overload sanity: accepted requests must keep a bounded tail while the
# excess sheds.  The bound is deliberately loose (the admission queue of
# 64 implies ~tens of ms of queueing at the measured rates); it exists
# to catch collapse, not to measure.
SHED_P99_LIMIT_MS = 1000.0


def load_baseline(path: Path = BASELINE_PATH) -> Dict[str, object]:
    if not path.exists():
        raise FileNotFoundError(
            f"no committed baseline at {path}; run scripts/bench.py trainstep first"
        )
    return json.loads(path.read_text())


def compare(fresh: Dict[str, object], baseline: Dict[str, object], tolerance: float = TOLERANCE) -> List[str]:
    """Regression messages (empty when the fresh run holds the baseline)."""
    failures = []
    for name, base in baseline["workloads"].items():
        current = fresh["workloads"].get(name)
        if current is None:
            failures.append(f"{name}: workload missing from fresh benchmark run")
            continue
        floor = base["speedup"] * tolerance
        if current["speedup"] < floor:
            failures.append(
                f"{name}: speedup {current['speedup']:.2f}x fell below "
                f"{floor:.2f}x ({tolerance:.0%} of committed {base['speedup']:.2f}x)"
            )
    headline = fresh.get("trainstep_speedup", 0.0)
    if headline < HEADLINE_FLOOR:
        failures.append(
            f"headline: deep taped regime {headline:.2f}x is below the "
            f"{HEADLINE_FLOOR:.1f}x acceptance floor"
        )
    return failures


def run_check(quick: bool = False, tolerance: float = TOLERANCE) -> List[str]:
    from benchmarks.bench_trainstep import run_benchmark

    baseline = load_baseline()
    fresh = run_benchmark(quick=quick)
    for name, workload in fresh["workloads"].items():
        base = baseline["workloads"].get(name, {})
        print(
            f"{name:11s} fresh {workload['speedup']:5.2f}x  "
            f"committed {base.get('speedup', float('nan')):5.2f}x"
        )
    return compare(fresh, baseline, tolerance=tolerance)


# ----------------------------------------------------------------------
# Serving bench (BENCH_serving.json)
# ----------------------------------------------------------------------
def load_serving_baseline(path: Path = SERVING_BASELINE_PATH) -> Dict[str, object]:
    if not path.exists():
        raise FileNotFoundError(
            f"no committed baseline at {path}; run scripts/bench.py serving first"
        )
    return json.loads(path.read_text())


def compare_serving(
    fresh: Dict[str, object], baseline: Dict[str, object], tolerance: float = TOLERANCE
) -> List[str]:
    """Regression messages for the serving bench (empty when it holds).

    Two families of gate: the batched/unbatched speedup (relative band
    + absolute floor), and the overload sanity gate — the bench's
    saturation run must have actually shed (the admission bound
    engaged), still accepted traffic, and kept the accepted p99
    bounded.
    """
    failures = []
    floor = baseline["batched_speedup"] * tolerance
    speedup = fresh["batched_speedup"]
    if speedup < floor:
        failures.append(
            f"serving: batched speedup {speedup:.2f}x fell below {floor:.2f}x "
            f"({tolerance:.0%} of committed {baseline['batched_speedup']:.2f}x)"
        )
    if speedup < SERVING_FLOOR:
        failures.append(
            f"serving: batched speedup {speedup:.2f}x is below the "
            f"{SERVING_FLOOR:.1f}x acceptance floor"
        )

    overload = fresh.get("overload")
    if not overload:
        failures.append("serving: overload section missing from fresh benchmark run")
    else:
        if overload.get("shed", 0) <= 0:
            failures.append(
                "serving: overload run shed nothing — the admission bound "
                "never engaged (unbounded-queue regression?)"
            )
        if overload.get("accepted", 0) <= 0:
            failures.append("serving: overload run accepted no requests")
        p99 = overload.get("accepted_p99_ms", 0.0)
        if p99 > SHED_P99_LIMIT_MS:
            failures.append(
                f"serving: accepted p99 under overload is {p99:.0f} ms "
                f"(bound {SHED_P99_LIMIT_MS:.0f} ms) — shedding is not "
                f"protecting the admitted tail"
            )
    return failures


def run_check_serving(quick: bool = False, tolerance: float = TOLERANCE) -> List[str]:
    from benchmarks.bench_serving import run_benchmark as run_serving_benchmark

    baseline = load_serving_baseline()
    fresh = run_serving_benchmark(quick=quick)
    overload = fresh.get("overload", {})
    print(
        f"{'serving':11s} fresh {fresh['batched_speedup']:5.2f}x  "
        f"committed {baseline['batched_speedup']:5.2f}x  "
        f"(batched {fresh['batched']['rps']:.0f} rps, "
        f"unbatched {fresh['unbatched']['rps']:.0f} rps)"
    )
    print(
        f"{'overload':11s} shed {overload.get('shed', 0)} of {overload.get('submitted', 0)}, "
        f"accepted p99 {overload.get('accepted_p99_ms', 0.0):.0f} ms"
    )
    return compare_serving(fresh, baseline, tolerance=tolerance)


# ----------------------------------------------------------------------
# Observability overhead (BENCH_obs.json)
# ----------------------------------------------------------------------
def load_obs_baseline(path: Path = OBS_BASELINE_PATH) -> Dict[str, object]:
    if not path.exists():
        raise FileNotFoundError(
            f"no committed baseline at {path}; run scripts/bench.py obs first"
        )
    return json.loads(path.read_text())


def compare_obs(fresh: Dict[str, object], limit: float | None = None) -> List[str]:
    """Regression messages for the obs bench (empty when it holds).

    Unlike the speedup benches, the obs metric is an overhead *ratio
    near 1.0*, so a relative band against the committed value would be
    all noise; only the absolute budget is enforced.
    """
    from benchmarks.bench_obs import OVERHEAD_LIMIT

    limit = OVERHEAD_LIMIT if limit is None else limit
    failures = []
    overhead = fresh["overhead"]
    if overhead > limit:
        failures.append(
            f"obs: enabled-mode overhead {overhead:.3f}x exceeds the "
            f"{limit:.2f}x budget (enabled {fresh['enabled_s']:.2f}s vs "
            f"disabled {fresh['disabled_s']:.2f}s)"
        )
    sampled = fresh.get("sampled_overhead")
    if sampled is not None and sampled > limit:
        failures.append(
            f"obs: sampled-path overhead {sampled:.3f}x exceeds the "
            f"{limit:.2f}x budget (one sampler:batch span per optimizer step)"
        )
    return failures


def run_check_obs(quick: bool = False) -> List[str]:
    from benchmarks.bench_obs import run_benchmark as run_obs_benchmark

    baseline = load_obs_baseline()
    # The overhead budget sits a few percent above 1.0, within scheduler
    # noise on a loaded single-core box, so a one-sided timing blip can
    # trip it.  Retry once on failure: genuine regressions (tracing cost
    # actually grew) fail both measurements.
    failures: List[str] = []
    for attempt in range(2):
        fresh = run_obs_benchmark(quick=quick)
        print(
            f"{'obs':11s} fresh {fresh['overhead']:5.3f}x  "
            f"committed {baseline['overhead']:5.3f}x  "
            f"(enabled {fresh['enabled_s']:.2f}s, disabled {fresh['disabled_s']:.2f}s, "
            f"sampled {fresh['sampled_overhead']:5.3f}x)"
        )
        failures = compare_obs(fresh)
        if not failures:
            break
        if attempt == 0:
            print("obs         overhead over budget; retrying once (timing noise)")
    return failures


# ----------------------------------------------------------------------
# Neighbor sampling (BENCH_sampling.json)
# ----------------------------------------------------------------------
def load_sampling_baseline(path: Path = SAMPLING_BASELINE_PATH) -> Dict[str, object]:
    if not path.exists():
        raise FileNotFoundError(
            f"no committed baseline at {path}; run scripts/bench.py sampling first"
        )
    return json.loads(path.read_text())


def compare_sampling(
    fresh: Dict[str, object], baseline: Dict[str, object], tolerance: float = TOLERANCE
) -> List[str]:
    """Regression messages for the sampling bench (empty when it holds).

    The sampler speedup is checked both against the relative band (like
    the other speedup benches) and the absolute acceptance floor; the
    peak-RSS ratio is absolute-only — it is already a same-machine
    ratio, so a relative band on top would only compound noise.
    """
    from benchmarks.bench_sampling import MEMORY_RATIO_LIMIT, SAMPLER_FLOOR

    failures = []
    speedup = fresh["sampler_speedup"]
    floor = baseline["sampler_speedup"] * tolerance
    if speedup < floor:
        failures.append(
            f"sampling: sampler speedup {speedup:.2f}x fell below {floor:.2f}x "
            f"({tolerance:.0%} of committed {baseline['sampler_speedup']:.2f}x)"
        )
    if speedup < SAMPLER_FLOOR:
        failures.append(
            f"sampling: sampler speedup {speedup:.2f}x is below the "
            f"{SAMPLER_FLOOR:.1f}x acceptance floor"
        )
    ratio = fresh["gcn_peak_ratio_10x"]
    if ratio > MEMORY_RATIO_LIMIT:
        failures.append(
            f"sampling: sampled peak RSS is {ratio:.2f}x of full-batch at 10x "
            f"scale (budget {MEMORY_RATIO_LIMIT:.2f}x)"
        )
    return failures


def run_check_sampling(quick: bool = False, tolerance: float = TOLERANCE) -> List[str]:
    from benchmarks.bench_sampling import run_benchmark as run_sampling_benchmark

    baseline = load_sampling_baseline()
    fresh = run_sampling_benchmark(quick=quick)
    print(
        f"{'sampling':11s} fresh {fresh['sampler_speedup']:5.2f}x  "
        f"committed {baseline['sampler_speedup']:5.2f}x  "
        f"(peak RSS ratio {fresh['gcn_peak_ratio_10x']:.2f}, "
        f"committed {baseline['gcn_peak_ratio_10x']:.2f})"
    )
    return compare_sampling(fresh, baseline, tolerance=tolerance)


# ----------------------------------------------------------------------
# Streaming deltas (BENCH_streaming.json)
# ----------------------------------------------------------------------
def load_streaming_baseline(path: Path = STREAMING_BASELINE_PATH) -> Dict[str, object]:
    if not path.exists():
        raise FileNotFoundError(
            f"no committed baseline at {path}; run scripts/bench.py streaming first"
        )
    return json.loads(path.read_text())


def compare_streaming(
    fresh: Dict[str, object], baseline: Dict[str, object], tolerance: float = TOLERANCE
) -> List[str]:
    """Regression messages for the streaming bench (empty when it holds).

    Only the invalidation speedup is gated (relative band + absolute
    floor).  The freshness scenario's latencies are load-dependent
    wall-clock numbers — recorded in the JSON for inspection, not
    checked here.
    """
    from benchmarks.bench_streaming import SPEEDUP_FLOOR

    failures = []
    speedup = fresh["invalidation_speedup"]
    floor = baseline["invalidation_speedup"] * tolerance
    if speedup < floor:
        failures.append(
            f"streaming: invalidation speedup {speedup:.2f}x fell below {floor:.2f}x "
            f"({tolerance:.0%} of committed {baseline['invalidation_speedup']:.2f}x)"
        )
    if speedup < SPEEDUP_FLOOR:
        failures.append(
            f"streaming: invalidation speedup {speedup:.2f}x is below the "
            f"{SPEEDUP_FLOOR:.1f}x acceptance floor"
        )
    return failures


def run_check_streaming(quick: bool = False, tolerance: float = TOLERANCE) -> List[str]:
    from benchmarks.bench_streaming import invalidation_speedup

    baseline = load_streaming_baseline()
    invalidation = invalidation_speedup(quick=quick)
    fresh = {"invalidation_speedup": invalidation["speedup"]}
    print(
        f"{'streaming':11s} fresh {invalidation['speedup']:5.2f}x  "
        f"committed {baseline['invalidation_speedup']:5.2f}x  "
        f"(mean closure {invalidation['mean_rows_refreshed']:.0f} of "
        f"{invalidation['nodes']} rows)"
    )
    return compare_streaming(fresh, baseline, tolerance=tolerance)


# ----------------------------------------------------------------------
# Robustness defense margin (BENCH_robustness.json)
# ----------------------------------------------------------------------
def load_robustness_baseline(path: Path = ROBUSTNESS_BASELINE_PATH) -> Dict[str, object]:
    if not path.exists():
        raise FileNotFoundError(
            f"no committed baseline at {path}; run scripts/bench.py robustness first"
        )
    return json.loads(path.read_text())


def compare_robustness(fresh: Dict[str, object]) -> List[str]:
    """Regression messages for the robustness bench (empty when it holds).

    The gated quantities are accuracy *margins* near zero (rdd - gcn and
    rdd - kd on the same poisoned graphs), so — as with the obs overhead
    ratio — a relative band against the committed value would be all
    noise; only the absolute floors are enforced.  Attack-generation
    throughput is recorded in the JSON for inspection, not checked.
    """
    from benchmarks.bench_robustness import GCN_MARGIN_FLOOR, KD_MARGIN_FLOOR

    failures = []
    vs_gcn = fresh["defense_margin_vs_gcn"]
    if vs_gcn < GCN_MARGIN_FLOOR:
        failures.append(
            f"robustness: rdd beat gcn under attack by only {vs_gcn:+.3f} "
            f"(needs >= {GCN_MARGIN_FLOOR:+.3f})"
        )
    vs_kd = fresh["defense_margin_vs_kd"]
    if vs_kd < KD_MARGIN_FLOOR:
        failures.append(
            f"robustness: rdd trailed reliability-free distillation under "
            f"attack by {vs_kd:+.3f} (needs >= {KD_MARGIN_FLOOR:+.3f})"
        )
    return failures


def run_check_robustness(quick: bool = False) -> List[str]:
    from benchmarks.bench_robustness import defense_sweep

    baseline = load_robustness_baseline()
    defense = defense_sweep(quick=quick)
    fresh = {
        "defense_margin_vs_gcn": defense["margin_vs_gcn"],
        "defense_margin_vs_kd": defense["margin_vs_kd"],
    }
    print(
        f"{'robustness':11s} fresh vs gcn {defense['margin_vs_gcn']:+.3f}  "
        f"vs kd {defense['margin_vs_kd']:+.3f}  "
        f"committed {baseline['defense_margin_vs_gcn']:+.3f}/"
        f"{baseline['defense_margin_vs_kd']:+.3f}  "
        f"({defense['attack']}@{defense['attack_budget']:g})"
    )
    return compare_robustness(fresh)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--quick", action="store_true", help="fewer timing repeats")
    parser.add_argument(
        "--bench",
        choices=["trainstep", "serving", "obs", "sampling", "streaming", "robustness", "all"],
        default="all",
        help="which committed baseline(s) to check (default: all)",
    )
    parser.add_argument(
        "--tolerance",
        type=float,
        default=TOLERANCE,
        help="allowed fraction of the committed speedup (default %(default)s)",
    )
    args = parser.parse_args(argv)
    failures = []
    if args.bench in ("trainstep", "all"):
        failures += run_check(quick=args.quick, tolerance=args.tolerance)
    if args.bench in ("serving", "all"):
        failures += run_check_serving(quick=args.quick, tolerance=args.tolerance)
    if args.bench in ("obs", "all"):
        failures += run_check_obs(quick=args.quick)
    if args.bench in ("sampling", "all"):
        failures += run_check_sampling(quick=args.quick, tolerance=args.tolerance)
    if args.bench in ("streaming", "all"):
        failures += run_check_streaming(quick=args.quick, tolerance=args.tolerance)
    if args.bench in ("robustness", "all"):
        failures += run_check_robustness(quick=args.quick)
    if failures:
        for failure in failures:
            print(f"REGRESSION: {failure}", file=sys.stderr)
        return 1
    print("benchmark holds the committed baseline")
    return 0


# ----------------------------------------------------------------------
# pytest entries (perf-marked; excluded from the tier-1 run)
# ----------------------------------------------------------------------
@pytest.mark.perf
def test_bench_holds_committed_baseline():
    failures = run_check(quick=True)
    assert not failures, failures


@pytest.mark.perf
def test_serving_holds_committed_baseline():
    failures = run_check_serving(quick=True)
    assert not failures, failures


@pytest.mark.perf
def test_obs_overhead_holds_committed_budget():
    failures = run_check_obs(quick=True)
    assert not failures, failures


@pytest.mark.perf
def test_sampling_holds_committed_baseline():
    failures = run_check_sampling(quick=True)
    assert not failures, failures


@pytest.mark.perf
def test_streaming_holds_committed_baseline():
    failures = run_check_streaming(quick=True)
    assert not failures, failures


@pytest.mark.perf
def test_robustness_holds_committed_baseline():
    failures = run_check_robustness(quick=True)
    assert not failures, failures


def test_compare_robustness_flags_regressions():
    ok = {"defense_margin_vs_gcn": 0.10, "defense_margin_vs_kd": 0.03}
    assert compare_robustness(ok) == []
    weak = compare_robustness(
        {"defense_margin_vs_gcn": 0.005, "defense_margin_vs_kd": 0.03}
    )
    assert len(weak) == 1 and "beat gcn" in weak[0]
    losing = compare_robustness(
        {"defense_margin_vs_gcn": 0.10, "defense_margin_vs_kd": -0.02}
    )
    assert len(losing) == 1 and "reliability-free" in losing[0]


def test_compare_streaming_flags_regressions():
    baseline = {"invalidation_speedup": 8.0}
    assert compare_streaming({"invalidation_speedup": 7.0}, baseline) == []
    band = compare_streaming({"invalidation_speedup": 5.5}, baseline)
    assert len(band) == 1 and "75%" in band[0]
    floor = compare_streaming({"invalidation_speedup": 3.0}, baseline)
    assert len(floor) == 2 and any("acceptance floor" in m for m in floor)


def test_compare_sampling_flags_regressions():
    baseline = {"sampler_speedup": 11.0, "gcn_peak_ratio_10x": 0.3}
    ok = {"sampler_speedup": 10.0, "gcn_peak_ratio_10x": 0.32}
    assert compare_sampling(ok, baseline) == []
    band = compare_sampling(
        {"sampler_speedup": 7.0, "gcn_peak_ratio_10x": 0.3}, baseline
    )
    assert len(band) == 1 and "75%" in band[0]
    floor = compare_sampling(
        {"sampler_speedup": 3.0, "gcn_peak_ratio_10x": 0.3}, baseline
    )
    assert len(floor) == 2 and any("acceptance floor" in m for m in floor)
    memory = compare_sampling(
        {"sampler_speedup": 11.0, "gcn_peak_ratio_10x": 0.7}, baseline
    )
    assert len(memory) == 1 and "peak RSS" in memory[0]


def test_compare_obs_flags_overrun():
    within = {"overhead": 1.02, "enabled_s": 1.02, "disabled_s": 1.0, "sampled_overhead": 1.01}
    assert compare_obs(within) == []
    over = {"overhead": 1.2, "enabled_s": 1.2, "disabled_s": 1.0}
    messages = compare_obs(over)
    assert len(messages) == 1 and "budget" in messages[0]
    sampled_over = {
        "overhead": 1.0, "enabled_s": 1.0, "disabled_s": 1.0, "sampled_overhead": 1.2
    }
    messages = compare_obs(sampled_over)
    assert len(messages) == 1 and "sampled-path" in messages[0]


def test_compare_serving_flags_regressions():
    baseline = {"batched_speedup": 6.0}
    good_overload = {"shed": 100, "accepted": 50, "accepted_p99_ms": 80.0}
    ok = {"batched_speedup": 5.0, "overload": dict(good_overload)}
    assert compare_serving(ok, baseline) == []
    band = compare_serving({**ok, "batched_speedup": 4.0}, baseline)
    assert len(band) == 1 and "75%" in band[0]
    floor = compare_serving({**ok, "batched_speedup": 1.5}, baseline)
    assert len(floor) == 2 and any("acceptance floor" in m for m in floor)
    never_shed = compare_serving(
        {**ok, "overload": {**good_overload, "shed": 0}}, baseline
    )
    assert len(never_shed) == 1 and "shed nothing" in never_shed[0]
    slow_tail = compare_serving(
        {**ok, "overload": {**good_overload, "accepted_p99_ms": 5000.0}}, baseline
    )
    assert len(slow_tail) == 1 and "p99" in slow_tail[0]
    no_overload = compare_serving({k: v for k, v in ok.items() if k != "overload"}, baseline)
    assert len(no_overload) == 1 and "overload section missing" in no_overload[0]


def test_compare_flags_regressions():
    baseline = {"workloads": {"gcn": {"speedup": 1.6}}, "trainstep_speedup": 1.6}
    fresh_ok = {"workloads": {"gcn": {"speedup": 1.5}}, "trainstep_speedup": 1.5}
    assert compare(fresh_ok, baseline) == []
    fresh_slow = {"workloads": {"gcn": {"speedup": 1.0}}, "trainstep_speedup": 1.0}
    messages = compare(fresh_slow, baseline)
    assert len(messages) == 2  # band violation + headline floor
    fresh_missing = {"workloads": {}, "trainstep_speedup": 1.6}
    assert any("missing" in m for m in compare(fresh_missing, baseline))


if __name__ == "__main__":
    raise SystemExit(main())
