"""The repository benchmark: one command per workload, run from the repo root.

    python3 perfbench/run.py --workload train_full --seed 0 --seconds 32 --trace 0

Workloads (why each was chosen: see BENCHMARK.json and perfbench/README.md):

* ``train_full``    harness RDD fit, full-batch, cora-like (train.py)
* ``train_sampled`` harness RDD fit, neighbor-sampled, pubmed-like (train.py)
* ``serve_mixed``   ``repro serve`` under a keep-alive closed loop (serve.py)

The workload runs in a child process so that set-up is timed from process
start.  Set-up runs ``SETUPS`` times per invocation (extra set-up-only
children) and ``setup_s`` is the median.  Human-readable lines with every
end-to-end metric of the workload come first; the last line of standard
output is the JSON result: with ``--trace 0`` the end-to-end metrics of
BENCHMARK.json, with ``--trace 1`` the per-layer metrics of a traced run.

Exits non-zero without a result when the repository's sources are not
next to the benchmark, or when a workload process fails.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUPS = 3
CHILD_TIMEOUT_S = 170.0

SCRIPTS = {"train_full": "train.py", "train_sampled": "train.py", "serve_mixed": "serve.py"}

# (name, unit) of the end-to-end metrics every workload reports.
END_TO_END = [
    ("setup_s", "s"),
    ("throughput", "1/s"),
    ("peak_rss_mb", "MB"),
    ("accuracy", "share"),
]

# Ungated metrics printed per workload: (name, unit, source key).
TRAIN_REPORT = [
    ("fit_s", "s", "fit_s"),
    ("test_acc", "share", "test_acc"),
    ("rdd_gain", "share", "rdd_gain"),
]
SERVE_REPORT = [
    ("rps", "1/s", "rps"),
    ("lookup_p50_ms", "ms", "lookup_p50_ms"),
    ("lookup_p99_ms", "ms", "lookup_p99_ms"),
    ("inductive_p50_ms", "ms", "inductive_p50_ms"),
    ("inductive_p90_ms", "ms", "inductive_p90_ms"),
]


def run_child(script, args, out, deadline, env, setup_only=False):
    """Run one workload process; returns (its result, seconds from spawn to ready)."""
    command = [
        sys.executable, str(HERE / script),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace), "--out", str(out),
    ]
    if setup_only:
        command.append("--setup-only")
    spawned = time.monotonic()
    # Own process group, so that a timeout also stops the servers it started.
    child = subprocess.Popen(command, env=env, cwd=ROOT, stdout=sys.stderr,
                             start_new_session=True)
    try:
        code = child.wait(timeout=max(deadline - spawned, 1.0))
    finally:
        if child.poll() is None:
            os.killpg(child.pid, signal.SIGKILL)
            child.wait()
    if code != 0:
        raise RuntimeError(f"{script} exited with code {code}")
    with open(out) as handle:
        result = json.load(handle)
    return result, result["ready"] - spawned


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(SCRIPTS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no repro sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    deadline = time.monotonic() + CHILD_TIMEOUT_S
    workdir = ROOT / ".perfbench" / f"run-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    script = SCRIPTS[args.workload]
    try:
        setups = [
            run_child(script, args, workdir / f"setup-{i}.json", deadline, env, setup_only=True)[1]
            for i in range(SETUPS - 1)
        ]
        result, setup = run_child(script, args, workdir / "result.json", deadline, env)
        setups.append(setup)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:
            pass

    e2e = dict(result["e2e"], setup_s=statistics.median(setups))
    details = result["details"]
    attempted, failed = result["attempted"], result["failed"]
    print(f"workload {args.workload} seed {args.seed}: "
          f"{attempted} operations attempted, {failed} failed")
    for name, unit in END_TO_END:
        print(f"  {name:<18} {e2e[name]!r:>24} {unit}")
    report = SERVE_REPORT if args.workload == "serve_mixed" else TRAIN_REPORT
    for name, unit, key in report:
        print(f"  {name:<18} {details[key]!r:>24} {unit}")
    print(f"  {'error_share':<18} {failed / max(attempted, 1)!r:>24} share")
    if args.workload == "serve_mixed":
        print(f"  samples: {details['lookups']} lookups, {details['inductive']} inductive")
    else:
        print(f"  samples: {details['fit_calls']} untraced harness calls")

    if args.trace:
        from layers import ACCOUNTING_TOLERANCE, PER_LAYER

        layer = result["per_layer"]
        share = layer["trace.accounted_share"]
        verdict = "within" if abs(share - 1.0) <= ACCOUNTING_TOLERANCE else "OUTSIDE"
        print(f"  per-layer self times sum to {share:.4f} x the untraced end-to-end time "
              f"({verdict} the {ACCOUNTING_TOLERANCE:.0%} tolerance)")
        metrics = {name: {"value": layer[name], "unit": unit} for name, unit in PER_LAYER}
    else:
        metrics = {name: {"value": e2e[name], "unit": unit} for name, unit in END_TO_END}
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
