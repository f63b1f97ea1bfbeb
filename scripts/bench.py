#!/usr/bin/env python
"""Run one committed benchmark and write its ``BENCH_<name>.json`` at the
repo root.

Usage::

    python scripts/bench.py NAME

where ``NAME`` is one of the benches with a committed baseline: obs,
robustness, sampling, serving, streaming, trainstep.  ``NAME`` is
removed from ``sys.argv`` before ``benchmarks.bench_NAME.main``
runs, so a bench that reads its own arguments sees only the ones after
it.
"""

from __future__ import annotations

import importlib
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[1]
for entry in (str(REPO_ROOT / "src"), str(REPO_ROOT)):
    if entry not in sys.path:
        sys.path.insert(0, entry)

BENCHES = ("obs", "robustness", "sampling", "serving", "streaming", "trainstep")


def main() -> int:
    if len(sys.argv) < 2 or sys.argv[1] not in BENCHES:
        given = repr(sys.argv[1]) if len(sys.argv) > 1 else "nothing"
        print(f"usage: {sys.argv[0]} {{{','.join(BENCHES)}}} (got {given})", file=sys.stderr)
        return 2
    name = sys.argv.pop(1)
    return importlib.import_module(f"benchmarks.bench_{name}").main()


if __name__ == "__main__":
    sys.exit(main())
