"""``repro serve`` with the serving layers wrapped by the benchmark's tracer.

    python3 perfbench/traced_server.py SPANS.json --artifact model.rddart --port 0

Installs the wrappers from :func:`layers.install_serving`, then runs
``repro.cli.main(["serve", ...])`` unchanged.  On shutdown (SIGTERM or
SIGINT) the spans held in memory are written to ``SPANS.json``.
"""

import signal
import sys

from layers import install_serving
from tracer import Tracer


def main():
    spans_path, serve_args = sys.argv[1], sys.argv[2:]
    import repro.cli

    # SIGTERM stops the server the way Ctrl-C does, so the spans get written
    # (SIGINT may be ignored when the benchmark runs in the background).
    signal.signal(signal.SIGTERM, signal.default_int_handler)
    tracer = Tracer()
    install_serving(tracer)
    try:
        return repro.cli.main(["serve", *serve_args])
    finally:
        tracer.dump(spans_path)


if __name__ == "__main__":
    sys.exit(main())
