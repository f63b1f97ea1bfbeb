"""The command line and result file every workload process shares with ``run.py``."""

import argparse
import json


def parse_args():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", required=True, help="result file (JSON)")
    parser.add_argument("--setup-only", action="store_true",
                        help="stop at the first timed operation")
    return parser.parse_args()


def write_result(path, payload):
    with open(path, "w") as handle:
        json.dump(payload, handle)
