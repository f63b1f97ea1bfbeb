"""Self-test: the benchmark's checks count wrong answers and short fits as failures.

    PYTHONPATH=src python3 perfbench/selftest.py

Runs a small real harness fit whose early stopping ends students before
their epoch budget, poisons one student's logits with NaN, and feeds the
serving verifier doctored replies (wrong labels, a 500, a transport
error) next to correct ones.  Exits 1 if any of them is not counted, or
if the metrics the code emits differ from those BENCHMARK.json lists.
"""

import json
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

from checks import check_training
from serve import features_of, verify


def training_cases():
    from repro.evaluation import common

    config = common.HarnessConfig(scale=0.2, seeds=(0,), num_base_models=2, max_epochs=30)
    graphs = common.load_graphs(config, "cora")
    full = common.run_over_seeds(common.run_rdd, graphs, common.HarnessConfig(
        scale=0.2, seeds=(0,), num_base_models=2, max_epochs=30, patience=30))
    yield "full-budget fit", check_training(full, 1, 2, 30), 0

    config.patience = 1  # early stopping cuts students short of the budget
    short = common.run_over_seeds(common.run_rdd, graphs, config)
    cut = sum(fit.epochs_run < 30 for fit in short[0].base_results)
    yield "shortened fit", check_training(short, 1, 2, 30), cut

    full[0].base_results[1].predictions[0, 0] = np.nan
    yield "non-finite logits", check_training(full, 1, 2, 30), 1
    yield "harness raised", check_training(None, 1, 2, 30), 2


def serving_cases(workdir):
    from repro.datasets import load_dataset
    from repro.serving.engine import PredictionEngine

    artifact = Path(workdir) / "model.rddart"
    subprocess.run(
        [sys.executable, "-m", "repro", "export", "--dataset", "cora", "--scale", "0.2",
         "--max-epochs", "5", "--out", str(artifact)],
        check=True, stdout=subprocess.DEVNULL,
    )
    graph = load_dataset("cora", seed=0, scale=0.2)
    engine = PredictionEngine(artifact, graph)
    nodes = [0, 1, 2]
    labels = engine.predict_nodes(nodes).argmax(axis=1).tolist()
    wrong_labels = [(label + 1) % graph.num_classes for label in labels]
    node, neighbors = int(graph.test_index[0]), [1, 2, 3]
    label = int(np.argmax(engine.predict_inductive(features_of(graph, node), neighbors)))

    def record(cls, status, reply, query):
        return (0, cls, 0.0, status, json.dumps(reply).encode(), query)

    good = [
        record("lookup", 200, {"labels": labels}, nodes),
        record("inductive", 200, {"label": label}, (node, neighbors)),
    ]
    bad = [
        record("lookup", 200, {"labels": wrong_labels}, nodes),
        record("inductive", 200, {"label": (label + 1) % graph.num_classes}, (node, neighbors)),
        record("lookup", 500, {"error": "boom"}, nodes),
        (0, "lookup", 0.0, None, b"", nodes),  # transport error
    ]
    yield "correct served answers", verify(good, artifact, graph)[0], 0
    yield "wrong served answers", verify(good + bad, artifact, graph)[0], len(bad)


def contract_cases():
    """The metric names and units the code emits are BENCHMARK.json's."""
    from layers import PER_LAYER
    from run import END_TO_END

    with open(Path(__file__).resolve().parent.parent / "BENCHMARK.json") as handle:
        bench = json.load(handle)
    for key, emitted in (("end_to_end", END_TO_END), ("per_layer", PER_LAYER)):
        listed = [(metric["name"], metric["unit"]) for metric in bench[key]]
        yield f"{key} metrics match BENCHMARK.json", int(listed != emitted), 0


def main():
    with tempfile.TemporaryDirectory(dir=Path(__file__).resolve().parent.parent) as workdir:
        cases = list(contract_cases()) + list(training_cases()) + list(serving_cases(workdir))
    ok = True
    for name, counted, expected in cases:
        passed = counted == expected
        ok &= passed
        verdict = "ok  " if passed else "FAIL"
        print(f"{verdict} {name}: {counted} failures counted, expected {expected}")
    shortened = next(expected for name, _, expected in cases if name == "shortened fit")
    if shortened == 0:
        print("FAIL shortened fit: early stopping did not cut any student short")
        ok = False
    print("self-test passed" if ok else "self-test FAILED")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
