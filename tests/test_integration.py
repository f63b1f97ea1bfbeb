"""Cross-module integration and failure-injection tests."""

import importlib.util
from pathlib import Path

import numpy as np
import pytest

from repro.core import RDDConfig, RDDTrainer, node_reliability, train_rdd
from repro.datasets import cora_like
from repro.models import SGC, GAT, GCN
from repro.models.base import softmax_rows
from repro.training import Trainer, make_rng

REPO_ROOT = Path(__file__).resolve().parents[1]


class TestRDDWithAlternativeBases:
    """RDD 'is not limited to the architecture of the base model' (§5.3)."""

    def test_rdd_over_sgc_students(self, tiny_graph):
        trainer = RDDTrainer(
            RDDConfig(num_base_models=2, max_epochs=30, hidden=8),
            model_factory=lambda g, rng: SGC(g.num_features, g.num_classes, rng),
        )
        result = trainer.fit(tiny_graph, seed=0)
        assert result.ensemble_test_accuracy > 0.5

    def test_rdd_over_gat_students(self, tiny_graph):
        trainer = RDDTrainer(
            RDDConfig(num_base_models=2, max_epochs=30),
            model_factory=lambda g, rng: GAT(g.num_features, g.num_classes, rng, hidden=4, num_heads=2),
        )
        result = trainer.fit(tiny_graph, seed=0)
        assert 0.0 <= result.ensemble_test_accuracy <= 1.0


class TestFailureInjection:
    """The reliability machinery under corrupted inputs."""

    def test_feature_noise_shrinks_reliable_set(self):
        def reliable_fraction(noise):
            graph = cora_like(seed=0, scale=0.1, feature_noise=noise)
            model = GCN(graph.num_features, graph.num_classes, make_rng(0), hidden=8)
            Trainer(max_epochs=60).fit(model, graph)
            probs = softmax_rows(model.predict_logits(graph))
            other = GCN(graph.num_features, graph.num_classes, make_rng(1), hidden=8)
            Trainer(max_epochs=60).fit(other, graph)
            other_probs = softmax_rows(other.predict_logits(graph))
            sets = node_reliability(probs, other_probs, graph.labels, graph.train_index, p=40.0)
            return sets.num_reliable / graph.num_nodes

        clean = reliable_fraction(0.0)
        noisy = reliable_fraction(0.6)
        # Heavy feature noise → more teacher/student disagreement → fewer
        # reliable nodes.  Allow equality slack for small graphs.
        assert noisy <= clean + 0.05

    def test_rdd_survives_extreme_noise_without_crashing(self):
        graph = cora_like(seed=1, scale=0.1, feature_noise=0.9)
        result = train_rdd(graph, RDDConfig(num_base_models=2, max_epochs=25, hidden=8), seed=0)
        assert np.isfinite(result.ensemble_test_accuracy)

    def test_rdd_handles_all_reliability_disabled_and_zero_losses(self, tiny_graph):
        config = RDDConfig(
            num_base_models=2, max_epochs=20, hidden=8,
            use_l2=False, use_lreg=False,
            use_node_reliability=False, use_edge_reliability=False,
            use_ensemble_weighting=False,
        )
        result = train_rdd(tiny_graph, config, seed=0)  # degenerates to Bagging
        assert 0.0 <= result.ensemble_test_accuracy <= 1.0

    def test_reliability_with_extreme_percentiles(self, tiny_graph):
        for p in (0.0, 100.0):
            result = train_rdd(
                tiny_graph, RDDConfig(num_base_models=2, max_epochs=20, hidden=8, p=p), seed=0
            )
            assert np.isfinite(result.ensemble_test_accuracy)


def load_example(name: str):
    """Import ``examples/<name>`` as a module (its ``main()`` stays guarded)."""
    spec = importlib.util.spec_from_file_location(
        Path(name).stem + "_example", REPO_ROOT / "examples" / name
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class TestExamplesCompile:
    """Every example script must import: a reference to a removed or
    renamed API fails here, not only on a user's first run."""

    @pytest.mark.parametrize(
        "name", sorted(path.name for path in (REPO_ROOT / "examples").glob("*.py"))
    )
    def test_example_compiles(self, name):
        assert callable(load_example(name).main)

    def test_custom_dataset_example_runs(self):
        # The cheapest full example: import and execute its main path.
        module = load_example("custom_dataset.py")
        graph = module.build_collaboration_network(seed=1)
        assert graph.num_nodes == 300
        assert graph.num_classes == 3


class TestEndToEndPipelines:
    def test_cli_style_flow_table6(self, capsys):
        from repro.cli import main

        code = main([
            "run", "table6",
            "--scale", "0.1", "--seeds", "0", "--base-models", "2",
            "--max-epochs", "15", "--hidden", "8",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "Bagging" in out and "RDD(Ensemble)" in out

    def test_checkpointed_model_reproduces_rdd_teacher_inputs(self, tiny_graph, tmp_path):
        from repro.io import load_checkpoint, save_checkpoint

        model = GCN(tiny_graph.num_features, tiny_graph.num_classes, make_rng(0), hidden=8)
        Trainer(max_epochs=30).fit(model, tiny_graph)
        save_checkpoint(model, tmp_path / "teacher.npz")

        restored = GCN(tiny_graph.num_features, tiny_graph.num_classes, make_rng(9), hidden=8)
        load_checkpoint(restored, tmp_path / "teacher.npz")
        np.testing.assert_allclose(
            softmax_rows(model.predict_logits(tiny_graph)),
            softmax_rows(restored.predict_logits(tiny_graph)),
        )
