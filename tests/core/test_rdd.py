"""End-to-end tests of the RDD trainer (Algorithm 3)."""

import numpy as np
import pytest

from repro.core import RDDConfig, RDDTrainer, train_rdd
from repro.errors import ConfigError, TrainingError
from repro.models import GAT, GCN
from repro.tensor import ops
from repro.tensor.functional import accuracy


def small_config(**overrides):
    defaults = dict(num_base_models=3, max_epochs=40, patience=15, hidden=8)
    defaults.update(overrides)
    return RDDConfig(**defaults)


class TestConfigValidation:
    def test_defaults_valid(self):
        RDDConfig()

    def test_bad_num_models(self):
        with pytest.raises(ConfigError):
            RDDConfig(num_base_models=0)

    def test_bad_p(self):
        with pytest.raises(ConfigError):
            RDDConfig(p=150.0)

    def test_bad_gamma(self):
        with pytest.raises(ConfigError):
            RDDConfig(gamma_initial=-1.0)

    def test_bad_beta(self):
        with pytest.raises(ConfigError):
            RDDConfig(beta=-0.5)

    def test_bad_distill_mode(self):
        with pytest.raises(ConfigError):
            RDDConfig(distill_mode="nope")

    @pytest.mark.parametrize(
        "overrides", [{"hidden": 0}, {"patience": 0}, {"dropout": 1.0}, {"dropout": -0.1}]
    )
    def test_bad_model_budget(self, overrides):
        with pytest.raises(ConfigError):
            RDDConfig(**overrides)

    def test_ablation_helpers(self):
        config = RDDConfig(use_l2=False, use_lreg=False, gamma_initial=2.0, beta=3.0)
        assert config.effective_gamma_initial() == 0.0
        assert config.effective_beta() == 0.0


class TestTraining:
    def test_produces_expected_result_structure(self, tiny_graph):
        result = train_rdd(tiny_graph, small_config(), seed=0)
        assert len(result.base_test_accuracies) == 3
        assert len(result.base_results) == 3
        assert len(result.ensemble_curve) == 3
        assert 0.0 <= result.ensemble_test_accuracy <= 1.0
        assert result.wall_time_s > 0

    def test_learns_two_block_task(self, tiny_graph):
        result = train_rdd(tiny_graph, small_config(max_epochs=80), seed=0)
        assert result.ensemble_test_accuracy >= 0.85

    def test_reliability_history_recorded(self, tiny_graph):
        result = train_rdd(tiny_graph, small_config(), seed=0)
        # One entry per distilled student (all but the first).
        assert len(result.reliability_history) == 2
        for entry in result.reliability_history:
            assert entry["num_distill"] <= entry["num_reliable"]
            assert entry["num_reliable_edges"] >= 0

    def test_deterministic_given_seed(self, tiny_graph):
        a = train_rdd(tiny_graph, small_config(), seed=7)
        b = train_rdd(tiny_graph, small_config(), seed=7)
        assert a.ensemble_test_accuracy == b.ensemble_test_accuracy
        assert a.base_test_accuracies == b.base_test_accuracies

    def test_different_seeds_differ(self, tiny_graph):
        a = train_rdd(tiny_graph, small_config(), seed=1)
        b = train_rdd(tiny_graph, small_config(), seed=2)
        assert a.base_test_accuracies != b.base_test_accuracies

    def test_single_base_model_is_plain_gcn(self, tiny_graph):
        result = train_rdd(tiny_graph, small_config(num_base_models=1), seed=0)
        assert len(result.base_test_accuracies) == 1
        assert result.ensemble_test_accuracy == pytest.approx(result.base_test_accuracies[0])

    def test_custom_model_factory(self, tiny_graph):
        def factory(graph, rng):
            return GAT(graph.num_features, graph.num_classes, rng, hidden=4, num_heads=2)

        trainer = RDDTrainer(small_config(num_base_models=2), model_factory=factory)
        result = trainer.fit(tiny_graph, seed=0)
        assert len(result.base_test_accuracies) == 2

    def test_diverged_student_raises_training_error(self, tiny_graph):
        with np.errstate(all="ignore"), pytest.raises(TrainingError, match="non-finite loss"):
            train_rdd(tiny_graph, small_config(num_base_models=2, lr=1e200), seed=0)

    @pytest.mark.parametrize("sampler", ["full", "neighbor"])
    def test_nan_gradient_student_raises_training_error(self, tiny_graph, monkeypatch, sampler):
        import repro.core.rdd as rdd_module

        # Poison both distillation objectives with a term that is exactly
        # 0 but has a NaN gradient (d(x ** 0.5)/dx at 0, times 0).
        for name in ("rdd_student_loss", "sampled_rdd_student_loss"):
            original = getattr(rdd_module, name)

            def poisoned(graph, logits, *args, _original=original):
                loss = _original(graph, logits, *args)
                return ops.add(loss, ops.sum(ops.power(ops.mul(logits, 0.0), 0.5)))

            monkeypatch.setattr(rdd_module, name, poisoned)
        config = small_config(
            num_base_models=2, sampler=sampler, fanouts=(3, 3), batch_size=10
        )
        with np.errstate(all="ignore"), pytest.raises(TrainingError, match="non-finite gradient"):
            train_rdd(tiny_graph, config, seed=0)

    def test_training_error_names_the_student(self, tiny_graph, monkeypatch):
        import repro.core.rdd as rdd_module

        original = rdd_module.rdd_student_loss

        def poisoned(graph, logits, *args):
            loss = original(graph, logits, *args)
            return ops.add(loss, ops.sum(ops.power(ops.mul(logits, 0.0), 0.5)))

        monkeypatch.setattr(rdd_module, "rdd_student_loss", poisoned)
        # Student 1 is the plain GCN; the first distilled student fails.
        with np.errstate(all="ignore"), pytest.raises(
            TrainingError, match=r"^student 2: non-finite gradient"
        ):
            train_rdd(tiny_graph, small_config(num_base_models=2), seed=0)

    def test_student_runs_two_forwards_per_epoch(self, tiny_graph):
        # One distilled student, 12 epochs without early stopping: the
        # refresh reuses the validation forward, so 2 per epoch plus the
        # epoch-0 bootstrap and the best-checkpoint restore = 26.
        counts = []

        class CountingGCN(GCN):
            def forward(self, graph):
                counts[-1] += 1
                return super().forward(graph)

        def factory(graph, rng):
            counts.append(0)
            return CountingGCN(graph.num_features, graph.num_classes, rng, hidden=8)

        config = small_config(num_base_models=2, max_epochs=12, patience=12)
        result = RDDTrainer(config, model_factory=factory).fit(tiny_graph, seed=0)
        assert result.base_results[1].epochs_run == 12
        assert counts[1] == 26

    def test_ensemble_curve_tracks_prefix_accuracy(self, tiny_graph):
        result = train_rdd(tiny_graph, small_config(), seed=0)
        assert result.ensemble_curve[-1] == pytest.approx(result.ensemble_test_accuracy)


class TestAblations:
    @pytest.mark.parametrize(
        "overrides",
        [
            {"use_l2": False},
            {"use_lreg": False},
            {"use_node_reliability": False},
            {"use_edge_reliability": False},
            {"use_node_reliability": False, "use_edge_reliability": False},
            {"use_ensemble_weighting": False},
        ],
    )
    def test_every_ablation_variant_trains(self, tiny_graph, overrides):
        result = train_rdd(tiny_graph, small_config(**overrides), seed=0)
        assert 0.0 <= result.ensemble_test_accuracy <= 1.0

    def test_uniform_weighting_changes_nothing_but_weights(self, tiny_graph):
        weighted = train_rdd(tiny_graph, small_config(), seed=3)
        uniform = train_rdd(tiny_graph, small_config(use_ensemble_weighting=False), seed=3)
        # Same students (same seeds/config up to weighting inside training).
        assert weighted.base_test_accuracies[0] == uniform.base_test_accuracies[0]


class TestGeneralizationGain:
    def test_rdd_matches_or_beats_single_gcn_on_citation(self, small_citation):
        from repro.models import GCN
        from repro.training import Trainer, make_rng

        gcn = GCN(small_citation.num_features, small_citation.num_classes, make_rng(0), hidden=16)
        gcn_acc = Trainer(max_epochs=60, patience=20).fit(gcn, small_citation).test_accuracy
        rdd = train_rdd(
            small_citation,
            RDDConfig(num_base_models=3, max_epochs=60, patience=20),
            seed=0,
        )
        # At test scale (0.1, one seed, short budget) single-run noise is
        # several points; this only guards against catastrophic regressions.
        # The benchmark suite checks the strict inequality at proper scale
        # with seed averaging.
        assert rdd.ensemble_test_accuracy >= gcn_acc - 0.10
