"""Tests for the shared harness infrastructure in evaluation.common."""

import numpy as np
import pytest

from repro.errors import ConfigError
from repro.evaluation.common import (
    PAPER_GAMMA_INITIAL,
    HarnessConfig,
    load_graphs,
    mean_over_seeds,
    run_rdd,
    run_single_gcn,
    std_over_seeds,
)


class TestSeedStatistics:
    def test_mean(self):
        assert mean_over_seeds([0.5, 0.7]) == pytest.approx(0.6)

    def test_std_single_seed_is_zero(self):
        assert std_over_seeds([0.5]) == 0.0

    def test_std_matches_numpy_sample_std(self):
        values = [0.5, 0.6, 0.8]
        assert std_over_seeds(values) == pytest.approx(np.std(values, ddof=1))


class TestHarnessConfigValidation:
    # The other malformed budgets are covered through `repro run` in
    # tests/test_io_cli.py; no CLI flag can pass an empty seed list.
    def test_empty_seeds_rejected(self):
        with pytest.raises(ConfigError, match="seeds"):
            HarnessConfig(seeds=())


class TestLoadGraphs:
    def test_one_graph_per_seed(self):
        config = HarnessConfig(scale=0.1, seeds=(0, 1))
        graphs = load_graphs(config, "cora")
        assert len(graphs) == 2
        assert graphs[0].name == "cora"
        # Different seeds generate different structures.
        assert (graphs[0].adjacency != graphs[1].adjacency).nnz > 0


class TestRunners:
    def test_run_single_gcn_respects_config(self, small_citation):
        config = HarnessConfig(max_epochs=10, hidden=8)
        result = run_single_gcn(small_citation, config, seed=0)
        assert result.epochs_run <= 10

    def test_run_rdd_applies_paper_gamma(self, small_citation, monkeypatch):
        captured = {}

        from repro.evaluation import common

        class FakeTrainer:
            def __init__(self, config):
                captured["gamma"] = config.gamma_initial

            def fit(self, graph, seed):
                from repro.training.records import EnsembleResult

                return EnsembleResult(0.5, 0.5, [0.5])

        monkeypatch.setattr(common, "RDDTrainer", FakeTrainer)
        config = HarnessConfig(max_epochs=5)
        run_rdd(small_citation, config, seed=0)
        assert captured["gamma"] == PAPER_GAMMA_INITIAL["cora"]

    def test_run_rdd_explicit_gamma_wins(self, small_citation, monkeypatch):
        captured = {}
        from repro.evaluation import common

        class FakeTrainer:
            def __init__(self, config):
                captured["gamma"] = config.gamma_initial

            def fit(self, graph, seed):
                from repro.training.records import EnsembleResult

                return EnsembleResult(0.5, 0.5, [0.5])

        monkeypatch.setattr(common, "RDDTrainer", FakeTrainer)
        run_rdd(small_citation, HarnessConfig(), seed=0, gamma_initial=7.0)
        assert captured["gamma"] == 7.0

    def test_paper_gamma_table_complete(self):
        assert set(PAPER_GAMMA_INITIAL) == {"cora", "citeseer", "pubmed", "nell"}
