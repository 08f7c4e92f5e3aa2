"""Tests for the user-study substrate: experts, ROC, sessions, ANOVA."""

import subprocess
import sys

import numpy as np
import pytest

from repro.exceptions import ReproError
from repro.study import (
    ExpertPanel,
    SimulatedExpert,
    consensus_labels,
    roc_curve,
    run_user_study,
    two_factor_anova,
)

KEYS = [(f"d{i}", "m", "AVG") for i in range(10)]


class TestExperts:
    def test_labels_deterministic_per_seed(self):
        utilities = dict(zip(KEYS, np.linspace(0, 0.3, 10)))
        expert = SimulatedExpert(seed=4)
        assert expert.label(utilities) == expert.label(utilities)

    def test_high_utility_labeled_more_often(self):
        utilities = {KEYS[0]: 0.5, KEYS[1]: 0.0}
        votes = {KEYS[0]: 0, KEYS[1]: 0}
        for seed in range(50):
            labels = SimulatedExpert(threshold=0.1, seed=seed).label(utilities)
            votes[KEYS[0]] += labels[KEYS[0]]
            votes[KEYS[1]] += labels[KEYS[1]]
        assert votes[KEYS[0]] > votes[KEYS[1]] + 20

    def test_panel_default_size(self):
        panel = ExpertPanel.default()
        assert len(panel.experts) == 5

    def test_consensus_majority(self):
        votes = {KEYS[0]: [True, True, True, False, False], KEYS[1]: [True, False, False, False, False]}
        labels = consensus_labels(votes)
        assert labels[KEYS[0]] is True
        assert labels[KEYS[1]] is False

    def test_interest_counts(self):
        utilities = dict(zip(KEYS, np.linspace(0.3, 0.0, 10)))
        counts = ExpertPanel.default(seed=1).interest_counts(utilities)
        assert set(counts) == set(KEYS)
        assert all(0 <= c <= 5 for c in counts.values())


class TestRoc:
    def test_perfect_ranking_auroc_one(self):
        labels = {key: i < 3 for i, key in enumerate(KEYS)}
        curve = roc_curve(KEYS, labels)
        assert curve.auroc == pytest.approx(1.0)

    def test_inverted_ranking_auroc_zero(self):
        labels = {key: i >= 7 for i, key in enumerate(KEYS)}
        curve = roc_curve(KEYS, labels)
        assert curve.auroc == pytest.approx(0.0)

    def test_curve_monotone_nondecreasing(self):
        labels = {key: i % 3 == 0 for i, key in enumerate(KEYS)}
        curve = roc_curve(KEYS, labels)
        assert (np.diff(curve.tpr) >= 0).all()
        assert (np.diff(curve.fpr) >= 0).all()
        assert curve.tpr[-1] == 1.0 and curve.fpr[-1] == 1.0

    def test_point_at_k(self):
        labels = {key: i < 5 for i, key in enumerate(KEYS)}
        curve = roc_curve(KEYS, labels)
        fpr, tpr = curve.point_at_k(5)
        assert tpr == 1.0 and fpr == 0.0

    def test_mismatched_views_rejected(self):
        with pytest.raises(ReproError):
            roc_curve(KEYS[:5], {key: True for key in KEYS})

    def test_single_class_rejected(self):
        with pytest.raises(ReproError):
            roc_curve(KEYS, {key: True for key in KEYS})


class TestAnova:
    def test_detects_strong_factor_a(self):
        rng = np.random.default_rng(0)
        table = np.stack(
            [
                np.stack([rng.normal(0, 1, 16), rng.normal(0, 1, 16)]),
                np.stack([rng.normal(5, 1, 16), rng.normal(5, 1, 16)]),
            ]
        )
        result = two_factor_anova(table)
        assert result.factor_a.significant(0.001)
        assert not result.factor_b.significant(0.05)

    def test_null_data_not_significant(self):
        rng = np.random.default_rng(1)
        table = rng.normal(0, 1, size=(2, 2, 30))
        result = two_factor_anova(table)
        assert result.factor_a.p_value > 0.01 or result.factor_b.p_value > 0.01

    def test_degrees_of_freedom(self):
        table = np.zeros((2, 2, 16))
        table += np.random.default_rng(2).normal(size=table.shape)
        result = two_factor_anova(table)
        assert result.factor_a.df_effect == 1
        assert result.factor_a.df_error == 2 * 2 * 15

    def test_bad_shapes_rejected(self):
        with pytest.raises(ReproError):
            two_factor_anova(np.zeros((2, 2)))
        with pytest.raises(ReproError):
            two_factor_anova(np.zeros((1, 2, 5)))

    def test_serving_imports_do_not_load_scipy(self):
        """The F-test's dependency stays out of every serving process, and the
        core library loads none of the user-study package."""
        code = (
            "import repro, sys; "
            "assert not [m for m in sys.modules if m.startswith('repro.study')]; "
            "import repro.service.frontend, repro.service.server; "
            "assert 'scipy' not in sys.modules"
        )
        subprocess.run([sys.executable, "-c", code], check=True, timeout=60)

    def test_missing_scipy_names_the_extra(self, monkeypatch):
        monkeypatch.setitem(sys.modules, "scipy", None)
        with pytest.raises(ReproError, match=r"seedb-repro\[study\]"):
            two_factor_anova(np.zeros((2, 2, 4)))


class TestSessions:
    def _study(self, seed=0):
        rng = np.random.default_rng(7)
        utilities = {
            "ds_a": dict(zip(KEYS, sorted(rng.uniform(0, 0.3, 10), reverse=True))),
            "ds_b": dict(zip(KEYS, sorted(rng.uniform(0, 0.3, 10), reverse=True))),
        }
        rankings = {
            ds: sorted(utilities[ds], key=lambda key: -utilities[ds][key])
            for ds in utilities
        }
        return run_user_study(rankings, utilities, n_participants=16, seed=seed)

    def test_study_structure(self):
        study = self._study()
        assert len(study.sessions) == 32  # 16 participants x 2 tools
        assert len(study.by_tool("seedb")) == 16
        assert len(study.by_tool("manual")) == 16

    def test_counterbalancing(self):
        study = self._study()
        seedb_datasets = [s.dataset for s in study.by_tool("seedb")]
        assert seedb_datasets.count("ds_a") == 8
        assert seedb_datasets.count("ds_b") == 8
        # Within a participant, tools see different datasets.
        for participant in range(16):
            own = [s for s in study.sessions if s.participant == participant]
            assert own[0].dataset != own[1].dataset

    def test_seedb_bookmark_rate_higher(self):
        study = self._study(seed=2)
        seedb_row = study.table2_row("seedb")
        manual_row = study.table2_row("manual")
        assert seedb_row["mean_rate"] > manual_row["mean_rate"]

    def test_anova_runs(self):
        study = self._study(seed=3)
        result = study.anova_bookmarks()
        assert result.factor_a.p_value <= 1.0
        assert study.anova_rate().factor_a.f_statistic >= 0.0

    def test_requires_two_datasets(self):
        utilities = {"only": dict(zip(KEYS, np.linspace(0, 1, 10)))}
        rankings = {"only": KEYS}
        with pytest.raises(ReproError):
            run_user_study(rankings, utilities)
