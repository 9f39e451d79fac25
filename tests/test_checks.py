from dataclasses import replace

import numpy as np
import pytest
from scipy.special import expit

from purple.checks import (
    assumption_check_report,
    compare_constrained_unconstrained,
)
from purple.data import FeatureMatrix, LabeledDataset, SplitSpec, split
from purple.gauss import GaussSynthConfig, generate_gauss
from purple.model import TrainConfig, fit

CFG = TrainConfig(lambda_grid=(0.0,), max_epochs=2500, patience=30)


def well_specified(seed=0, n_a=3000, n_b=6000):
    return generate_gauss(GaussSynthConfig(n_a=n_a, n_b=n_b), seed)


def interaction_violating(seed=0, n=6000):
    """Group condition probabilities use different hyperplanes: a genuine
    group-by-feature interaction a shared linear scorer cannot express."""
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((2 * n, 5)) * 4.0
    group = np.concatenate([np.zeros(n, np.int64), np.ones(n, np.int64)])
    w_a = np.ones(5) / np.sqrt(5.0)
    w_b = np.array([1.0, -1.0, 1.0, -1.0, 0.0]) / 2.0
    z = np.where(group == 0, x @ w_a, x @ w_b)
    latent = expit(z)
    y = (rng.uniform(size=2 * n) < latent).astype(np.int8)
    c_row = np.where(group == 0, 0.5, 0.25)
    s = ((rng.uniform(size=2 * n) < c_row) & (y == 1)).astype(np.int8)
    return LabeledDataset(FeatureMatrix(x), group, ["a", "b"], s, y, latent)


class TestModelFitComparison:
    def test_well_specified_no_gap(self):
        tr, va, te = split(well_specified(0), SplitSpec(seed=0), 0)
        cmp = compare_constrained_unconstrained(tr, va, te, CFG)
        assert abs(cmp.delta_auc) < 0.02

    def test_interaction_flagged(self):
        tr, va, te = split(interaction_violating(1), SplitSpec(seed=1), 0)
        cmp = compare_constrained_unconstrained(tr, va, te, CFG)
        assert cmp.delta_auc > 0.01

    def test_identical_group_distributions_equivalent(self):
        cfg = GaussSynthConfig(n_a=3000, n_b=3000, mean_a=-np.ones(5),
                               mean_b=-np.ones(5), c={"a": 0.4, "b": 0.4})
        tr, va, te = split(generate_gauss(cfg, 2), SplitSpec(seed=2), 0)
        cmp = compare_constrained_unconstrained(tr, va, te, CFG)
        assert abs(cmp.delta_auc) < 0.02
        assert abs(cmp.delta_auprc) < 0.03

    def test_small_group_rejected(self):
        data = well_specified(3, n_a=40, n_b=200)
        tr, va, te = split(data, SplitSpec(seed=0), 0)
        with pytest.raises(ValueError, match="at least 30"):
            compare_constrained_unconstrained(tr, va, te, TrainConfig(max_epochs=5))

    def test_single_class_group_rejected_by_name(self):
        data = well_specified(3, n_a=300, n_b=600)
        data = replace(data, s=np.where(data.group == 0, 0, data.s).astype(np.int8))
        tr, va, te = split(data, SplitSpec(seed=0), 0)
        with pytest.raises(ValueError, match="group 'a'.*single-class"):
            compare_constrained_unconstrained(tr, va, te, TrainConfig(max_epochs=5))

    def test_needs_two_groups(self):
        data = well_specified(4, n_a=200, n_b=200)
        only_a = data.take_rows(np.flatnonzero(data.group == 0))
        with pytest.raises(ValueError, match="two groups"):
            compare_constrained_unconstrained(only_a, only_a, only_a, TrainConfig(max_epochs=5))

    def test_deltas_consistent(self):
        tr, va, te = split(well_specified(5, 1000, 2000), SplitSpec(seed=0), 0)
        cfg = TrainConfig(lambda_grid=(0.0,), max_epochs=400, patience=400)
        cmp = compare_constrained_unconstrained(tr, va, te, cfg)
        assert cmp.delta_auc == pytest.approx(
            cmp.unconstrained_auc - cmp.constrained_auc, abs=1e-15)


class TestAssumptionReport:
    def test_well_specified_passes(self):
        tr, va, te = split(well_specified(6), SplitSpec(seed=3), 0)
        result = fit(tr, va, CFG)
        report = assumption_check_report(result.model, tr, va, te, CFG)
        assert report.calibration_verdict == "pass"
        assert report.model_fit_verdict == "pass"
        assert set(report.calibration_by_group) == {"a", "b"}

    def test_interaction_warns_on_model_fit(self):
        tr, va, te = split(interaction_violating(7), SplitSpec(seed=4), 0)
        result = fit(tr, va, CFG)
        report = assumption_check_report(result.model, tr, va, te, CFG)
        assert report.model_fit_verdict == "warn"

    def test_corrupted_frequency_warns_on_calibration(self):
        tr, va, te = split(well_specified(8), SplitSpec(seed=5), 0)
        result = fit(tr, va, CFG)
        result.model.theta[1] += 2.0  # deliberately mis-set one group's frequency
        report = assumption_check_report(result.model, tr, va, te, CFG)
        assert report.calibration_by_group["b"].ece > 0.05
        assert report.calibration_verdict == "warn"

    def test_serialization_echoes_thresholds(self):
        tr, va, te = split(well_specified(9, 1500, 1500), SplitSpec(seed=6), 0)
        cfg = TrainConfig(lambda_grid=(0.0,), max_epochs=400, patience=400)
        result = fit(tr, va, cfg)
        report = assumption_check_report(result.model, tr, va, te, cfg, n_bins=5,
                                         ece_warn=0.2, delta_auc_warn=0.5)
        d = report.to_dict()
        assert d["thresholds"] == {"ece_warn": 0.2, "delta_auc_warn": 0.5}
        assert d["calibration"]["verdict"] in ("pass", "warn")
        assert "delta_auc" in d["model_fit"]
        for g in ("a", "b"):
            bins = d["calibration"]["by_group"][g]["bins"]
            assert sum(b["count"] for b in bins) == int((te.group == te.group_id(g)).sum())
