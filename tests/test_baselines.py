from dataclasses import replace

import numpy as np
import pytest
from helpers import rel_err

from purple import baselines
from purple.baselines import (
    EmConfig,
    EmFit,
    LogisticScorer,
    baseline_relative_prevalence,
    em_soft_labels,
    em_update_c,
    fit_em,
    fit_group_scorers,
    fit_logistic,
    fit_negative,
    fit_supervised,
    group_scores,
    register_estimator,
)
from purple.data import FeatureMatrix, SplitSpec, split
from purple.gauss import GaussSynthConfig, generate_gauss
from purple.harness import true_relative_prevalence
from purple.model import TrainConfig, mean_score_ratio, relative_prevalence, fit as fit_purple

FAST = TrainConfig(lambda_grid=(0.0,), max_epochs=1500, patience=50)


def identical_groups_data(c_a=0.5, c_b=0.25, n=4000, seed=0):
    """Both groups share one feature distribution, so the true relative
    prevalence is 1 and only the labeling frequencies differ."""
    cfg = GaussSynthConfig(n_a=n, n_b=n, mean_a=-np.ones(5), mean_b=-np.ones(5),
                           c={"a": c_a, "b": c_b})
    return generate_gauss(cfg, seed)


class TestNegative:
    def test_bias_equals_frequency_ratio(self):
        data = identical_groups_data()
        assert true_relative_prevalence(data, "a", "b") == pytest.approx(1.0, abs=0.05)
        tr, va, te = split(data, SplitSpec(seed=0), 0)
        est = baseline_relative_prevalence("negative", tr, va, te, "a", "b",
                                           seed=0, config=FAST)
        assert est.value == pytest.approx(2.0, rel=0.15)

    def test_equal_frequencies_cancel(self):
        data = identical_groups_data(c_a=0.4, c_b=0.4, seed=1)
        tr, va, te = split(data, SplitSpec(seed=1), 0)
        est = baseline_relative_prevalence("negative", tr, va, te, "a", "b",
                                           seed=0, config=FAST)
        assert est.value == pytest.approx(1.0, rel=0.15)

    def test_non_finite_features_raise(self):
        data = generate_gauss(GaussSynthConfig(n_a=300, n_b=450), 3)
        tr, va, _ = split(data, SplitSpec(seed=3), 0)
        tr.features.raw[0, 0] = np.nan  # past the check made when the matrix was built
        with pytest.raises(FloatingPointError, match="not finite"):
            fit_negative(tr, va, FAST)

    def test_all_unlabeled_group_fails_with_name(self):
        data = identical_groups_data(c_a=0.5, c_b=0.0, seed=2)
        tr, va, te = split(data, SplitSpec(seed=0), 0)
        with pytest.raises(ValueError, match="group 'b'"):
            baseline_relative_prevalence("negative", tr, va, te, "a", "b",
                                         seed=0, config=FAST)


class TestSupervised:
    def test_requires_true_labels(self):
        data = identical_groups_data(seed=3)
        data.y = None
        tr, va, te = split(data, SplitSpec(seed=0), 0)
        with pytest.raises(ValueError, match="true labels"):
            baseline_relative_prevalence("supervised", tr, va, te, "a", "b",
                                         seed=0, config=FAST)

    def test_equals_negative_when_fully_labeled(self):
        data = identical_groups_data(c_a=1.0, c_b=1.0, seed=4)
        np.testing.assert_array_equal(data.s, data.y)
        tr, va, _ = split(data, SplitSpec(seed=0), 0)
        neg = fit_negative(tr, va, FAST)
        sup = fit_supervised(tr, va, FAST)
        np.testing.assert_array_equal(neg.w, sup.w)
        assert neg.b == sup.b

    def test_mean_prediction_matches_label_rate(self):
        # calibration-in-the-large of a converged logistic fit with intercept
        data = identical_groups_data(seed=5)
        tr, va, _ = split(data, SplitSpec(seed=0), 0)
        cfg = TrainConfig(lambda_grid=(0.0,), max_epochs=3000, patience=3000)
        scorer = fit_supervised(tr, va, cfg)
        assert scorer.predict(tr.features).mean() == pytest.approx(
            tr.y.mean(), abs=0.01)


class TestFitLogisticObjective:
    @pytest.mark.parametrize("scale", [1.0, 100.0])
    def test_gradient_matches_finite_differences(self, monkeypatch, scale):
        rng = np.random.default_rng(3)
        x = FeatureMatrix(rng.standard_normal((60, 3)))
        targets = rng.uniform(0.0, 1.0, 60)
        captured = {}

        def capture(objective, params, max_iter, **_):
            captured["objective"] = objective
            return params, np.inf, 0, "budget"

        monkeypatch.setattr(baselines, "_lbfgs_fit", capture)
        fit_logistic(x, targets, x, targets, TrainConfig(lambda_grid=(0.0,)))
        objective = captured["objective"]
        p = np.array([0.8, -0.5, 0.3, 0.2]) * scale
        if scale > 1.0:  # most rows saturated
            assert np.mean(np.abs(x.matvec(p[:3]) + p[3]) > 40.0) > 0.5
        _, g = objective(p)
        h = 1e-6
        fd = np.array([(objective(p + h * e)[0] - objective(p - h * e)[0]) / (2 * h)
                       for e in np.eye(p.size)])
        assert rel_err(g, fd).max() < 1e-6


class TestFitLogisticStopping:
    """A fit stops early exactly when it is given validation rows, and runs
    at most ``config.max_epochs`` iterations either way."""

    @staticmethod
    def solver_runs(monkeypatch):
        """The ``(iterations, stop)`` of every solver run ``fit_logistic`` makes."""
        solver, runs = baselines._lbfgs_fit, []

        def recording(*args, **kwargs):
            out = solver(*args, **kwargs)
            runs.append(out[2:])
            return out

        monkeypatch.setattr(baselines, "_lbfgs_fit", recording)
        return runs

    @pytest.mark.parametrize("max_epochs", [1, 5, 400])
    def test_without_validation_rows_never_stops_early(self, monkeypatch, max_epochs):
        data = identical_groups_data(n=600, seed=12)
        tr, va, _ = split(data, SplitSpec(seed=0), 0)
        cfg = TrainConfig(lambda_grid=(0.0,), max_epochs=max_epochs, patience=1)
        runs = self.solver_runs(monkeypatch)
        fit_logistic(tr.features, tr.s, va.features, va.s, cfg)
        fit_logistic(tr.features, tr.s, None, None, cfg)
        (with_val_iters, with_val_stop), (iters, stop) = runs
        assert stop != "early-stopped" and iters <= max_epochs
        assert with_val_iters <= max_epochs
        if max_epochs == 400:  # the same fit with validation rows does stop early
            assert with_val_stop == "early-stopped"


class TestEmSteps:
    def test_soft_labels_hand_computed(self):
        f = np.array([0.8, 0.3])
        s = np.array([1, 0])
        q = em_soft_labels(f, s, 0.5)
        assert q[0] == 1.0
        assert q[1] == pytest.approx(0.3 * 0.5 / (1.0 - 0.15), abs=1e-12)

    def test_soft_labels_no_underreporting(self):
        # c = 1 means unlabeled rows are certainly negative
        q = em_soft_labels(np.array([0.9, 0.5]), np.array([0, 0]), 1.0)
        np.testing.assert_allclose(q, 0.0, atol=1e-9)

    def test_c_update_hand_computed(self):
        assert em_update_c(np.array([1, 0]), np.array([0.8, 0.6])) == pytest.approx(
            1.0 / 1.4, abs=1e-12)

    def test_c_update_clamped_to_one(self):
        assert em_update_c(np.array([1, 1]), np.array([0.9, 0.9])) == 1.0

    def test_c_update_stays_positive(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            n = int(rng.integers(2, 30))
            s = rng.integers(0, 2, n)
            f = rng.uniform(0.0, 1.0, n)
            c = em_update_c(s, f)
            assert 0.0 < c <= 1.0


def assert_same_em(first, second):
    assert (first.c_hat, first.n_iters, first.b) == (second.c_hat, second.n_iters, second.b)
    np.testing.assert_array_equal(first.w, second.w)


class TestEmFit:
    def test_requires_a_positive(self):
        data = identical_groups_data(c_a=0.0, c_b=0.0, n=200, seed=6)
        tr, va, _ = split(data, SplitSpec(seed=0), 0)
        with pytest.raises(ValueError, match="observed positive"):
            fit_em(tr, va, EmConfig(), FAST)

    def test_fully_labeled_recovers_c_one(self):
        cfg = GaussSynthConfig(n_a=3000, n_b=3000, separable=True,
                               c={"a": 1.0, "b": 1.0})
        data = generate_gauss(cfg, 7)
        tr, va, _ = split(data, SplitSpec(seed=0), 0)
        em = fit_em(tr, va, EmConfig(), FAST)
        assert em.c_hat > 0.9
        sup = fit_supervised(tr, va, FAST)
        gap = np.abs(em.predict(va.features) - sup.predict(va.features))
        assert gap.mean() < 0.05

    @staticmethod
    def reference_em(tr, va, em_config, memory):
        """The EM loop written out, scoring the training rows again at each E
        step. Each M-step gets ``memory``: one list shared by every M-step,
        or ``None`` for cold M-steps. Returns ``(iterations, c_hat, scorer)``."""
        s = tr.s.astype(np.float64)
        c_hat = min(max(2.0 * float(s.mean()), 1e-3), 1.0 - 1e-3)
        scorer = fit_logistic(tr.features, s, va.features, va.s, FAST)
        for iters in range(1, em_config.max_iters + 1):
            q = em_soft_labels(scorer.predict(tr.features), tr.s, c_hat)
            scorer = fit_logistic(tr.features, q, None, None,
                                  replace(FAST, max_epochs=em_config.inner_epochs),
                                  init=scorer, memory=memory)
            c_new = em_update_c(tr.s, scorer.predict(tr.features))
            delta, c_hat = abs(c_new - c_hat), c_new
            if delta < em_config.tol:
                break
        return iters, c_hat, scorer

    def test_matches_rescoring_every_iteration(self):
        data = identical_groups_data(n=600, seed=16)
        tr, va, _ = split(data, SplitSpec(seed=0), 0)
        em_config = EmConfig(max_iters=5)
        em = fit_em(tr, va, em_config, FAST)
        iters, c_hat, scorer = self.reference_em(tr, va, em_config, memory=[])
        assert (em.n_iters, em.c_hat, em.b) == (iters, c_hat, scorer.b)
        np.testing.assert_array_equal(em.w, scorer.w)

    def test_shared_memory_stays_close_to_cold_m_steps(self):
        # The M-steps share one L-BFGS memory; each still stops inside its
        # tolerance, so the fit stays close to one whose M-steps start cold.
        data = identical_groups_data(n=600, seed=16)
        tr, va, _ = split(data, SplitSpec(seed=0), 0)
        em_config = EmConfig(max_iters=5)
        em = fit_em(tr, va, em_config, FAST)
        iters, c_hat, scorer = self.reference_em(tr, va, em_config, memory=None)
        assert em.n_iters == iters
        assert abs(em.c_hat - c_hat) < 1e-4
        np.testing.assert_allclose(np.append(em.w, em.b),
                                   np.append(scorer.w, scorer.b), rtol=0, atol=1e-3)

    def test_fits_share_no_memory(self):
        # Each fit starts its own memory: a second call repeats the first.
        data = identical_groups_data(n=800, seed=18)
        tr, va, _ = split(data, SplitSpec(seed=0), 0)
        assert_same_em(*(fit_em(tr, va, EmConfig(max_iters=4), FAST) for _ in range(2)))

    def test_groups_share_no_memory(self):
        # A group's EM fit is the same whether or not the other group was fit first.
        data = identical_groups_data(n=800, seed=19)
        tr, va, _ = split(data, SplitSpec(seed=0), 0)
        em_config = EmConfig(max_iters=4)
        both = fit_group_scorers("em", tr, va, [0, 1], FAST, em_config)
        alone = fit_group_scorers("em", tr, va, [1], FAST, em_config)
        assert_same_em(both["b"], alone["b"])

    @pytest.mark.parametrize("kwargs, message", [
        ({"max_iters": 0}, "EM max_iters and inner_epochs must be at least 1"),
        ({"inner_epochs": 0}, "EM max_iters and inner_epochs must be at least 1"),
        ({"tol": -1e-5}, "EM tol must be finite and non-negative"),
        ({"tol": float("nan")}, "EM tol must be finite and non-negative"),
        ({"tol": float("inf")}, "EM tol must be finite and non-negative"),
    ])
    def test_config_rejects_values_no_fit_can_use(self, kwargs, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            EmConfig(**kwargs)

    def test_fit_is_a_scorer(self):
        data = identical_groups_data(n=800, seed=17)
        tr, va, te = split(data, SplitSpec(seed=0), 0)
        fits = fit_group_scorers("em", tr, va, tr.present_groups(), FAST, EmConfig(max_iters=3))
        assert list(fits) == ["a", "b"]
        scores = group_scores(fits, te)
        for name, em in fits.items():
            assert isinstance(em, EmFit) and isinstance(em, LogisticScorer)
            mask = te.group_mask(name)
            np.testing.assert_allclose(scores[mask], em.predict(te.features)[mask], rtol=1e-14)
        negative = fit_group_scorers("negative", tr, va, tr.present_groups(), FAST)
        assert all(isinstance(f, LogisticScorer) for f in negative.values())

    def test_non_convergence_flag_propagates(self):
        data = identical_groups_data(n=1500, seed=9)
        tr, va, te = split(data, SplitSpec(seed=0), 0)
        est = baseline_relative_prevalence("em", tr, va, te, "a", "b", seed=0,
                                           config=FAST,
                                           em_config=EmConfig(max_iters=1))
        assert "em-non-converged" in est.flags


class TestEstimatorContract:
    def test_purple_contract_matches_direct_estimate(self):
        data = generate_gauss(GaussSynthConfig(n_a=800, n_b=1200), 10)
        tr, va, te = split(data, SplitSpec(seed=0), 0)
        cfg = TrainConfig(lambda_grid=(0.0,), max_epochs=300, patience=300)
        result = fit_purple(tr, va, cfg)
        direct = relative_prevalence(result.model, te, "a", "b")
        scores = group_scores(dict.fromkeys(te.group_names, result.model), te)
        assert mean_score_ratio(scores, te, "a", "b") == direct
        assert baseline_relative_prevalence("purple", tr, va, te, "a", "b",
                                            config=cfg).value == direct

    def test_relative_prevalence_takes_a_baseline_scorer(self):
        data = identical_groups_data(n=800, seed=3)
        tr, va, te = split(data, SplitSpec(seed=0), 0)
        scorer = fit_negative(tr, va, FAST)
        assert type(scorer) is LogisticScorer
        for b in ("b", None):
            assert relative_prevalence(scorer, te, "a", b) == mean_score_ratio(
                scorer.predict(te.features), te, "a", b)

    def test_group_scores_use_each_rows_own_scorer(self):
        data = generate_gauss(GaussSynthConfig(n_a=50, n_b=70), 15)
        sa, sb = LogisticScorer(np.ones(5), 0.5), LogisticScorer(-np.ones(5), -1.0)
        scores = group_scores({"a": sa, "b": sb}, data)
        for name, scorer in (("a", sa), ("b", sb)):
            mask = data.group_mask(name)
            np.testing.assert_allclose(scores[mask], scorer.predict(data.features)[mask],
                                       rtol=1e-14)
        np.testing.assert_array_equal(group_scores({"a": sa, "b": sa}, data),
                                      sa.predict(data.features))
        with pytest.raises(ValueError, match="no scorer for group 'b'"):
            group_scores({"a": sa}, data)

    def test_deterministic_given_seed(self):
        data = identical_groups_data(n=600, seed=11)
        tr, va, te = split(data, SplitSpec(seed=0), 0)
        cfg = TrainConfig(lambda_grid=(0.0,), max_epochs=100, patience=100)
        a = baseline_relative_prevalence("negative", tr, va, te, "a", "b", seed=5,
                                         config=cfg)
        b = baseline_relative_prevalence("negative", tr, va, te, "a", "b", seed=5,
                                         config=cfg)
        assert a.value == b.value

    def test_registered_estimator_returns_per_row_scores(self, monkeypatch):
        monkeypatch.setattr(baselines, "_EXTERNAL", {})
        data = identical_groups_data(n=200, seed=12)
        tr, va, te = split(data, SplitSpec(seed=0), 0)
        seen = {}

        def per_row(train, val, eval_data, seed):
            seen.update(train=train, val=val, eval_data=eval_data, seed=seed)
            return np.where(eval_data.group_mask("a"), 0.3, 0.1) * (1 + eval_data.s)

        register_estimator("per-row", per_row)
        assert baselines._EXTERNAL == {"per-row": per_row}
        est = baseline_relative_prevalence("per-row", tr, va, te, "a", "b", seed=7)
        assert seen["train"] is tr and seen["val"] is va and seen["eval_data"] is te
        assert seen["seed"] == 7
        assert est.value == mean_score_ratio(per_row(tr, va, te, 7), te, "a", "b")
        assert est.group_a == "a" and est.group_b == "b" and est.flags == []

    # Beyond the NaN, negative, short and 2-D outputs of the suite-level test:
    # infinite, scalar and non-numeric outputs, such as a list of per-group
    # estimates.
    BAD_OUTPUTS = {
        "inf": lambda n: np.full(n, np.inf),
        "scalar": lambda n: 0.2,
        "objects": lambda n: [object(), object()],
        "ragged": lambda n: [[0.1], [0.2, 0.3]],
    }

    @pytest.mark.parametrize("bad", sorted(BAD_OUTPUTS))
    def test_registered_estimator_output_checked_at_the_boundary(self, monkeypatch, bad):
        data = identical_groups_data(n=200, seed=12)
        tr, va, te = split(data, SplitSpec(seed=0), 0)
        monkeypatch.setitem(baselines._EXTERNAL, "bad-plugin",
                            lambda train, val, eval_data, seed:
                            self.BAD_OUTPUTS[bad](eval_data.n_rows))
        message = (f"estimator 'bad-plugin' must return {te.n_rows} finite, non-negative "
                   "scores, one per row of eval_data")
        with pytest.raises(ValueError, match=f"^{message}$"):
            baseline_relative_prevalence("bad-plugin", tr, va, te, "a", "b")

    def test_registered_estimator_zero_denominator(self, monkeypatch):
        data = identical_groups_data(n=200, seed=12)
        tr, va, te = split(data, SplitSpec(seed=0), 0)
        monkeypatch.setitem(baselines._EXTERNAL, "zero-b",
                            lambda train, val, eval_data, seed:
                            eval_data.group_mask("a").astype(float))
        with pytest.raises(ValueError, match="^mean score in group 'b' is numerically zero$"):
            baseline_relative_prevalence("zero-b", tr, va, te, "a", "b")

    def test_unknown_kind_rejected(self):
        data = identical_groups_data(n=200, seed=13)
        tr, va, te = split(data, SplitSpec(seed=0), 0)
        with pytest.raises(ValueError, match="unknown estimator"):
            baseline_relative_prevalence("km17", tr, va, te, "a", "b", seed=0)

    def test_soft_target_fit_accepts_probabilities(self):
        data = identical_groups_data(n=500, seed=14)
        tr, va, _ = split(data, SplitSpec(seed=0), 0)
        q = np.full(tr.n_rows, 0.35)
        cfg = TrainConfig(lambda_grid=(0.0,), max_epochs=800, patience=800)
        val_labels = (np.arange(va.n_rows) % 20 < 7).astype(np.int8)  # 0/1, 35% positive
        scorer = fit_logistic(tr.features, q, va.features, val_labels, cfg)
        assert scorer.predict(tr.features).mean() == pytest.approx(0.35, abs=0.01)
