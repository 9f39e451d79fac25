import json
import math

import numpy as np
import pytest
from helpers import fd_gradients, random_model, rel_err, tiny_batch

from purple.baselines import group_prevalences
from purple.data import FeatureMatrix, LabeledDataset, SplitSpec, split
from purple.gauss import GaussSynthConfig, generate_gauss
from purple.model import (
    FitResult,
    PurpleModel,
    RelativePrevalenceEstimate,
    TrainConfig,
    _adam_fit,
    _adam_update,
    fit,
    gradients,
    loss,
    mean_score_ratio,
    predict_condition_score,
    predict_diagnosis,
    relative_prevalence,
    relative_prevalence_vs_complement,
)

SIGMOID_1 = 1.0 / (1.0 + math.exp(-1.0))


class TestPredict:
    def test_zero_parameters_score_half(self):
        m = PurpleModel(np.zeros(3), 0.0, np.zeros(2), ["a", "b"])
        assert predict_condition_score(m, np.array([5.0, -2.0, 1.0])) == 0.5

    def test_unit_weight_scores_sigmoid_one(self):
        m = PurpleModel(np.array([1.0, 0.0]), 0.0, np.zeros(1), ["a"])
        assert predict_condition_score(m, np.array([1.0, 0.0])) == pytest.approx(SIGMOID_1, abs=1e-12)

    def test_monotone_in_projection(self):
        rng = np.random.default_rng(0)
        m = random_model(rng)
        x = rng.standard_normal((50, 5))
        z = x @ m.w + m.b
        order = np.argsort(z)
        scores = predict_condition_score(m, x)
        assert np.all(np.diff(scores[order]) >= 0)

    def test_diagnosis_limits(self):
        m = PurpleModel(np.array([1.0]), 0.0, np.array([-40.0, 10.0]), ["a", "b"])
        x = np.array([[0.3]])
        assert predict_diagnosis(m, x, "a")[0] == pytest.approx(0.0, abs=1e-12)
        score = predict_condition_score(m, x)[0]
        assert predict_diagnosis(m, x, "b")[0] == pytest.approx(score, rel=1e-4)

    def test_diagnosis_quarter(self):
        m = PurpleModel(np.zeros(2), 0.0, np.zeros(1), ["a"])
        assert predict_diagnosis(m, np.array([1.0, 1.0]), "a") == pytest.approx(0.25, abs=1e-15)

    def test_unknown_group(self):
        m = PurpleModel(np.zeros(2), 0.0, np.zeros(1), ["a"])
        with pytest.raises(KeyError, match="unknown group"):
            predict_diagnosis(m, np.zeros(2), "zz")


class TestLoss:
    def test_perfect_predictions(self):
        x = np.array([[40.0], [-40.0]])
        data = LabeledDataset(FeatureMatrix(x), [0, 0], ["a"], [1, 0])
        m = PurpleModel(np.array([1.0]), 0.0, np.array([40.0]), ["a"])
        assert loss(m, data, 0.0) < 1e-6

    def test_balanced_closed_form(self):
        x = np.zeros((4, 2))
        data = LabeledDataset(FeatureMatrix(x), [0] * 4, ["a"], [1, 1, 0, 0])
        m = PurpleModel(np.zeros(2), 0.0, np.zeros(1), ["a"])
        expected = -0.5 * (math.log(0.25) + math.log(0.75))
        assert loss(m, data, 0.0) == pytest.approx(expected, abs=1e-12)

    def test_penalty_linearity(self):
        rng = np.random.default_rng(1)
        data = tiny_batch(rng)
        m = random_model(rng)
        l1 = float(np.abs(m.w).sum())
        base = loss(m, data, 0.0)
        assert loss(m, data, 0.01) - base == pytest.approx(0.01 * l1, abs=1e-12)
        assert loss(m, data, 0.02) - base == pytest.approx(0.02 * l1, abs=1e-12)


class TestGradients:
    def test_positive_labels_push_bias_up(self):
        rng = np.random.default_rng(2)
        x = rng.standard_normal((20, 3))
        data = LabeledDataset(FeatureMatrix(x), [0] * 20, ["a"], [1] * 20)
        m = PurpleModel(np.zeros(3), 0.0, np.zeros(1), ["a"])
        _, gb, _ = gradients(m, data, 0.0)
        assert gb < 0

    def test_l1_subgradient(self):
        rng = np.random.default_rng(3)
        data = tiny_batch(rng)
        m = random_model(rng)
        gw0, _, _ = gradients(m, data, 0.0)
        gw1, _, _ = gradients(m, data, 0.05)
        np.testing.assert_allclose(gw1 - gw0, 0.05 * np.sign(m.w), atol=1e-15)

    def test_matches_finite_differences(self):
        rng = np.random.default_rng(42)
        worst = 0.0
        for i in range(100):
            data = tiny_batch(rng, n=int(rng.integers(8, 48)))
            m = random_model(rng)
            lam = float(rng.choice([0.0, 1e-3, 1e-2]))
            gw, gb, gt = gradients(m, data, lam)
            fw, fb, ft = fd_gradients(m, data, lam)
            present = np.isin(np.arange(2), data.group)
            worst = max(worst,
                        rel_err(gw, fw).max(),
                        float(rel_err(gb, fb)),
                        rel_err(gt[present], ft[present]).max() if present.any() else 0.0)
        assert worst < 1e-5

    def test_sparse_dense_agreement(self):
        import scipy.sparse as sp

        rng = np.random.default_rng(4)
        x = rng.standard_normal((30, 6))
        x[rng.uniform(size=x.shape) < 0.5] = 0.0
        group = rng.integers(0, 2, 30)
        s = rng.integers(0, 2, 30)
        m = random_model(rng, d=6)
        dense = LabeledDataset(FeatureMatrix(x), group, ["a", "b"], s)
        sparse = LabeledDataset(FeatureMatrix(sp.csr_matrix(x)), group, ["a", "b"], s)
        for a, b in zip(gradients(m, dense, 1e-3), gradients(m, sparse, 1e-3)):
            np.testing.assert_allclose(a, b, rtol=1e-12, atol=1e-14)


class TestAdam:
    def test_zero_gradient_keeps_parameters(self):
        params = np.array([1.0, -2.0, 0.5])
        state = (np.zeros(3), np.zeros(3), 0)
        for _ in range(5):
            params2, state = _adam_update(params, np.zeros(3), state, 0.001, 1e-8)
            np.testing.assert_array_equal(params2, params)
            params = params2

    def test_step_size_bounded_by_lr(self):
        params = np.zeros(2)
        state = (np.zeros(2), np.zeros(2), 0)
        params2, _ = _adam_update(params, np.array([100.0, -3.0]), state, 0.001, 1e-8)
        assert np.all(np.abs(params2) <= 0.001 + 1e-12)


class TestAdamFit:
    """The shared training loop, driven by a constant gradient (so each
    epoch's parameters differ) and a scripted validation loss."""

    @staticmethod
    def replay(params, n_steps, cfg):
        state = (np.zeros(params.size), np.zeros(params.size), 0)
        for _ in range(n_steps):
            params, state = _adam_update(params, np.ones(params.size), state,
                                         cfg.learning_rate, cfg.adam_eps)
        return params

    def test_early_stop_restores_best_epoch(self):
        cfg = TrainConfig(patience=3)
        script = [5.0, 4.0, 3.0, 3.5, 3.2, 3.1, 2.0, 1.0]
        seen = []

        def val_loss(p):
            seen.append(p)
            return script[len(seen) - 1]

        params, best, epochs = _adam_fit(lambda p, rows: np.ones(p.size), np.zeros(2), 10,
                                         cfg, np.random.default_rng(0), 50, val_loss)
        assert epochs == 6  # best at epoch 3, then patience=3 worse epochs
        assert best == 3.0
        np.testing.assert_array_equal(params, seen[2])
        np.testing.assert_array_equal(params, self.replay(np.zeros(2), 3, cfg))

    def test_without_val_loss_runs_every_epoch(self):
        cfg = TrainConfig(batch_size=4)
        calls = []

        def grad(p, rows):
            calls.append(len(rows))
            return np.ones(p.size)

        params, best, epochs = _adam_fit(grad, np.zeros(3), 10, cfg,
                                         np.random.default_rng(0), 7)
        assert epochs == 7 and best == np.inf
        assert calls == [4, 4, 2] * 7
        np.testing.assert_array_equal(params, self.replay(np.zeros(3), 21, cfg))


class TestFit:
    def small_data(self, seed=0):
        data = generate_gauss(GaussSynthConfig(n_a=600, n_b=900), seed)
        return split(data, SplitSpec(seed=seed), 0)

    def test_deterministic_serialization(self):
        tr, va, _ = self.small_data()
        cfg = TrainConfig(lambda_grid=(0.0, 1e-3), max_epochs=60, patience=10)
        r1 = fit(tr, va, cfg, seed=1)
        r2 = fit(tr, va, cfg, seed=1)
        assert json.dumps(r1.to_dict()) == json.dumps(r2.to_dict())

    def test_minibatch_deterministic(self):
        tr, va, _ = self.small_data()
        cfg = TrainConfig(lambda_grid=(0.0,), max_epochs=30, patience=30, batch_size=64)
        r1 = fit(tr, va, cfg, seed=3)
        r2 = fit(tr, va, cfg, seed=3)
        assert json.dumps(r1.to_dict()) == json.dumps(r2.to_dict())

    def test_selected_lambda_in_grid(self):
        tr, va, _ = self.small_data()
        cfg = TrainConfig(lambda_grid=(1e-2, 0.0), max_epochs=40, patience=40)
        res = fit(tr, va, cfg, seed=0)
        assert res.selected_lambda in cfg.lambda_grid
        assert len(res.lambda_metrics) == 2

    def test_degenerate_warns_and_downstream_raises(self):
        tr, va, te = self.small_data()
        tr.s = np.zeros_like(tr.s)
        cfg = TrainConfig(lambda_grid=(0.0,), max_epochs=5, patience=5)
        with pytest.warns(RuntimeWarning, match="degenerate"):
            res = fit(tr, va, cfg, seed=0)
        assert res.degenerate
        with pytest.warns(RuntimeWarning), pytest.raises(ValueError, match="degenerate"):
            group_prevalences("purple", tr, va, te, cfg, 0)

    def test_group_missing_from_train_rejected(self):
        tr, va, _ = self.small_data()
        tr2 = tr.take_rows(np.flatnonzero(tr.group == 0))
        with pytest.raises(ValueError, match="absent in train"):
            fit(tr2, va, TrainConfig(max_epochs=5), seed=0)

    def test_train_loss_moving_average_non_increasing(self):
        tr, va, _ = self.small_data()
        cfg = TrainConfig(lambda_grid=(0.0,), max_epochs=300, patience=300)
        res = fit(tr, va, cfg, seed=0)
        train_losses = np.array([t[1] for t in res.loss_trace])
        window = np.convolve(train_losses, np.ones(10) / 10, mode="valid")
        assert np.all(np.diff(window) <= 1e-9)

    @pytest.mark.parametrize("max_epochs,patience", [(400, 3), (25, 100)])
    def test_loss_trace_has_one_entry_per_epoch(self, max_epochs, patience):
        tr, va, _ = self.small_data()
        cfg = TrainConfig(learning_rate=0.05, lambda_grid=(1e-3, 0.0),
                          max_epochs=max_epochs, patience=patience)
        res = fit(tr, va, cfg, seed=0)
        assert [t[0] for t in res.loss_trace] == list(range(1, res.epochs_run + 1))
        if patience > max_epochs:
            assert res.epochs_run == max_epochs
        else:
            assert res.epochs_run < max_epochs

    def test_fit_result_round_trip(self):
        tr, va, _ = self.small_data()
        res = fit(tr, va, TrainConfig(lambda_grid=(1e-3, 0.0), max_epochs=20), seed=0)
        assert FitResult.from_dict(res.to_dict()) == res
        assert FitResult.from_dict(json.loads(json.dumps(res.to_dict()))) == res

    def test_labeling_frequency_ratio_recovered(self):
        # individual frequencies are not identifiable; their ratio is.
        ratios = []
        for seed in range(3):
            data = generate_gauss(GaussSynthConfig(n_a=4000, n_b=8000), seed)
            tr, va, _ = split(data, SplitSpec(seed=seed), 0)
            cfg = TrainConfig(lambda_grid=(0.0,), max_epochs=2500, patience=30)
            res = fit(tr, va, cfg, seed=seed)
            c = res.model.c
            ratios.append(c[0] / c[1])
        assert abs(np.mean(ratios) - 2.0) < 0.3


class TestSerialization:
    def test_train_config_round_trip(self):
        cfg = TrainConfig(learning_rate=0.05, adam_eps=1e-6, weight_decay=0.1,
                          lambda_grid=(0.5, 0.0), max_epochs=7, patience=2, batch_size=16)
        assert TrainConfig.from_dict(cfg.to_dict()) == cfg
        assert TrainConfig.from_dict(json.loads(json.dumps(cfg.to_dict()))) == cfg

    def test_model_equality_compares_values(self):
        m = PurpleModel(np.array([1.0, 2.0]), 0.5, np.zeros(2), ["a", "b"])
        assert m == PurpleModel.from_dict(m.to_dict())
        assert m != PurpleModel(np.array([1.0, 2.5]), 0.5, np.zeros(2), ["a", "b"])

    def test_estimate_from_splits(self):
        est = RelativePrevalenceEstimate.from_splits("a", "b", [1.0, 2.0, 3.0], 4.0, ["x"])
        assert est.value == 2.0 and est.ratio_to_true == 0.5
        assert est.to_dict()["per_split_values"] == [1.0, 2.0, 3.0]
        assert RelativePrevalenceEstimate.from_splits("a", "b", [1.0]).ratio_to_true is None

    def test_constructor_keeps_its_arguments(self):
        est = RelativePrevalenceEstimate("a", "b", 9.0, per_split_values=[1.0], true_value=2.0)
        assert est.value == 9.0 and est.ratio_to_true is None


class TestRelativePrevalence:
    def test_constant_score_gives_one(self):
        data = generate_gauss(GaussSynthConfig(n_a=50, n_b=50), 0)
        m = PurpleModel(np.zeros(5), -0.4, np.zeros(2), ["a", "b"])
        assert relative_prevalence(m, data, "a", "b") == pytest.approx(1.0, abs=1e-12)

    def test_mean_ratio_arithmetic(self):
        scores = np.array([0.2, 0.4, 0.1, 0.1, 0.1])
        mask_a = np.array([True, True, False, False, False])
        assert mean_score_ratio(scores, mask_a, ~mask_a) == pytest.approx(3.0, abs=1e-12)

    def test_scale_invariance(self):
        rng = np.random.default_rng(5)
        for _ in range(25):
            scores = rng.uniform(0.01, 1.0, size=40)
            mask = rng.uniform(size=40) < 0.5
            if not mask.any() or mask.all():
                continue
            base = mean_score_ratio(scores, mask, ~mask)
            for k in (1e-6, 0.5, 3.0, 1e6):
                assert mean_score_ratio(k * scores, mask, ~mask) == pytest.approx(base, rel=1e-12)

    def test_reciprocity(self):
        rng = np.random.default_rng(6)
        data = generate_gauss(GaussSynthConfig(n_a=200, n_b=300), 1)
        m = random_model(rng)
        ab = relative_prevalence(m, data, "a", "b")
        ba = relative_prevalence(m, data, "b", "a")
        assert ab * ba == pytest.approx(1.0, abs=1e-12)

    def test_empty_denominator_group(self):
        data = generate_gauss(GaussSynthConfig(n_a=50, n_b=50), 0)
        m = random_model(np.random.default_rng(0))
        only_a = data.take_rows(np.flatnonzero(data.group == 0))
        with pytest.raises(ValueError, match="no rows"):
            relative_prevalence(m, only_a, "a", "b")

    def test_vanishing_denominator(self):
        scores = np.array([0.5, 0.0])
        with pytest.raises(ValueError, match="numerically zero"):
            mean_score_ratio(scores, np.array([True, False]), np.array([False, True]))

    def test_vs_complement_two_groups(self):
        data = generate_gauss(GaussSynthConfig(n_a=300, n_b=300), 2)
        m = random_model(np.random.default_rng(1))
        assert relative_prevalence_vs_complement(m, data, "a") == pytest.approx(
            relative_prevalence(m, data, "a", "b"), rel=1e-12)

    def test_vs_complement_three_groups_pooled_mean(self):
        rng = np.random.default_rng(7)
        x = rng.standard_normal((60, 4))
        group = np.repeat([0, 1, 2], 20)
        data = LabeledDataset(FeatureMatrix(x), group, ["a", "b", "c"],
                              np.zeros(60, dtype=np.int8))
        m = random_model(rng, d=4, n_groups=3)
        scores = predict_condition_score(m, data.features)
        expected = scores[group == 1].mean() / scores[group != 1].mean()
        assert relative_prevalence_vs_complement(m, data, "b") == pytest.approx(
            expected, rel=1e-12)

    def test_single_group_complement_empty(self):
        x = np.zeros((5, 2))
        data = LabeledDataset(FeatureMatrix(x), [0] * 5, ["a"], [0] * 5)
        m = PurpleModel(np.zeros(2), 0.0, np.zeros(1), ["a"])
        with pytest.raises(ValueError, match="no rows"):
            relative_prevalence_vs_complement(m, data, "a")

    def test_matches_exhaustive_enumeration_on_discrete_support(self):
        # support of 8 points with dyadic probabilities; both routes exact.
        support = np.array([[i, 1.0] for i in range(8)])
        p_table = np.array([1, 2, 3, 4, 5, 6, 7, 8]) / 16.0
        counts_a = np.array([4, 2, 0, 2, 4, 0, 2, 2])  # 16 rows
        counts_b = np.array([0, 4, 4, 0, 0, 4, 2, 2])  # 16 rows
        rows, groups, scores = [], [], []
        for i in range(8):
            for g, cnt in ((0, counts_a[i]), (1, counts_b[i])):
                for _ in range(cnt):
                    rows.append(support[i])
                    groups.append(g)
                    scores.append(p_table[i])
        scores = np.asarray(scores)
        groups = np.asarray(groups)
        estimator = mean_score_ratio(scores, groups == 0, groups == 1)
        # enumeration of sum_x p(x) p(x|g) over the finite support
        pxa = counts_a / counts_a.sum()
        pxb = counts_b / counts_b.sum()
        enumerated = float((p_table * pxa).sum() / (p_table * pxb).sum())
        assert estimator == enumerated
