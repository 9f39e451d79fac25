import json
import math
import warnings
from dataclasses import asdict, replace

import numpy as np
import pytest
import scipy.sparse as sp
from scipy.optimize import minimize
from scipy.special import expit
from helpers import fd_gradients, random_model, rel_err, tiny_batch

from purple import model as model_module
from purple.baselines import EmFit, baseline_relative_prevalence
from purple.data import FeatureMatrix, LabeledDataset, SplitSpec, split
from purple.gauss import GaussSynthConfig, generate_gauss
from purple.harness import make_suite
from purple.model import (
    PROB_FLOOR,
    _LBFGS_MEMORY,
    LogisticScorer,
    PurpleModel,
    RelativePrevalenceEstimate,
    TrainConfig,
    _label_cross_entropy,
    _lbfgs_fit,
    _linear,
    _logistic,
    _solver_scale,
    fit,
    gradients,
    loss,
    mean_score_ratio,
    predict_diagnosis,
    relative_prevalence,
)
from purple.visits import generate_visit_corpus, select_symptoms, simulate_labels

SIGMOID_1 = 1.0 / (1.0 + math.exp(-1.0))


class TestLogisticKernel:
    Z = np.concatenate([np.linspace(-1000.0, 1000.0, 200001),
                        [0.0, -0.0, 745.0, -745.0, 746.0, -746.0]])

    def test_matches_scipy_expit_and_logaddexp(self):
        sigmoid, softplus = _logistic(self.Z, with_softplus=True)
        # Below z = -709 scipy's expit underflows to 0 where the kernel keeps
        # the subnormal exp(z); an atol of the smallest normal admits only that.
        tiny = np.finfo(np.float64).tiny
        np.testing.assert_allclose(sigmoid, expit(self.Z), rtol=1e-15, atol=tiny)
        np.testing.assert_allclose(softplus, np.logaddexp(0.0, self.Z), rtol=1e-15, atol=tiny)
        np.testing.assert_array_equal(_logistic(self.Z), sigmoid)

    def test_no_floating_point_exceptions(self):
        with np.errstate(over="raise", divide="raise", invalid="raise"):
            sigmoid, softplus = _logistic(self.Z, with_softplus=True)
        assert np.all(np.isfinite(sigmoid)) and np.all(np.isfinite(softplus))


class TestPredict:
    def test_zero_parameters_score_half(self):
        m = PurpleModel(np.zeros(3), 0.0, np.zeros(2), ["a", "b"])
        assert m.predict(np.array([5.0, -2.0, 1.0])) == 0.5

    def test_unit_weight_scores_sigmoid_one(self):
        m = PurpleModel(np.array([1.0, 0.0]), 0.0, np.zeros(1), ["a"])
        assert m.predict(np.array([1.0, 0.0])) == pytest.approx(SIGMOID_1, abs=1e-12)

    def test_monotone_in_projection(self):
        rng = np.random.default_rng(0)
        m = random_model(rng)
        x = rng.standard_normal((50, 5))
        z = x @ m.w + m.b
        order = np.argsort(z)
        scores = m.predict(x)
        assert np.all(np.diff(scores[order]) >= 0)

    def test_fitted_model_is_a_logistic_scorer(self):
        data = generate_gauss(GaussSynthConfig(n_a=200, n_b=300), 4)
        tr, va, te = split(data, SplitSpec(seed=0), 0)
        model = fit(tr, va, TrainConfig(lambda_grid=(0.0,), max_epochs=30)).model
        assert isinstance(model, LogisticScorer)
        for features in (te.features, te.features.dense_rows(),
                         FeatureMatrix(sp.csr_matrix(te.features.dense_rows()))):
            want = _logistic(_linear(features, model.w, model.b))
            assert model.predict(features).tobytes() == want.tobytes()

    def test_diagnosis_limits(self):
        m = PurpleModel(np.array([1.0]), 0.0, np.array([-40.0, 10.0]), ["a", "b"])
        x = np.array([[0.3]])
        assert predict_diagnosis(m, x, "a")[0] == pytest.approx(0.0, abs=1e-12)
        score = m.predict(x)[0]
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


class TestFusedLossAndGradients:
    """``gradients(..., with_loss=True)`` takes the loss from its own forward
    pass; it must be the same bits as the separate ``loss`` and
    ``gradients``."""

    @staticmethod
    def clamped_batch(sparse):
        rng = np.random.default_rng(8)
        x = rng.standard_normal((40, 5))
        x[rng.uniform(size=x.shape) < 0.4] = 0.0
        group = rng.integers(0, 3, 40)
        x[:3], group[:3] = 50.0, 2  # score and c both round to 1: p on the upper clamp
        group[3:6] = 0  # c = sigmoid(-40): p on the lower clamp
        s = rng.integers(0, 2, 40)
        s[:6] = [1, 0, 1, 0, 1, 0]
        feats = FeatureMatrix(sp.csr_matrix(x) if sparse else x)
        m = PurpleModel(rng.uniform(0.2, 1.0, 5), 0.3, np.array([-40.0, 0.2, 40.0]),
                        ["a", "b", "c"])
        return m, LabeledDataset(feats, group, ["a", "b", "c"], s)

    def test_one_log_cross_entropy_is_the_two_log_bits(self):
        rng = np.random.default_rng(9)
        p = np.concatenate([rng.uniform(size=500), rng.uniform(size=100) * 1e-10,
                            1.0 - rng.uniform(size=100) * 1e-10,
                            [0.0, 5e-324, PROB_FLOOR, 0.5, 1.0 - PROB_FLOOR, 1.0]])
        s = rng.integers(0, 2, p.size)
        q = np.clip(p, PROB_FLOOR, 1.0 - PROB_FLOOR)
        two_log = -float((s * np.log(q) + (1.0 - s) * np.log(1.0 - q)).mean())
        assert _label_cross_entropy(p, s == 1) == two_log

    @pytest.mark.parametrize("sparse", [False, True])
    @pytest.mark.parametrize("lam", [0.0, 1e-2])
    def test_bitwise_equal_to_loss_and_gradients(self, sparse, lam):
        m, batch = self.clamped_batch(sparse)
        p = predict_diagnosis(m, batch.features, batch.group)
        assert np.any(p <= PROB_FLOOR) and np.any(p >= 1.0 - PROB_FLOOR)
        fused_loss, *fused_grad = gradients(m, batch, lam, with_loss=True)
        assert fused_loss == loss(m, batch, lam)
        for a, b in zip(fused_grad, gradients(m, batch, lam)):
            np.testing.assert_array_equal(a, b)


class TestLbfgsFit:
    """``_lbfgs_fit`` on the core objective against scipy's L-BFGS-B run to
    tight tolerances. A ridge term ``0.5 * WD * ||p||^2`` and column scales
    1 to 16 make the objective well conditioned near its optimum, so the
    solver's stop at
    ``max|g| < 1e-5`` lands within 1e-5 of it after a dozen iterations.
    Without them the shared-constant direction of ``sigmoid(w.x+b) *
    sigmoid(theta_g)`` is nearly flat, and any solver stopping at that
    gradient, scipy's own L-BFGS-B at its defaults included, lands up to
    2e-4 from the optimum."""

    WD = 10.0

    @staticmethod
    def train_set(sparse, noise_dims=0):
        """A Gaussian training set with scaled columns, plus ``noise_dims``
        columns of small pure noise that a large enough L1 strength zeroes."""
        data = generate_gauss(GaussSynthConfig(n_a=1000, n_b=1500), 0)
        tr, _, _ = split(data, SplitSpec(seed=0), 0)
        noise = 0.1 * np.random.default_rng(1).standard_normal((tr.n_rows, noise_dims))
        x = np.hstack([tr.features.dense_rows() * [1.0, 2.0, 4.0, 8.0, 16.0], noise])
        return replace(tr, features=FeatureMatrix(sp.csr_matrix(x) if sparse else x))

    def objective(self, tr, lam):
        d = tr.n_dims

        def fg(p):
            m = PurpleModel(p[:d], p[d], p[d + 1:], tr.group_names)
            f, gw, gb, gtheta = gradients(m, tr, lam, with_loss=True)
            return f, np.concatenate([gw, [gb], gtheta])

        return fg

    def decayed(self, fg):
        def out(p):
            f, g = fg(p)
            return f + 0.5 * self.WD * float(p @ p), g + self.WD * p

        return out

    @pytest.mark.parametrize("sparse", [False, True])
    def test_matches_scipy_at_lambda_zero(self, sparse):
        tr = self.train_set(sparse)
        fg = self.objective(tr, 0.0)
        start = np.zeros(tr.n_dims + 3)
        params, _, iters, stop = _lbfgs_fit(self.decayed(fg), start, 1000)
        oracle = minimize(self.decayed(fg), start, jac=True, method="L-BFGS-B",
                          options={"maxiter": 10000, "ftol": 1e-15, "gtol": 1e-10})
        assert stop == "converged" and iters < 1000
        np.testing.assert_allclose(params, oracle.x, rtol=0, atol=1e-5)
        assert abs(self.decayed(fg)(params)[0] - oracle.fun) < 1e-9

    @pytest.mark.parametrize("sparse", [False, True])
    def test_owlqn_matches_split_variable_oracle(self, sparse):
        lam, noise_dims = 1e-2, 3
        tr = self.train_set(sparse, noise_dims)
        d = tr.n_dims
        fg = self.objective(tr, lam)
        smooth = self.decayed(self.objective(tr, 0.0))
        start = np.zeros(d + 3)
        params, _, _, stop = _lbfgs_fit(smooth, start, 1000, l1=lam, n_l1=d)

        def split_objective(q):  # w = u - v with u, v >= 0, so |w| = u + v at the optimum
            f, g = smooth(np.concatenate([q[:d] - q[d:2 * d], q[2 * d:]]))
            return (f + lam * q[:2 * d].sum(),
                    np.concatenate([g[:d] + lam, lam - g[:d], g[d:]]))

        oracle = minimize(split_objective, np.zeros(2 * d + 3), jac=True, method="L-BFGS-B",
                          bounds=[(0.0, None)] * (2 * d) + [(None, None)] * 3,
                          options={"maxiter": 10000, "ftol": 1e-15, "gtol": 1e-10})
        u, v = oracle.x[:d], oracle.x[d:2 * d]
        zero = (u == 0.0) & (v == 0.0)
        assert stop == "converged"
        assert zero[-noise_dims:].all() and not zero[:-noise_dims].any()
        np.testing.assert_array_equal(params[:d][zero], 0.0)
        np.testing.assert_allclose(params, np.concatenate([u - v, oracle.x[2 * d:]]),
                                   rtol=0, atol=1e-5)
        assert abs(self.decayed(fg)(params)[0] - oracle.fun) < 1e-9

    @pytest.mark.parametrize("sparse", [False, True])
    def test_penalty_is_counted_once(self, sparse):
        # The objective is smooth and the solver adds the L1 term: the value
        # it hands to val_loss at each iterate is the penalized reference loss.
        lam, tr = 1e-3, self.train_set(sparse, noise_dims=3)
        d = tr.n_dims
        seen = []

        def val_loss(p, f):
            seen.append((p, f))
            return f

        _lbfgs_fit(self.objective(tr, 0.0), np.zeros(d + 3), 30, l1=lam, n_l1=d,
                   val_loss=val_loss, patience=30)
        assert len(seen) > 10 and any((p[:d] == 0.0).any() for p, _ in seen)
        for p, f in seen:
            assert f == loss(PurpleModel(p[:d], p[d], p[d + 1:], tr.group_names), tr, lam)

    def test_early_stop_returns_the_best_validation_iterate(self):
        fg = self.objective(self.train_set(False), 0.0)
        script = [5.0, 4.0, 3.0, 3.5, 3.2, 3.1, 2.0, 1.0]
        seen = []

        def val_loss(p, f):
            seen.append(p)
            return script[len(seen) - 1]

        params, best, iters, stop = _lbfgs_fit(fg, np.zeros(8), 50, val_loss=val_loss,
                                               patience=3)
        # best at iteration 3, then patience=3 worse iterations
        assert (iters, stop, best) == (6, "early-stopped", 3.0)
        np.testing.assert_array_equal(params, seen[2])

    def test_empty_memory_changes_nothing(self):
        fg = self.objective(self.train_set(False), 0.0)
        start = np.zeros(8)
        cold = _lbfgs_fit(fg, start, 1000)
        memory = []
        with_memory = _lbfgs_fit(fg, start, 1000, memory=memory)
        assert cold[1:] == with_memory[1:] and cold[2] > _LBFGS_MEMORY
        np.testing.assert_array_equal(cold[0], with_memory[0])
        assert len(memory) == _LBFGS_MEMORY

    @pytest.mark.parametrize("sparse", [False, True])
    def test_memory_carries_across_a_linear_shift(self, sparse):
        # Soft-target logistic objectives, as in EM's M-steps: the targets q
        # enter mean(softplus(z) - q*z) linearly, so the curvature pairs of
        # one fit hold for the next.
        tr = self.train_set(sparse)
        x, d = tr.features, tr.n_dims

        def soft_target_objective(q):
            def fg(p):
                z = _linear(x, p[:d], p[d])
                sigmoid, softplus = _logistic(z, with_softplus=True)
                r = sigmoid - q
                return float(np.mean(softplus - q * z)), np.append(x.rtvec(r) / x.n_rows,
                                                                 r.mean())
            return fg

        memory = []
        first = _lbfgs_fit(soft_target_objective(tr.s.astype(np.float64)), np.zeros(d + 1),
                           1000, memory=memory)[0]
        assert 0 < len(memory) <= _LBFGS_MEMORY
        shifted = soft_target_objective(np.where(tr.s == 1, 1.0, 0.3))
        cold = _lbfgs_fit(shifted, first, 1000)
        warm = _lbfgs_fit(shifted, first, 1000, memory=memory)
        oracle = minimize(shifted, first, jac=True, method="L-BFGS-B",
                          options={"maxiter": 10000, "ftol": 1e-15, "gtol": 1e-10})
        assert cold[3] == warm[3] == "converged"
        assert warm[2] < cold[2]
        assert len(memory) <= _LBFGS_MEMORY
        np.testing.assert_allclose(cold[0], oracle.x, rtol=0, atol=1e-5)
        np.testing.assert_allclose(warm[0], oracle.x, rtol=0, atol=1e-5)

    @pytest.mark.parametrize("sparse", [False, True])
    def test_feature_scale_takes_fewer_iterations_to_the_same_optimum(self, sparse):
        # The suites' variance-16 columns, unscaled and with no ridge: the
        # flat shared-constant direction leaves the 2e-4 band of the class
        # docstring on the parameters, and the objective must match.
        data = generate_gauss(GaussSynthConfig(n_a=1000, n_b=1500), 0)
        tr, _, _ = split(data, SplitSpec(seed=0), 0)
        if sparse:
            tr = replace(tr, features=FeatureMatrix(sp.csr_matrix(tr.features.raw)))
        assert (tr.features.column_mean_square() > 15.0).all()
        fg = self.objective(tr, 0.0)
        start = np.zeros(tr.n_dims + 3)
        scaled = _lbfgs_fit(fg, start, 1000, scale=_solver_scale(tr.features, 3))
        unscaled = _lbfgs_fit(fg, start, 1000, scale=np.ones_like(start))
        oracle = minimize(fg, start, jac=True, method="L-BFGS-B",
                          options={"maxiter": 10000, "ftol": 1e-15, "gtol": 1e-10})
        assert scaled[3] == unscaled[3] == "converged"
        assert scaled[2] < unscaled[2]
        np.testing.assert_allclose(scaled[0], oracle.x, rtol=0, atol=2e-4)
        assert abs(fg(scaled[0])[0] - oracle.fun) < 1e-9

    @pytest.mark.parametrize("bad", [(np.nan, 0.0), (np.inf, 0.0), (1.0, np.nan)])
    def test_non_finite_start_raises(self, bad):
        f0, g0 = bad

        def fg(p):
            return f0, np.full(p.size, g0)

        with pytest.raises(FloatingPointError, match="not finite at the starting point"):
            _lbfgs_fit(fg, np.zeros(3), 50)


class TestSolverScale:
    """``_solver_scale``: 1 / max(1, mean square) per weight column, from
    ``FeatureMatrix.column_mean_square``, then 1 for each other parameter."""

    def test_binary_csr_is_exactly_one(self):
        x = (np.random.default_rng(0).random((60, 9)) < 0.3).astype(np.float64)
        x[:, 0] = 1.0  # a column of ones has mean square exactly 1
        np.testing.assert_array_equal(_solver_scale(FeatureMatrix(sp.csr_matrix(x)), 3),
                                      np.ones(12))

    def test_dense_columns_up_to_unit_mean_square_are_exactly_one(self):
        x = np.array([[1.0, 0.5, -1.0], [-1.0, -0.25, 0.0], [1.0, 0.0, 1.0]])
        np.testing.assert_array_equal(FeatureMatrix(x).column_mean_square()[0], 1.0)
        np.testing.assert_array_equal(_solver_scale(FeatureMatrix(x), 2), np.ones(5))

    def test_columns_above_unit_mean_square_get_its_inverse(self):
        x = np.array([[2.0, 0.5], [4.0, -1.0]])
        fm = FeatureMatrix(x)
        np.testing.assert_array_equal(fm.column_mean_square(), [10.0, 0.625])
        np.testing.assert_array_equal(_solver_scale(fm, 1), [0.1, 1.0, 1.0])
        csr = FeatureMatrix(sp.csr_matrix(x))
        np.testing.assert_array_equal(_solver_scale(csr, 1), [0.1, 1.0, 1.0])

    @pytest.mark.parametrize("sparse", [False, True])
    def test_take_rows_uses_its_own_rows(self, sparse):
        x = np.array([[4.0], [0.0], [0.0], [0.0]])
        fm = FeatureMatrix(sp.csr_matrix(x) if sparse else x)
        np.testing.assert_array_equal(_solver_scale(fm, 1), [0.25, 1.0])
        np.testing.assert_array_equal(_solver_scale(fm.take_rows([0]), 1), [1.0 / 16.0, 1.0])
        np.testing.assert_array_equal(_solver_scale(fm.take_rows([1, 2]), 1), [1.0, 1.0])

    def test_non_canonical_csr_sums_duplicates_first(self):
        # Two stored 0.6 at one position are one 1.2 to the products: the
        # column's mean square is 1.44, not 0.72, and it gets scaled.
        x = sp.csr_matrix((np.array([0.6, 0.6, 0.5]), np.array([0, 0, 1]), np.array([0, 3])),
                          shape=(1, 2))
        fm = FeatureMatrix(x)
        assert not fm.raw.has_canonical_format
        np.testing.assert_array_equal(fm.matvec(np.array([1.0, 0.0])), [0.6 + 0.6])
        np.testing.assert_array_equal(_solver_scale(fm, 1),
                                      [1.0 / np.square(0.6 + 0.6), 1.0, 1.0])
        assert not fm.raw.has_canonical_format


class TestFit:
    def small_data(self, seed=0):
        data = generate_gauss(GaussSynthConfig(n_a=600, n_b=900), seed)
        return split(data, SplitSpec(seed=seed), 0)

    def test_non_finite_features_raise_instead_of_converging(self):
        # The feature matrix rejects non-finite values when it is built; one
        # written into its storage afterwards reaches the solver, which must
        # not report a zero-iteration "converged" fit at w = 0.
        data = generate_gauss(GaussSynthConfig(n_a=300, n_b=450), 3)
        tr, va, _ = split(data, SplitSpec(seed=3), 0)
        tr.features.raw[0, 0] = np.nan
        with pytest.raises(FloatingPointError, match="not finite"):
            fit(tr, va, TrainConfig(lambda_grid=(1e-2, 0.0), max_epochs=50))

    def test_deterministic_serialization(self):
        tr, va, _ = self.small_data()
        cfg = TrainConfig(lambda_grid=(0.0, 1e-3), max_epochs=60, patience=10)
        r1 = fit(tr, va, cfg)
        r2 = fit(tr, va, cfg)
        assert json.dumps(asdict(r1), default=np.ndarray.tolist) == \
            json.dumps(asdict(r2), default=np.ndarray.tolist)

    def test_selected_lambda_in_grid(self):
        tr, va, _ = self.small_data()
        cfg = TrainConfig(lambda_grid=(1e-2, 0.0), max_epochs=40, patience=40)
        res = fit(tr, va, cfg)
        assert res.selected_lambda in cfg.lambda_grid
        assert len(res.lambda_metrics) == 2

    def test_training_without_a_positive_refused(self):
        tr, va, te = self.small_data()
        tr.s = np.zeros_like(tr.s)
        cfg = TrainConfig(lambda_grid=(0.0,), max_epochs=5, patience=5)
        message = "^the core fit requires at least one observed positive in training$"
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # refused, not warned about
            with pytest.raises(ValueError, match=message):
                fit(tr, va, cfg)
            with pytest.raises(ValueError, match=message):
                baseline_relative_prevalence("purple", tr, va, te, "a", "b", config=cfg)

    def test_group_missing_from_train_rejected(self):
        tr, va, _ = self.small_data()
        tr2 = tr.take_rows(np.flatnonzero(tr.group == 0))
        with pytest.raises(ValueError, match="absent in train"):
            fit(tr2, va, TrainConfig(max_epochs=5))

    def test_empty_val_rejected(self):
        tr, va, _ = self.small_data()
        with pytest.raises(ValueError, match="^val has no rows"):
            fit(tr, va.take_rows(np.arange(0)), TrainConfig(max_epochs=5))

    def test_train_loss_moving_average_non_increasing(self):
        tr, va, _ = self.small_data()
        cfg = TrainConfig(lambda_grid=(0.0,), max_epochs=300, patience=300)
        res = fit(tr, va, cfg)
        train_losses = np.array([t[1] for t in res.loss_trace])
        window = np.convolve(train_losses, np.ones(10) / 10, mode="valid")
        assert np.all(np.diff(window) <= 1e-9)

    @pytest.mark.parametrize("max_epochs,patience", [(400, 3), (25, 100)])
    def test_loss_trace_has_one_entry_per_epoch(self, max_epochs, patience):
        tr, va, _ = self.small_data()
        cfg = TrainConfig(lambda_grid=(1e-3, 0.0), max_epochs=max_epochs, patience=patience)
        res = fit(tr, va, cfg)
        assert [t[0] for t in res.loss_trace] == list(range(1, res.epochs_run + 1))
        stop = {m["lambda"]: m["stop"] for m in res.lambda_metrics}[res.selected_lambda]
        assert stop in ("converged", "budget" if patience > max_epochs else "early-stopped")
        assert (res.epochs_run == max_epochs) == (stop == "budget")

    def test_labeling_frequency_ratio_recovered(self):
        # individual frequencies are not identifiable; their ratio is.
        ratios = []
        for seed in range(3):
            data = generate_gauss(GaussSynthConfig(n_a=4000, n_b=8000), seed)
            tr, va, _ = split(data, SplitSpec(seed=seed), 0)
            cfg = TrainConfig(lambda_grid=(0.0,), max_epochs=2500, patience=30)
            res = fit(tr, va, cfg)
            c = res.model.c
            ratios.append(c[0] / c[1])
        assert abs(np.mean(ratios) - 2.0) < 0.3


class TestLambdaGrid:
    """The default grid drops the old six-value grid's 1e-4, 1e-5 and 1e-6
    fits and nothing else, and the semisynth suite's grid drops λ = 0 too:
    each fit depends on its own λ, not on the rest of the grid."""

    def test_each_fit_is_the_same_in_either_grid(self, monkeypatch):
        visits, group, names = generate_visit_corpus(300, 450, 60, seed=0)
        visits, v_sym = select_symptoms(visits, group, names, "common", 0)
        data = simulate_labels(visits, group, names, v_sym, {"a": 0.5, "b": 0.3}, 0)
        tr, va, _ = split(data, SplitSpec(seed=0), 0)
        assert tr.features.is_sparse
        six_fits = {}
        train_one = model_module._train_one_lambda

        def recording(train, val, config, lam):
            out = train_one(train, val, config, lam)
            six_fits[lam] = out[0]
            return out

        with monkeypatch.context() as patch:
            patch.setattr(model_module, "_train_one_lambda", recording)
            six = fit(tr, va, TrainConfig(lambda_grid=(1e-2, 1e-3, 1e-4, 1e-5, 1e-6, 0.0)))
        new = fit(tr, va, TrainConfig())
        assert [m["lambda"] for m in new.lambda_metrics] == [0.01, 0.001, 0.0]
        six_metrics = {m["lambda"]: m for m in six.lambda_metrics}
        for metrics in new.lambda_metrics:
            assert metrics == six_metrics[metrics["lambda"]]
        assert new.model == six_fits[new.selected_lambda]
        semi = fit(tr, va, TrainConfig(lambda_grid=make_suite("semisynth").train.lambda_grid))
        assert semi.lambda_metrics == new.lambda_metrics[:2]
        assert semi.model == six_fits[semi.selected_lambda]


class TestLossTrace:
    """Each ``loss_trace`` train loss is ``loss`` at that iteration's end
    point, replayed by running ``_lbfgs_fit``, with ``_train_one_lambda``'s
    feature scale, for exactly that many."""

    LAM = 1e-3

    def replay_losses(self, tr, n_iters):
        d = tr.n_dims
        start = np.zeros(d + 1 + len(tr.group_names))

        def model_at(p):
            return PurpleModel(p[:d], p[d], p[d + 1:], tr.group_names)

        def objective(p):
            f, gw, gb, gtheta = gradients(model_at(p), tr, 0.0, with_loss=True)
            return f, np.concatenate([gw, [gb], gtheta])

        scale = _solver_scale(tr.features, 1 + len(tr.group_names))
        return [loss(model_at(_lbfgs_fit(objective, start, k, l1=self.LAM, n_l1=d,
                                         scale=scale)[0]), tr, self.LAM)
                for k in range(1, n_iters + 1)]

    def test_train_loss_at_each_iteration_end(self):
        data = generate_gauss(GaussSynthConfig(n_a=300, n_b=450), 0)
        tr, va, _ = split(data, SplitSpec(seed=0), 0)
        cfg = TrainConfig(lambda_grid=(self.LAM,), max_epochs=12, patience=13)
        res = fit(tr, va, cfg)
        assert res.epochs_run == 12
        assert [t[1] for t in res.loss_trace] == self.replay_losses(tr, 12)

    def test_early_stop_fills_the_last_entry(self):
        data = generate_gauss(GaussSynthConfig(n_a=600, n_b=900), 0)
        tr, va, _ = split(data, SplitSpec(seed=0), 0)
        cfg = TrainConfig(lambda_grid=(self.LAM,), max_epochs=400, patience=3)
        res = fit(tr, va, cfg)
        assert res.epochs_run < cfg.max_epochs
        assert len(res.loss_trace) == res.epochs_run
        assert res.loss_trace[-1][1] == self.replay_losses(tr, res.epochs_run)[-1]


class TestSerialization:
    @pytest.mark.parametrize("kwargs, message", [
        ({"lambda_grid": ()}, "lambda_grid must be a non-empty list of finite values"),
        ({"lambda_grid": (1e-3, float("nan"))},
         "lambda_grid must be a non-empty list of finite values"),
        ({"lambda_grid": (float("inf"),)},
         "lambda_grid must be a non-empty list of finite values"),
        ({"lambda_grid": (1e-3, -1e-3)}, "lambda values must be non-negative"),
        ({"max_epochs": 0}, "max_epochs and patience must be at least 1"),
        ({"patience": 0}, "max_epochs and patience must be at least 1"),
    ])
    def test_train_config_rejects_values_no_fit_can_use(self, kwargs, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            TrainConfig(**kwargs)

    def test_model_equality_compares_values(self):
        m = PurpleModel(np.array([1.0, 2.0]), 0.5, np.zeros(2), ["a", "b"])
        assert m == PurpleModel([1.0, 2.0], 0.5, [0.0, 0.0], ["a", "b"])
        assert m != PurpleModel(np.array([1.0, 2.5]), 0.5, np.zeros(2), ["a", "b"])
        assert m != PurpleModel(np.array([1.0, 2.0]), 0.5, np.ones(2), ["a", "b"])
        assert m != PurpleModel(np.array([1.0, 2.0]), 0.5, np.zeros(2), ["a", "c"])
        assert m != PurpleModel(np.array([1.0, 2.0]), 0.5, np.zeros(3), ["a", "b", "c"])
        # Every scorer compares by class and values, and no comparison raises.
        scorer = LogisticScorer(np.ones(5), 0.0)
        purple = PurpleModel(np.ones(5), 0.0, np.zeros(2), ["a", "b"])
        em = EmFit(np.ones(5), 0.0, 0.5, True, 3)
        assert scorer == LogisticScorer(np.ones(5), 0.0)
        assert scorer != LogisticScorer(np.array([1.0, 1.0, 1.0, 1.0, 2.0]), 0.0)
        assert scorer != purple and purple != scorer
        assert em == EmFit(np.ones(5), 0.0, 0.5, True, 3)
        assert em != EmFit(np.ones(5), 0.0, 0.5, True, 4)
        assert em != scorer and scorer != em

    def test_estimate_from_splits(self):
        est = RelativePrevalenceEstimate.from_splits("a", "b", [1.0, 2.0, 3.0], 4.0, ["x"])
        assert est.value == 2.0 and est.ratio_to_true == 0.5
        assert asdict(est)["per_split_values"] == [1.0, 2.0, 3.0]
        assert RelativePrevalenceEstimate.from_splits("a", "b", [1.0]).ratio_to_true is None

    def test_constructor_keeps_its_arguments(self):
        est = RelativePrevalenceEstimate("a", "b", 9.0, per_split_values=[1.0], true_value=2.0)
        assert est.value == 9.0 and est.ratio_to_true is None


def grouped(group, names=("a", "b")):
    """A featureless dataset with rows in ``group``: all that
    ``mean_score_ratio`` reads besides the scores."""
    group = np.asarray(group)
    return LabeledDataset(FeatureMatrix(np.zeros((group.size, 1))), group, list(names),
                          np.zeros(group.size, dtype=np.int8))


class TestRelativePrevalence:
    def test_constant_score_gives_one(self):
        data = generate_gauss(GaussSynthConfig(n_a=50, n_b=50), 0)
        m = PurpleModel(np.zeros(5), -0.4, np.zeros(2), ["a", "b"])
        assert relative_prevalence(m, data, "a", "b") == pytest.approx(1.0, abs=1e-12)

    def test_mean_ratio_arithmetic(self):
        scores = np.array([0.2, 0.4, 0.1, 0.1, 0.1])
        data = grouped([0, 0, 1, 1, 1])
        assert mean_score_ratio(scores, data, "a", "b") == pytest.approx(3.0, abs=1e-12)
        assert mean_score_ratio(scores, data, "a") == mean_score_ratio(scores, data, "a", "b")

    def test_scale_invariance(self):
        rng = np.random.default_rng(5)
        for _ in range(25):
            scores = rng.uniform(0.01, 1.0, size=40)
            mask = rng.uniform(size=40) < 0.5
            if not mask.any() or mask.all():
                continue
            data = grouped(np.where(mask, 0, 1))
            base = mean_score_ratio(scores, data, "a")
            for k in (1e-6, 0.5, 3.0, 1e6):
                assert mean_score_ratio(k * scores, data, "a") == pytest.approx(base, rel=1e-12)

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
        with pytest.raises(ValueError, match="mean score in group 'b' is numerically zero"):
            mean_score_ratio(scores, grouped([0, 1]), "a", "b")
        with pytest.raises(ValueError, match="in the complement of group 'a' is numerically"):
            mean_score_ratio(scores, grouped([0, 1]), "a")

    def test_messages_name_the_empty_rows(self):
        data = grouped([1, 1, 2], names=("a", "b", "c"))
        scores = np.ones(3)
        with pytest.raises(ValueError, match="^no rows in group 'a'$"):
            mean_score_ratio(scores, data, "a", "b")
        with pytest.raises(ValueError, match="^no rows in group 'a'$"):
            mean_score_ratio(scores, data, "b", "a")
        with pytest.raises(ValueError, match="^no rows in the complement of group 'b'$"):
            mean_score_ratio(scores, grouped([1, 1]), "b")
        with pytest.raises(KeyError, match="unknown group 'zzz'"):
            mean_score_ratio(scores, data, "b", "zzz")

    def test_vs_complement_two_groups(self):
        data = generate_gauss(GaussSynthConfig(n_a=300, n_b=300), 2)
        m = random_model(np.random.default_rng(1))
        assert relative_prevalence(m, data, "a") == relative_prevalence(m, data, "a", "b")

    def test_vs_complement_three_groups_pooled_mean(self):
        rng = np.random.default_rng(7)
        x = rng.standard_normal((60, 4))
        group = np.repeat([0, 1, 2], 20)
        data = LabeledDataset(FeatureMatrix(x), group, ["a", "b", "c"],
                              np.zeros(60, dtype=np.int8))
        m = random_model(rng, d=4, n_groups=3)
        scores = m.predict(data.features)
        expected = scores[group == 1].mean() / scores[group != 1].mean()
        assert relative_prevalence(m, data, "b") == pytest.approx(expected, rel=1e-12)

    def test_single_group_complement_empty(self):
        x = np.zeros((5, 2))
        data = LabeledDataset(FeatureMatrix(x), [0] * 5, ["a"], [0] * 5)
        m = PurpleModel(np.zeros(2), 0.0, np.zeros(1), ["a"])
        with pytest.raises(ValueError, match="no rows in the complement of group 'a'"):
            relative_prevalence(m, data, "a")

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
        estimator = mean_score_ratio(np.asarray(scores), grouped(groups), "a", "b")
        # enumeration of sum_x p(x) p(x|g) over the finite support
        pxa = counts_a / counts_a.sum()
        pxb = counts_b / counts_b.sum()
        enumerated = float((p_table * pxa).sum() / (p_table * pxb).sum())
        assert estimator == enumerated
