import numpy as np
import pytest
import scipy.special
import scipy.stats

from purple import stats
from purple.harness import make_suite, run_suite
from purple.model import TrainConfig
from purple.stats import _incomplete_beta, paired_t_test


class TestIncompleteBeta:
    def test_matches_scipy(self):
        rng = np.random.default_rng(0)
        for _ in range(500):
            a = float(rng.uniform(0.2, 40.0))
            b = float(rng.uniform(0.2, 40.0))
            x = float(rng.uniform(0.0, 1.0))
            assert _incomplete_beta(a, b, x) == pytest.approx(
                float(scipy.special.betainc(a, b, x)), abs=1e-12)

    def test_matches_scipy_at_the_t_tests_arguments(self):
        # The p-value of t on df degrees of freedom is I_x(df/2, 1/2), x = df/(df+t^2).
        ts = np.concatenate([[0.0], np.geomspace(1e-6, 1e3, 40)])
        for df in range(1, 1001):
            x = df / (df + ts * ts)
            ref = scipy.special.betainc(df / 2.0, 0.5, x)
            ours = [_incomplete_beta(df / 2.0, 0.5, float(xi)) for xi in x]
            # Below the smallest normal float both sides lose relative precision.
            assert ours == pytest.approx(ref.tolist(), rel=1e-11, abs=1e-300), df

    def test_endpoints(self):
        for a, b in ((2.0, 3.0), (0.5, 0.5), (500.0, 0.5)):
            for x in (0.0, 1.0):
                assert _incomplete_beta(a, b, x) == float(scipy.special.betainc(a, b, x)) == x

    def test_suite_records_non_convergence_as_a_t_test_error(self, monkeypatch):
        # A ValueError, which the suite records in the entry instead of raising.
        monkeypatch.setattr(stats, "_MAX_ITER", 1)
        report = run_suite(make_suite(
            "label-frequency", methods=("purple", "negative"), sweep_values=(0.5,),
            n_splits=3, gauss_n=(300, 450),
            train=TrainConfig(lambda_grid=(0.0,), max_epochs=100, patience=100)))
        assert report.t_tests
        for entry in report.t_tests:
            assert "p" not in entry
            assert "did not converge" in entry["error"]


class TestPairedTTest:
    def test_matches_scipy_oracle(self):
        rng = np.random.default_rng(1)
        for _ in range(100):
            n = int(rng.integers(3, 25))
            a = rng.standard_normal(n)
            b = rng.standard_normal(n)
            ours = paired_t_test(a, b)
            ref = scipy.stats.ttest_rel(a, b)
            assert ours.t == pytest.approx(float(ref.statistic), rel=1e-10)
            assert ours.p == pytest.approx(float(ref.pvalue), rel=1e-8, abs=1e-12)
            assert ours.df == n - 1

    def test_known_mean_and_sd(self):
        # differences (1, 1, -1, 0, 0): mean 0.2, sample sd sqrt(0.7)
        a = np.array([1.0, 1.0, -1.0, 0.0, 0.0])
        b = np.zeros(5)
        res = paired_t_test(a, b)
        expected_t = 0.2 / (np.sqrt(0.7) / np.sqrt(5))
        assert res.t == pytest.approx(expected_t, rel=1e-12)
        assert res.p == pytest.approx(float(scipy.stats.ttest_rel(a, b).pvalue), rel=1e-9)

    def test_antisymmetry(self):
        rng = np.random.default_rng(2)
        a = rng.standard_normal(8)
        b = rng.standard_normal(8)
        fwd = paired_t_test(a, b)
        rev = paired_t_test(b, a)
        assert fwd.t == pytest.approx(-rev.t, rel=1e-12)
        assert fwd.p == pytest.approx(rev.p, rel=1e-12)

    def test_zero_sd_rejected(self):
        with pytest.raises(ValueError, match="zero standard deviation"):
            paired_t_test([1.0, 2.0, 3.0], [0.5, 1.5, 2.5])

    def test_too_short_rejected(self):
        with pytest.raises(ValueError, match="at least two"):
            paired_t_test([1.0], [0.0])

    @pytest.mark.parametrize("a, b", [([np.nan, 1.0, 2.0], [0.0, 0.0, 0.5]),
                                      ([0.0, 1.0, 2.0], [0.0, np.inf, 0.5]),
                                      ([-np.inf, 1.0], [0.0, 0.0])])
    def test_non_finite_rejected(self, a, b):
        with pytest.raises(ValueError, match="must be finite"):
            paired_t_test(a, b)

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError, match="equal length"):
            paired_t_test([1.0, 2.0], [0.0])
