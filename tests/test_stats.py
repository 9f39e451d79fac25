import numpy as np
import pytest
import scipy.stats

from purple.stats import paired_t_test


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

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError, match="equal length"):
            paired_t_test([1.0, 2.0], [0.0])
