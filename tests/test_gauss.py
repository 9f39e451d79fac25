from dataclasses import replace

import numpy as np
import pytest
from scipy.special import expit

from purple.baselines import fit_logistic
from purple.data import SplitSpec, split, write_dataset
from purple.gauss import GaussSynthConfig, generate_gauss
from purple.metrics import auc
from purple.model import TrainConfig


def mc_group_prevalence(mean, variance, n=1_000_000, seed=123):
    """Independent Monte Carlo of the generative equations for one group."""
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((n, 5)) * np.sqrt(variance) + mean
    p = expit(x @ np.ones(5) / np.sqrt(5.0))
    return p.mean(), p.std() / np.sqrt(n)


class TestGenerate:
    def test_shapes_and_groups(self):
        data = generate_gauss(GaussSynthConfig(n_a=100, n_b=200), 0)
        assert data.n_rows == 300 and data.n_dims == 5
        assert (data.group == 0).sum() == 100 and (data.group == 1).sum() == 200
        assert data.group_names == ["a", "b"]

    def test_prevalence_matches_monte_carlo_oracle(self):
        data = generate_gauss(GaussSynthConfig(), 0)
        for gid, mean in ((0, -1.0), (1, 1.0)):
            mask = data.group == gid
            emp = data.y[mask].mean()
            mc, mc_se = mc_group_prevalence(mean, 16.0)
            se = np.sqrt(mc_se ** 2 + emp * (1 - emp) / mask.sum())
            assert abs(emp - mc) < 3 * se

    def test_zero_labeling_frequency(self):
        data = generate_gauss(GaussSynthConfig(n_a=500, n_b=500, c={"a": 0.0, "b": 0.0}), 1)
        assert data.s.sum() == 0

    def test_full_labeling_frequency(self):
        data = generate_gauss(GaussSynthConfig(n_a=500, n_b=500, c={"a": 1.0, "b": 1.0}), 1)
        np.testing.assert_array_equal(data.s, data.y)

    def test_no_false_positives_everywhere(self):
        for cfg in (GaussSynthConfig(n_a=800, n_b=800),
                    GaussSynthConfig(n_a=800, n_b=800, separable=True),
                    GaussSynthConfig(n_a=800, n_b=800, violation_delta=0.3)):
            data = generate_gauss(cfg, 9)
            assert int(((data.s == 1) & (data.y == 0)).sum()) == 0

    def test_scar_within_group(self):
        data = generate_gauss(GaussSynthConfig(), 4)
        for gid, c in ((0, 0.5), (1, 0.25)):
            mask = (data.group == gid) & (data.y == 1)
            rate = data.s[mask].mean()
            se = np.sqrt(c * (1 - c) / mask.sum())
            assert mask.sum() >= 1e4 / 4
            assert abs(rate - c) < 3 * se

    def test_observed_rate_is_c_times_prevalence(self):
        data = generate_gauss(GaussSynthConfig(), 2)
        mc, _ = mc_group_prevalence(1.0, 16.0)
        mask = data.group == 1
        emp = data.s[mask].mean()
        expected = 0.25 * mc
        se = np.sqrt(expected * (1 - expected) / mask.sum())
        assert abs(emp - expected) < 3 * se

    def test_covariate_shift_exact(self):
        # latent_p is a function of x only: recompute from features.
        data = generate_gauss(GaussSynthConfig(n_a=300, n_b=300), 5)
        z = data.features.dense_rows() @ np.ones(5) / np.sqrt(5.0)
        np.testing.assert_allclose(data.latent_p, expit(z), rtol=0, atol=1e-12)

    def test_same_seed_same_bytes(self, tmp_path):
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        write_dataset(generate_gauss(GaussSynthConfig(n_a=300, n_b=300), 7), str(p1))
        write_dataset(generate_gauss(GaussSynthConfig(n_a=300, n_b=300), 7), str(p2))
        assert p1.read_bytes() == p2.read_bytes()

    def test_c_change_keeps_features(self):
        d1 = generate_gauss(GaussSynthConfig(n_a=200, n_b=200, c={"a": 0.5, "b": 0.25}), 3)
        d2 = generate_gauss(GaussSynthConfig(n_a=200, n_b=200, c={"a": 0.9, "b": 0.1}), 3)
        np.testing.assert_array_equal(d1.features.dense_rows(), d2.features.dense_rows())
        np.testing.assert_array_equal(d1.y, d2.y)


class TestConfig:
    @pytest.mark.parametrize("n_dims", [0, -1])
    def test_no_dimensions_rejected(self, n_dims):
        with pytest.raises(ValueError, match="n_dims must be at least 1"):
            GaussSynthConfig(n_dims=n_dims)

    @pytest.mark.parametrize("sizes", [{"n_a": 0}, {"n_b": 0}, {"n_a": -1, "n_b": 300}])
    def test_empty_group_rejected(self, sizes):
        with pytest.raises(ValueError, match="^n_a and n_b must be at least 1, got "):
            GaussSynthConfig(**sizes)


class TestMakeSeparable:
    """``generate_gauss`` with ``separable=True``, checked against the
    nonseparable draw of the same config and seed."""

    @staticmethod
    def draws(cfg: GaussSynthConfig, seed: int):
        """The nonseparable and separable draws, and the index each separable
        row has in the nonseparable one, found by its feature bytes."""
        data = generate_gauss(cfg, seed)
        out = generate_gauss(replace(cfg, separable=True), seed)
        where = {row.tobytes(): i for i, row in enumerate(data.features.dense_rows())}
        kept = np.array([where[row.tobytes()] for row in out.features.dense_rows()])
        return data, out, kept

    def test_forty_percent_removed(self):
        _, out, _ = self.draws(GaussSynthConfig(n_a=5, n_b=5), 0)
        assert out.n_rows == 6

    def test_latent_collapsed_to_indicator(self):
        data, out, kept = self.draws(GaussSynthConfig(n_a=400, n_b=400), 1)
        np.testing.assert_array_equal(out.latent_p, (data.latent_p[kept] > 0.5).astype(float))
        np.testing.assert_array_equal(out.y, out.latent_p.astype(np.int8))

    def test_drops_rows_closest_to_boundary(self):
        for delta in (0.0, 0.3):
            cfg = GaussSynthConfig(n_a=500, n_b=500, violation_delta=delta)
            data, out, kept = self.draws(cfg, 2)
            assert kept.size == data.n_rows - int(np.floor(0.4 * data.n_rows))
            assert np.all(np.diff(kept) > 0)  # the original order
            np.testing.assert_array_equal(out.group, data.group[kept])
            closeness = np.abs(data.latent_p - 0.5)
            assert closeness[kept].min() >= np.delete(closeness, kept).max()

    def test_classes_linearly_separable_by_fit(self):
        data = generate_gauss(GaussSynthConfig(n_a=1500, n_b=3000, separable=True), 0)
        tr, va, _ = split(data, SplitSpec(seed=0), 0)
        cfg = TrainConfig(lambda_grid=(0.0,), max_epochs=600, patience=600)
        scorer = fit_logistic(tr.features, tr.y, va.features, va.y, cfg)
        assert auc(scorer.predict(tr.features), tr.y) == 1.0

    def test_deterministic(self):
        d1 = generate_gauss(GaussSynthConfig(n_a=300, n_b=300, separable=True), 11)
        d2 = generate_gauss(GaussSynthConfig(n_a=300, n_b=300, separable=True), 11)
        np.testing.assert_array_equal(d1.s, d2.s)
        np.testing.assert_array_equal(d1.features.dense_rows(), d2.features.dense_rows())


def violation(cfg: GaussSynthConfig, delta: float, seed: int):
    return generate_gauss(replace(cfg, violation_delta=delta), seed)


class TestViolation:
    def test_zero_delta_identical(self):
        cfg = GaussSynthConfig(n_a=300, n_b=300)
        d0 = violation(cfg, 0.0, 5)
        d1 = generate_gauss(cfg, 5)
        np.testing.assert_array_equal(d0.latent_p, d1.latent_p)
        np.testing.assert_array_equal(d0.s, d1.s)

    def test_delta_widens_prevalence_gap(self):
        cfg = GaussSynthConfig()
        d0 = violation(cfg, 0.0, 6)
        d2 = violation(cfg, 0.2, 6)

        def gap(d):
            return d.y[d.group == 0].mean() - d.y[d.group == 1].mean()

        assert gap(d2) > gap(d0) + 0.1  # each group shifts by ~0.1

    def test_pointwise_ordering(self):
        # with shared x the offset orders the group probabilities pointwise
        cfg = GaussSynthConfig(n_a=400, n_b=400)
        d = violation(cfg, 0.3, 7)
        z = d.features.dense_rows() @ np.ones(5) / np.sqrt(5.0)
        base = expit(z)
        expected = np.clip(base + np.where(d.group == 0, 0.15, -0.15), 0.0, 1.0)
        np.testing.assert_allclose(d.latent_p, expected, atol=1e-12)

    def test_delta_out_of_range_rejected(self):
        for delta in (1.0, -1.0, 2.0):
            with pytest.raises(ValueError, match="violation_delta"):
                GaussSynthConfig(violation_delta=delta)
