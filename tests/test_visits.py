import math

import numpy as np
import pytest

from purple.data import FeatureMatrix
from purple.visits import (
    SYMPTOM_MODES,
    SemiSynthConfig,
    SymptomSet,
    drop_anchor_features,
    generate_visit_corpus,
    load_symptom_indices,
    select_common_symptoms,
    select_correlated_symptoms,
    select_high_rp_symptoms,
    select_symptoms,
    simulate_labels,
)


def binary_matrix(rows):
    return FeatureMatrix(np.asarray(rows, dtype=np.float64))


class TestSymptomSet:
    def test_sorted_and_deduped(self):
        s = SymptomSet((5, 1, 3))
        assert s.indices == (1, 3, 5)
        with pytest.raises(ValueError, match="duplicate"):
            SymptomSet((1, 1))
        with pytest.raises(ValueError, match="non-empty"):
            SymptomSet(())


class TestSimulateLabels:
    def test_zero_count_gives_half(self):
        visits = binary_matrix(np.zeros((4, 30)))
        v = SymptomSet(tuple(range(25)))
        data = simulate_labels(visits, np.zeros(4, dtype=int), ["a"], v,
                               SemiSynthConfig(c={"a": 0.5}, seed=0))
        np.testing.assert_allclose(data.latent_p, 0.5, atol=1e-15)

    def test_five_of_twentyfive(self):
        row = np.zeros(30)
        row[:5] = 1.0
        visits = binary_matrix([row])
        v = SymptomSet(tuple(range(25)))
        data = simulate_labels(visits, np.zeros(1, dtype=int), ["a"], v,
                               SemiSynthConfig(c={"a": 0.5}, seed=0))
        assert data.latent_p[0] == pytest.approx(1.0 / (1.0 + math.exp(-1.0)), abs=1e-12)

    def test_zero_frequency_means_no_labels(self):
        rng = np.random.default_rng(0)
        visits = binary_matrix((rng.uniform(size=(200, 40)) < 0.2).astype(float))
        v = SymptomSet(tuple(range(10)))
        data = simulate_labels(visits, rng.integers(0, 2, 200), ["a", "b"], v,
                               SemiSynthConfig(c={"a": 0.0, "b": 0.0}, seed=1))
        assert data.s.sum() == 0

    def test_non_binary_rejected(self):
        visits = FeatureMatrix(np.array([[0.5, 1.0]]))
        with pytest.raises(ValueError, match="binary"):
            simulate_labels(visits, np.zeros(1, dtype=int), ["a"], SymptomSet((0,)),
                            SemiSynthConfig(c={"a": 0.5}))

    def test_latent_depends_only_on_count(self):
        rng = np.random.default_rng(2)
        visits = binary_matrix((rng.uniform(size=(300, 50)) < 0.3).astype(float))
        v = SymptomSet(tuple(range(0, 50, 2)))
        groups = rng.integers(0, 2, 300)
        data = simulate_labels(visits, groups, ["a", "b"], v,
                               SemiSynthConfig(c={"a": 0.7, "b": 0.2}, seed=3))
        counts = visits.dense_rows()[:, list(v.indices)].sum(axis=1)
        for k in np.unique(counts):
            vals = data.latent_p[counts == k]
            assert np.ptp(vals) == 0.0

    def test_scar_within_group(self):
        visits, groups, names = generate_visit_corpus(6000, 6000, 300,
                                                      mean_active=6.0, seed=4)
        v = select_common_symptoms(visits, pool=50, pick=25, seed=0)
        data = simulate_labels(visits, groups, names, v,
                               SemiSynthConfig(c={"a": 0.6, "b": 0.3}, seed=5))
        for gid, c in ((0, 0.6), (1, 0.3)):
            mask = (data.group == gid) & (data.y == 1)
            rate = data.s[mask].mean()
            se = np.sqrt(c * (1 - c) / mask.sum())
            assert abs(rate - c) < 3 * se


class TestSelectCommon:
    def test_forced_selection(self):
        visits = binary_matrix([[1, 0], [1, 0], [1, 1]])
        s = select_common_symptoms(visits, pool=1, pick=1, seed=0)
        assert s.indices == (0,)

    def test_deterministic(self):
        visits, _, _ = generate_visit_corpus(500, 500, 200, seed=1)
        a = select_common_symptoms(visits, 50, 25, seed=9)
        b = select_common_symptoms(visits, 50, 25, seed=9)
        assert a.indices == b.indices

    def test_selection_within_top_pool_of_independent_ranking(self):
        visits, _, _ = generate_visit_corpus(2000, 2000, 400, seed=2)
        chosen = select_common_symptoms(visits, pool=50, pick=25, seed=3)
        # independent oracle: recount occurrences on the dense matrix
        counts = (visits.dense_rows() > 0).sum(axis=0)
        order = sorted(range(400), key=lambda j: (-counts[j], j))
        top50 = set(order[:50])
        assert set(chosen.indices) <= top50
        assert len(chosen) == 25

    def test_too_few_active_features(self):
        visits = binary_matrix(np.zeros((5, 10)))
        with pytest.raises(ValueError, match="^only 0 features ever occur, fewer than the 3 "
                                             "most frequent to draw from$"):
            select_common_symptoms(visits, pool=3, pick=2, seed=0)


class TestSelectHighRp:
    def test_ratio_ordering(self):
        # feature 0: rates 0.2 vs 0.1 (ratio 2); feature 1: 0.15 vs 0.1 (1.5)
        n = 400
        rows = np.zeros((2 * n, 3))
        rows[:int(0.2 * n), 0] = 1
        rows[n:n + int(0.1 * n), 0] = 1
        rows[:int(0.15 * n), 1] = 1
        rows[n:n + int(0.1 * n), 1] = 1
        rows[:, 2] = 1.0  # ratio 1 everywhere
        groups = np.repeat([0, 1], n)
        s = select_high_rp_symptoms(binary_matrix(rows), groups, ["a", "b"],
                                    "a", "b", min_count=10, top=2)
        assert s.indices == (0, 1)

    def test_min_count_filter_guarantees_denominator(self):
        rows = np.zeros((100, 2))
        rows[:50, 0] = 1  # only group a has feature 0
        rows[:30, 1] = 1
        rows[50:80, 1] = 1
        groups = np.repeat([0, 1], 50)
        s = select_high_rp_symptoms(binary_matrix(rows), groups, ["a", "b"],
                                    "a", "b", min_count=10, top=5)
        assert 0 not in s.indices

    def test_no_survivor_rejected(self):
        rows = np.zeros((20, 2))
        rows[0, 0] = 1
        groups = np.repeat([0, 1], 10)
        with pytest.raises(ValueError, match="^no feature occurs at least 10 times in both "
                                             "groups$"):
            select_high_rp_symptoms(binary_matrix(rows), groups, ["a", "b"],
                                    "a", "b", min_count=10, top=5)

    def test_matches_brute_force_ranking(self):
        visits, groups, names = generate_visit_corpus(3000, 3000, 200,
                                                      mean_active=6.0, seed=5)
        top = select_high_rp_symptoms(visits, groups, names, "b", "a",
                                      min_count=30, top=10)
        dense = visits.dense_rows() > 0
        mask_b = groups == 1
        ranking = []
        for j in range(200):
            ca = int(dense[~mask_b, j].sum())
            cb = int(dense[mask_b, j].sum())
            if ca < 30 or cb < 30:
                continue
            ranking.append((-(cb / mask_b.sum()) / (ca / (~mask_b).sum()), j))
        expected = tuple(sorted(j for _, j in sorted(ranking)[:10]))
        assert top.indices == expected


class TestSelectCorrelated:
    def test_co_occurring_rare_feature_tops(self):
        # feature 1 occurs only alongside the anchor; feature 2 is everywhere
        rows = np.array([
            [1, 1, 1],
            [1, 1, 1],
            [0, 0, 1],
            [0, 0, 1],
            [0, 0, 1],
            [0, 0, 1],
        ], dtype=float)
        s = select_correlated_symptoms(binary_matrix(rows), SymptomSet((0,)), top=2)
        assert s.indices[0] == 1 or s.indices == (1, 2)
        assert 0 not in s.indices

    def test_anchor_excluded(self):
        rng = np.random.default_rng(6)
        rows = (rng.uniform(size=(300, 20)) < 0.3).astype(float)
        rows[:, 0] = 1.0
        s = select_correlated_symptoms(binary_matrix(rows), SymptomSet((0, 1)), top=18)
        assert 0 not in s.indices and 1 not in s.indices

    def test_no_anchor_positive_rows(self):
        rows = np.zeros((10, 5))
        rows[:, 1] = 1
        with pytest.raises(ValueError, match="anchor"):
            select_correlated_symptoms(binary_matrix(rows), SymptomSet((0,)), top=2)

    def test_matches_exhaustive_ranking(self):
        rng = np.random.default_rng(7)
        rows = (rng.uniform(size=(500, 100)) < rng.uniform(0.02, 0.4, size=100)).astype(float)
        anchor = SymptomSet((3, 40))
        got = select_correlated_symptoms(binary_matrix(rows), anchor, top=25)
        pos = rows[:, [3, 40]].sum(axis=1) > 0
        n_pos = pos.sum()
        scored = []
        for j in range(100):
            if j in anchor.indices:
                continue
            total = rows[:, j].sum()
            if total == 0:
                continue
            ratio = (rows[pos, j].sum() / n_pos) / (total / 500)
            scored.append((-ratio, j))
        expected = tuple(sorted(j for _, j in sorted(scored)[:25]))
        assert got.indices == expected


class TestDropAnchors:
    def test_remap(self):
        rows = np.eye(5)
        anchors = SymptomSet((1, 3))
        selected = SymptomSet((0, 2, 4))
        reduced, remapped = drop_anchor_features(binary_matrix(rows), anchors, selected)
        assert reduced.n_dims == 3
        assert remapped.indices == (0, 1, 2)

    def test_overlap_rejected(self):
        rows = np.eye(4)
        with pytest.raises(ValueError, match="overlap"):
            drop_anchor_features(binary_matrix(rows), SymptomSet((1,)), SymptomSet((1, 2)))


class TestSelectSymptoms:
    def test_unknown_mode_rejected(self):
        visits, groups, names = generate_visit_corpus(50, 50, 60, seed=1)
        with pytest.raises(ValueError, match="^unknown symptom-selection mode 'comon'; "
                                             f"expected one of {', '.join(SYMPTOM_MODES)}$"):
            select_symptoms(visits, groups, names, "comon", 0)

    @pytest.mark.parametrize("n_rows, n_eligible", [(50, 18), (400, 233)])
    def test_recognized_draws_from_codes_seen_ten_times(self, n_rows, n_eligible):
        visits, groups, names = generate_visit_corpus(n_rows, n_rows, 300, seed=1)
        same, v_sym = select_symptoms(visits, groups, names, "recognized", 3)
        counts = visits.column_counts()
        assert same is visits and int((counts >= 10).sum()) == n_eligible
        assert len(v_sym) == min(100, n_eligible)
        assert all(counts[i] >= 10 for i in v_sym.indices)


class TestCorpus:
    def test_binary_and_shapes(self):
        visits, group, names = generate_visit_corpus(300, 500, 150, seed=8)
        assert visits.n_rows == 800 and visits.n_dims == 150
        assert visits.is_binary()
        assert names == ["a", "b"]
        assert (group == 0).sum() == 300

    def test_group_rates_differ(self):
        visits, group, _ = generate_visit_corpus(4000, 4000, 100,
                                                 mean_active=6.0, seed=9)
        rate_a = visits.column_counts(group == 0) / 4000
        rate_b = visits.column_counts(group == 1) / 4000
        busy = (rate_a > 0.01) & (rate_b > 0.01)
        log_ratio = np.abs(np.log(rate_a[busy] / rate_b[busy]))
        assert np.median(log_ratio) > 0.1

    def test_frequency_profile_decreasing_overall(self):
        visits, _, _ = generate_visit_corpus(3000, 3000, 200, seed=10)
        counts = visits.column_counts()
        # Zipf-profile base rates: early features overwhelmingly more common
        assert counts[:20].mean() > 3 * counts[-100:].mean()

    def test_deterministic(self):
        a = generate_visit_corpus(200, 200, 50, seed=11)[0]
        b = generate_visit_corpus(200, 200, 50, seed=11)[0]
        assert (a.raw != b.raw).nnz == 0


class TestSymptomFile:
    def test_load(self, tmp_path):
        p = tmp_path / "sym.txt"
        p.write_text("# comment\n3\n1\n7\n")
        s = load_symptom_indices(str(p))
        assert s.indices == (1, 3, 7)

    def test_bad_line(self, tmp_path):
        p = tmp_path / "sym.txt"
        p.write_text("3\nxyz\n")
        with pytest.raises(ValueError, match="line 2"):
            load_symptom_indices(str(p))
