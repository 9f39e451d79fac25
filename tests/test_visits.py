import math
import re

import numpy as np
import pytest

from purple.data import FeatureMatrix
from purple.visits import (
    SYMPTOM_MODES,
    SymptomSet,
    generate_visit_corpus,
    load_symptom_indices,
    select_symptoms,
    simulate_labels,
    symptom_counts,
)

FILE_REMEDY = "pass a symptom file with --symptoms PATH"


def binary_matrix(rows):
    return FeatureMatrix(np.asarray(rows, dtype=np.float64))


def select(rows_or_visits, mode, seed=0, groups=None, names=("a", "b"), **kwargs):
    """``select_symptoms`` on a dense 0/1 array or a visit matrix."""
    visits = rows_or_visits
    if not isinstance(visits, FeatureMatrix):
        visits = binary_matrix(rows_or_visits)
    if groups is None:
        groups = np.zeros(visits.n_rows, dtype=np.int64)
    return select_symptoms(visits, groups, list(names), mode, seed, **kwargs)


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
        data = simulate_labels(visits, np.zeros(4, dtype=int), ["a"], v, {"a": 0.5}, 0)
        np.testing.assert_allclose(data.latent_p, 0.5, atol=1e-15)

    def test_five_of_twentyfive(self):
        row = np.zeros(30)
        row[:5] = 1.0
        visits = binary_matrix([row])
        v = SymptomSet(tuple(range(25)))
        data = simulate_labels(visits, np.zeros(1, dtype=int), ["a"], v, {"a": 0.5}, 0)
        assert data.latent_p[0] == pytest.approx(1.0 / (1.0 + math.exp(-1.0)), abs=1e-12)

    def test_zero_frequency_means_no_labels(self):
        rng = np.random.default_rng(0)
        visits = binary_matrix((rng.uniform(size=(200, 40)) < 0.2).astype(float))
        v = SymptomSet(tuple(range(10)))
        data = simulate_labels(visits, rng.integers(0, 2, 200), ["a", "b"], v,
                               {"a": 0.0, "b": 0.0}, 1)
        assert data.s.sum() == 0

    def test_non_binary_rejected(self):
        visits = FeatureMatrix(np.array([[0.5, 1.0]]))
        with pytest.raises(ValueError, match="binary"):
            simulate_labels(visits, np.zeros(1, dtype=int), ["a"], SymptomSet((0,)),
                            {"a": 0.5}, 0)

    @pytest.mark.parametrize("c", [-0.1, 1.5])
    def test_frequency_outside_unit_interval_rejected(self, c):
        visits = binary_matrix([[1.0, 0.0]])
        with pytest.raises(ValueError, match=r"^labeling frequencies must lie in \[0, 1\]$"):
            simulate_labels(visits, np.zeros(1, dtype=int), ["a"], SymptomSet((0,)),
                            {"a": c}, 0)

    def test_latent_depends_only_on_count(self):
        rng = np.random.default_rng(2)
        visits = binary_matrix((rng.uniform(size=(300, 50)) < 0.3).astype(float))
        v = SymptomSet(tuple(range(0, 50, 2)))
        groups = rng.integers(0, 2, 300)
        data = simulate_labels(visits, groups, ["a", "b"], v, {"a": 0.7, "b": 0.2}, 3)
        counts = visits.dense_rows()[:, list(v.indices)].sum(axis=1)
        for k in np.unique(counts):
            vals = data.latent_p[counts == k]
            assert np.ptp(vals) == 0.0

    def test_scar_within_group(self):
        visits, groups, names = generate_visit_corpus(6000, 6000, 300,
                                                      mean_active=6.0, seed=4)
        _, v = select_symptoms(visits, groups, names, "common", 0)
        data = simulate_labels(visits, groups, names, v, {"a": 0.6, "b": 0.3}, 5)
        for gid, c in ((0, 0.6), (1, 0.3)):
            mask = (data.group == gid) & (data.y == 1)
            rate = data.s[mask].mean()
            se = np.sqrt(c * (1 - c) / mask.sum())
            assert abs(rate - c) < 3 * se


class TestSymptomCounts:
    def test_dense_and_csr_give_the_column_sums(self):
        csr, _, _ = generate_visit_corpus(300, 300, 80, seed=6)
        rows = csr.dense_rows()
        v = SymptomSet(tuple(range(0, 80, 3)))
        want = rows[:, list(v.indices)].sum(axis=1)
        assert want.max() >= 2  # rows that carry several symptoms
        for visits in (csr, FeatureMatrix(rows)):
            got = symptom_counts(visits, v)
            assert got.dtype == want.dtype and got.tobytes() == want.tobytes()


class TestSelectCommon:
    def test_deterministic(self):
        visits, _, _ = generate_visit_corpus(500, 500, 200, seed=1)
        same, a = select(visits, "common", seed=9)
        _, b = select(visits, "common", seed=9)
        assert same is visits and a.indices == b.indices and len(a) == 25

    def test_selection_within_top_pool_of_independent_ranking(self):
        visits, _, _ = generate_visit_corpus(2000, 2000, 400, seed=2)
        _, chosen = select(visits, "common", seed=3)
        # independent oracle: recount occurrences on the dense matrix
        counts = (visits.dense_rows() > 0).sum(axis=0)
        order = sorted(range(400), key=lambda j: (-counts[j], j))
        top50 = set(order[:50])
        assert set(chosen.indices) <= top50
        assert len(chosen) == 25

    def test_ties_broken_by_index(self):
        # 60 codes that occur once each: the pool is the 50 of lowest index.
        for seed in range(10):
            _, chosen = select(np.eye(60), "common", seed=seed)
            assert max(chosen.indices) < 50

    def test_too_few_active_features(self):
        rows = np.eye(60)
        rows[:, 49:] = 0.0
        with pytest.raises(ValueError, match="^common symptoms: only 49 features ever occur, "
                                             "fewer than the 50 most frequent to draw from; "
                                             + FILE_REMEDY + "$"):
            select(rows, "common")
        rows[:, 49] = np.eye(60)[:, 49]
        assert len(select(rows, "common")[1]) == 25


def two_groups(n):
    return np.repeat([0, 1], n)


class TestSelectHighRp:
    def test_ratio_ordering(self):
        # Code j < 12 occurs 60 + 10 j times in group a and 60 times in group b;
        # codes 12 and 13 copy code 2, and code 14 occurs in every row.
        n = 1000
        rows = np.zeros((2 * n, 15))
        for j in range(12):
            rows[:60 + 10 * j, j] = 1
            rows[n:n + 60, j] = 1
        rows[:, 12] = rows[:, 2]
        rows[:, 13] = rows[:, 2]
        rows[:, 14] = 1
        _, s = select(rows, "high-rp", groups=two_groups(n), group_num="a", group_den="b")
        # Codes 11 down to 3 rank first; code 2 wins its three-way tie by index.
        assert s.indices == tuple(range(2, 12))

    def test_min_count_filter_guarantees_denominator(self):
        # Code 0 never occurs in group b, code 1 only 49 times: neither is
        # eligible, whatever its ratio.
        n = 200
        rows = np.zeros((2 * n, 4))
        rows[:150, 0] = 1
        rows[:150, 1] = 1
        rows[n:n + 49, 1] = 1
        rows[:60, 2] = 1
        rows[n:n + 50, 2] = 1
        rows[:, 3] = 1
        _, s = select(rows, "high-rp", groups=two_groups(n), group_num="a", group_den="b")
        assert s.indices == (2, 3)

    def test_no_survivor_rejected(self):
        rows = np.zeros((20, 2))
        rows[0, 0] = 1
        with pytest.raises(ValueError, match="^high-rp symptoms: no feature occurs at least 50 "
                                             "times in both groups; " + FILE_REMEDY + "$"):
            select(rows, "high-rp", groups=two_groups(10))

    @pytest.mark.parametrize("group", ["a", "b"])
    def test_same_group_on_both_sides_rejected(self, group):
        visits, groups, names = generate_visit_corpus(300, 450, 60, seed=0)
        with pytest.raises(ValueError, match=f"^high-rp symptoms: group '{group}' is both the "
                                             "numerator and the denominator of the rate "
                                             "ratio; pass two different groups$"):
            select_symptoms(visits, groups, names, "high-rp", 0, group_num=group,
                            group_den=group)

    def test_matches_brute_force_ranking(self):
        visits, groups, names = generate_visit_corpus(3000, 3000, 200,
                                                      mean_active=6.0, seed=5)
        # The default ratio is the last group over the first: b over a.
        _, top = select_symptoms(visits, groups, names, "high-rp", 0)
        dense = visits.dense_rows() > 0
        mask_b = groups == 1
        ranking = []
        for j in range(200):
            ca = int(dense[~mask_b, j].sum())
            cb = int(dense[mask_b, j].sum())
            if ca < 50 or cb < 50:
                continue
            ranking.append((-(cb / mask_b.sum()) / (ca / (~mask_b).sum()), j))
        assert len(ranking) > 10
        expected = tuple(sorted(j for _, j in sorted(ranking)[:10]))
        assert top.indices == expected


class TestSelectCorrelated:
    def test_co_occurring_rare_feature_tops(self):
        # Code 39 occurs only alongside anchor 0; codes 1-38 occur in every row
        # and tie, so the 24 of lowest index join it.
        rows = np.ones((40, 40))
        rows[4:, 0] = 0
        rows[4:, 39] = 0
        reduced, s = select(rows, "correlated", anchors=SymptomSet((0,)))
        assert reduced.n_dims == 39
        # Indices refer to the columns left after the anchor is dropped.
        assert s.indices == (*range(24), 38)

    def test_anchor_excluded(self):
        rng = np.random.default_rng(6)
        rows = (rng.uniform(size=(300, 60)) < 0.3).astype(float)
        rows[:, 0] = 1.0
        reduced, s = select(rows, "correlated", anchors=SymptomSet((0, 1)))
        np.testing.assert_array_equal(reduced.dense_rows(), rows[:, 2:])
        assert len(s) == 25

    def test_no_anchor_positive_rows(self):
        rows = np.zeros((10, 5))
        rows[:, 1] = 1
        with pytest.raises(ValueError, match="^no row carries an anchor feature$"):
            select(rows, "correlated", anchors=SymptomSet((0,)))

    def test_no_candidate_outside_anchors(self):
        rows = np.zeros((10, 5))
        rows[:, 0] = 1
        with pytest.raises(ValueError, match="^no candidate feature outside the anchor set$"):
            select(rows, "correlated", anchors=SymptomSet((0,)))

    def test_too_few_codes_for_default_anchors(self):
        visits, groups, names = generate_visit_corpus(300, 450, 60, seed=0)
        with pytest.raises(ValueError, match="^correlated anchors: only 60 features ever occur, "
                                             "fewer than the 100 most frequent to draw from; "
                                             "pass anchor indices with --anchors PATH or a "
                                             "symptom file with --symptoms PATH$"):
            select_symptoms(visits, groups, names, "correlated", 0)

    def test_matches_exhaustive_ranking(self):
        rng = np.random.default_rng(7)
        rows = (rng.uniform(size=(500, 100)) < rng.uniform(0.02, 0.4, size=100)).astype(float)
        anchor = SymptomSet((3, 40))
        reduced, got = select(rows, "correlated", anchors=anchor)
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
        expected = sorted(j for _, j in sorted(scored)[:25])
        kept = np.delete(np.arange(100), [3, 40])
        assert kept[list(got.indices)].tolist() == expected
        np.testing.assert_array_equal(reduced.dense_rows(), np.delete(rows, [3, 40], axis=1))


class TestDropAnchors:
    """``correlated`` drops the anchor columns and remaps its indices."""

    def test_remap(self):
        reduced, s = select(np.eye(5), "correlated", anchors=SymptomSet((1, 3)))
        np.testing.assert_array_equal(reduced.dense_rows(), np.eye(5)[:, [0, 2, 4]])
        assert s.indices == (0, 1, 2)


class TestSelectionsPinned:
    """The exact selections of every mode on one corpus and seed."""

    @pytest.fixture(scope="class")
    def corpus(self):
        return generate_visit_corpus(500, 500, 120, seed=2)

    @pytest.mark.parametrize("mode, kwargs, n_dims, indices", [
        ("common", {}, 120,
         (1, 5, 8, 9, 12, 15, 16, 19, 21, 22, 26, 28, 29, 30, 35, 36, 38, 40, 42, 44, 46,
          47, 50, 53, 54)),
        ("high-rp", {}, 120, (0, 1, 2, 4, 5, 6, 7, 14, 15, 16)),
        ("high-rp", {"group_num": "a", "group_den": "b"}, 120,
         (1, 2, 4, 8, 9, 10, 11, 12, 15, 16)),
        ("correlated", {}, 110,
         (2, 4, 5, 10, 31, 33, 37, 41, 42, 44, 45, 48, 57, 62, 67, 72, 73, 75, 76, 81, 84,
          87, 88, 105, 108)),
        ("correlated", {"anchors": SymptomSet((0, 3))}, 118,
         (10, 11, 14, 17, 27, 29, 30, 35, 43, 55, 56, 63, 64, 68, 72, 93, 95, 96, 97, 98,
          100, 104, 106, 112, 114)),
        # 100 of 120 codes: pinned by the 20 it leaves out.
        ("recognized", {}, 120,
         tuple(sorted(set(range(120)) - {0, 1, 3, 5, 16, 28, 29, 30, 41, 57, 67, 79, 84,
                                         88, 89, 96, 109, 116, 118, 119}))),
    ])
    def test_selection(self, corpus, mode, kwargs, n_dims, indices):
        visits, groups, names = corpus
        got_visits, v_sym = select_symptoms(visits, groups, names, mode, 4, **kwargs)
        assert (got_visits.n_dims, v_sym.indices) == (n_dims, indices)


class TestSelectSymptoms:
    def test_unknown_mode_rejected(self):
        visits, groups, names = generate_visit_corpus(50, 50, 60, seed=1)
        with pytest.raises(ValueError, match="^unknown symptom-selection mode 'comon'; "
                                             f"expected one of {', '.join(SYMPTOM_MODES)}$"):
            select_symptoms(visits, groups, names, "comon", 0)

    def test_recognized_without_eligible_code(self):
        rows = np.eye(60)
        rows[:9, 0] = 1  # nine occurrences: one short
        with pytest.raises(ValueError, match="^recognized symptoms: no feature occurs at least "
                                             "10 times; " + FILE_REMEDY + "$"):
            select(rows, "recognized")

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
        s = load_symptom_indices(str(p), 8)
        assert s.indices == (1, 3, 7)

    def test_bad_line(self, tmp_path):
        p = tmp_path / "sym.txt"
        p.write_text("3\nxyz\n")
        with pytest.raises(ValueError, match="line 2"):
            load_symptom_indices(str(p), 8)

    @pytest.mark.parametrize("text, message", [
        ("3\n8\n", "line 2: index 8 is not one of the data's 8 columns, 0 to 7"),
        ("-3\n", "line 1: index -3 is not one of the data's 8 columns, 0 to 7"),
        ("# none\n", "lists no index; expected one or more of the data's 8 columns, 0 to 7"),
    ])
    def test_index_outside_the_columns_names_file_and_index(self, tmp_path, text, message):
        p = tmp_path / "sym.txt"
        p.write_text(text)
        with pytest.raises(ValueError, match=f"^{re.escape(f'{p} {message}')}$"):
            load_symptom_indices(str(p), 8)

    def test_repeated_index_names_file_both_lines_and_index(self, tmp_path):
        p = tmp_path / "sym.txt"
        p.write_text("3\n# again\n1\n 3\n")
        message = f"{p} line 4: index 3 is already listed on line 1"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            load_symptom_indices(str(p), 8)
