import numpy as np
import pytest

from purple.metrics import _average_ranks, auc, auprc, calibration


def auc_pair_counting(scores, labels):
    """O(n^2) oracle: fraction of positive-negative pairs correctly ordered,
    ties worth one half."""
    scores = np.asarray(scores, dtype=float)
    labels = np.asarray(labels)
    pos = scores[labels == 1]
    neg = scores[labels == 0]
    diff = pos[:, None] - neg[None, :]
    return float(((diff > 0).sum() + 0.5 * (diff == 0).sum()) / (pos.size * neg.size))


def auprc_rank_walk(scores, labels):
    """O(n^2)-ish oracle: explicit precision walk down the stable ranking."""
    scores = np.asarray(scores, dtype=float)
    labels = np.asarray(labels)
    order = sorted(range(len(scores)), key=lambda i: (-scores[i], i))
    hits = 0
    total = 0.0
    for rank, idx in enumerate(order, start=1):
        if labels[idx] == 1:
            hits += 1
            total += hits / rank
    return total / hits


def average_ranks_brute_force(x):
    """O(n^2) oracle: 1 + the number of smaller values + half the number of
    other equal values."""
    x = np.asarray(x, dtype=float)
    return np.array([1.0 + (x < v).sum() + 0.5 * ((x == v).sum() - 1) for v in x])


class TestAverageRanks:
    def test_matches_brute_force_on_heavy_ties(self):
        rng = np.random.default_rng(11)
        for n in (1, 2, 7, 50, 301):
            for levels in (1, 2, 5, n):
                x = rng.integers(0, levels, size=n).astype(float) / 3.0
                np.testing.assert_array_equal(_average_ranks(x), average_ranks_brute_force(x))

    def test_infinite_and_signed_zero_ties(self):
        x = np.array([np.inf, 0.0, -np.inf, -0.0, np.inf, 1.0, -np.inf])
        np.testing.assert_array_equal(_average_ranks(x), average_ranks_brute_force(x))


class TestAuc:
    def test_perfect_ranking(self):
        assert auc([0.1, 0.2, 0.8, 0.9], [0, 0, 1, 1]) == 1.0

    def test_all_ties(self):
        assert auc([0.3] * 6, [0, 1, 0, 1, 0, 1]) == 0.5

    def test_hand_enumerated_example(self):
        assert auc([0.1, 0.4, 0.35, 0.8], [0, 0, 1, 1]) == pytest.approx(0.75, abs=1e-15)

    def test_single_class_rejected(self):
        with pytest.raises(ValueError):
            auc([0.1, 0.2], [1, 1])

    def test_complement_identity_without_ties(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            n = int(rng.integers(5, 60))
            scores = rng.permutation(n) / n  # distinct
            labels = rng.integers(0, 2, n)
            if labels.min() == labels.max():
                continue
            assert auc(scores, labels) + auc(-scores, labels) == pytest.approx(1.0, abs=1e-12)

    def test_monotone_transform_invariance(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            n = int(rng.integers(5, 60))
            scores = rng.standard_normal(n)
            labels = rng.integers(0, 2, n)
            if labels.min() == labels.max():
                continue
            base = auc(scores, labels)
            assert auc(np.exp(scores), labels) == pytest.approx(base, abs=1e-12)
            assert auc(3 * scores + 7, labels) == pytest.approx(base, abs=1e-12)

    def test_matches_pair_counting_oracle(self):
        rng = np.random.default_rng(2)
        for _ in range(200):
            n = int(rng.integers(4, 120))
            # quantized scores force plenty of ties
            scores = np.round(rng.uniform(size=n), 1)
            labels = rng.integers(0, 2, n)
            if labels.min() == labels.max():
                continue
            assert auc(scores, labels) == pytest.approx(
                auc_pair_counting(scores, labels), abs=1e-12)


class TestAuprc:
    def test_perfect_ranking(self):
        assert auprc([0.9, 0.8, 0.2, 0.1], [1, 1, 0, 0]) == 1.0

    def test_single_positive_ranked_last(self):
        n = 7
        scores = np.linspace(1.0, 0.1, n)
        labels = np.zeros(n, dtype=int)
        labels[-1] = 1
        assert auprc(scores, labels) == pytest.approx(1.0 / n, abs=1e-15)

    def test_hand_enumerated_example(self):
        assert auprc([0.9, 0.8, 0.7], [1, 0, 1]) == pytest.approx(5.0 / 6.0, abs=1e-15)

    def test_no_positives_rejected(self):
        with pytest.raises(ValueError):
            auprc([0.3, 0.2], [0, 0])

    def test_matches_rank_walk_oracle(self):
        rng = np.random.default_rng(3)
        for _ in range(200):
            n = int(rng.integers(3, 120))
            scores = np.round(rng.uniform(size=n), 1)
            labels = rng.integers(0, 2, n)
            if labels.sum() == 0:
                continue
            assert auprc(scores, labels) == pytest.approx(
                auprc_rank_walk(scores, labels), abs=1e-12)


class TestCalibration:
    def test_perfectly_calibrated_bins(self):
        preds = np.array([0.25] * 4 + [0.75] * 4)
        labels = np.array([1, 0, 0, 0, 1, 1, 1, 0])
        # empirical rates: 0.25 in the low bin, 0.75 in the high bin
        assert calibration(preds, labels).ece == pytest.approx(0.0, abs=1e-12)

    def test_single_bin_gap(self):
        preds = np.full(10, 0.7)
        labels = np.array([1, 1, 1, 0, 0, 0, 0, 0, 0, 0])
        result = calibration(preds, labels)
        assert result.ece == pytest.approx(0.4, abs=1e-12)
        assert len(result.bins) == 1

    def test_counts_sum_and_partition(self):
        rng = np.random.default_rng(4)
        preds = rng.uniform(size=500)
        labels = rng.integers(0, 2, 500)
        result = calibration(preds, labels, n_bins=10)
        assert sum(b.count for b in result.bins) == 500
        for b in result.bins:
            assert 0.0 <= b.lower < b.upper <= 1.0

    def test_piecewise_constant_at_rate_gives_zero(self):
        rng = np.random.default_rng(5)
        preds = []
        labels = []
        for center in (0.15, 0.45, 0.85):
            n = 40
            k = int(round(center * n))
            preds.extend([center] * n)
            labels.extend([1] * k + [0] * (n - k))
        assert calibration(np.array(preds), np.array(labels)).ece == pytest.approx(
            0.0, abs=1e-12)

    def test_prediction_of_one_lands_in_top_bin(self):
        result = calibration(np.array([1.0, 0.99]), np.array([1, 1]), n_bins=10)
        assert len(result.bins) == 1
        assert result.bins[0].count == 2

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError, match="lie in"):
            calibration(np.array([1.2]), np.array([1]))
