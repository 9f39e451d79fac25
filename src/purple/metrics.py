"""Ranking and calibration metrics, implemented from first principles."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


def _average_ranks(x: np.ndarray) -> np.ndarray:
    """1-based ranks with ties assigned the average of their rank range."""
    order = np.argsort(x, kind="mergesort")
    sx = x[order]
    # Start of each run of equal sorted values (NaNs never tie); a run
    # spanning sorted positions i..j gets rank (i + j) / 2 + 1.
    starts = np.flatnonzero(np.concatenate(([True], sx[1:] != sx[:-1])))
    ends = np.append(starts[1:], x.size) - 1
    ranks = np.empty(x.size, dtype=np.float64)
    ranks[order] = np.repeat(0.5 * (starts + ends) + 1.0, ends - starts + 1)
    return ranks


def auc(scores, labels) -> float:
    """Probability that a random positive outranks a random negative,
    counting ties as one half (Mann-Whitney form)."""
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(labels)
    n_pos = int((labels == 1).sum())
    n_neg = int((labels == 0).sum())
    if n_pos == 0 or n_neg == 0:
        raise ValueError("AUC needs at least one positive and one negative label")
    ranks = _average_ranks(scores)
    u = ranks[labels == 1].sum() - n_pos * (n_pos + 1) / 2.0
    return float(u / (n_pos * n_neg))


def auprc(scores, labels) -> float:
    """Average precision: precision at each positive's rank, weighted by the
    recall increment. Score ties are broken by stable input order."""
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(labels)
    n_pos = int((labels == 1).sum())
    if n_pos == 0:
        raise ValueError("average precision needs at least one positive label")
    order = np.argsort(-scores, kind="stable")
    hits = np.cumsum(labels[order] == 1)
    ranks = np.arange(1, labels.size + 1)
    at_pos = labels[order] == 1
    return float((hits[at_pos] / ranks[at_pos]).sum() / n_pos)


@dataclass(frozen=True)
class CalibrationBin:
    lower: float
    upper: float
    mean_predicted: float
    empirical_rate: float
    count: int


@dataclass(frozen=True)
class CalibrationResult:
    bins: tuple[CalibrationBin, ...]
    ece: float
    n: int

    def to_dict(self) -> dict:
        return {
            "ece": self.ece,
            "n": self.n,
            "bins": [
                {"lower": b.lower, "upper": b.upper, "mean_predicted": b.mean_predicted,
                 "empirical_rate": b.empirical_rate, "count": b.count}
                for b in self.bins
            ],
        }


def calibration(preds, labels, n_bins: int = 10) -> CalibrationResult:
    """Equal-width reliability bins on [0, 1] plus the expected calibration
    error; empty bins are skipped."""
    preds = np.asarray(preds, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.float64)
    if preds.size == 0:
        raise ValueError("calibration needs at least one prediction")
    if preds.min() < 0.0 or preds.max() > 1.0:
        raise ValueError("predictions must lie in [0, 1]")
    if n_bins < 1:
        raise ValueError("n_bins must be positive")
    idx = np.minimum((preds * n_bins).astype(np.int64), n_bins - 1)
    bins = []
    ece = 0.0
    n = preds.size
    for b in range(n_bins):
        mask = idx == b
        count = int(mask.sum())
        if count == 0:
            continue
        mean_pred = float(preds[mask].mean())
        rate = float(labels[mask].mean())
        ece += (count / n) * abs(mean_pred - rate)
        bins.append(CalibrationBin(b / n_bins, (b + 1) / n_bins, mean_pred, rate, count))
    return CalibrationResult(tuple(bins), float(ece), n)
