"""Shared test utilities: random instances, the finite-difference oracle, the
row-by-row reference of the model's objective and a timed suite run."""

import time

import numpy as np

from purple.data import FeatureMatrix, LabeledDataset
from purple.harness import make_suite, run_suite
from purple.model import PROB_FLOOR, PurpleModel, _logistic, loss


def tiny_batch(rng, n=32, d=5, n_groups=2):
    x = rng.standard_normal((n, d))
    group = rng.integers(0, n_groups, size=n)
    s = rng.integers(0, 2, size=n)
    names = [chr(ord("a") + i) for i in range(n_groups)]
    return LabeledDataset(FeatureMatrix(x), group, names, s)


def random_model(rng, d=5, n_groups=2):
    return PurpleModel(rng.standard_normal(d) * 0.8, float(rng.standard_normal() * 0.5),
                       rng.standard_normal(n_groups) * 0.8,
                       [chr(ord("a") + i) for i in range(n_groups)])


def fd_gradients(model, batch, lam, h=1e-6):
    """Central finite differences of the loss in every parameter."""
    d = model.w.size

    def loss_at(w, b, theta):
        return loss(PurpleModel(w, b, theta, model.group_names), batch, lam)

    gw = np.empty(d)
    for j in range(d):
        wp, wm = model.w.copy(), model.w.copy()
        wp[j] += h
        wm[j] -= h
        gw[j] = (loss_at(wp, model.b, model.theta) - loss_at(wm, model.b, model.theta)) / (2 * h)
    gb = (loss_at(model.w, model.b + h, model.theta)
          - loss_at(model.w, model.b - h, model.theta)) / (2 * h)
    gt = np.empty(model.theta.size)
    for k in range(model.theta.size):
        tp, tm = model.theta.copy(), model.theta.copy()
        tp[k] += h
        tm[k] -= h
        gt[k] = (loss_at(model.w, model.b, tp) - loss_at(model.w, model.b, tm)) / (2 * h)
    return gw, gb, gt


def reference_objective(model, batch, lam):
    """``(loss, gw, gb, gtheta)`` of the core model, row by row: each row
    gathers its ``c_g``, takes both branches of its two row gradients with
    ``np.where`` and keeps the one of its label, rows on the probability
    clamp get zero, and ``gtheta`` is a per-row ``bincount``."""
    f = model.predict(batch.features)
    cg = _logistic(model.theta)[batch.group]
    p = f * cg
    pos = batch.s == 1
    inactive = ~((p > PROB_FLOOR) & (p < 1.0 - PROB_FLOOR))
    one_minus_p = np.maximum(1.0 - p, PROB_FLOOR)

    def row_gradient(one_minus):
        # d(ce)/dz = -(1-f) on positives, p(1-f)/(1-p) on negatives; the
        # same for theta with (1-c) in place of (1-f).
        out = np.where(pos, -one_minus, p * one_minus / one_minus_p)
        out[inactive] = 0.0
        return out

    dz, dtheta_row = row_gradient(1.0 - f), row_gradient(1.0 - cg)
    n = batch.n_rows
    q = np.clip(p, PROB_FLOOR, 1.0 - PROB_FLOOR)
    cross_entropy = -float(np.log(np.where(pos, q, 1.0 - q)).mean())
    return (cross_entropy + lam * float(np.abs(model.w).sum()),
            batch.features.rtvec(dz) / n + lam * np.sign(model.w), float(dz.mean()),
            np.bincount(batch.group, weights=dtheta_row, minlength=model.theta.size) / n)


def rel_err(a, b, floor=1e-4):
    """Elementwise relative error with a floor absorbing near-zero components
    (the finite-difference noise floor sits around 1e-10)."""
    a, b = np.asarray(a, dtype=np.float64), np.asarray(b, dtype=np.float64)
    return np.abs(a - b) / np.maximum(np.maximum(np.abs(a), np.abs(b)), floor)


def timed_suite_run(name, **kwargs):
    """``run_suite(make_suite(name, **kwargs))`` and its wall time in seconds.
    Lives here so a worker process can import it by name."""
    t0 = time.perf_counter()
    report = run_suite(make_suite(name, **kwargs))
    return report, time.perf_counter() - t0
