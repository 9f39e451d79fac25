"""Shared test utilities: random instances, the finite-difference oracle and
a timed suite run."""

import time

import numpy as np

from purple.data import FeatureMatrix, LabeledDataset
from purple.harness import make_suite, run_suite
from purple.model import PurpleModel, loss


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
