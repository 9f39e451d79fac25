"""Reference absolute-prevalence estimators behind one common contract.

Each baseline is fit separately on a single group's rows and returns that
group's estimated prevalence as the mean predicted probability; ratios of
those estimates give the baseline's relative prevalence. All baselines use
the same linear-plus-sigmoid function class as the core estimator, with the
labeling-frequency factor frozen at one, and train through its Adam driver
``model._adam_fit``: ``fit_logistic`` supplies only the residual gradient
and the validation cross-entropy.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable

import numpy as np
from scipy.special import expit

from .data import LabeledDataset
from .model import (
    FitResult,
    RelativePrevalenceEstimate,
    TrainConfig,
    _adam_fit,
    _cross_entropy,
    _linear,
    fit as fit_purple,
    predict_condition_score,
)

BUILTIN_KINDS = ("negative", "supervised", "em", "purple")

_UNREGULARIZED = TrainConfig(lambda_grid=(0.0,))


@dataclass
class LogisticScorer:
    w: np.ndarray
    b: float

    def predict(self, features) -> np.ndarray:
        return expit(_linear(features, np.asarray(self.w, dtype=np.float64), self.b))

    def to_dict(self) -> dict:
        return {"w": np.asarray(self.w).tolist(), "b": float(self.b)}


@dataclass
class EmConfig:
    max_iters: int = 100
    tol: float = 1e-5
    # The M-step refit is a warm-started partial fit (generalized EM) with
    # its own step size; the outer alternation, not the core method's
    # pinned learning rate, owns the M-step solver quality.
    inner_epochs: int = 100
    inner_learning_rate: float = 0.03


@dataclass
class EmFit:
    scorer: LogisticScorer
    c_hat: float
    converged: bool
    n_iters: int
    c_init: float

    def to_dict(self) -> dict:
        return {**self.scorer.to_dict(), "c_hat": self.c_hat, "converged": self.converged,
                "n_iters": self.n_iters, "c_init": self.c_init}


def fit_logistic(train_X, targets, val_X, val_targets, config: TrainConfig,
                 seed: int = 0, init: LogisticScorer | None = None,
                 early_stop: bool = True, max_epochs: int | None = None) -> LogisticScorer:
    """Logistic fit by Adam, supporting soft targets in [0, 1].

    With ``early_stop`` the best-validation-cross-entropy parameters are
    restored; otherwise the loop runs a fixed number of epochs (used for
    warm-started partial M-steps).
    """
    d = train_X.n_dims
    targets = np.asarray(targets, dtype=np.float64)
    val_targets = np.asarray(val_targets, dtype=np.float64)
    if val_X.n_rows == 0:
        raise ValueError("validation subset is empty")

    def grad(p, rows):
        if isinstance(rows, slice):
            Xb, tb = train_X, targets
        else:
            Xb, tb = train_X.take_rows(rows), targets[rows]
        residual = expit(_linear(Xb, p[:d], p[d])) - tb
        return np.concatenate([Xb.rtvec(residual) / Xb.n_rows, [residual.mean()]])

    def val_loss(p):
        return _cross_entropy(expit(_linear(val_X, p[:d], p[d])), val_targets)

    params = np.zeros(d + 1) if init is None else np.concatenate([init.w, [init.b]])
    rng = np.random.default_rng(np.random.SeedSequence([int(seed), 917]))
    epochs = max_epochs if max_epochs is not None else config.max_epochs
    params, _, _ = _adam_fit(grad, params, train_X.n_rows, config, rng, epochs,
                             val_loss if early_stop else None)
    return LogisticScorer(params[:d], float(params[d]))


def fit_negative(train: LabeledDataset, val: LabeledDataset,
                 config: TrainConfig | None = None, seed: int = 0) -> LogisticScorer:
    """Treat every unlabeled row as negative and fit to the observed labels."""
    s = train.s
    if s.min() == s.max():
        raise ValueError("observed labels are single-class; cannot fit")
    return fit_logistic(train.features, s, val.features, val.s,
                        config or _UNREGULARIZED, seed)


def fit_supervised(train: LabeledDataset, val: LabeledDataset,
                   config: TrainConfig | None = None, seed: int = 0) -> LogisticScorer:
    """Fit to the true labels; an oracle upper bound, unusable on real data."""
    if train.y is None or val.y is None:
        raise ValueError("supervised baseline requires true labels y")
    return fit_logistic(train.features, train.y, val.features, val.y,
                        config or _UNREGULARIZED, seed)


def em_soft_labels(f: np.ndarray, s: np.ndarray, c_hat: float) -> np.ndarray:
    """E step: posterior probability of being positive for unlabeled rows.

    Labeled rows get 1 (no false positives); unlabeled rows get the Bayes
    posterior of a hidden positive under random within-group labeling.
    """
    f = np.asarray(f, dtype=np.float64)
    q = f * (1.0 - c_hat) / np.maximum(1.0 - c_hat * f, 1e-12)
    return np.where(np.asarray(s) == 1, 1.0, q)


def em_update_c(s: np.ndarray, f: np.ndarray) -> float:
    """M-step labeling-frequency update: labeled count over expected positives,
    clamped into (0, 1]."""
    total = float(np.asarray(f, dtype=np.float64).sum())
    c = float(np.asarray(s).sum()) / max(total, 1e-12)
    return min(max(c, 1e-9), 1.0)


def fit_em(train: LabeledDataset, val: LabeledDataset, em_config: EmConfig | None = None,
           config: TrainConfig | None = None, seed: int = 0) -> EmFit:
    """Alternate soft-label imputation and scorer refits until the
    labeling-frequency estimate stabilizes.

    The initial scorer is fit against the observed labels and the initial
    c is twice the observed positive rate (clamped). Non-convergence after
    ``max_iters`` is reported, not masked.
    """
    em_config = em_config or EmConfig()
    config = config or _UNREGULARIZED
    inner = replace(config, learning_rate=em_config.inner_learning_rate)
    s = train.s.astype(np.float64)
    if s.sum() == 0:
        raise ValueError("EM requires at least one observed positive")
    c_init = min(max(2.0 * float(s.mean()), 1e-3), 1.0 - 1e-3)
    c_hat = c_init
    scorer = fit_logistic(train.features, s, val.features, val.s, inner, seed)
    converged = False
    iters = 0
    for iters in range(1, em_config.max_iters + 1):
        f = scorer.predict(train.features)
        q = em_soft_labels(f, train.s, c_hat)
        scorer = fit_logistic(train.features, q, val.features, val.s, inner, seed,
                              init=scorer, early_stop=False,
                              max_epochs=em_config.inner_epochs)
        c_new = em_update_c(train.s, scorer.predict(train.features))
        delta = abs(c_new - c_hat)
        c_hat = c_new
        if delta < em_config.tol:
            converged = True
            break
    return EmFit(scorer, c_hat, converged, iters, c_init)


# ---------------------------------------------------------------------------
# Common estimator contract


@dataclass(frozen=True)
class GroupPrevalenceEstimate:
    group: str
    alpha_hat: float
    flags: tuple[str, ...] = ()

    def __post_init__(self):
        if not np.isfinite(self.alpha_hat):
            raise ValueError(f"non-finite prevalence estimate for group {self.group!r}")


_EXTERNAL: dict[str, Callable] = {}


def register_estimator(name: str, fn: Callable) -> None:
    """Register a plug-in estimator under ``name``.

    The callable must satisfy ``fn(train, val, eval_data, seed) ->
    list[GroupPrevalenceEstimate]`` covering every group present in
    ``eval_data``.
    """
    _EXTERNAL[name] = fn


def fit_group_scorers(kind: str, train: LabeledDataset, val: LabeledDataset, groups,
                      config: TrainConfig | None, seed: int, em_config: EmConfig | None = None
                      ) -> dict[int, tuple[LogisticScorer, EmFit | None]]:
    """``{gid: (scorer, em)}``: a ``negative``, ``supervised`` or ``em`` scorer
    fit on each group's own rows, with the whole EM fit for ``em``."""
    out = {}
    for gid in groups:
        sub_train = train.take_rows(np.flatnonzero(train.group == gid))
        sub_val = val.take_rows(np.flatnonzero(val.group == gid))
        try:
            if kind == "em":
                em = fit_em(sub_train, sub_val, em_config, config, seed)
                out[gid] = (em.scorer, em)
            else:
                fit_one = fit_negative if kind == "negative" else fit_supervised
                out[gid] = (fit_one(sub_train, sub_val, config, seed), None)
        except ValueError as e:
            raise ValueError(f"{kind} baseline failed for group "
                             f"{train.group_names[gid]!r}: {e}") from e
    return out


def group_prevalences(kind: str, train: LabeledDataset, val: LabeledDataset,
                      eval_data: LabeledDataset, config: TrainConfig | None = None,
                      seed: int = 0, em_config: EmConfig | None = None,
                      purple_fit: FitResult | None = None) -> list[GroupPrevalenceEstimate]:
    """Per-group prevalence estimates under the common contract.

    For the core method the returned values are group means of the
    constant-factor condition score: meaningless individually but with
    exact meaning in ratio. ``purple_fit`` short-circuits refitting when
    the caller already has one.
    """
    if kind in ("negative", "supervised", "em"):
        fits = fit_group_scorers(kind, train, val, eval_data.present_groups(),
                                 config or _UNREGULARIZED, seed, em_config)
        out = []
        for gid, (scorer, em) in fits.items():
            sub_eval = eval_data.take_rows(np.flatnonzero(eval_data.group == gid))
            alpha = float(scorer.predict(sub_eval.features).mean())
            flags = ("em-non-converged",) if em is not None and not em.converged else ()
            out.append(GroupPrevalenceEstimate(eval_data.group_names[gid], alpha, flags))
        return out
    if kind == "purple":
        result = purple_fit or fit_purple(train, val, config, seed)
        if result.degenerate:
            raise ValueError("core fit is degenerate (no observed positives in training)")
        scores = predict_condition_score(result.model, eval_data.features)
        out = []
        for gid in eval_data.present_groups():
            mask = eval_data.group == gid
            out.append(GroupPrevalenceEstimate(eval_data.group_names[gid],
                                               float(scores[mask].mean())))
        return out
    if kind in _EXTERNAL:
        return _EXTERNAL[kind](train, val, eval_data, seed)
    raise ValueError(f"unknown estimator kind {kind!r} (registered: {sorted(_EXTERNAL)})")


def baseline_relative_prevalence(kind: str, train: LabeledDataset, val: LabeledDataset,
                                 eval_data: LabeledDataset, group_a: str, group_b: str,
                                 seed: int = 0, config: TrainConfig | None = None,
                                 em_config: EmConfig | None = None,
                                 ) -> RelativePrevalenceEstimate:
    """Fit the named estimator and take the ratio of its per-group estimates."""
    estimates = {e.group: e for e in group_prevalences(kind, train, val, eval_data,
                                                       config, seed, em_config)}
    for name in (group_a, group_b):
        if name not in estimates:
            raise ValueError(f"{kind} produced no estimate for group {name!r}")
    den = estimates[group_b].alpha_hat
    if abs(den) < 1e-12:
        raise ValueError(f"{kind} prevalence estimate for group {group_b!r} is "
                         "numerically zero")
    flags = sorted(set(estimates[group_a].flags) | set(estimates[group_b].flags))
    return RelativePrevalenceEstimate(
        group_a=group_a,
        group_b=group_b,
        value=estimates[group_a].alpha_hat / den,
        flags=list(flags),
    )
