"""Reference absolute-prevalence estimators behind one common contract.

``fit_scorers`` fits every built-in estimator, for suites, checks and the
CLI alike, as a map from group name to scorer: the core method maps every
group to its one model, and each baseline is fit on a single group's rows.
Each row is scored with its own group's scorer (``group_scores``), a plug-in
estimator registered by name returns one score per row, and the relative
prevalence is ``model.mean_score_ratio`` of those scores; for a baseline the
group means are its absolute prevalence estimates. Every scorer is a
``model.LogisticScorer``, the core estimator's function class with the
labeling-frequency factor frozen at one, which ``PurpleModel`` extends.
``EmFit`` subclasses it too, adding EM's labeling-frequency estimate and
convergence record. The baselines train through the core solver,
``model._lbfgs_fit``; ``fit_logistic`` supplies only the cross-entropy and
its gradient and, given validation rows, the cross-entropy that stops it
early, with every sigmoid and softplus from ``model._logistic``. The M-steps
of one EM fit get no validation rows and share one L-BFGS memory: the soft
targets enter the objective linearly, so each pair is exact for the next.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable

import numpy as np

from .data import LabeledDataset
from .model import (
    FitResult,
    LogisticScorer,
    RelativePrevalenceEstimate,
    TrainConfig,
    _label_cross_entropy,
    _lbfgs_fit,
    _linear,
    _logistic,
    _solver_scale,
    fit as fit_purple,
    mean_score_ratio,
)

BUILTIN_KINDS = ("negative", "supervised", "em", "purple")


@dataclass
class EmConfig:
    max_iters: int = 100
    tol: float = 1e-5
    # The M-step refit is a warm-started L-BFGS solve capped at inner_epochs
    # iterations (a partial fit, generalized EM, when the cap binds).
    inner_epochs: int = 100

    def __post_init__(self):
        if self.max_iters < 1 or self.inner_epochs < 1:
            raise ValueError("EM max_iters and inner_epochs must be at least 1")
        if not (np.isfinite(self.tol) and self.tol >= 0):
            raise ValueError("EM tol must be finite and non-negative")


@dataclass(eq=False)
class EmFit(LogisticScorer):
    """An EM fit's condition scorer, with its labeling-frequency estimate
    ``c_hat`` and whether EM converged within ``n_iters`` iterations."""

    c_hat: float
    converged: bool
    n_iters: int


def fit_logistic(train_X, targets, val_X, val_targets, config: TrainConfig,
                 init: LogisticScorer | None = None,
                 memory: list | None = None) -> LogisticScorer:
    """A ``LogisticScorer`` fit to soft targets in [0, 1] by L-BFGS, within
    ``config.max_epochs`` iterations.

    Given validation rows, the fit stops early on the cross-entropy against
    0/1 ``val_targets``; stopped so or by its budget, it returns its
    best-validation parameters. With ``val_X=None`` it runs to convergence
    or to its budget. ``memory`` is the solver's list of curvature pairs
    (``model._lbfgs_fit``); fits that differ only in ``targets`` may share one.
    """
    d = train_X.n_dims
    targets = np.asarray(targets, dtype=np.float64)

    def objective(p):
        z = _linear(train_X, p[:d], p[d])
        sigmoid, softplus = _logistic(z, with_softplus=True)
        residual = sigmoid - targets
        # Mean cross-entropy in its softplus form: exact and unclamped, so it
        # stays consistent with the gradient when rows saturate.
        f = float(np.mean(softplus - targets * z))
        return f, np.concatenate([train_X.rtvec(residual) / train_X.n_rows,
                                  [residual.mean()]])

    val_loss = None
    if val_X is not None:
        if val_X.n_rows == 0:
            raise ValueError("validation subset is empty")
        val_pos = np.asarray(val_targets) == 1

        def val_loss(p, _):
            return _label_cross_entropy(LogisticScorer(p[:d], p[d]).predict(val_X), val_pos)

    params = np.zeros(d + 1) if init is None else np.concatenate([init.w, [init.b]])
    params = _lbfgs_fit(objective, params, config.max_epochs, val_loss=val_loss,
                        patience=config.patience, memory=memory,
                        scale=_solver_scale(train_X, 1))[0]
    return LogisticScorer(params[:d], float(params[d]))


def fit_negative(train: LabeledDataset, val: LabeledDataset,
                 config: TrainConfig | None = None) -> LogisticScorer:
    """Treat every unlabeled row as negative and fit to the observed labels."""
    s = train.s
    if s.min() == s.max():
        raise ValueError("observed labels are single-class; cannot fit")
    return fit_logistic(train.features, s, val.features, val.s, config or TrainConfig())


def fit_supervised(train: LabeledDataset, val: LabeledDataset,
                   config: TrainConfig | None = None) -> LogisticScorer:
    """Fit to the true labels; an oracle upper bound, unusable on real data."""
    if train.y is None or val.y is None:
        raise ValueError("supervised baseline requires true labels y")
    return fit_logistic(train.features, train.y, val.features, val.y, config or TrainConfig())


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
           config: TrainConfig | None = None) -> EmFit:
    """Alternate soft-label imputation and scorer refits until the
    labeling-frequency estimate stabilizes.

    The initial scorer is fit against the observed labels and the initial
    c is twice the observed positive rate (clamped). Each M-step is a
    ``fit_logistic`` without validation rows and with ``inner_epochs`` as its
    budget, started from the previous scorer and from the L-BFGS memory the
    previous M-step left; the memory belongs to this fit alone. Non-convergence after
    ``max_iters`` is reported, not masked.
    """
    em_config = em_config or EmConfig()
    config = config or TrainConfig()
    m_step = replace(config, max_epochs=em_config.inner_epochs)
    s = train.s.astype(np.float64)
    if s.sum() == 0:
        raise ValueError("EM requires at least one observed positive")
    c_hat = min(max(2.0 * float(s.mean()), 1e-3), 1.0 - 1e-3)
    scorer = fit_logistic(train.features, s, val.features, val.s, config)
    f = scorer.predict(train.features)
    memory: list = []
    for iters in range(1, em_config.max_iters + 1):  # runs at least once: max_iters >= 1
        q = em_soft_labels(f, train.s, c_hat)
        scorer = fit_logistic(train.features, q, None, None, m_step, init=scorer,
                              memory=memory)
        # The scores of the c update are the next E step's: one pass per iteration.
        f = scorer.predict(train.features)
        c_new = em_update_c(train.s, f)
        converged, c_hat = abs(c_new - c_hat) < em_config.tol, c_new
        if converged:
            break
    return EmFit(scorer.w, scorer.b, c_hat, converged, iters)


# ---------------------------------------------------------------------------
# Common estimator contract


_EXTERNAL: dict[str, Callable] = {}


def register_estimator(name: str, fn: Callable) -> None:
    """Register a plug-in estimator under ``name``.

    ``fn(train, val, eval_data, seed)`` returns one finite, non-negative
    condition score per row of ``eval_data``, known up to a constant factor.
    A per-group prevalence estimator returns its group's estimate on each of
    the group's rows.
    """
    _EXTERNAL[name] = fn


def fit_scorers(kind: str, train: LabeledDataset, val: LabeledDataset,
                config: TrainConfig | None = None, em_config: EmConfig | None = None
                ) -> tuple[dict[str, LogisticScorer], FitResult | None]:
    """A built-in estimator's ``{group name: scorer}``, and the core fit's
    ``FitResult`` (None for a baseline). ``purple`` maps every group name of
    ``train`` to its one ``PurpleModel``; a baseline fits one scorer (an
    ``EmFit`` for ``em``) on the rows of each group present in ``train``."""
    if kind == "purple":
        result = fit_purple(train, val, config)
        return dict.fromkeys(train.group_names, result.model), result
    if kind not in BUILTIN_KINDS:
        raise ValueError(f"unknown built-in estimator {kind!r}; expected one of {BUILTIN_KINDS}")
    scorers = {}
    for gid in train.present_groups():
        name = train.group_names[gid]
        sub_train = train.take_rows(np.flatnonzero(train.group == gid))
        sub_val = val.take_rows(np.flatnonzero(val.group == gid))
        try:
            if kind == "em":
                scorers[name] = fit_em(sub_train, sub_val, em_config, config)
            else:
                fit_one = fit_negative if kind == "negative" else fit_supervised
                scorers[name] = fit_one(sub_train, sub_val, config)
        except ValueError as e:
            raise ValueError(f"{kind} baseline failed for group {name!r}: {e}") from e
    return scorers, None


def group_scores(scorers: dict[str, LogisticScorer], data: LabeledDataset) -> np.ndarray:
    """Each row's condition score from its own group's scorer.

    ``scorers`` maps group names to scorers and must cover every group
    present in ``data``. Groups that share one scorer (the core method's
    ``sigmoid(w.x+b)``) are scored in one pass.
    """
    by_scorer: dict[int, tuple[LogisticScorer, list[int]]] = {}
    for gid in data.present_groups():
        name = data.group_names[gid]
        if name not in scorers:
            raise ValueError(f"no scorer for group {name!r}")
        by_scorer.setdefault(id(scorers[name]), (scorers[name], []))[1].append(gid)
    if len(by_scorer) == 1:  # one scorer for every row
        return next(iter(by_scorer.values()))[0].predict(data.features)
    scores = np.empty(data.n_rows, dtype=np.float64)
    for scorer, gids in by_scorer.values():
        mask = np.isin(data.group, gids)
        scores[mask] = scorer.predict(data.features.take_rows(np.flatnonzero(mask)))
    return scores


def baseline_relative_prevalence(kind: str, train: LabeledDataset, val: LabeledDataset,
                                 eval_data: LabeledDataset, group_a: str, group_b: str,
                                 seed: int = 0, config: TrainConfig | None = None,
                                 em_config: EmConfig | None = None,
                                 ) -> RelativePrevalenceEstimate:
    """Fit the named estimator on ``train``/``val`` and estimate the
    prevalence of ``group_a`` relative to ``group_b`` on ``eval_data``.

    A built-in kind is fit by ``fit_scorers`` and scores each row with its
    own group's scorer (``group_scores``), a registered estimator returns one
    finite, non-negative score per row of ``eval_data``, and the estimate is
    ``mean_score_ratio`` of the scores. ``seed`` goes to registered
    estimators; the built-in fits draw no random numbers.
    """
    flags: list[str] = []
    if kind in BUILTIN_KINDS:
        fits, _ = fit_scorers(kind, train, val, config, em_config)
        scores = group_scores(fits, eval_data)
        if kind == "em" and not all(fits[n].converged for n in (group_a, group_b)
                                    if n in fits):
            flags = ["em-non-converged"]
    elif kind in _EXTERNAL:
        out = _EXTERNAL[kind](train, val, eval_data, seed)
        try:
            scores = np.asarray(out, dtype=np.float64)
        except (TypeError, ValueError):  # not an array of numbers
            scores = np.empty((0, 0))
        if scores.shape != (eval_data.n_rows,) or not ((scores >= 0) & (scores < np.inf)).all():
            raise ValueError(f"estimator {kind!r} must return {eval_data.n_rows} finite, "
                             "non-negative scores, one per row of eval_data")
    else:
        raise ValueError(f"unknown estimator kind {kind!r} (registered: {sorted(_EXTERNAL)})")
    value = mean_score_ratio(scores, eval_data, group_a, group_b)
    return RelativePrevalenceEstimate(group_a, group_b, value, flags=flags)
