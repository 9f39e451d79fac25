"""Core estimator: fit p(s=1|x,g) = sigmoid(w.x+b) * sigmoid(theta_g), then
read relative prevalences off group means of the condition score.

The fitted ``PurpleModel`` is a ``LogisticScorer``, like every baseline's
scorer, and takes its condition score from ``LogisticScorer.predict``.

The two factors are individually identified only up to a shared constant,
which cancels in the ratio of group means, so only ratio-type quantities
(relative prevalence, labeling-frequency ratios, diagnosis probabilities)
are meaningful outputs.

Training minimizes the cross-entropy of the analytic model with optional L1
on the weights, with early stopping on validation cross-entropy, and selects
across the L1 grid by validation AUC against the observed labels. Every fit
runs ``_lbfgs_fit`` on the full batch, a numpy L-BFGS that adds the L1 term
itself and takes OWL-QN orthant steps for it. Its objective is the smooth
``gradients(..., 0.0, with_loss=True)``. ``loss``, ``gradients`` and each
iteration's validation cross-entropy share one kernel, ``_cross_entropy``,
which visits the rows in (group, s) order (``LabeledDataset.label_runs``,
kept with the dataset): a run of rows that share group and label has one
``c_g`` and one branch of the loss, so a pass is one ``X @ w``, one
``X.T @ dz`` (``FeatureMatrix.rtvec``, which on CSR data reuses a transpose
built once per matrix), one log per row and a few whole-array operations
per run, with no per-row gather, ``where`` or ``bincount``. The
baselines' logistic fits share the solver: callers pass an objective,
for early stopping a validation loss, for EM's M-steps one curvature
memory shared through the EM fit, and always ``_solver_scale`` of their
features. That scale makes the solver's initial inverse Hessian the
diagonal ``gamma * diag(scale)``, not ``gamma * I``; it only shrinks, bringing
each weight column whose mean square exceeds the intercept's 1 down to it,
so on binary features it is all ones and a fit is bit-identical to the
scalar solver's. Every sigmoid and softplus of a
fit, a score or a data generator, the baselines' included, comes from
``_logistic``, one numpy kernel built on the vectorised ``exp`` and ``log1p``.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields

import numpy as np

from .data import FeatureMatrix, LabeledDataset
from .metrics import auc

PROB_FLOOR = 1e-12
# L-BFGS: pairs kept, and the stopping rule of scipy's L-BFGS-B defaults
# (max |g| below _LBFGS_GTOL, or a relative decrease of f below _LBFGS_FTOL).
_LBFGS_MEMORY = 10
_LBFGS_GTOL = 1e-5
_LBFGS_FTOL = 1e7 * np.finfo(np.float64).eps
_ARMIJO_C1 = 1e-4
_MAX_BACKTRACKS = 60


@dataclass
class LogisticScorer:
    """The condition scorer sigmoid(w.x + b) of every fit, the core model's included."""

    w: np.ndarray
    b: float

    def __post_init__(self):
        self.w = np.asarray(self.w, dtype=np.float64)
        self.b = float(self.b)

    def predict(self, features) -> np.ndarray:
        """sigmoid(w.x + b) of a feature row, a 2-d array or a FeatureMatrix."""
        return _logistic(_linear(features, self.w, self.b))

    def __eq__(self, other) -> bool:
        """Same class and ``np.array_equal`` fields. Subclasses are declared
        with ``eq=False`` so that they keep this definition: the generated
        one compares ``w`` arrays inside a tuple, which raises."""
        return type(other) is type(self) and all(
            np.array_equal(getattr(self, f.name), getattr(other, f.name)) for f in fields(self))


@dataclass(eq=False)
class PurpleModel(LogisticScorer):
    """The condition scorer plus one labeling-frequency logit per group."""

    theta: np.ndarray
    group_names: list[str]

    def __post_init__(self):
        super().__post_init__()
        self.theta = np.asarray(self.theta, dtype=np.float64)
        if self.theta.shape != (len(self.group_names),):
            raise ValueError("theta must have one entry per group")

    @property
    def c(self) -> np.ndarray:
        """Per-group labeling frequencies sigmoid(theta), each in (0, 1)."""
        return _logistic(self.theta)


@dataclass
class TrainConfig:
    """The L1 grid, and each fit's budget and early-stopping patience, both
    counted in L-BFGS iterations.

    The default grid is (1e-2, 1e-3, 0). Between 1e-3 and 0 early stopping
    is the regularizer (Yao, Rosasco & Caponnetto 2007): λ = 1e-4, 1e-5 and
    1e-6 stopped early in every semisynth fit, as λ = 0 did, in as many
    iterations, so the grid has none of them. λ = 0 stays, for dense
    low-dimensional data: on the default ``GaussSynthConfig`` (5 columns,
    seeds 0 to 3, split 0), the grid without it raised the mean
    |ratio_to_true - 1| from 0.0219 to 0.0271. The semisynth suite, on
    1200 sparse columns, fits (1e-2, 1e-3) instead (``harness._SUITES``)."""

    lambda_grid: tuple[float, ...] = (1e-2, 1e-3, 0.0)
    max_epochs: int = 500
    patience: int = 10

    def __post_init__(self):
        if not self.lambda_grid or not np.isfinite(self.lambda_grid).all():
            raise ValueError("lambda_grid must be a non-empty list of finite values")
        if any(l < 0 for l in self.lambda_grid):
            raise ValueError("lambda values must be non-negative")
        if self.max_epochs < 1 or self.patience < 1:
            raise ValueError("max_epochs and patience must be at least 1")


@dataclass
class FitResult:
    model: PurpleModel
    selected_lambda: float
    val_auc: float
    val_cross_entropy: float
    epochs_run: int
    loss_trace: list[tuple[int, float, float]]
    lambda_metrics: list[dict] = field(default_factory=list)


@dataclass
class RelativePrevalenceEstimate:
    """Point estimate of the prevalence ratio for an ordered group pair."""

    group_a: str
    group_b: str
    value: float
    per_split_values: list[float] = field(default_factory=list)
    true_value: float | None = None
    ratio_to_true: float | None = None
    flags: list[str] = field(default_factory=list)

    @classmethod
    def from_splits(cls, group_a: str, group_b: str, per_split_values: list[float],
                    true_value: float | None = None,
                    flags: list[str] | None = None) -> "RelativePrevalenceEstimate":
        """The mean over splits, with its ratio to ``true_value`` when known."""
        value = float(np.mean(per_split_values))
        return cls(group_a, group_b, value, list(per_split_values), true_value,
                   None if true_value is None else value / true_value, list(flags or []))


# ---------------------------------------------------------------------------
# Prediction


def _logistic(z, *, with_softplus: bool = False):
    """The logistic kernel of every fit and score: sigmoid(z), and with
    ``with_softplus`` also ``(sigmoid(z), log(1 + exp(z)))``.

    Both come from one ``e = exp(-|z|)``, which lies in [0, 1], so neither
    overflows at any finite z; below z = -708 the sigmoid is the subnormal
    exp(z) rather than 0. The numerator ``max(e, z >= 0)`` is 1 for z >= 0
    and e below, the value of ``np.where(z >= 0, 1, e)`` at half its cost.
    """
    e = np.exp(-np.abs(z))
    sigmoid = np.maximum(e, z >= 0) / (1.0 + e)
    if with_softplus:
        return sigmoid, np.maximum(z, 0.0) + np.log1p(e)
    return sigmoid


def _linear(features, w: np.ndarray, b: float) -> np.ndarray:
    if isinstance(features, FeatureMatrix):
        return features.matvec(w) + b
    arr = np.asarray(features, dtype=np.float64)
    return arr @ w + b


def predict_diagnosis(model: PurpleModel, features, group) -> np.ndarray | float:
    """sigmoid(w.x + b) * sigmoid(theta_g): the observable diagnosis probability.

    ``group`` is either a single group name or an array of per-row group ids.
    """
    if isinstance(group, str):
        if group not in model.group_names:
            raise KeyError(f"unknown group {group!r}")
        cg = _logistic(model.theta[model.group_names.index(group)])
    else:
        gid = np.asarray(group, dtype=np.int64)
        if gid.size and gid.max() >= model.theta.size:
            raise KeyError(f"group id {int(gid.max())} has no theta entry")
        cg = _logistic(model.theta)[gid]
    return model.predict(features) * cg


# ---------------------------------------------------------------------------
# Loss and gradient


def _penalized(model: PurpleModel, cross_entropy: float, lam: float) -> float:
    return cross_entropy + lam * float(np.abs(model.w).sum())


def _cross_entropy(model: PurpleModel, data: LabeledDataset, with_gradient: bool):
    """The model's one objective kernel: the mean cross-entropy of ``p =
    f c_g``, with ``f = sigmoid(w.x + b)`` and ``c_g = sigmoid(theta_g)``,
    clamped to [PROB_FLOOR, 1 - PROB_FLOOR], against s; with
    ``with_gradient``, ``(cross-entropy, gw, gb, gtheta)``, its gradient
    without the L1 term.

    It runs over ``data.label_runs()``, the rows ordered by (group, s): in
    a run ``c_g`` is one number and the loss has one branch. A positive row
    adds ``-log p`` and ``dz = f - 1``, a negative one ``-log(1 - p)`` and
    ``dz = r (1 - f)`` with ``r = p / (1 - p)``, and ``dtheta_g`` is ``(1 -
    c_g)`` times the run's count of positives (negated) or sum of ``r``.
    Rows whose p lies on the clamp add the clamped loss and a zero gradient,
    the slope of the flat clamped loss; a run's min and max of p tell
    whether it has any, so a run without pays for no mask.
    """
    if data.n_rows == 0:
        raise ValueError("batch must be non-empty")
    features, runs = data.label_runs()
    f = model.predict(features)
    c = _logistic(model.theta)
    dz, dtheta = np.empty_like(f), np.zeros_like(c)
    log_sum = 0.0
    for g, s, lo, hi in runs:
        f_run, c_g = f[lo:hi], c[g]
        p = f_run * c_g
        inside = None  # the rows off the clamp, when some are on it
        if p.min() <= PROB_FLOOR or p.max() >= 1.0 - PROB_FLOOR:
            inside = (p > PROB_FLOOR) & (p < 1.0 - PROB_FLOOR)
        q = p if inside is None else np.clip(p, PROB_FLOOR, 1.0 - PROB_FLOOR)
        if s:
            if with_gradient:
                np.subtract(f_run, 1.0, out=dz[lo:hi])
                active = hi - lo
                if inside is not None:
                    dz[lo:hi][~inside] = 0.0
                    active = np.count_nonzero(inside)
                dtheta[g] -= (1.0 - c_g) * active
        else:
            q = 1.0 - q  # the probability of s = 0
            if with_gradient:
                r = p / q
                if inside is not None:
                    r[~inside] = 0.0
                np.multiply(r, 1.0 - f_run, out=dz[lo:hi])
                dtheta[g] += (1.0 - c_g) * r.sum()
        log_sum += float(np.log(q, out=q).sum())
    n = data.n_rows
    if not with_gradient:
        return -log_sum / n
    return -log_sum / n, features.rtvec(dz) / n, float(dz.sum()) / n, dtheta / n


def loss(model: PurpleModel, batch: LabeledDataset, lam: float) -> float:
    """Mean cross-entropy of the diagnosis probability against s, plus
    lam * ||w||_1 (bias and theta unpenalized)."""
    return _penalized(model, _cross_entropy(model, batch, False), lam)


def gradients(model: PurpleModel, batch: LabeledDataset, lam: float, *,
              with_loss: bool = False):
    """Exact analytic gradient ``(gw, gb, gtheta)`` of ``loss`` w.r.t. (w, b,
    theta), from the objective kernel ``_cross_entropy``.

    The L1 subgradient uses sign(w) with sign(0) = 0. Rows whose clamped
    probability sits on the clamp boundary contribute zero, matching the
    (flat) clamped loss there. With ``with_loss`` it returns ``(loss, gw,
    gb, gtheta)``, the loss from the same pass and bit-identical to
    ``loss(model, batch, lam)``.
    """
    ce, gw, gb, gtheta = _cross_entropy(model, batch, True)
    gw = gw + lam * np.sign(model.w)
    if with_loss:
        return _penalized(model, ce, lam), gw, gb, gtheta
    return gw, gb, gtheta


# ---------------------------------------------------------------------------
# Training loop


def _solver_scale(features: FeatureMatrix, n_unscaled: int) -> np.ndarray:
    """The diagonal ``scale`` of ``_lbfgs_fit``'s initial inverse Hessian for
    parameters ``(w, then n_unscaled others)``: ``1 / max(1, mean_i x_ij^2)``
    per weight, 1 for the bias and every theta. It only shrinks, so it is
    exactly 1.0 on binary features and on any column no larger than the
    intercept."""
    return np.concatenate([1.0 / np.maximum(features.column_mean_square(), 1.0),
                           np.ones(n_unscaled)])


def _two_loop(g: np.ndarray, pairs, scale: np.ndarray) -> np.ndarray:
    """-H g for the L-BFGS inverse-Hessian estimate H held in ``pairs``,
    a list of ``(s, y, 1/s.y)`` oldest first, over the initial matrix
    ``gamma * diag(scale)``, with ``gamma = s.y / y.(scale*y)`` of the newest
    pair, or 1 without pairs."""
    q = g.copy()
    alphas = []
    for s, y, rho in reversed(pairs):
        alphas.append(rho * (s @ q))
        q -= alphas[-1] * y
    gamma = 1.0
    if pairs:
        s, y, _ = pairs[-1]
        gamma = (s @ y) / (y @ (scale * y))
    q *= gamma * scale
    for (s, y, rho), alpha in zip(pairs, reversed(alphas)):
        q += (alpha - rho * (y @ q)) * s
    return -q


def _lbfgs_fit(objective, params: np.ndarray, max_iter: int, *, l1: float = 0.0,
               n_l1: int = 0, val_loss=None, patience: int = 0, memory: list | None = None,
               scale: np.ndarray | None = None):
    """The solver of every fit: L-BFGS with Armijo backtracking on the full
    batch of ``f + l1 * ||p[:n_l1]||_1``, where the smooth ``objective(p)``
    returns ``(f, g)``. The solver adds the L1 term to every ``f`` it
    compares or hands on, and takes OWL-QN orthant steps for it (Andrew &
    Gao 2007), which keep exact zeros; its curvature pairs are differences
    of the smooth ``g``.

    With ``val_loss(params, f)``, called at each iteration's iterate, stops
    ``patience`` iterations after the best validation loss. A fit that
    converges returns its last iterate, the optimum; one that stops early or
    runs out of budget returns its best-validation iterate. Returns
    ``(params, val_loss at params, iterations, stop)``, with ``stop`` one of
    ``"converged"``, ``"early-stopped"`` or ``"budget"``; without
    ``val_loss``, the returned iterate is always the last and its loss inf.
    Raises ``FloatingPointError`` if the objective or its gradient is not
    finite at ``params``, where no step could ever be accepted.

    ``memory``, if given, is a list of the L-BFGS curvature pairs ``(s, y,
    1/s.y)``, oldest first. The solver starts from the pairs in it, not from
    steepest descent, and leaves its own last pairs in it, at most
    ``_LBFGS_MEMORY``. A pair holds for another objective only if the two
    differ by a term linear in the parameters, which leaves every gradient
    difference unchanged; EM's M-steps are such a sequence. ``memory=None``
    and ``memory=[]`` give the same fit.

    The initial inverse Hessian is ``gamma * diag(scale)`` (Liu & Nocedal
    1989), ``gamma`` taken from the newest pair, and the first step and any
    restart is ``-scale * pg`` cut to length at most 1. ``scale=None`` is
    all ones, the scalar ``gamma * I``. Callers pass ``_solver_scale``,
    which brings each weight column larger than the intercept to its
    curvature scale and leaves smaller ones alone; the pairs stay in the
    unscaled parameters, so a shared ``memory`` stays exact. Full Jacobi
    scaling, ``1 / mean square`` on every column, also enlarges rare
    columns; it was rejected because on the semisynth suite (seed 0) it
    moved per-split ``negative`` estimates, which stop early and so keep
    the solver's path, by up to 40%, and added 5% of iterations.
    """
    def penalized(x):  # f + l1 * ||x[:n_l1]||_1, and the smooth gradient
        f, g = objective(x)
        return f + l1 * float(np.abs(x[:n_l1]).sum()), g

    def pseudo(x, g):  # OWL-QN pseudo-gradient: the steepest one-sided slope
        if not l1:
            return g
        gw = g[:n_l1]  # at w = 0, shrink the smooth slope by l1 towards 0
        at_zero = np.where(gw + l1 < 0.0, gw + l1, np.where(gw - l1 > 0.0, gw - l1, 0.0))
        return np.concatenate([np.where(x[:n_l1] == 0.0, at_zero,
                                        gw + l1 * np.sign(x[:n_l1])), g[n_l1:]])

    x = params
    f, g = penalized(x)
    if not (np.isfinite(f) and np.isfinite(g).all()):
        raise FloatingPointError("objective or its gradient is not finite at the "
                                 "starting point")
    pg = pseudo(x, g)
    scale = np.ones_like(x) if scale is None else scale
    pairs: list = [] if memory is None else list(memory)
    best_params, best_loss, bad = x, np.inf, 0
    current, it, stop = np.inf, 0, "budget"
    while it < max_iter:
        d = _two_loop(pg, pairs, scale)
        if l1:  # keep only the components that descend along -pg
            d[:n_l1] = np.where(d[:n_l1] * pg[:n_l1] < 0.0, d[:n_l1], 0.0)
            orthant = np.where(x[:n_l1] != 0.0, np.sign(x[:n_l1]), -np.sign(pg[:n_l1]))
        if not pairs:  # no curvature yet: a first step of length at most 1
            d /= max(np.linalg.norm(d), 1.0)
        step = 1.0
        for _ in range(_MAX_BACKTRACKS):
            x_new = x + step * d
            if l1:
                x_new[:n_l1] = np.where(np.sign(x_new[:n_l1]) == orthant, x_new[:n_l1], 0.0)
            f_new, g_new = penalized(x_new)
            if f_new <= f + _ARMIJO_C1 * float(pg @ (x_new - x)):
                break
            step *= 0.5
        else:
            if pairs:  # a poor curvature estimate: restart from steepest descent
                pairs = []
                continue
            stop = "converged"  # no decrease left at float precision
            break
        it += 1
        s_k, y_k = x_new - x, g_new - g
        sy = float(s_k @ y_k)
        if sy > np.finfo(np.float64).eps * float(y_k @ y_k):
            pairs = (pairs + [(s_k, y_k, 1.0 / sy)])[-_LBFGS_MEMORY:]
        decrease = (f - f_new) / max(abs(f), abs(f_new), 1.0)
        x, f, g = x_new, f_new, g_new
        pg = pseudo(x, g)
        if val_loss is not None:
            current = val_loss(x, f)
            if current < best_loss:
                best_params, best_loss, bad = x, current, 0
            else:
                bad += 1
                if bad >= patience:
                    stop = "early-stopped"
                    break
        if np.max(np.abs(pg)) < _LBFGS_GTOL or decrease < _LBFGS_FTOL:
            stop = "converged"
            break
    if memory is not None:
        memory[:] = pairs
    if val_loss is None or stop == "converged":
        return x, current, it, stop
    return best_params, best_loss, it, stop


def _train_one_lambda(train: LabeledDataset, val: LabeledDataset, config: TrainConfig,
                      lam: float):
    """One L-BFGS fit at one L1 strength, which only the solver is given.
    ``loss_trace`` has one entry ``(iteration, loss(model, train, lam), val
    cross-entropy)`` per iteration, at the accepted iterate. Returns
    ``(model, its val cross-entropy, trace, iterations, stop reason)``.
    """
    d = train.n_dims
    trace: list[tuple[int, float, float]] = []

    def model_at(p):
        return PurpleModel(p[:d], p[d], p[d + 1:], train.group_names)

    def record(p, train_loss):
        val_ce = _cross_entropy(model_at(p), val, False)
        trace.append((len(trace) + 1, train_loss, val_ce))
        return val_ce

    def objective(p):
        f, gw, gb, gtheta = gradients(model_at(p), train, 0.0, with_loss=True)
        return f, np.concatenate([gw, [gb], gtheta])

    params, best_ce, n, stop = _lbfgs_fit(
        objective, np.zeros(d + 1 + len(train.group_names)), config.max_epochs,
        l1=lam, n_l1=d, val_loss=record, patience=config.patience,
        scale=_solver_scale(train.features, 1 + len(train.group_names)))
    return model_at(params), best_ce, trace, n, stop


def fit(train: LabeledDataset, val: LabeledDataset,
        config: TrainConfig | None = None) -> FitResult:
    """Fit the model over the L1 grid.

    Per grid value: a zero-initialized L-BFGS fit (OWL-QN when the L1
    strength is positive) with early stopping on validation cross-entropy.
    A converged fit keeps its optimum; a fit stopped early or by its budget
    returns its best-validation parameters. ``config.max_epochs`` and
    ``config.patience`` count L-BFGS iterations. Across the grid, the fit
    with the highest validation AUC against the observed labels wins; both
    metrics, the iterations run and the stop reason (``"converged"``,
    ``"early-stopped"`` or ``"budget"``) are retained per grid value for
    inspection. Deterministic: a fit draws no random numbers.

    Training rows without an observed positive raise ``ValueError`` before
    any fit: the labeling frequency ``c = p(s=1|y=1)`` has nothing to be fit
    to there (Elkan & Noto 2008).
    """
    config = config or TrainConfig()
    if train.n_dims != val.n_dims:
        raise ValueError("train and val dimensionality differ")
    if val.n_rows == 0:
        raise ValueError("val has no rows: early stopping and the L1 grid are decided on them")
    missing = set(val.present_groups()) - set(train.present_groups())
    if missing:
        names = [train.group_names[g] for g in sorted(missing)]
        raise ValueError(f"groups present in val but absent in train: {names}")
    if not train.s.any():
        raise ValueError("the core fit requires at least one observed positive in training")

    fits, lambda_metrics = [], []
    for lam in config.lambda_grid:
        model, val_ce, trace, epochs, stop = _train_one_lambda(train, val, config, lam)
        try:
            val_auc = auc(predict_diagnosis(model, val.features, val.group), val.s)
        except ValueError:
            val_auc = float("nan")
        fits.append((model, trace))
        lambda_metrics.append({"lambda": float(lam), "val_auc": val_auc,
                               "val_cross_entropy": val_ce, "epochs": epochs, "stop": stop})

    # Highest AUC wins; cross-entropy breaks ties and covers the single-class
    # case where AUC is undefined. The first of equal keys wins.
    keys = [(-np.inf if np.isnan(m["val_auc"]) else m["val_auc"], -m["val_cross_entropy"])
            for m in lambda_metrics]
    best = max(range(len(keys)), key=keys.__getitem__)
    (model, trace), chosen = fits[best], lambda_metrics[best]
    return FitResult(model=model, selected_lambda=chosen["lambda"], val_auc=chosen["val_auc"],
                     val_cross_entropy=chosen["val_cross_entropy"], epochs_run=chosen["epochs"],
                     loss_trace=trace, lambda_metrics=lambda_metrics)


# ---------------------------------------------------------------------------
# Relative prevalence


def mean_score_ratio(scores: np.ndarray, data: LabeledDataset, group_a: str,
                     group_b: str | None = None) -> float:
    """The relative prevalence of ``group_a`` read off per-row scores: the
    mean of ``scores`` over its rows of ``data`` divided by the mean over
    ``group_b``'s rows, or over every other row when ``group_b`` is None.

    Every relative prevalence the package reports is taken here. It is
    invariant under any common positive rescaling of the scores, which is
    what makes a constant-factor condition score usable. A group with no
    rows, or a denominator mean below 1e-12, raises ``ValueError``; a name
    ``data`` does not hold raises ``KeyError``.
    """
    scores = np.asarray(scores, dtype=np.float64)
    in_a = data.group_mask(group_a)
    in_b = ~in_a if group_b is None else data.group_mask(group_b)
    label_b = (f"the complement of group {group_a!r}" if group_b is None
               else f"group {group_b!r}")
    if not in_a.any():
        raise ValueError(f"no rows in group {group_a!r}")
    if not in_b.any():
        raise ValueError(f"no rows in {label_b}")
    den = float(scores[in_b].mean())
    if den < 1e-12:
        raise ValueError(f"mean score in {label_b} is numerically zero")
    return float(scores[in_a].mean()) / den


def relative_prevalence(scorer: LogisticScorer, data: LabeledDataset,
                        group_a: str, group_b: str | None = None) -> float:
    """Estimated prevalence ratio of ``group_a`` against ``group_b``, or
    against every other row when ``group_b`` is None: ``mean_score_ratio``
    of the condition score of ``scorer``, a ``PurpleModel`` or any other
    ``LogisticScorer``."""
    return mean_score_ratio(scorer.predict(data.features), data, group_a, group_b)
