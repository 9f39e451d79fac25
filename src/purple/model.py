"""Core estimator: fit p(s=1|x,g) = sigmoid(w.x+b) * sigmoid(theta_g), then
read relative prevalences off group means of the condition score.

The two factors are individually identified only up to a shared constant,
which cancels in the ratio of group means, so only ratio-type quantities
(relative prevalence, labeling-frequency ratios, diagnosis probabilities)
are meaningful outputs.

Training is plain Adam on the analytic gradient with optional L1 on the
weights, early stopping on validation cross-entropy, and model selection
across the L1 grid by validation AUC against the observed labels. The loop
itself is ``_adam_fit``, which the baselines' logistic fits share: callers
pass a gradient on a row set and, for early stopping, a validation loss.
Full batch, the core fit takes one forward pass per epoch: the gradient call
also yields the training loss that ``loss_trace`` records.
"""

from __future__ import annotations

import warnings
from dataclasses import asdict, dataclass, field

import numpy as np
from scipy.special import expit

from .data import FeatureMatrix, LabeledDataset
from .metrics import auc

PROB_FLOOR = 1e-12
_ADAM_BETA1 = 0.9
_ADAM_BETA2 = 0.999


@dataclass
class PurpleModel:
    """Linear condition scorer plus one labeling-frequency logit per group."""

    w: np.ndarray
    b: float
    theta: np.ndarray
    group_names: list[str]

    def __post_init__(self):
        self.w = np.asarray(self.w, dtype=np.float64)
        self.theta = np.asarray(self.theta, dtype=np.float64)
        self.b = float(self.b)
        if self.theta.shape != (len(self.group_names),):
            raise ValueError("theta must have one entry per group")

    @property
    def c(self) -> np.ndarray:
        """Per-group labeling frequencies sigmoid(theta), each in (0, 1)."""
        return expit(self.theta)

    def to_dict(self) -> dict:
        return {
            "w": self.w.tolist(),
            "b": self.b,
            "theta": self.theta.tolist(),
            "group_names": list(self.group_names),
        }

    @classmethod
    def from_dict(cls, d: dict) -> "PurpleModel":
        return cls(np.asarray(d["w"]), d["b"], np.asarray(d["theta"]), list(d["group_names"]))

    def __eq__(self, other) -> bool:
        return isinstance(other, PurpleModel) and self.to_dict() == other.to_dict()


@dataclass
class TrainConfig:
    learning_rate: float = 1e-3
    adam_eps: float = 1e-8
    weight_decay: float = 0.0
    lambda_grid: tuple[float, ...] = (1e-2, 1e-3, 1e-4, 1e-5, 1e-6, 0.0)
    max_epochs: int = 500
    patience: int = 10
    batch_size: int | None = None  # None = full batch

    def __post_init__(self):
        if self.learning_rate <= 0:
            raise ValueError("learning_rate must be positive")
        if any(l < 0 for l in self.lambda_grid):
            raise ValueError("lambda values must be non-negative")
        if self.batch_size is not None and self.batch_size < 1:
            raise ValueError("batch_size must be positive")

    def to_dict(self) -> dict:
        return {**asdict(self), "lambda_grid": list(self.lambda_grid)}

    @classmethod
    def from_dict(cls, d: dict) -> "TrainConfig":
        return cls(**{**d, "lambda_grid": tuple(d["lambda_grid"])})


@dataclass
class FitResult:
    model: PurpleModel
    selected_lambda: float
    val_auc: float
    val_cross_entropy: float
    epochs_run: int
    loss_trace: list[tuple[int, float, float]]
    degenerate: bool = False
    lambda_metrics: list[dict] = field(default_factory=list)

    def to_dict(self) -> dict:
        return {
            "model": self.model.to_dict(),
            "selected_lambda": self.selected_lambda,
            "val_auc": self.val_auc,
            "val_cross_entropy": self.val_cross_entropy,
            "epochs_run": self.epochs_run,
            "loss_trace": [[e, tl, vl] for e, tl, vl in self.loss_trace],
            "degenerate": self.degenerate,
            "lambda_metrics": self.lambda_metrics,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "FitResult":
        """Inverse of ``to_dict``; keys it does not write are ignored."""
        kept = ("selected_lambda", "val_auc", "val_cross_entropy", "epochs_run",
                "degenerate", "lambda_metrics")
        return cls(model=PurpleModel.from_dict(d["model"]),
                   loss_trace=[tuple(t) for t in d["loss_trace"]], **{k: d[k] for k in kept})


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

    def to_dict(self) -> dict:
        return asdict(self)


# ---------------------------------------------------------------------------
# Prediction


def _linear(features, w: np.ndarray, b: float) -> np.ndarray:
    if isinstance(features, FeatureMatrix):
        return features.matvec(w) + b
    arr = np.asarray(features, dtype=np.float64)
    return arr @ w + b


def predict_condition_score(model: PurpleModel, features) -> np.ndarray | float:
    """sigmoid(w.x + b): the condition likelihood up to a constant factor.

    Accepts a single feature row, a 2-d array, or a FeatureMatrix.
    """
    z = _linear(features, model.w, model.b)
    out = expit(z)
    return float(out) if np.ndim(out) == 0 else out


def predict_diagnosis(model: PurpleModel, features, group) -> np.ndarray | float:
    """sigmoid(w.x + b) * sigmoid(theta_g): the observable diagnosis probability.

    ``group`` is either a single group name or an array of per-row group ids.
    """
    score = predict_condition_score(model, features)
    if isinstance(group, str):
        if group not in model.group_names:
            raise KeyError(f"unknown group {group!r}")
        cg = expit(model.theta[model.group_names.index(group)])
    else:
        gid = np.asarray(group, dtype=np.int64)
        if gid.size and gid.max() >= model.theta.size:
            raise KeyError(f"group id {int(gid.max())} has no theta entry")
        cg = expit(model.theta)[gid]
    return score * cg


# ---------------------------------------------------------------------------
# Loss and gradient


def _cross_entropy(p: np.ndarray, s: np.ndarray) -> float:
    p = np.clip(p, PROB_FLOOR, 1.0 - PROB_FLOOR)
    return float(-(s * np.log(p) + (1.0 - s) * np.log(1.0 - p)).mean())


def _forward(model: PurpleModel, batch: LabeledDataset):
    """Per-row condition score f, labeling frequency c_g and p = f * c_g."""
    if batch.n_rows == 0:
        raise ValueError("batch must be non-empty")
    f = expit(_linear(batch.features, model.w, model.b))
    cg = expit(model.theta)[batch.group]
    return f, cg, f * cg


def _objective(model: PurpleModel, p: np.ndarray, s: np.ndarray, lam: float) -> float:
    return _cross_entropy(p, s) + lam * float(np.abs(model.w).sum())


def loss(model: PurpleModel, batch: LabeledDataset, lam: float) -> float:
    """Mean cross-entropy of the diagnosis probability against s, plus
    lam * ||w||_1 (bias and theta unpenalized)."""
    _, _, p = _forward(model, batch)
    return _objective(model, p, batch.s.astype(np.float64), lam)


def gradients(model: PurpleModel, batch: LabeledDataset, lam: float, *,
              with_loss: bool = False):
    """Exact analytic gradient of ``loss`` w.r.t. (w, b, theta).

    The L1 subgradient uses sign(w) with sign(0) = 0. Rows whose clamped
    probability sits on the clamp boundary contribute zero, matching the
    (flat) clamped loss there.

    With ``with_loss`` this is the fused kernel: it returns ``(loss, gw, gb,
    gtheta)``, the loss taken from the same forward pass and bit-identical to
    ``loss(model, batch, lam)``. It keeps ``_cross_entropy``'s soft-target
    form, two logs per row: ``fit_logistic`` shares that function with
    probability targets, which a one-log-per-row form for 0/1 labels breaks.
    """
    f, cg, p = _forward(model, batch)
    X, s, g = batch.features, batch.s.astype(np.float64), batch.group
    active = (p > PROB_FLOOR) & (p < 1.0 - PROB_FLOOR)
    one_minus_p = np.maximum(1.0 - p, PROB_FLOOR)
    # d(ce)/dz = -(1-f) on positives, p(1-f)/(1-p) on negatives; same shape
    # for theta with (1-c) in place of (1-f).
    dz = np.where(s == 1.0, -(1.0 - f), p * (1.0 - f) / one_minus_p)
    dtheta_row = np.where(s == 1.0, -(1.0 - cg), p * (1.0 - cg) / one_minus_p)
    dz = np.where(active, dz, 0.0)
    dtheta_row = np.where(active, dtheta_row, 0.0)
    n = batch.n_rows
    gw = X.rtvec(dz) / n + lam * np.sign(model.w)
    gb = float(dz.mean())
    gtheta = np.bincount(g, weights=dtheta_row, minlength=model.theta.size) / n
    if with_loss:
        return _objective(model, p, s, lam), gw, gb, gtheta
    return gw, gb, gtheta


# ---------------------------------------------------------------------------
# Training loop


def _adam_update(params, grad, state, lr, eps):
    m, v, t = state
    t += 1
    m = _ADAM_BETA1 * m + (1.0 - _ADAM_BETA1) * grad
    v = _ADAM_BETA2 * v + (1.0 - _ADAM_BETA2) * grad * grad
    m_hat = m / (1.0 - _ADAM_BETA1 ** t)
    v_hat = v / (1.0 - _ADAM_BETA2 ** t)
    params = params - lr * m_hat / (np.sqrt(v_hat) + eps)
    return params, (m, v, t)


def _epoch_batches(n: int, batch_size: int | None, rng: np.random.Generator):
    if batch_size is None or batch_size >= n:
        yield slice(None)
        return
    perm = rng.permutation(n)
    for start in range(0, n, batch_size):
        yield perm[start:start + batch_size]


def _adam_fit(grad, params: np.ndarray, n_rows: int, config: TrainConfig,
              rng: np.random.Generator, epochs: int, val_loss=None):
    """The training loop of every fit: Adam with weight decay over shuffled
    minibatches; ``grad(params, rows)`` is the gradient on ``rows`` (a slice
    for the full batch, else an index array).

    With ``val_loss(params)``, stops ``config.patience`` epochs after the best
    validation loss and returns that epoch's parameters; without it, runs all
    ``epochs`` and returns the last. Returns ``(params, best_loss, epochs_run)``.
    """
    state = (np.zeros(params.size), np.zeros(params.size), 0)
    best_params, best_loss, bad = params, np.inf, 0
    epoch = 0
    for epoch in range(1, epochs + 1):
        for rows in _epoch_batches(n_rows, config.batch_size, rng):
            g = grad(params, rows)
            if config.weight_decay:
                g = g + config.weight_decay * params
            # _adam_update returns a new array, so best_params is never mutated.
            params, state = _adam_update(params, g, state, config.learning_rate,
                                         config.adam_eps)
        if val_loss is None:
            continue
        current = val_loss(params)
        if current < best_loss:
            best_params, best_loss, bad = params, current, 0
        else:
            bad += 1
            if bad >= config.patience:
                break
    return (params if val_loss is None else best_params), best_loss, epoch


def _train_one_lambda(train: LabeledDataset, val: LabeledDataset, config: TrainConfig,
                      lam: float, rng: np.random.Generator):
    """One Adam fit at one L1 strength, with ``loss_trace`` entries
    ``(epoch, train loss, val cross-entropy)`` at each epoch's end point.

    Full batch, the next epoch's gradient evaluates at that end point, so it
    supplies the train loss from the same forward pass; only the last
    epoch's entry needs a separate ``loss`` call.
    """
    d = train.n_dims
    s_val = val.s.astype(np.float64)
    full_batch = config.batch_size is None or config.batch_size >= train.n_rows
    trace: list[tuple[int, float, float]] = []
    pending = None  # parameters of the trace entry still missing its train loss

    def model_at(p):
        return PurpleModel(p[:d], p[d], p[d + 1:], train.group_names)

    def record_train_loss(value):
        nonlocal pending
        epoch, _, val_ce = trace[-1]
        trace[-1] = (epoch, value, val_ce)
        pending = None

    def grad(p, rows):
        if p is pending:
            train_loss, gw, gb, gtheta = gradients(model_at(p), train, lam, with_loss=True)
            record_train_loss(train_loss)
        else:
            batch = train if isinstance(rows, slice) else train.take_rows(rows)
            gw, gb, gtheta = gradients(model_at(p), batch, lam)
        return np.concatenate([gw, [gb], gtheta])

    def val_loss(p):
        nonlocal pending
        model = model_at(p)
        val_ce = _cross_entropy(predict_diagnosis(model, val.features, val.group), s_val)
        if full_batch:
            trace.append((len(trace) + 1, np.nan, val_ce))
            pending = p
        else:
            trace.append((len(trace) + 1, loss(model, train, lam), val_ce))
        return val_ce

    params = np.zeros(d + 1 + len(train.group_names))
    params, best_ce, epochs = _adam_fit(grad, params, train.n_rows, config, rng,
                                        config.max_epochs, val_loss)
    if pending is not None:
        record_train_loss(loss(model_at(pending), train, lam))
    return model_at(params), best_ce, trace, epochs


def fit(train: LabeledDataset, val: LabeledDataset, config: TrainConfig | None = None,
        seed: int = 0) -> FitResult:
    """Fit the model over the L1 grid.

    Per grid value: zero-initialized Adam with early stopping on validation
    cross-entropy (best parameters restored). Across the grid, the fit with
    the highest validation AUC against the observed labels wins; both
    metrics are retained per grid value for inspection. Deterministic given
    the seed (which only drives minibatch shuffling).
    """
    config = config or TrainConfig()
    if train.n_dims != val.n_dims:
        raise ValueError("train and val dimensionality differ")
    missing = set(val.present_groups()) - set(train.present_groups())
    if missing:
        names = [train.group_names[g] for g in sorted(missing)]
        raise ValueError(f"groups present in val but absent in train: {names}")
    degenerate = int(train.s.sum()) == 0
    if degenerate:
        warnings.warn("training data has no positive observed labels; fit is degenerate",
                      RuntimeWarning, stacklevel=2)

    candidates = []
    for li, lam in enumerate(config.lambda_grid):
        rng = np.random.default_rng(np.random.SeedSequence([int(seed), li]))
        model, val_ce, trace, epochs = _train_one_lambda(train, val, config, lam, rng)
        probs = predict_diagnosis(model, val.features, val.group)
        try:
            val_auc = auc(probs, val.s)
        except ValueError:
            val_auc = float("nan")
        candidates.append((model, float(lam), val_auc, val_ce, epochs, trace))

    def selection_key(cand):
        _, _, val_auc, val_ce, _, _ = cand
        # Highest AUC wins; cross-entropy breaks ties and covers the
        # single-class case where AUC is undefined.
        auc_key = -np.inf if np.isnan(val_auc) else val_auc
        return (auc_key, -val_ce)

    best = max(candidates, key=selection_key)
    model, lam, val_auc, val_ce, epochs, trace = best
    return FitResult(
        model=model,
        selected_lambda=lam,
        val_auc=val_auc,
        val_cross_entropy=val_ce,
        epochs_run=epochs,
        loss_trace=trace,
        degenerate=degenerate,
        lambda_metrics=[{"lambda": c[1], "val_auc": c[2], "val_cross_entropy": c[3],
                         "epochs": c[4]} for c in candidates],
    )


# ---------------------------------------------------------------------------
# Relative prevalence


def mean_score_ratio(scores: np.ndarray, mask_num: np.ndarray, mask_den: np.ndarray,
                     label_num: str = "numerator", label_den: str = "denominator") -> float:
    """Ratio of mean scores between two row subsets.

    Invariant under any common positive rescaling of the scores, which is
    what makes a constant-factor condition score usable here.
    """
    scores = np.asarray(scores, dtype=np.float64)
    if not np.any(mask_num):
        raise ValueError(f"no rows in {label_num} group")
    if not np.any(mask_den):
        raise ValueError(f"no rows in {label_den} group")
    den = float(scores[mask_den].mean())
    if den < 1e-12:
        raise ValueError(f"mean score in {label_den} group is numerically zero")
    return float(scores[mask_num].mean()) / den


def relative_prevalence(model: PurpleModel, data: LabeledDataset,
                        group_a: str, group_b: str) -> float:
    """Estimated prevalence ratio between two groups: mean condition score
    over group_a's rows divided by the same over group_b's."""
    scores = predict_condition_score(model, data.features)
    return mean_score_ratio(scores, data.group_mask(group_a), data.group_mask(group_b),
                            group_a, group_b)


def relative_prevalence_vs_complement(model: PurpleModel, data: LabeledDataset,
                                      group: str) -> float:
    """Prevalence ratio between a group and all remaining rows."""
    scores = predict_condition_score(model, data.features)
    mask = data.group_mask(group)
    return mean_score_ratio(scores, mask, ~mask, group, f"complement of {group}")
