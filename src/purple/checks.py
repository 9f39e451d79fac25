"""Assumption-check diagnostics for fitted models.

Two empirical checks whose failure signals that the multiplicative
decomposition of the diagnosis probability is inappropriate for a dataset:

* model fit: a per-group unconstrained model (one independent linear
  scorer per group, subsuming all group-by-feature interactions within
  the linear class) should not beat the constrained product model on
  held-out ranking metrics;
* calibration: the predicted diagnosis probabilities should be calibrated
  against the observed labels within each group.

Both checks run against the observed labels only; nothing about the
unobserved true labels can be proven.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

import numpy as np

from .baselines import _UNREGULARIZED, fit_group_scorers, group_scores
from .data import LabeledDataset
from .metrics import CalibrationResult, auc, auprc, calibration
from .model import PurpleModel, TrainConfig, fit as fit_purple, predict_diagnosis

MIN_GROUP_ROWS = 30

DEFAULT_N_BINS = 10
DEFAULT_ECE_WARN = 0.05
DEFAULT_DELTA_AUC_WARN = 0.01


@dataclass(frozen=True)
class ModelFitComparison:
    constrained_auc: float
    unconstrained_auc: float
    constrained_auprc: float
    unconstrained_auprc: float

    @property
    def delta_auc(self) -> float:
        return self.unconstrained_auc - self.constrained_auc

    @property
    def delta_auprc(self) -> float:
        return self.unconstrained_auprc - self.constrained_auprc


def compare_constrained_unconstrained(train: LabeledDataset, val: LabeledDataset,
                                      test: LabeledDataset,
                                      config: TrainConfig | None = None,
                                      constrained: PurpleModel | None = None,
                                      ) -> ModelFitComparison:
    """Held-out AUC/AUPRC of the constrained product model versus one
    independent scorer per group, pooled over groups.

    ``constrained`` is a fitted core model to use instead of refitting.
    """
    config = config or _UNREGULARIZED
    groups = train.present_groups()
    if len(groups) < 2:
        raise ValueError("model-fit comparison needs at least two groups")
    for gid in groups:
        labels = train.s[train.group == gid]
        if labels.size < MIN_GROUP_ROWS:
            raise ValueError(
                f"group {train.group_names[gid]!r} has {labels.size} training rows; "
                f"needs at least {MIN_GROUP_ROWS} for its own scorer")
        if labels.min() == labels.max():
            raise ValueError(
                f"group {train.group_names[gid]!r} has single-class observed labels in "
                "training; its own scorer needs both classes")
    model = constrained or fit_purple(train, val, config).model
    constrained_scores = predict_diagnosis(model, test.features, test.group)

    unconstrained_scores = group_scores(
        fit_group_scorers("negative", train, val, groups, config), test)

    s = test.s
    return ModelFitComparison(
        constrained_auc=auc(constrained_scores, s),
        unconstrained_auc=auc(unconstrained_scores, s),
        constrained_auprc=auprc(constrained_scores, s),
        unconstrained_auprc=auprc(unconstrained_scores, s),
    )


@dataclass
class AssumptionCheckReport:
    calibration_by_group: dict[str, CalibrationResult]
    comparison: ModelFitComparison
    ece_warn_threshold: float
    delta_auc_warn_threshold: float

    @property
    def calibration_verdict(self) -> str:
        worst = max(r.ece for r in self.calibration_by_group.values())
        return "warn" if worst > self.ece_warn_threshold else "pass"

    @property
    def model_fit_verdict(self) -> str:
        return "warn" if self.comparison.delta_auc > self.delta_auc_warn_threshold else "pass"

    def to_dict(self) -> dict:
        return {
            "thresholds": {
                "ece_warn": self.ece_warn_threshold,
                "delta_auc_warn": self.delta_auc_warn_threshold,
            },
            "calibration": {
                "verdict": self.calibration_verdict,
                "by_group": {g: asdict(r) for g, r in
                             sorted(self.calibration_by_group.items())},
            },
            "model_fit": {
                "verdict": self.model_fit_verdict,
                **asdict(self.comparison),
                "delta_auc": self.comparison.delta_auc,
                "delta_auprc": self.comparison.delta_auprc,
            },
        }


def assumption_check_report(model: PurpleModel, train: LabeledDataset,
                            val: LabeledDataset, test: LabeledDataset,
                            config: TrainConfig | None = None, n_bins: int = DEFAULT_N_BINS,
                            ece_warn: float = DEFAULT_ECE_WARN,
                            delta_auc_warn: float = DEFAULT_DELTA_AUC_WARN
                            ) -> AssumptionCheckReport:
    """Run both checks for a fitted core model on held-out data.

    Calibration is computed on the diagnosis probability against the
    observed labels (the only observable target), per group. Warn
    thresholds are artifact defaults, configurable and echoed in the
    output.
    """
    probs = predict_diagnosis(model, test.features, test.group)
    cal = {}
    for gid in test.present_groups():
        mask = test.group == gid
        cal[test.group_names[gid]] = calibration(probs[mask], test.s[mask], n_bins)
    comparison = compare_constrained_unconstrained(train, val, test, config,
                                                   constrained=model)
    return AssumptionCheckReport(cal, comparison, ece_warn, delta_auc_warn)
