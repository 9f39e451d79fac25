"""Relative prevalence estimation for underreported conditions from
positive-unlabeled data, with generators, baselines, assumption checks,
and a benchmark harness."""

from ._version import VERSION as __version__
from .baselines import (
    EmConfig,
    baseline_relative_prevalence,
    fit_em,
    fit_negative,
    fit_scorers,
    fit_supervised,
    register_estimator,
)
from .checks import (
    AssumptionCheckReport,
    ModelFitComparison,
    assumption_check_report,
    compare_constrained_unconstrained,
)
from .data import (
    FeatureMatrix,
    LabeledDataset,
    ParseError,
    SplitSpec,
    load_dataset,
    split,
    write_dataset,
)
from .gauss import GaussSynthConfig, generate_gauss
from .harness import (
    ExperimentSuite,
    RunReport,
    emit_report,
    make_suite,
    run_suite,
    true_relative_prevalence,
)
from .metrics import auc, auprc, calibration
from .model import (
    FitResult,
    PurpleModel,
    RelativePrevalenceEstimate,
    TrainConfig,
    fit,
    gradients,
    loss,
    predict_diagnosis,
    relative_prevalence,
)
from .stats import paired_t_test
from .visits import (
    SymptomSet,
    generate_visit_corpus,
    simulate_labels,
)
