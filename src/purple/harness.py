"""Benchmark suites: generate data, sweep settings, fit every method on
every split, and serialize deterministic reports.

Every cell of a suite -- a (method, sweep point, split) triple -- runs with
a seed derived from the base seed and the cell's coordinates, so cells are
independent and the full report is a pure function of the suite
configuration. A cell whose estimator fails -- raises ``ValueError``
(``numpy.linalg.LinAlgError`` is one) or ``FloatingPointError`` -- is
recorded with its error and never defaults to a number; any other
exception is a bug and propagates out of ``run_suite``.

``run_suite(jobs > 1)`` runs the cells in worker processes started by
fork. Each worker inherits the suite's generated datasets from the parent,
so no dataset is pickled: a cell's index goes out and its result dict comes
back. Cells are mostly Python and small numpy calls that hold the GIL, so
threads would not run them in parallel. Fork copies only the calling
thread, so call it from a process that runs no other threads of its own.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import os
import zlib
from collections import namedtuple
from dataclasses import asdict, dataclass, field, replace

import numpy as np

from ._version import VERSION
from .baselines import _EXTERNAL, BUILTIN_KINDS, EmConfig, baseline_relative_prevalence
from .data import SPLIT_FRACTIONS, LabeledDataset, SplitSpec, split
from .gauss import GaussSynthConfig, generate_gauss
from .model import RelativePrevalenceEstimate, TrainConfig, mean_score_ratio
from .stats import paired_t_test
from .visits import SYMPTOM_MODES, generate_visit_corpus, select_symptoms, simulate_labels

# The group names every suite's generators produce: each cell estimates the
# prevalence of the first relative to the second.
_PAIR = ("a", "b")

# The labeling frequencies c_a and c_b every suite shares and echoes (b's is
# swept by label-frequency and semisynth).
_C = {"a": 0.5, "b": 0.25}
# The semisynth suite's ``generate_visit_corpus`` sizes, echoed as semisynth_scale.
_CORPUS = {"n_a": 7000, "n_b": 14000, "n_dims": 1200, "mean_active": 8.0}

# Seed-derivation tags; distinct per purpose so streams never collide.
_TAG_DATA, _TAG_SPLIT, _TAG_CELL, _TAG_CORPUS, _TAG_SYMPTOMS, _TAG_LABELS = range(6)


def derive_seed(*parts) -> int:
    """Stable seed from heterogeneous coordinates (ints and strings)."""
    ints = [p if isinstance(p, (int, np.integer)) else zlib.crc32(str(p).encode())
            for p in parts]
    return int(np.random.SeedSequence([int(p) for p in ints])
               .generate_state(1, np.uint64)[0] >> 1)


@dataclass
class ExperimentSuite:
    name: str
    methods: tuple[str, ...]
    sweep_values: tuple
    n_splits: int = 5
    base_seed: int = 0
    train: TrainConfig = field(default_factory=TrainConfig)
    em: EmConfig = field(default_factory=EmConfig)
    gauss_n: tuple[int, int] | None = None  # (n_a, n_b) override, Gaussian suites only

    def __post_init__(self):
        if self.name not in SUITE_NAMES:
            raise ValueError(f"unknown suite {self.name!r}; expected one of {SUITE_NAMES}")
        if self.n_splits < 2:
            raise ValueError("n_splits must be at least 2 for paired t-tests")
        unknown = [m for m in self.methods if m not in BUILTIN_KINDS and m not in _EXTERNAL]
        if unknown:
            raise ValueError(f"unknown methods: {unknown}; expected one of the built-in or "
                             f"registered estimators {[*BUILTIN_KINDS, *sorted(_EXTERNAL)]}")
        if self.gauss_n is not None and _SUITES[self.name].gauss_config is None:
            raise ValueError(f"gauss_n sets Gaussian group sizes; suite {self.name!r} "
                             "has no Gaussian data")
        if self.gauss_n is not None and (len(self.gauss_n) != 2 or min(self.gauss_n) < 1):
            raise ValueError(f"gauss_n must be two group sizes n_a,n_b >= 1, got {self.gauss_n}")

    def config_echo(self) -> dict:
        echo = {
            "name": self.name,
            "methods": list(self.methods),
            "sweep_values": [str(v) for v in self.sweep_values],
            "n_splits": self.n_splits,
            "base_seed": self.base_seed,
            "c_a": _C["a"],
            "c_b": _C["b"],
            "fractions": list(SPLIT_FRACTIONS),
            "train": asdict(self.train),
            "accuracy_definition": "abs(ratio_to_true - 1) per split",
            "split_stratification": "by group",
        }
        if "em" in self.methods:
            echo["em"] = asdict(self.em)
        if _SUITES[self.name].gauss_config is None:
            echo["semisynth_scale"] = dict(_CORPUS)
        if self.gauss_n is not None:
            echo["gauss_n"] = list(self.gauss_n)
        return echo


_Suite = namedtuple("_Suite", "methods sweep_values train gauss_config")
_ALL_METHODS = ("purple", "negative", "em", "supervised")
_GAUSS_TRAIN = TrainConfig(lambda_grid=(0.0,), max_epochs=4000, patience=30)
_CB_SWEEP = (0.1, 0.3, 0.5, 0.7, 0.9)


def _separability_config(v) -> GaussSynthConfig:
    if v not in ("nonseparable", "separable"):
        raise ValueError("expected nonseparable or separable")
    return GaussSynthConfig(c=dict(_C), separable=(v == "separable"))


# Each suite's default methods, sweep values and training config, and the
# function that builds one sweep point's GaussSynthConfig (None for the
# semi-synthetic suite, whose points are ``mode:c_b`` over one ``_CORPUS``).
_SUITES = {
    "separability": _Suite(
        _ALL_METHODS, ("nonseparable", "separable"), _GAUSS_TRAIN, _separability_config),
    "label-frequency": _Suite(
        _ALL_METHODS, _CB_SWEEP, _GAUSS_TRAIN,
        lambda v: GaussSynthConfig(c=dict(_C, b=float(v)))),
    # Group a's mean stays at -1 and group b's is v times the all-ones vector:
    # v = -1 makes the two groups coincide, v = 1 is the default config.
    "covariate-shift": _Suite(
        _ALL_METHODS, (-1.0, 0.0, 0.5, 0.75, 1.0), _GAUSS_TRAIN,
        lambda v: GaussSynthConfig(c=dict(_C), mean_b=float(v) * np.ones(5))),
    # Group a is the advantaged, higher-prevalence group: its mean sits on
    # the positive side of the hyperplane and it gets the +delta/2 offset.
    "violation": _Suite(
        ("purple", "supervised"), (0.0, 0.1, 0.2, 0.3, 0.4), _GAUSS_TRAIN,
        lambda v: GaussSynthConfig(c=dict(_C), mean_a=np.ones(5), mean_b=-np.ones(5),
                                   violation_delta=float(v))),
    # The default grid without λ = 0: on 1200 sparse columns the L1 path
    # regularizes and early stopping alone does not. Over the 500 purple
    # cells at seeds 0 to 4, λ = 0 stopped early in every fit, took 6805 of
    # the grid's 21 073 iterations and was selected in 194 cells. Without it
    # the other two fits are unchanged, 1e-2 is selected in 114 cells and
    # 1e-3 in 386, and the mean over points of |mean ratio_to_true - 1|
    # fell at every seed, from 0.0175-0.0358 to 0.0105-0.0276.
    "semisynth": _Suite(
        ("purple", "negative"), tuple(f"{m}:{cb}" for m in SYMPTOM_MODES for cb in _CB_SWEEP),
        TrainConfig(lambda_grid=(1e-2, 1e-3), max_epochs=250, patience=10), None),
}
SUITE_NAMES = tuple(_SUITES)


def make_suite(name: str, methods: tuple[str, ...] | None = None, n_splits: int = 5,
               base_seed: int = 0, **overrides) -> ExperimentSuite:
    """Construct a suite from its ``_SUITES`` entry. ``methods`` and the
    ``ExperimentSuite`` fields given by keyword (``sweep_values=``,
    ``train=``, ``em=``, ``gauss_n=``) replace the entry's defaults."""
    if name not in _SUITES:
        raise ValueError(f"unknown suite {name!r}; expected one of {SUITE_NAMES}")
    spec = _SUITES[name]
    defaults = {"methods": spec.methods if methods is None else tuple(methods),
                "sweep_values": spec.sweep_values, "train": spec.train, **overrides}
    return ExperimentSuite(name=name, n_splits=n_splits, base_seed=base_seed, **defaults)


def true_relative_prevalence(data: LabeledDataset, group_a: str, group_b: str) -> float:
    """Exact generator-side prevalence ratio: ``mean_score_ratio`` of latent_p."""
    if data.latent_p is None:
        raise ValueError("true relative prevalence requires latent_p (generated data)")
    return mean_score_ratio(data.latent_p, data, group_a, group_b)


# ---------------------------------------------------------------------------
# Sweep-point data generation


def suite_datasets(suite: ExperimentSuite) -> list[tuple[object, LabeledDataset]]:
    """Materialize (sweep value, dataset) pairs for every sweep point.

    Within a suite the non-swept random streams are shared across sweep
    points (feature draws for the Gaussian suites, the visit corpus for the
    semi-synthetic one, generated once and shared by every symptom mode),
    so sweeps are paired comparisons. Every sweep value is turned into its
    point before any data is drawn; one that names no point is refused with
    ``ValueError("bad <suite> sweep value <value>: <reason>")``.
    """
    gauss_config = _SUITES[suite.name].gauss_config

    def point(sv):  # the value's GaussSynthConfig, or its semisynth (mode, c_b)
        if gauss_config is not None:
            return gauss_config(sv)
        if str(sv).count(":") != 1:
            raise ValueError("expected mode:c_b")
        mode, c_b_text = str(sv).split(":")
        if mode not in SYMPTOM_MODES:
            raise ValueError(f"unknown symptom mode {mode!r}; expected one of "
                             f"{', '.join(SYMPTOM_MODES)}")
        c_b = float(c_b_text)
        if not 0.0 <= c_b <= 1.0:
            raise ValueError("labeling frequencies must lie in [0, 1]")
        return mode, c_b

    points = []
    for sv in suite.sweep_values:
        try:
            points.append(point(sv))
        except ValueError as e:
            raise ValueError(f"bad {suite.name} sweep value {sv!r}: {e}") from e
    if gauss_config is not None:
        data_seed = derive_seed(suite.base_seed, _TAG_DATA)
        sizes = dict(zip(("n_a", "n_b"), suite.gauss_n or ()))
        return [(sv, generate_gauss(replace(config, **sizes), data_seed))
                for sv, config in zip(suite.sweep_values, points)]
    corpus, group, names = generate_visit_corpus(
        **_CORPUS, seed=derive_seed(suite.base_seed, _TAG_CORPUS))
    by_mode: dict[str, tuple] = {}
    out = []
    for sv, (mode, c_b) in zip(suite.sweep_values, points):
        if mode not in by_mode:
            by_mode[mode] = select_symptoms(corpus, group, names, mode,
                                            derive_seed(suite.base_seed, _TAG_SYMPTOMS, mode))
        visits, v_sym = by_mode[mode]
        out.append((sv, simulate_labels(visits, group, names, v_sym, dict(_C, b=c_b),
                                        derive_seed(suite.base_seed, _TAG_LABELS, mode))))
    return out


# ---------------------------------------------------------------------------
# Suite execution


def _run_cell(suite: ExperimentSuite, data: LabeledDataset, sweep_value, split_i: int,
              method: str) -> dict:
    spec = SplitSpec(seed=derive_seed(suite.base_seed, _TAG_SPLIT, str(sweep_value)),
                     n_repeats=suite.n_splits)
    seed = derive_seed(suite.base_seed, _TAG_CELL, str(sweep_value), split_i, method)
    try:
        train, val, test = split(data, spec, split_i)
        est = baseline_relative_prevalence(method, train, val, test, *_PAIR,
                                           seed=seed, config=suite.train,
                                           em_config=suite.em)
        return {"split": split_i, "rp_estimate": est.value, "flags": est.flags}
    except (ValueError, FloatingPointError) as e:
        return {"split": split_i, "error": f"{type(e).__name__}: {e}"}


@dataclass
class RunReport:
    suite: str
    config: dict
    results: list[dict]
    t_tests: list[dict]
    version: str = VERSION

    @property
    def config_hash(self) -> str:
        blob = json.dumps(self.config, sort_keys=True).encode()
        return hashlib.sha256(blob).hexdigest()

    @property
    def n_failed_cells(self) -> int:
        return sum(1 for r in self.results for s in r["splits"] if "error" in s)

    def result_for(self, method: str, sweep_value) -> dict:
        for r in self.results:
            if r["method"] == method and r["sweep_value"] == str(sweep_value):
                return r
        raise KeyError(f"no result for ({method}, {sweep_value})")

    def to_dict(self) -> dict:
        return dict(asdict(self), config_hash=self.config_hash,
                    n_failed_cells=self.n_failed_cells)


def _aggregate(method: str, sweep_value, true_rp: float, cells: list[dict]) -> dict:
    """The result entry of one (method, sweep point) from its cells, in split order."""
    ok = [c for c in cells if "error" not in c]
    entry: dict = {
        "method": method,
        "sweep_value": str(sweep_value),
        "true_rp": true_rp,
        "splits": [c if "error" in c else dict(c, ratio_to_true=c["rp_estimate"] / true_rp)
                   for c in cells],
        "estimate": None,
        "accuracy_per_split": [abs(c["rp_estimate"] / true_rp - 1.0) for c in ok],
    }
    if ok:
        entry["estimate"] = asdict(RelativePrevalenceEstimate.from_splits(
            *_PAIR, per_split_values=[c["rp_estimate"] for c in ok], true_value=true_rp,
            flags=sorted({f for c in ok for f in c["flags"]})))
    return entry


def _t_test_entry(method: str, sweep_value: str, other: list[float],
                  purple: list[float]) -> dict:
    entry = {"method": method, "sweep_value": sweep_value, "n_pairs": len(purple)}
    if len(purple) < 2:
        entry["error"] = "fewer than two common successful splits"
        return entry
    try:
        # Positive t means the baseline is less accurate.
        entry.update(asdict(paired_t_test(other, purple)))
    except ValueError as e:
        entry["error"] = str(e)
    return entry


def _t_tests_vs_purple(results: list[dict], methods) -> list[dict]:
    """Paired t-tests of per-split accuracy, each baseline against the core
    method, per sweep point and pooled across points."""
    if "purple" not in methods:
        return []
    accuracy = {(r["method"], r["sweep_value"]): {s["split"]: abs(s["ratio_to_true"] - 1.0)
                                                   for s in r["splits"] if "error" not in s}
                for r in results}
    sweep_values = sorted({sv for _, sv in accuracy})
    out = []
    for method in methods:
        if method == "purple":
            continue
        pooled_purple: list[float] = []
        pooled_other: list[float] = []
        for sv in sweep_values:
            pu_acc, ot_acc = accuracy["purple", sv], accuracy[method, sv]
            common = sorted(set(pu_acc) & set(ot_acc))
            a = [ot_acc[i] for i in common]
            b = [pu_acc[i] for i in common]
            pooled_other.extend(a)
            pooled_purple.extend(b)
            out.append(_t_test_entry(method, sv, a, b))
        out.append(_t_test_entry(method, "all", pooled_other, pooled_purple))
    return out


# The cells of the suite a pool worker runs, inherited from the parent by
# fork; set in each worker by ``_inherit_tasks`` and never in the parent.
_TASKS: list = []


def _inherit_tasks(tasks: list) -> None:
    global _TASKS
    _TASKS = tasks


def _run_task(i: int) -> dict:
    return _run_cell(*_TASKS[i])


def _fork_context():
    """The ``fork`` start method's context: workers must inherit the datasets."""
    import multiprocessing

    if "fork" not in multiprocessing.get_all_start_methods():
        raise ValueError("jobs > 1 runs cells in processes started by fork, which this "
                         "platform does not offer; use jobs=1")
    return multiprocessing.get_context("fork")


def run_suite(suite: ExperimentSuite, jobs: int = 1) -> RunReport:
    """Execute every (method, sweep point, split) cell and aggregate.

    Cells are independent; with ``jobs > 1`` they run in a pool of
    ``min(jobs, number of cells)`` worker processes started by fork.
    ``jobs`` below 1, or above 1 on a platform without fork, raises
    ``ValueError``.
    Per-cell seeds depend only on cell coordinates, so the pool never
    changes any result. Cells are listed point by point, method by method,
    split by split, and both paths return them in that order, so each
    (point, method) entry reads its splits as one contiguous run. A worker
    that dies raises ``concurrent.futures.process.BrokenProcessPool``.
    """
    if jobs < 1:
        raise ValueError(f"jobs must be at least 1, got {jobs}")
    context = _fork_context() if jobs > 1 else None
    points = suite_datasets(suite)
    tasks = [(suite, data, sv, split_i, method)
             for sv, data in points
             for method in suite.methods
             for split_i in range(suite.n_splits)]
    workers = min(jobs, len(tasks))
    if workers > 1:
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(workers, mp_context=context, initializer=_inherit_tasks,
                                 initargs=(tasks,)) as pool:
            cells = list(pool.map(_run_task, range(len(tasks))))
    else:
        cells = [_run_cell(*task) for task in tasks]

    runs = iter(cells[i:i + suite.n_splits] for i in range(0, len(cells), suite.n_splits))
    results = []
    for sv, data in points:
        true_rp = true_relative_prevalence(data, *_PAIR)
        results.extend(_aggregate(method, sv, true_rp, next(runs)) for method in suite.methods)
    return RunReport(
        suite=suite.name,
        config=suite.config_echo(),
        results=results,
        t_tests=_t_tests_vs_purple(results, suite.methods),
    )


# ---------------------------------------------------------------------------
# Serialization


def report_json_bytes(report: RunReport) -> bytes:
    return (json.dumps(report.to_dict(), indent=2, sort_keys=True) + "\n").encode()


def results_csv_bytes(report: RunReport) -> bytes:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["suite", "method", "sweep_value", "split", "rp_estimate",
                     "rp_true", "ratio_to_true"])
    for r in report.results:
        for s in r["splits"]:
            if "error" in s:
                continue
            writer.writerow([report.suite, r["method"], r["sweep_value"], s["split"],
                             repr(s["rp_estimate"]), repr(r["true_rp"]),
                             repr(s["ratio_to_true"])])
    return buf.getvalue().encode()


def emit_report(report: RunReport, out_dir: str) -> dict[str, str]:
    """Write ``report.json`` and ``results.csv``; returns the paths written.

    Output is a pure function of the report, with stable key ordering and
    shortest-round-trip float formatting, so identical runs produce
    byte-identical files.
    """
    os.makedirs(out_dir, exist_ok=True)
    paths = {}
    for fname, blob in (("report.json", report_json_bytes(report)),
                        ("results.csv", results_csv_bytes(report))):
        path = os.path.join(out_dir, fname)
        try:
            with open(path, "wb") as fh:
                fh.write(blob)
        except OSError as e:
            raise OSError(f"failed writing {path}: {e}") from e
        paths[fname] = path
    return paths
