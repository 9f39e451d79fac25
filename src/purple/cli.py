"""Command-line interface.

Subcommands: ``simulate gauss|corpus|semisynth``, ``fit``, ``estimate``,
``check``, ``benchmark``. Dataset files are ``.csv`` (dense) or ``.pu``
(sparse); models and reports are JSON.
"""

from __future__ import annotations

import functools
import hashlib
import json
import sys

import click
import numpy as np

from ._version import VERSION
# fit_em is unused here but kept importable: perfbench's tracer wraps cli.fit_em.
from .baselines import (BUILTIN_KINDS, EmConfig, LogisticScorer, fit_em,  # noqa: F401
                        fit_group_scorers, group_scores, purple_scorers)
from .checks import assumption_check_report
from .data import LabeledDataset, SplitSpec, load_dataset, split, split_indices, write_dataset
from .gauss import GaussSynthConfig, generate_gauss
from .harness import SUITE_NAMES, emit_report, make_suite, run_suite
from .model import FitResult, TrainConfig, fit as fit_purple, mean_score_ratio
from .visits import (
    SemiSynthConfig,
    drop_anchor_features,
    generate_visit_corpus,
    load_symptom_indices,
    select_common_symptoms,
    select_correlated_symptoms,
    select_high_rp_symptoms,
    simulate_labels,
)


def _parse_c(text: str) -> dict[str, float]:
    out = {}
    for part in text.split(","):
        if "=" not in part:
            raise click.UsageError(f"bad labeling-frequency entry {part!r}; "
                                   "expected name=value")
        name, value = part.split("=", 1)
        try:
            out[name.strip()] = float(value)
        except ValueError:
            raise ValueError(f"bad labeling frequency {part!r}; expected name=number") from None
    return out


def _value_errors_as_errors(command):
    """Report a ``ValueError`` from bad options or data as one ``Error:``
    line with exit status 1, instead of a traceback."""
    @functools.wraps(command)
    def run(*args, **kwargs):
        try:
            return command(*args, **kwargs)
        except ValueError as e:
            raise click.ClickException(str(e)) from None
    return run


def _file_sha256(path: str) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def _write_json(obj: dict, out: str | None):
    text = json.dumps(obj, indent=2, sort_keys=True) + "\n"
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
        click.echo(f"wrote {out}")
    else:
        click.echo(text, nl=False)


@click.group()
@click.version_option(VERSION)
def main():
    """Relative prevalence estimation from positive-unlabeled data."""


@main.group()
def simulate():
    """Generate synthetic datasets."""


@simulate.command("gauss")
@click.option("--n-a", default=10000, show_default=True)
@click.option("--n-b", default=20000, show_default=True)
@click.option("--dims", default=5, show_default=True)
@click.option("--mean-b-scale", default=1.0, show_default=True,
              help="Group b mean is this value times the all-ones vector.")
@click.option("--variance", default=16.0, show_default=True)
@click.option("--c", "c_text", default="a=0.5,b=0.25", show_default=True,
              help="Per-group labeling frequencies, e.g. a=0.5,b=0.25.")
@click.option("--separable", is_flag=True)
@click.option("--violation-delta", default=0.0, show_default=True)
@click.option("--seed", default=0, show_default=True)
@click.option("--out", required=True, type=click.Path(),
              help="Output path; .csv writes dense, .pu writes sparse.")
@_value_errors_as_errors
def simulate_gauss(n_a, n_b, dims, mean_b_scale, variance, c_text, separable,
                   violation_delta, seed, out):
    """Two-group Gaussian data with a logistic condition probability."""
    cfg = GaussSynthConfig(
        n_dims=dims, n_a=n_a, n_b=n_b, variance=variance,
        mean_a=-np.ones(dims), mean_b=mean_b_scale * np.ones(dims),
        c=_parse_c(c_text), separable=separable, violation_delta=violation_delta,
    )
    data = generate_gauss(cfg, seed)
    write_dataset(data, out)
    click.echo(f"wrote {out} ({data.n_rows} rows, {data.n_dims} dims)")


@simulate.command("corpus")
@click.option("--n-a", default=7000, show_default=True)
@click.option("--n-b", default=14000, show_default=True)
@click.option("--dims", default=1200, show_default=True)
@click.option("--mean-active", default=8.0, show_default=True)
@click.option("--seed", default=0, show_default=True)
@click.option("--out", required=True, type=click.Path())
@_value_errors_as_errors
def simulate_corpus(n_a, n_b, dims, mean_active, seed, out):
    """Sparse binary visit matrix (all labels 0/unknown) for label simulation."""
    visits, group, names = generate_visit_corpus(n_a, n_b, dims,
                                                 mean_active=mean_active, seed=seed)
    data = LabeledDataset(visits, group, names, np.zeros(visits.n_rows, dtype=np.int8))
    write_dataset(data, out)
    click.echo(f"wrote {out} ({data.n_rows} rows, {data.n_dims} dims)")


@simulate.command("semisynth")
@click.option("--visits", "visits_path", required=True, type=click.Path(exists=True),
              help="Dataset file providing the binary features and groups.")
@click.option("--symptoms", required=True,
              help="Selection mode (common, high-rp, correlated) or a path to a "
                   "newline-separated feature-index list.")
@click.option("--c", "c_text", required=True, help="e.g. a=0.5,b=0.25")
@click.option("--seed", default=0, show_default=True)
@click.option("--pool", default=50, show_default=True, help="common: frequency pool size.")
@click.option("--pick", default=25, show_default=True, help="common: symptoms sampled.")
@click.option("--min-count", default=50, show_default=True,
              help="high-rp: minimum per-group occurrence count.")
@click.option("--top", default=None, type=int,
              help="high-rp / correlated: number of symptoms kept.")
@click.option("--group-num", default=None, help="high-rp: ratio numerator group.")
@click.option("--group-den", default=None, help="high-rp: ratio denominator group.")
@click.option("--anchors", default=None, type=click.Path(exists=True),
              help="correlated: path to anchor feature indices (dropped from x).")
@click.option("--out", required=True, type=click.Path())
@_value_errors_as_errors
def simulate_semisynth(visits_path, symptoms, c_text, seed, pool, pick, min_count,
                       top, group_num, group_den, anchors, out):
    """Simulate disease labels over a visit matrix from suspicious symptoms."""
    base = load_dataset(visits_path)
    visits, group, names = base.features, base.group, base.group_names
    if symptoms == "common":
        v_sym = select_common_symptoms(visits, pool=pool, pick=pick, seed=seed)
    elif symptoms == "high-rp":
        num = group_num or names[-1]
        den = group_den or names[0]
        v_sym = select_high_rp_symptoms(visits, group, names, num, den,
                                        min_count=min_count, top=top or 10)
    elif symptoms == "correlated":
        if not anchors:
            raise click.UsageError("--symptoms correlated requires --anchors")
        anchor_set = load_symptom_indices(anchors, name="anchors")
        v_sym = select_correlated_symptoms(visits, anchor_set, top=top or 25)
        visits, v_sym = drop_anchor_features(visits, anchor_set, v_sym)
    else:
        try:
            v_sym = load_symptom_indices(symptoms)
        except OSError:
            raise ValueError(f"--symptoms {symptoms!r} is neither a mode (common, high-rp, "
                             "correlated) nor a readable file") from None
    cfg = SemiSynthConfig(c=_parse_c(c_text), seed=seed)
    data = simulate_labels(visits, group, names, v_sym, cfg)
    write_dataset(data, out)
    click.echo(f"wrote {out} ({data.n_rows} rows, {data.n_dims} dims, "
               f"{len(v_sym)} suspicious symptoms)")


def _train_config(lambda_grid, max_epochs, patience):
    kwargs = {}
    if lambda_grid is not None:
        try:
            kwargs["lambda_grid"] = tuple(float(x) for x in lambda_grid.split(","))
        except ValueError:
            raise ValueError(f"bad --lambda-grid {lambda_grid!r}; expected comma-separated "
                             "numbers") from None
    if max_epochs is not None:
        kwargs["max_epochs"] = max_epochs
    if patience is not None:
        kwargs["patience"] = patience
    return TrainConfig(**kwargs)


@main.command("fit")
@click.option("--data", "data_path", required=True, type=click.Path(exists=True))
@click.option("--method", default="purple", show_default=True,
              help="purple, negative, supervised, or em.")
@click.option("--lambda-grid", default=None, help="Comma-separated L1 strengths.")
@click.option("--max-epochs", default=None, type=int,
              help="Budget per fit, in L-BFGS iterations.")
@click.option("--patience", default=None, type=int,
              help="Early-stopping patience, in L-BFGS iterations.")
@click.option("--seed", default=0, show_default=True)
@click.option("--splits", default=5, show_default=True)
@click.option("--em-max-iters", default=100, show_default=True)
@click.option("--em-tol", default=1e-5, show_default=True)
@click.option("--out", required=True, type=click.Path())
@_value_errors_as_errors
def fit_cmd(data_path, method, lambda_grid, max_epochs, patience, seed, splits,
            em_max_iters, em_tol, out):
    """Fit a method on each train/val split and save the models."""
    if method not in BUILTIN_KINDS:
        raise click.UsageError(f"unknown method {method!r}; expected one of {BUILTIN_KINDS}")
    data = load_dataset(data_path)
    config = _train_config(lambda_grid, max_epochs, patience)
    em_config = EmConfig(max_iters=em_max_iters, tol=em_tol)
    spec = SplitSpec(seed=seed, n_repeats=splits)
    fits = []
    for i in range(splits):
        train, val, _ = split(data, spec, i)
        if method == "purple":
            result = fit_purple(train, val, config)
            fits.append({"split": i, **result.to_dict()})
        else:
            scorers = fit_group_scorers(method, train, val, train.present_groups(), config,
                                        em_config)
            fits.append({"split": i, "scorers": {name: scorer.to_dict()
                                                 for name, scorer in scorers.items()}})
    payload = {
        "version": VERSION,
        "method": method,
        "data": {"path": data_path, "sha256": _file_sha256(data_path),
                 "n_rows": data.n_rows, "n_dims": data.n_dims},
        "split": {"fractions": list(spec.fractions), "seed": spec.seed,
                  "n_repeats": spec.n_repeats},
        "train": config.to_dict(),
        "em": {"max_iters": em_max_iters, "tol": em_tol} if method == "em" else None,
        "fits": fits,
    }
    _write_json(payload, out)


def _load_model_file(path: str) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def _eval_rows(payload: dict, data, data_path: str, all_rows: bool) -> dict:
    """Rows to score for each stored split: all rows, or its test partition."""
    splits = [f["split"] for f in payload["fits"]]
    if all_rows:
        return {i: np.arange(data.n_rows) for i in splits}
    if _file_sha256(data_path) != payload["data"]["sha256"]:
        raise click.UsageError(
            "data file differs from the one the model was fit on; pass --all-rows "
            "to score every row instead of the held-out test partitions")
    spec = SplitSpec(tuple(payload["split"]["fractions"]), payload["split"]["seed"],
                     payload["split"]["n_repeats"])
    return {i: split_indices(data, spec, i)[2] for i in splits}


def _split_rp(data, rows: np.ndarray, scorers: dict, group_a: str,
              group_b: str | None) -> float:
    """``mean_score_ratio`` over ``rows``: ``group_a`` against ``group_b``,
    or against every other row when ``group_b`` is None. A pair scores only
    its own groups' rows."""
    if group_b is not None:
        rows = rows[np.isin(data.group[rows], [data.group_id(group_a),
                                               data.group_id(group_b)])]
    eval_data = data.take_rows(rows)
    return mean_score_ratio(group_scores(scorers, eval_data), eval_data, group_a, group_b)


@main.command("estimate")
@click.option("--model", "model_path", required=True, type=click.Path(exists=True))
@click.option("--data", "data_path", required=True, type=click.Path(exists=True))
@click.option("--pairs", default=None, help="Comma-separated ordered pairs, e.g. a:b,b:a.")
@click.option("--vs-complement", default=None,
              help="Estimate a group against all remaining rows.")
@click.option("--all-rows", is_flag=True, help="Score all rows, not test partitions.")
@click.option("--out", default=None, type=click.Path())
@_value_errors_as_errors
def estimate_cmd(model_path, data_path, pairs, vs_complement, all_rows, out):
    """Relative prevalence estimates from a saved model."""
    if not pairs and not vs_complement:
        raise click.UsageError("nothing to do: pass --pairs and/or --vs-complement")
    payload = _load_model_file(model_path)
    data = load_dataset(data_path)
    report = {"version": VERSION, "method": payload["method"], "model": model_path,
              "data": data_path, "eval_rows": "all" if all_rows else "test-partitions",
              "estimates": []}
    requests = []
    if pairs:
        for pair in pairs.split(","):
            a, _, b = (part.strip() for part in pair.partition(":"))
            if not a or not b:
                raise click.UsageError(f"bad pair {pair!r}; expected a:b")
            requests.append(("pair", a, b))
    if vs_complement:
        requests.append(("vs-complement", vs_complement.strip(), None))
    rows_by_split = _eval_rows(payload, data, data_path, all_rows)
    if payload["method"] == "purple":
        scorers = {f["split"]: purple_scorers(FitResult.from_dict(f), data.group_names)
                   for f in payload["fits"]}
    else:
        scorers = {f["split"]: {name: LogisticScorer(np.asarray(s["w"]), s["b"])
                                for name, s in f["scorers"].items()}
                   for f in payload["fits"]}
    for kind, a, b in requests:
        per_split = []
        for split_i, rows in rows_by_split.items():
            try:
                per_split.append(_split_rp(data, rows, scorers[split_i], a, b))
            except KeyError as e:  # an unknown group name
                raise click.ClickException(e.args[0]) from None
        report["estimates"].append({
            "kind": kind,
            "group_a": a,
            "group_b": b or f"complement of {a}",
            "value": float(np.mean(per_split)),
            "per_split_values": per_split,
        })
    _write_json(report, out)


@main.command("check")
@click.option("--model", "model_path", required=True, type=click.Path(exists=True))
@click.option("--data", "data_path", required=True, type=click.Path(exists=True))
@click.option("--bins", default=10, show_default=True)
@click.option("--split-index", default=0, show_default=True,
              help="Which stored split's model and partitions to audit.")
@click.option("--ece-warn", default=0.05, show_default=True)
@click.option("--delta-auc-warn", default=0.01, show_default=True)
@click.option("--out", required=True, type=click.Path())
@_value_errors_as_errors
def check_cmd(model_path, data_path, bins, split_index, ece_warn, delta_auc_warn, out):
    """Assumption checks (calibration, constrained-vs-unconstrained fit)."""
    payload = _load_model_file(model_path)
    if payload["method"] != "purple":
        raise click.UsageError("assumption checks apply to purple models")
    if _file_sha256(data_path) != payload["data"]["sha256"]:
        raise click.UsageError("data file differs from the one the model was fit on")
    data = load_dataset(data_path)
    entry = next((f for f in payload["fits"] if f["split"] == split_index), None)
    if entry is None:
        raise click.UsageError(f"model file has no split {split_index}")
    spec = SplitSpec(tuple(payload["split"]["fractions"]), payload["split"]["seed"],
                     payload["split"]["n_repeats"])
    train, val, test = split(data, spec, split_index)
    report = assumption_check_report(FitResult.from_dict(entry), train, val, test,
                                     TrainConfig.from_dict(payload["train"]), n_bins=bins,
                                     ece_warn=ece_warn, delta_auc_warn=delta_auc_warn)
    _write_json({"version": VERSION, "model": model_path, "data": data_path,
                 "split_index": split_index, **report.to_dict()}, out)
    click.echo(f"calibration: {report.calibration_verdict}  "
               f"model-fit: {report.model_fit_verdict}")


@main.command("benchmark")
@click.option("--suite", "suite_name", required=True,
              help=f"One of {', '.join(SUITE_NAMES)}.")
@click.option("--methods", default=None, help="Comma-separated method list.")
@click.option("--splits", default=5, show_default=True)
@click.option("--seed", default=0, show_default=True)
@click.option("--out", required=True, type=click.Path())
@click.option("--jobs", default=1, show_default=True,
              help="Worker processes for the suite's cells, started by fork.")
@click.option("--gauss-n", default=None,
              help="Override the Gaussian suites' group sizes, e.g. 1000,2000.")
def benchmark_cmd(suite_name, methods, splits, seed, out, jobs, gauss_n):
    """Run an experiment suite and write report.json / results.csv.

    Exit status: 0 if every cell succeeded, 2 if some cells failed,
    1 on configuration errors.
    """
    try:
        method_tuple = tuple(m.strip() for m in methods.split(",")) if methods else None
        if method_tuple:
            unknown = [m for m in method_tuple if m not in BUILTIN_KINDS]
            if unknown:
                raise ValueError(f"unknown methods: {unknown}")
        overrides = {}
        if gauss_n:
            try:
                overrides["gauss_n"] = tuple(int(x) for x in gauss_n.split(","))
            except ValueError:
                raise ValueError(f"bad --gauss-n {gauss_n!r}; expected n_a,n_b") from None
        suite = make_suite(suite_name, methods=method_tuple, n_splits=splits,
                           base_seed=seed, **overrides)
        report = run_suite(suite, jobs=jobs)
    except ValueError as e:
        click.echo(f"configuration error: {e}", err=True)
        sys.exit(1)
    paths = emit_report(report, out)
    click.echo(f"wrote {paths['report.json']} and {paths['results.csv']}")
    if report.n_failed_cells:
        click.echo(f"{report.n_failed_cells} cell(s) failed; see report.json", err=True)
        sys.exit(2)


if __name__ == "__main__":
    main()
