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
from dataclasses import asdict, fields

import click
import numpy as np

from ._version import VERSION
# fit_em and fit_purple are unused here, kept importable only because perfbench's
# tracer wraps cli.fit_em and cli.fit_purple: every fit goes through fit_scorers.
from .baselines import (BUILTIN_KINDS, EmConfig, LogisticScorer, fit_em,  # noqa: F401
                        fit_purple, fit_scorers, group_scores)
from .checks import (DEFAULT_DELTA_AUC_WARN, DEFAULT_ECE_WARN, DEFAULT_N_BINS,
                     assumption_check_report)
from .data import (SPLIT_FRACTIONS, LabeledDataset, SplitSpec, load_dataset, split,
                   split_indices, write_dataset)
from .gauss import GaussSynthConfig, generate_gauss
from .harness import _CORPUS, SUITE_NAMES, emit_report, make_suite, run_suite
from .model import PurpleModel, TrainConfig, mean_score_ratio
from .visits import (SYMPTOM_MODES, generate_visit_corpus, load_symptom_indices,
                     select_symptoms, simulate_labels)


def _parse_c(text: str) -> dict[str, float]:
    out = {}
    for part in text.split(","):
        if "=" not in part:
            raise ValueError(f"bad labeling-frequency entry {part!r}; expected name=value")
        name, value = part.split("=", 1)
        name = name.strip()
        if name in out:
            raise ValueError(f"labeling frequency for group {name!r} given twice")
        try:
            out[name] = float(value)
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
    text = json.dumps(obj, indent=2, sort_keys=True, default=np.ndarray.tolist) + "\n"
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
@click.option("--n-a", default=GaussSynthConfig.n_a, show_default=True)
@click.option("--n-b", default=GaussSynthConfig.n_b, show_default=True)
@click.option("--dims", default=GaussSynthConfig.n_dims, show_default=True)
@click.option("--mean-b-scale", default=1.0, show_default=True,
              help="Group b mean is this value times the all-ones vector.")
@click.option("--variance", default=GaussSynthConfig.variance, show_default=True)
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
@click.option("--n-a", default=_CORPUS["n_a"], show_default=True)
@click.option("--n-b", default=_CORPUS["n_b"], show_default=True)
@click.option("--dims", default=_CORPUS["n_dims"], show_default=True)
@click.option("--mean-active", default=_CORPUS["mean_active"], show_default=True)
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
              help=f"Selection mode ({', '.join(SYMPTOM_MODES)}) or a path to a "
                   "newline-separated feature-index list.")
@click.option("--c", "c_text", required=True, help="e.g. a=0.5,b=0.25")
@click.option("--seed", default=0, show_default=True)
@click.option("--group-num", default=None,
              help="high-rp: ratio numerator group (default: the last).")
@click.option("--group-den", default=None,
              help="high-rp: ratio denominator group (default: the first).")
@click.option("--anchors", default=None, type=click.Path(exists=True),
              help="correlated: path to anchor feature indices (dropped from x); "
                   "default: 10 drawn from the 100 most frequent.")
@click.option("--out", required=True, type=click.Path())
@_value_errors_as_errors
def simulate_semisynth(visits_path, symptoms, c_text, seed, group_num, group_den, anchors,
                       out):
    """Simulate disease labels over a visit matrix from suspicious symptoms."""
    if anchors is not None and symptoms != "correlated":
        raise ValueError(f"--anchors applies only to --symptoms correlated, not to {symptoms!r}")
    if (group_num, group_den) != (None, None) and symptoms != "high-rp":
        raise ValueError("--group-num and --group-den apply only to --symptoms high-rp, "
                         f"not to {symptoms!r}")
    base = load_dataset(visits_path)
    visits = base.features
    if symptoms in SYMPTOM_MODES:
        visits, v_sym = select_symptoms(
            visits, base.group, base.group_names, symptoms, seed,
            anchors=load_symptom_indices(anchors, visits.n_dims) if anchors else None,
            group_num=group_num, group_den=group_den)
    else:
        try:
            v_sym = load_symptom_indices(symptoms, visits.n_dims)
        except OSError:
            raise ValueError(f"--symptoms {symptoms!r} is neither a mode "
                             f"({', '.join(SYMPTOM_MODES)}) nor a readable file") from None
    data = simulate_labels(visits, base.group, base.group_names, v_sym, _parse_c(c_text), seed)
    write_dataset(data, out)
    click.echo(f"wrote {out} ({data.n_rows} rows, {data.n_dims} dims, "
               f"{len(v_sym)} suspicious symptoms)")


def _train_config(lambda_grid, max_epochs, patience):
    kwargs = {k: v for k, v in (("max_epochs", max_epochs), ("patience", patience))
              if v is not None}
    if lambda_grid is not None:
        try:
            kwargs["lambda_grid"] = tuple(float(x) for x in lambda_grid.split(","))
        except ValueError:
            raise ValueError(f"bad --lambda-grid {lambda_grid!r}; expected comma-separated "
                             "numbers") from None
    return TrainConfig(**kwargs)


@main.command("fit")
@click.option("--data", "data_path", required=True, type=click.Path(exists=True))
@click.option("--method", default="purple", show_default=True,
              help="purple, negative, supervised, or em.")
@click.option("--lambda-grid", default=None,
              help="Comma-separated L1 strengths; default "
                   f"{','.join(f'{lam:g}' for lam in TrainConfig.lambda_grid)}.")
@click.option("--max-epochs", default=None, type=int,
              help="Budget per fit, in L-BFGS iterations.")
@click.option("--patience", default=None, type=int,
              help="Early-stopping patience, in L-BFGS iterations.")
@click.option("--seed", default=0, show_default=True)
@click.option("--splits", default=5, show_default=True)
@click.option("--em-max-iters", default=EmConfig.max_iters, show_default=True)
@click.option("--em-tol", default=EmConfig.tol, show_default=True)
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
        scorers, result = fit_scorers(method, train, val, config, em_config)
        # A core fit is stored with its history, a baseline fit as its groups' scorers.
        entry = asdict(result) if result is not None else {
            "scorers": {name: asdict(scorer) for name, scorer in scorers.items()}}
        fits.append({"split": i, **entry})
    payload = {
        "version": VERSION,
        "method": method,
        "data": {"path": data_path, "sha256": _file_sha256(data_path),
                 "n_rows": data.n_rows, "n_dims": data.n_dims},
        "split": {"fractions": list(SPLIT_FRACTIONS), "seed": spec.seed,
                  "n_repeats": spec.n_repeats},
        "train": asdict(config),
        "em": {"max_iters": em_max_iters, "tol": em_tol} if method == "em" else None,
        "fits": fits,
    }
    _write_json(payload, out)


class _ModelFileObject(dict):
    """A JSON object of a model file: a missing key is a ValueError naming it."""

    def __missing__(self, key):
        raise ValueError(f"model file has no {key!r} entry")


_NUMBER = (int, float)
_JSON_TYPES = {str: "a string", int: "an integer", _NUMBER: "a number", bool: "true or false",
               list: "a list", dict: "an object"}


def _typed(value, kind, name: str):
    """``value``, or a ValueError naming the model file entry if it is not a
    ``kind``, a key of ``_JSON_TYPES``."""
    if not isinstance(value, kind) or (isinstance(value, bool) and kind is not bool):
        raise ValueError(f"model file entry {name!r} must be {_JSON_TYPES[kind]}")
    return value


def _finite(value, name: str) -> np.ndarray:
    """``value`` as float64, or a ValueError naming the model file entry if
    any of it is NaN, infinite or an integer beyond a float's range, all of
    which Python's ``json`` reads."""
    try:
        array = np.asarray(value, dtype=np.float64)
    except OverflowError:
        array = np.array(np.inf)
    if not np.isfinite(array).all():
        raise ValueError(f"model file entry {name!r} must be finite")
    return array


def _vector(value, name: str) -> np.ndarray:
    """A model file's list of finite numbers as a float array."""
    if not set(map(type, _typed(value, list, name))) <= set(_NUMBER):
        raise ValueError(f"model file entry {name!r} must be a list of numbers")
    return _finite(value, name)


def _split_scorers(entry: dict, name: str, purple: bool, data, data_path: str
                   ) -> dict[str, LogisticScorer]:
    """A stored split's scorer for each group name: a core fit's one model
    for every group of ``data``, seen in training or not, or a baseline's
    scorer for each group it was fit on. Every entry read is checked, each
    weight count against the data's columns; a core fit's history is not
    read, and one flagged ``degenerate`` (by files written before ``purple
    fit`` refused training data without a positive label) is refused."""
    def scorer(stored, where: str) -> LogisticScorer:
        w = _vector(_typed(stored, dict, where)["w"], f"{where}.w")
        if w.size != data.n_dims:
            raise ValueError(f"model file entry '{where}.w' has length {w.size}, but data "
                             f"file {data_path!r} has {data.n_dims} columns")
        b = _typed(stored["b"], _NUMBER, f"{where}.b")
        return LogisticScorer(w, _finite(b, f"{where}.b"))

    if not purple:
        return {group: scorer(stored, f"{name}.scorers.{group}")
                for group, stored in _typed(entry["scorers"], dict, f"{name}.scorers").items()}
    where = f"{name}.model"
    stored = entry["model"]
    fitted = scorer(stored, where)
    theta = _vector(stored["theta"], f"{where}.theta")
    groups = _typed(stored["group_names"], list, f"{where}.group_names")
    for j, group in enumerate(groups):
        _typed(group, str, f"{where}.group_names[{j}]")
    if theta.size != len(groups):
        raise ValueError(f"model file entry '{where}.theta' has length {theta.size}, but "
                         f"'{where}.group_names' has {len(groups)} entries")
    if entry.get("degenerate"):
        raise ValueError("core fit is degenerate (no observed positives in training)")
    return dict.fromkeys(data.group_names, PurpleModel(fitted.w, fitted.b, theta, groups))


def _load_model_file(path: str, data, data_path: str) -> dict:
    """A saved model file, read to score ``data``: its ``train`` entry as a
    ``TrainConfig``, its ``split`` entry as a ``SplitSpec`` and its ``fits``
    as a map from split index to that split's ``{group name: scorer}``
    (``_split_scorers``). Every entry that ``purple estimate`` and
    ``purple check`` read is checked for its JSON type. A ``train`` entry
    may leave out settings, which take their defaults, but holds no other
    key: the minibatch Adam settings of older files are refused."""
    with open(path, "r", encoding="utf-8") as fh:
        payload = json.load(fh, object_hook=_ModelFileObject)
    if not isinstance(payload, dict):
        raise ValueError("model file must hold a JSON object")
    purple = _typed(payload["method"], str, "method") == "purple"
    _typed(_typed(payload["data"], dict, "data")["sha256"], str, "data.sha256")
    fits = {}
    for i, entry in enumerate(_typed(payload["fits"], list, "fits")):
        name = f"fits[{i}]"
        split_i = _typed(_typed(entry, dict, name)["split"], int, f"{name}.split")
        if split_i in fits:
            raise ValueError(f"model file holds two fits of split {split_i}")
        fits[split_i] = _split_scorers(entry, name, purple, data, data_path)
    payload["fits"] = fits
    stored = _typed(payload["split"], dict, "split")
    if stored["fractions"] != list(SPLIT_FRACTIONS):
        raise ValueError(f"model file split fractions {stored['fractions']} differ from "
                         f"the {list(SPLIT_FRACTIONS)} every split uses")
    payload["split"] = SplitSpec(_typed(stored["seed"], int, "split.seed"),
                                 _typed(stored["n_repeats"], int, "split.n_repeats"))
    train = _typed(payload["train"], dict, "train")
    unknown = sorted(set(train) - {f.name for f in fields(TrainConfig)})
    if unknown:
        raise ValueError(f"unknown training settings: {unknown}")
    settings = {key: _typed(train[key], int, f"train.{key}")
                for key in ("max_epochs", "patience") if key in train}
    if "lambda_grid" in train:
        grid = _vector(train["lambda_grid"], "train.lambda_grid")
        settings["lambda_grid"] = tuple(grid.tolist())
    payload["train"] = TrainConfig(**settings)
    return payload


def _eval_rows(payload: dict, data, data_path: str, all_rows: bool) -> dict:
    """Rows to score for each stored split: all rows, or its test partition."""
    splits = list(payload["fits"])
    if all_rows:
        return {i: np.arange(data.n_rows) for i in splits}
    if _file_sha256(data_path) != payload["data"]["sha256"]:
        raise click.UsageError(
            "data file differs from the one the model was fit on; pass --all-rows "
            "to score every row instead of the held-out test partitions")
    return {i: split_indices(data, payload["split"], i)[2] for i in splits}


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
    data = load_dataset(data_path)
    payload = _load_model_file(model_path, data, data_path)
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
    for kind, a, b in requests:
        per_split = []
        for split_i, rows in rows_by_split.items():
            try:
                per_split.append(_split_rp(data, rows, payload["fits"][split_i], a, b))
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
@click.option("--bins", default=DEFAULT_N_BINS, show_default=True)
@click.option("--split-index", default=0, show_default=True,
              help="Which stored split's model and partitions to audit.")
@click.option("--ece-warn", default=DEFAULT_ECE_WARN, show_default=True)
@click.option("--delta-auc-warn", default=DEFAULT_DELTA_AUC_WARN, show_default=True)
@click.option("--out", required=True, type=click.Path())
@_value_errors_as_errors
def check_cmd(model_path, data_path, bins, split_index, ece_warn, delta_auc_warn, out):
    """Assumption checks (calibration, constrained-vs-unconstrained fit)."""
    data = load_dataset(data_path)
    payload = _load_model_file(model_path, data, data_path)
    if payload["method"] != "purple":
        raise click.UsageError("assumption checks apply to purple models")
    if _file_sha256(data_path) != payload["data"]["sha256"]:
        raise click.UsageError("data file differs from the one the model was fit on")
    scorers = payload["fits"].get(split_index)
    if scorers is None:
        raise click.UsageError(f"model file has no split {split_index}")
    train, val, test = split(data, payload["split"], split_index)
    # A purple split maps every group to its one model.
    report = assumption_check_report(scorers[data.group_names[0]], train, val, test,
                                     payload["train"], n_bins=bins,
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
