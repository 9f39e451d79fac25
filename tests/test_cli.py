import json
import re
from dataclasses import replace

import numpy as np
import pytest
from click.testing import CliRunner

from purple.baselines import EmConfig, baseline_relative_prevalence, fit_scorers
from purple.cli import _load_model_file, main
from purple.data import SplitSpec, load_dataset, split, write_dataset
from purple.model import LogisticScorer, TrainConfig, mean_score_ratio
from purple.visits import SYMPTOM_MODES, SymptomSet, select_symptoms, simulate_labels


@pytest.fixture()
def runner():
    return CliRunner()


def simulate_small(runner, path, **extra):
    args = ["simulate", "gauss", "--n-a", "300", "--n-b", "600", "--seed", "1",
            "--out", path]
    for k, v in extra.items():
        args.extend([k, v])
    result = runner.invoke(main, args)
    assert result.exit_code == 0, result.output
    return path


class TestSimulate:
    def test_gauss_dense(self, runner, tmp_path):
        out = simulate_small(runner, str(tmp_path / "d.csv"))
        data = load_dataset(out)
        assert data.n_rows == 900 and data.n_dims == 5
        assert data.y is not None

    def test_gauss_sparse_extension(self, runner, tmp_path):
        out = simulate_small(runner, str(tmp_path / "d.pu"))
        data = load_dataset(out)
        assert data.n_rows == 900

    def test_gauss_flags(self, runner, tmp_path):
        out = str(tmp_path / "sep.csv")
        result = runner.invoke(main, [
            "simulate", "gauss", "--n-a", "200", "--n-b", "200", "--separable",
            "--c", "a=1.0,b=1.0", "--mean-b-scale", "0.5", "--seed", "3",
            "--out", out])
        assert result.exit_code == 0, result.output
        data = load_dataset(out)
        assert data.n_rows == 240  # 40% dropped
        np.testing.assert_array_equal(data.s, data.y)

    def test_corpus_then_semisynth_mode(self, runner, tmp_path):
        corpus = str(tmp_path / "visits.pu")
        result = runner.invoke(main, ["simulate", "corpus", "--n-a", "400",
                                      "--n-b", "400", "--dims", "120",
                                      "--seed", "2", "--out", corpus])
        assert result.exit_code == 0, result.output
        out = str(tmp_path / "semi.pu")
        result = runner.invoke(main, [
            "simulate", "semisynth", "--visits", corpus, "--symptoms", "common",
            "--c", "a=0.5,b=0.3", "--seed", "4", "--out", out])
        assert result.exit_code == 0, result.output
        data = load_dataset(out)
        assert data.n_rows == 800
        assert data.y is not None

    def test_semisynth_symptom_file(self, runner, tmp_path):
        corpus = str(tmp_path / "visits.pu")
        runner.invoke(main, ["simulate", "corpus", "--n-a", "200", "--n-b", "200",
                             "--dims", "60", "--seed", "5", "--out", corpus])
        sym = tmp_path / "sym.txt"
        sym.write_text("0\n1\n2\n3\n4\n")
        out = str(tmp_path / "semi.csv")
        result = runner.invoke(main, [
            "simulate", "semisynth", "--visits", corpus, "--symptoms", str(sym),
            "--c", "a=0.4,b=0.4", "--seed", "6", "--out", out])
        assert result.exit_code == 0, result.output
        assert load_dataset(out).n_rows == 400


    @staticmethod
    def semisynth(runner, tmp_path, *args):
        """``simulate semisynth`` over a small 120-column corpus at
        --c a=0.5,b=0.3 and --seed 4; returns the corpus and the written
        dataset."""
        corpus = str(tmp_path / "visits.pu")
        result = runner.invoke(main, ["simulate", "corpus", "--n-a", "500", "--n-b", "500",
                                      "--dims", "120", "--seed", "2", "--out", corpus])
        assert result.exit_code == 0, result.output
        out = str(tmp_path / "semi.pu")
        result = runner.invoke(main, ["simulate", "semisynth", "--visits", corpus,
                                      "--c", "a=0.5,b=0.3", "--seed", "4", "--out", out,
                                      *args])
        assert result.exit_code == 0, result.output
        return load_dataset(corpus), load_dataset(out)

    @staticmethod
    def assert_same_labels(got, visits, base, v_sym):
        want = simulate_labels(visits, base.group, base.group_names, v_sym,
                               {"a": 0.5, "b": 0.3}, 4)
        np.testing.assert_array_equal(got.features.dense_rows(), want.features.dense_rows())
        np.testing.assert_array_equal(got.y, want.y)
        np.testing.assert_array_equal(got.s, want.s)
        assert got.s.sum() > 0

    # Symptom-set size and column count of each mode on that corpus.
    MODE_SIZES = {"common": (25, 120), "high-rp": (10, 120), "correlated": (25, 110),
                  "recognized": (100, 120)}

    @pytest.mark.parametrize("mode", SYMPTOM_MODES)
    def test_semisynth_mode_matches_library(self, runner, tmp_path, mode):
        # correlated draws its own anchors: no --anchors is passed.
        base, got = self.semisynth(runner, tmp_path, "--symptoms", mode)
        visits, v_sym = select_symptoms(base.features, base.group, base.group_names, mode, 4)
        assert (len(v_sym), got.n_dims) == self.MODE_SIZES[mode]
        self.assert_same_labels(got, visits, base, v_sym)

    def test_semisynth_high_rp_matches_library(self, runner, tmp_path):
        base, got = self.semisynth(runner, tmp_path, "--symptoms", "high-rp",
                                   "--group-num", "a", "--group-den", "b")
        _, v_sym = select_symptoms(base.features, base.group, base.group_names, "high-rp", 4,
                                   group_num="a", group_den="b")
        _, b_over_a = select_symptoms(base.features, base.group, base.group_names,
                                      "high-rp", 4)
        assert len(v_sym) == 10 and v_sym != b_over_a
        self.assert_same_labels(got, base.features, base, v_sym)

    def test_semisynth_correlated_matches_library(self, runner, tmp_path):
        anchors = tmp_path / "anchors.txt"
        anchors.write_text("0\n3\n")
        base, got = self.semisynth(runner, tmp_path, "--symptoms", "correlated",
                                   "--anchors", str(anchors))
        visits, v_sym = select_symptoms(base.features, base.group, base.group_names,
                                        "correlated", 4, anchors=SymptomSet((0, 3)))
        assert (len(v_sym), got.n_dims) == (25, 118)
        self.assert_same_labels(got, visits, base, v_sym)

    @pytest.mark.parametrize("option", ["--pool", "--pick", "--min-count", "--top"])
    def test_retired_semisynth_options_rejected(self, runner, tmp_path, option):
        data = simulate_small(runner, str(tmp_path / "d.pu"))
        result = runner.invoke(main, ["simulate", "semisynth", "--visits", data,
                                      "--symptoms", "common", "--c", "a=0.5,b=0.3",
                                      option, "5", "--out", str(tmp_path / "s.pu")])
        assert result.exit_code == 2 and "No such option" in result.output


METHODS = ["negative", "em", "supervised", "purple"]


def estimate(runner, model, data, *args):
    """Run ``purple estimate`` and return its parsed JSON report."""
    result = runner.invoke(main, ["estimate", "--model", model, "--data", data, *args])
    assert result.exit_code == 0, result.output
    return json.loads(result.output)


def estimate_error(runner, model, data, *args):
    """Run ``purple estimate`` expecting a clean error; return its message."""
    result = runner.invoke(main, ["estimate", "--model", model, "--data", data, *args])
    assert result.exit_code == 1 and isinstance(result.exception, SystemExit), result
    return result.output


def with_group_names(runner, tmp_path, names):
    """The small simulated dataset with its two groups renamed."""
    base = load_dataset(simulate_small(runner, str(tmp_path / "d.csv")))
    path = str(tmp_path / f"{'-'.join(names)}.csv")
    write_dataset(replace(base, group_names=list(names)), path)
    return path


# Edits that break a saved model file, the one error line each gives, and the
# method whose model file they break.
BROKEN_MODEL_FILES = {
    "no-split": (lambda blob: blob.pop("split"), "model file has no 'split' entry", "purple"),
    "no-fits": (lambda blob: blob.pop("fits"), "model file has no 'fits' entry", "purple"),
    "fit-without-split": (lambda blob: blob["fits"][0].pop("split"),
                          "model file has no 'split' entry", "purple"),
    "unknown-train-key": (lambda blob: blob["train"].update(bogus=1),
                          "unknown training settings: ['bogus']", "purple"),
    "other-fractions": (lambda blob: blob["split"].update(fractions=[0.5, 0.25, 0.25]),
                        "model file split fractions [0.5, 0.25, 0.25] differ from the "
                        "[0.6, 0.2, 0.2] every split uses", "purple"),
    "repeated-split": (lambda blob: blob["fits"].append(blob["fits"][0]),
                       "model file holds two fits of split 0", "purple"),
    # Only files written before `purple fit` refused data without a positive
    # label flag a fit degenerate.
    "degenerate": (lambda blob: blob["fits"][0].update(degenerate=True),
                   "core fit is degenerate (no observed positives in training)", "purple"),
}


def _retyped(path: str, value):
    """A ``break_file`` that sets the entry at a dotted ``path`` to ``value``."""
    def break_file(blob):
        *parents, last = (int(key) if key.isdigit() else key for key in path.split("."))
        for key in parents:
            blob = blob[key]
        blob[last] = value
    return break_file


# A wrong JSON type in each entry the loader reads.
BROKEN_MODEL_FILES.update({
    f"{path}-{type(value).__name__}": (
        _retyped(path, value),
        f"model file entry {path.replace('.0', '[0]')!r} must be {kind}", "purple")
    for path, value, kind in [
        ("method", 1, "a string"),
        ("data", "d.csv", "an object"),
        ("data.sha256", None, "a string"),
        ("fits", {"a": 1}, "a list"),
        ("fits.0", 1, "an object"),
        ("fits.0.split", "0", "an integer"),
        ("fits.0.split", True, "an integer"),
        ("fits.0.model", "x", "an object"),
        ("split", [0], "an object"),
        ("split.seed", 0.5, "an integer"),
        ("split.n_repeats", "2", "an integer"),
        ("train", [], "an object"),
        ("train.max_epochs", "7", "an integer"),
        ("train.max_epochs", 2.5, "an integer"),
        ("train.patience", True, "an integer"),
        ("train.lambda_grid", ["a"], "a list of numbers"),
        ("train.lambda_grid", 0.01, "a list"),
    ]})
# A baseline fit holds scorers, which a purple model file cannot express.
BROKEN_MODEL_FILES["negative-fits.0.scorers-list"] = (
    _retyped("fits.0.scorers", [1]), "model file entry 'fits[0].scorers' must be an object",
    "negative")

# The "train" entry of a default model file written when fits could also run
# minibatch Adam with weight decay, as ``purple fit`` wrote it.
ADAM_ERA_TRAIN = {"adam_eps": 1e-08, "batch_size": None,
                  "lambda_grid": [0.01, 0.001, 0.0001, 1e-05, 1e-06, 0.0],
                  "learning_rate": 0.001, "max_epochs": 500, "patience": 10,
                  "weight_decay": 0.0}

# Values that JSON as Python reads it can hold but no fit writes, a theta
# without one entry per group, and the settings of a fit that no longer runs.
BROKEN_MODEL_FILES.update({
    f"{path}-{value}": (_retyped(path, value), f"model file entry {entry!r} must be finite",
                        method)
    for path, value, entry, method in [
        ("fits.0.model.w.0", float("nan"), "fits[0].model.w", "purple"),
        ("fits.0.model.w.1", float("inf"), "fits[0].model.w", "purple"),
        ("fits.0.model.b", float("-inf"), "fits[0].model.b", "purple"),
        ("fits.0.model.theta.1", float("nan"), "fits[0].model.theta", "purple"),
        ("train.lambda_grid.0", float("inf"), "train.lambda_grid", "purple"),
        ("fits.0.scorers.a.w.0", float("nan"), "fits[0].scorers.a.w", "negative"),
        ("fits.0.scorers.b.b", float("nan"), "fits[0].scorers.b.b", "negative"),
    ]})
BROKEN_MODEL_FILES.update({
    f"{path}-int-beyond-float": (_retyped(path, 10**400),
                                 f"model file entry {entry!r} must be finite", "purple")
    for path, entry in [("fits.0.model.w.0", "fits[0].model.w"),
                        ("fits.0.model.b", "fits[0].model.b")]})
BROKEN_MODEL_FILES.update({
    "theta-of-one-group": (lambda blob: blob["fits"][0]["model"]["theta"].pop(),
                           "model file entry 'fits[0].model.theta' has length 1, but "
                           "'fits[0].model.group_names' has 2 entries", "purple"),
    "adam-era-train": (_retyped("train", ADAM_ERA_TRAIN),
                       "unknown training settings: ['adam_eps', 'batch_size', "
                       "'learning_rate', 'weight_decay']", "purple"),
})


class TestFitEstimateCheck:
    def fit_model(self, runner, tmp_path, method="purple", extra=(), data=None):
        data = data or simulate_small(runner, str(tmp_path / "d.csv"))
        model = str(tmp_path / f"model-{method}.json")
        args = ["fit", "--data", data, "--method", method, "--lambda-grid", "0",
                "--max-epochs", "150", "--splits", "2", "--seed", "0",
                "--out", model, *extra]
        result = runner.invoke(main, args)
        assert result.exit_code == 0, result.output
        return data, model

    def test_fit_purple_and_estimate_pairs(self, runner, tmp_path):
        data, model = self.fit_model(runner, tmp_path)
        blob = json.loads(open(model).read())
        assert blob["method"] == "purple"
        assert len(blob["fits"]) == 2
        out = str(tmp_path / "est.json")
        result = runner.invoke(main, ["estimate", "--model", model, "--data", data,
                                      "--pairs", "a:b,b:a", "--out", out])
        assert result.exit_code == 0, result.output
        est = json.loads(open(out).read())
        pair = est["estimates"][0]
        assert len(pair["per_split_values"]) == 2
        rev = est["estimates"][1]
        assert pair["value"] * rev["value"] == pytest.approx(1.0, rel=0.2)

    def test_estimate_vs_complement(self, runner, tmp_path):
        data, model = self.fit_model(runner, tmp_path)
        result = runner.invoke(main, ["estimate", "--model", model, "--data", data,
                                      "--vs-complement", "a"])
        assert result.exit_code == 0, result.output
        est = json.loads(result.output)
        assert est["estimates"][0]["group_b"] == "complement of a"

    def test_estimate_requires_matching_data(self, runner, tmp_path):
        data, model = self.fit_model(runner, tmp_path)
        other = simulate_small(runner, str(tmp_path / "other.csv"), **{"--seed": "9"})
        result = runner.invoke(main, ["estimate", "--model", model, "--data", other,
                                      "--pairs", "a:b"])
        assert result.exit_code != 0
        assert "--all-rows" in result.output
        result = runner.invoke(main, ["estimate", "--model", model, "--data", other,
                                      "--pairs", "a:b", "--all-rows"])
        assert result.exit_code == 0, result.output

    def test_fit_negative_and_estimate(self, runner, tmp_path):
        data, model = self.fit_model(runner, tmp_path, method="negative")
        blob = json.loads(open(model).read())
        assert "scorers" in blob["fits"][0]
        result = runner.invoke(main, ["estimate", "--model", model, "--data", data,
                                      "--pairs", "a:b"])
        assert result.exit_code == 0, result.output

    def test_fit_em_records_convergence(self, runner, tmp_path):
        _, model = self.fit_model(runner, tmp_path, method="em",
                                  extra=("--em-max-iters", "3"))
        blob = json.loads(open(model).read())
        for fit in blob["fits"]:
            for entry in fit["scorers"].values():
                assert set(entry) == {"w", "b", "c_hat", "converged", "n_iters"}

    def test_fit_purple_without_a_positive_is_one_error_line(self, runner, tmp_path):
        base = load_dataset(simulate_small(runner, str(tmp_path / "d.csv")))
        data = str(tmp_path / "unlabeled.csv")
        write_dataset(replace(base, s=np.zeros_like(base.s)), data)
        model = tmp_path / "m.json"
        result = runner.invoke(main, ["fit", "--data", data, "--method", "purple",
                                      "--splits", "1", "--out", str(model)])
        assert result.exit_code == 1 and isinstance(result.exception, SystemExit), result
        assert result.output.splitlines() == [
            "Error: the core fit requires at least one observed positive in training"]
        assert not model.exists()

    def test_purple_fit_history_is_not_read(self, runner, tmp_path):
        data, model = self.fit_model(runner, tmp_path)
        bare = str(tmp_path / "bare.json")
        blob = json.loads(open(model).read())
        history = ("loss_trace", "lambda_metrics", "val_auc", "val_cross_entropy",
                   "epochs_run", "selected_lambda")
        for fit in blob["fits"]:
            for key in history:
                del fit[key]
        with open(bare, "w") as fh:
            json.dump(blob, fh)
        reports = []
        for path in (model, bare):
            est = estimate(runner, path, data, "--pairs", "a:b,b:a", "--vs-complement", "a")
            out = str(tmp_path / "checks.json")
            result = runner.invoke(main, ["check", "--model", path, "--data", data,
                                          "--out", out])
            assert result.exit_code == 0, result.output
            check = json.loads(open(out).read())
            reports.append((est["estimates"], {k: v for k, v in check.items() if k != "model"}))
        assert reports[0] == reports[1]

    @pytest.mark.parametrize("suffix", [".csv", ".pu"])
    @pytest.mark.parametrize("method", METHODS)
    def test_estimate_matches_library_per_split(self, runner, tmp_path, method, suffix):
        data_path = simulate_small(runner, str(tmp_path / f"d{suffix}"))
        model, out = str(tmp_path / "m.json"), str(tmp_path / "e.json")
        result = runner.invoke(main, [
            "fit", "--data", data_path, "--method", method, "--max-epochs", "60",
            "--splits", "2", "--seed", "3", "--em-max-iters", "3", "--out", model])
        assert result.exit_code == 0, result.output
        result = runner.invoke(main, ["estimate", "--model", model, "--data", data_path,
                                      "--pairs", "a:b", "--out", out])
        assert result.exit_code == 0, result.output
        got = json.loads(open(out).read())["estimates"][0]["per_split_values"]
        data = load_dataset(data_path)
        want = []
        for i in range(2):
            train, val, test = split(data, SplitSpec(seed=3, n_repeats=2), i)
            want.append(baseline_relative_prevalence(
                method, train, val, test, "a", "b", seed=3,
                config=TrainConfig(max_epochs=60), em_config=EmConfig(max_iters=3)).value)
        assert got == want

    @pytest.mark.parametrize("method", METHODS)
    def test_vs_complement_equals_pair_on_two_groups(self, runner, tmp_path, method):
        data, model = self.fit_model(runner, tmp_path, method=method)
        pair, comp = estimate(runner, model, data, "--pairs", "a:b",
                              "--vs-complement", "a")["estimates"]
        assert comp["per_split_values"] == pair["per_split_values"]

    @pytest.mark.parametrize("method", ["negative", "purple"])
    def test_group_named_rest(self, runner, tmp_path, method):
        data = with_group_names(runner, tmp_path, ["rest", "b"])
        _, model = self.fit_model(runner, tmp_path, method=method, data=data)
        pair, comp = estimate(runner, model, data, "--pairs", "rest:b",
                              "--vs-complement", "rest")["estimates"]
        assert comp["per_split_values"] == pair["per_split_values"]
        assert all(v != 1.0 for v in comp["per_split_values"])

    @pytest.mark.parametrize("args", [("--pairs", "a:zzz"), ("--pairs", "zzz:b"),
                                      ("--vs-complement", "zzz")])
    @pytest.mark.parametrize("method", ["negative", "purple"])
    def test_unknown_group_is_clean_error(self, runner, tmp_path, method, args):
        data, model = self.fit_model(runner, tmp_path, method=method)
        assert "Error: unknown group 'zzz'" in estimate_error(runner, model, data, *args)

    @pytest.mark.parametrize("pair", ["ab", "a:", ":b"])
    def test_bad_pair_is_usage_error(self, runner, tmp_path, pair):
        data, model = self.fit_model(runner, tmp_path, method="negative")
        result = runner.invoke(main, ["estimate", "--model", model, "--data", data,
                                      "--pairs", pair])
        assert result.exit_code == 2 and "bad pair" in result.output

    @pytest.mark.parametrize("method", ["negative", "purple"])
    def test_empty_complement_is_clean_error(self, runner, tmp_path, method):
        data, model = self.fit_model(runner, tmp_path, method=method)
        full = load_dataset(data)
        only_a = str(tmp_path / "only-a.csv")
        write_dataset(replace(full.take_rows(np.flatnonzero(full.group_mask("a"))),
                              group_names=["a"]), only_a)
        output = estimate_error(runner, model, only_a, "--all-rows", "--vs-complement", "a")
        assert "Error: no rows in the complement of group 'a'" in output

    def test_zero_denominator_is_clean_error(self, runner, tmp_path):
        data, model = self.fit_model(runner, tmp_path, method="negative")
        blob = json.loads(open(model).read())
        for entry in blob["fits"]:
            entry["scorers"]["b"] = {"w": [0.0] * 5, "b": -1000.0}
        with open(model, "w") as fh:
            json.dump(blob, fh)
        output = estimate_error(runner, model, data, "--pairs", "a:b")
        assert "Error: mean score in group 'b' is numerically zero" in output

    def test_degenerate_model_is_clean_error(self, runner, tmp_path):
        data, model = self.fit_model(runner, tmp_path)
        blob = json.loads(open(model).read())
        blob["fits"][1]["degenerate"] = True
        with open(model, "w") as fh:
            json.dump(blob, fh)
        output = estimate_error(runner, model, data, "--pairs", "a:b")
        assert output.splitlines() == [
            "Error: core fit is degenerate (no observed positives in training)"]

    def test_group_without_scorer_is_clean_error(self, runner, tmp_path):
        _, model = self.fit_model(runner, tmp_path, method="negative")
        other = with_group_names(runner, tmp_path, ["a", "c"])
        output = estimate_error(runner, model, other, "--all-rows", "--pairs", "a:c")
        assert "Error: no scorer for group 'c'" in output

    def test_purple_model_scores_a_group_it_was_not_fit_on(self, runner, tmp_path):
        # The core model's sigmoid(w.x+b) takes no group, so it scores any group's rows.
        _, model = self.fit_model(runner, tmp_path)
        other = with_group_names(runner, tmp_path, ["a", "c"])
        got = estimate(runner, model, other, "--all-rows", "--pairs", "a:c")
        data = load_dataset(other)
        stored = [fit["model"] for fit in json.loads(open(model).read())["fits"]]
        want = [mean_score_ratio(LogisticScorer(m["w"], m["b"]).predict(data.features),
                                 data, "a", "c") for m in stored]
        assert got["estimates"][0]["per_split_values"] == want

    @pytest.mark.parametrize("method", METHODS)
    def test_model_file_round_trip(self, runner, tmp_path, method):
        # The reader gives back the training settings and, bit for bit, the
        # scorers of a refit; of an EM fit it reads only the condition scorer.
        data, model = self.fit_model(runner, tmp_path, method)
        dataset = load_dataset(data)
        payload = _load_model_file(model, dataset, data)
        config = TrainConfig(lambda_grid=(0.0,), max_epochs=150)
        assert payload["train"] == config
        for i in range(2):
            train, val, _ = split(dataset, SplitSpec(seed=0, n_repeats=2), i)
            scorers, _ = fit_scorers(method, train, val, config, EmConfig())
            if method != "purple":
                scorers = {g: LogisticScorer(s.w, s.b) for g, s in scorers.items()}
            assert payload["fits"][i] == scorers

    def test_train_config_reads_older_model_files(self, runner, tmp_path):
        data, model = self.fit_model(runner, tmp_path)
        blob = json.loads(open(model).read())

        def read(train):
            with open(model, "w") as fh:
                json.dump(dict(blob, train=train), fh)
            return _load_model_file(model, load_dataset(data), data)["train"]

        # A file reads back the grid it stores, not today's default, and a
        # setting it leaves out takes its default.
        stored = {k: v for k, v in ADAM_ERA_TRAIN.items()
                  if k in ("lambda_grid", "max_epochs", "patience")}
        assert read(stored) == TrainConfig(lambda_grid=(1e-2, 1e-3, 1e-4, 1e-5, 1e-6, 0.0))
        assert read({"max_epochs": 7}) == TrainConfig(max_epochs=7)
        # The entry of a file from when fits could run minibatch Adam is refused.
        with pytest.raises(ValueError, match=re.escape(
                "unknown training settings: ['adam_eps', 'batch_size', 'learning_rate', "
                "'weight_decay']")):
            read(ADAM_ERA_TRAIN)

    def test_unknown_method(self, runner, tmp_path):
        data = simulate_small(runner, str(tmp_path / "d.csv"))
        result = runner.invoke(main, ["fit", "--data", data, "--method", "km2",
                                      "--out", str(tmp_path / "m.json")])
        assert result.exit_code != 0

    def test_check_command(self, runner, tmp_path):
        data, model = self.fit_model(runner, tmp_path)
        out = str(tmp_path / "checks.json")
        result = runner.invoke(main, ["check", "--model", model, "--data", data,
                                      "--bins", "8", "--out", out])
        assert result.exit_code == 0, result.output
        blob = json.loads(open(out).read())
        assert blob["calibration"]["verdict"] in ("pass", "warn")
        assert blob["model_fit"]["verdict"] in ("pass", "warn")
        assert "delta_auc" in blob["model_fit"]

    def test_check_single_class_group_is_clean_error(self, runner, tmp_path):
        base = load_dataset(simulate_small(runner, str(tmp_path / "d.csv")))
        data = str(tmp_path / "a-unlabeled.csv")
        write_dataset(replace(base, s=np.where(base.group_mask("a"), 0, base.s)), data)
        _, model = self.fit_model(runner, tmp_path, data=data)
        result = runner.invoke(main, ["check", "--model", model, "--data", data,
                                      "--out", str(tmp_path / "checks.json")])
        assert result.exit_code == 1 and isinstance(result.exception, SystemExit), result
        assert ("Error: group 'a' has single-class observed labels in training; "
                "its own scorer needs both classes") in result.output

    @pytest.mark.parametrize("case", BROKEN_MODEL_FILES)
    @pytest.mark.parametrize("command", ["estimate", "check"])
    def test_malformed_model_file_is_one_error_line(self, runner, tmp_path, command, case):
        break_file, message, method = BROKEN_MODEL_FILES[case]
        data, model = self.fit_model(runner, tmp_path, method)
        blob = json.loads(open(model).read())
        break_file(blob)
        with open(model, "w") as fh:
            json.dump(blob, fh)
        args = (["--pairs", "a:b"] if command == "estimate"
                else ["--out", str(tmp_path / "checks.json")])
        result = runner.invoke(main, [command, "--model", model, "--data", data, *args])
        assert result.exit_code == 1 and isinstance(result.exception, SystemExit), result
        assert result.output.splitlines() == [f"Error: {message}"]

    @pytest.mark.parametrize("method, command, entry", [
        ("purple", "estimate", "fits[0].model.w"),
        ("purple", "check", "fits[0].model.w"),
        ("negative", "estimate", "fits[0].scorers.a.w"),
    ])
    def test_weight_count_other_than_columns_is_one_error_line(self, runner, tmp_path,
                                                                method, command, entry):
        data, model = self.fit_model(runner, tmp_path, method)
        blob = json.loads(open(model).read())
        fit = blob["fits"][0]
        scorer = fit["model"] if method == "purple" else fit["scorers"]["a"]
        scorer["w"] = scorer["w"][:1]
        with open(model, "w") as fh:
            json.dump(blob, fh)
        args = (["--pairs", "a:b"] if command == "estimate"
                else ["--out", str(tmp_path / "checks.json")])
        result = runner.invoke(main, [command, "--model", model, "--data", data, *args])
        assert result.exit_code == 1 and isinstance(result.exception, SystemExit), result
        assert result.output.splitlines() == [
            f"Error: model file entry {entry!r} has length 1, but data file {data!r} has "
            "5 columns"]

    @pytest.mark.parametrize("command", ["estimate", "check"])
    def test_model_file_not_an_object_is_one_error_line(self, runner, tmp_path, command):
        data, model = self.fit_model(runner, tmp_path)
        with open(model, "w") as fh:
            fh.write("[]")
        args = (["--pairs", "a:b"] if command == "estimate"
                else ["--out", str(tmp_path / "checks.json")])
        result = runner.invoke(main, [command, "--model", model, "--data", data, *args])
        assert result.exit_code == 1 and isinstance(result.exception, SystemExit), result
        assert result.output.splitlines() == ["Error: model file must hold a JSON object"]

    @pytest.mark.parametrize("option", ["--batch-size", "--learning-rate"])
    def test_retired_fit_options_rejected(self, runner, tmp_path, option):
        data = simulate_small(runner, str(tmp_path / "d.csv"))
        result = runner.invoke(main, ["fit", "--data", data, option, "64",
                                      "--out", str(tmp_path / "m.json")])
        assert result.exit_code == 2 and "No such option" in result.output


ANCHORS_ONLY = "--anchors applies only to --symptoms correlated, not to {!r}"
GROUPS_ONLY = "--group-num and --group-den apply only to --symptoms high-rp, not to {!r}"
FILE_REMEDY = "pass a symptom file with --symptoms PATH"


class TestBadOptionValues:
    """A bad option value is one ``Error:`` line and exit status 1, not a traceback."""

    @staticmethod
    def assert_one_error_line(result, message):
        assert result.exit_code == 1 and isinstance(result.exception, SystemExit), result
        assert result.output.splitlines() == [f"Error: {message}"]

    @pytest.mark.parametrize("args, message", [
        (["--variance", "-1"], "variance must be positive"),
        (["--c", "a=1.5,b=0.2"], "labeling frequencies must lie in [0, 1]"),
        (["--c", "a=0.5"], "c must map exactly the groups 'a' and 'b'"),
        (["--c", "a=x,b=0.2"], "bad labeling frequency 'a=x'; expected name=number"),
        (["--dims", "0"], "n_dims must be at least 1"),
        (["--n-a", "0"], "n_a and n_b must be at least 1, got 0, 30"),
        (["--n-a", "0", "--n-b", "0"], "n_a and n_b must be at least 1, got 0, 0"),
        (["--c", "a=0.5,b=0.2,a=0.9"], "labeling frequency for group 'a' given twice"),
        (["--c", "a=0.5,b"], "bad labeling-frequency entry 'b'; expected name=value"),
    ])
    def test_simulate_gauss(self, runner, tmp_path, args, message):
        out = tmp_path / "d.csv"
        result = runner.invoke(main, ["simulate", "gauss", "--n-a", "30", "--n-b", "30",
                                      "--out", str(out), *args])
        self.assert_one_error_line(result, message)
        assert not out.exists()

    def test_simulate_semisynth_group_without_frequency(self, runner, tmp_path):
        corpus = str(tmp_path / "visits.pu")
        runner.invoke(main, ["simulate", "corpus", "--n-a", "200", "--n-b", "200",
                             "--dims", "60", "--seed", "5", "--out", corpus])
        result = runner.invoke(main, ["simulate", "semisynth", "--visits", corpus,
                                      "--symptoms", "common", "--c", "a=0.5",
                                      "--out", str(tmp_path / "s.pu")])
        self.assert_one_error_line(result, "no labeling frequency for group(s) 'b'")

    def test_simulate_semisynth_entry_without_value(self, runner, tmp_path):
        data = str(tmp_path / "visits.pu")
        runner.invoke(main, ["simulate", "corpus", "--n-a", "200", "--n-b", "200",
                             "--dims", "60", "--seed", "5", "--out", data])
        out = tmp_path / "s.pu"
        result = runner.invoke(main, ["simulate", "semisynth", "--visits", data,
                                      "--symptoms", "common", "--c", "a=0.5,b",
                                      "--out", str(out)])
        self.assert_one_error_line(result, "bad labeling-frequency entry 'b'; expected name=value")
        assert not out.exists()

    def test_simulate_semisynth_unknown_group(self, runner, tmp_path):
        data = simulate_small(runner, str(tmp_path / "d.pu"))
        out = tmp_path / "s.pu"
        result = runner.invoke(main, ["simulate", "semisynth", "--visits", data,
                                      "--symptoms", "high-rp", "--group-num", "zz",
                                      "--c", "a=0.5,b=0.3", "--out", str(out)])
        self.assert_one_error_line(result, "unknown group 'zz'; the data holds groups 'a', 'b'")
        assert not out.exists()

    @pytest.mark.parametrize("symptoms", ["comon"])
    def test_simulate_semisynth_unknown_symptoms(self, runner, tmp_path, symptoms):
        data = simulate_small(runner, str(tmp_path / "d.pu"))
        out = tmp_path / "s.pu"
        result = runner.invoke(main, ["simulate", "semisynth", "--visits", data,
                                      "--symptoms", symptoms, "--c", "a=0.5,b=0.3",
                                      "--out", str(out)])
        self.assert_one_error_line(
            result, f"--symptoms {symptoms!r} is neither a mode (common, high-rp, "
                    "correlated, recognized) nor a readable file")
        assert not out.exists()

    @staticmethod
    def small_corpus(runner, tmp_path, dims=60):
        """A 100+100-row corpus: too few rows for high-rp's 50 occurrences
        per group, and at 60 columns too few codes for correlated's anchors."""
        corpus = str(tmp_path / "visits.pu")
        result = runner.invoke(main, ["simulate", "corpus", "--n-a", "100", "--n-b", "100",
                                      "--dims", str(dims), "--seed", "5", "--out", corpus])
        assert result.exit_code == 0, result.output
        return corpus

    @pytest.mark.parametrize("symptoms, args, message", [
        *[(mode, ["--anchors", "anchors.txt"], ANCHORS_ONLY)
          for mode in ("common", "high-rp", "recognized", "symptoms.txt")],
        *[(mode, [option, "a"], GROUPS_ONLY)
          for mode in ("common", "correlated", "recognized", "symptoms.txt")
          for option in ("--group-num", "--group-den")],
    ])
    def test_simulate_semisynth_option_its_mode_ignores(self, runner, tmp_path, symptoms, args,
                                                       message):
        corpus = self.small_corpus(runner, tmp_path)
        (tmp_path / "anchors.txt").write_text("0\n1\n")
        (tmp_path / "symptoms.txt").write_text("2\n3\n")
        paths = {name: str(tmp_path / name) for name in ("anchors.txt", "symptoms.txt")}
        symptoms = paths.get(symptoms, symptoms)
        out = tmp_path / "s.pu"
        result = runner.invoke(main, ["simulate", "semisynth", "--visits", corpus,
                                      "--symptoms", symptoms, "--c", "a=0.5,b=0.3",
                                      "--out", str(out), *[paths.get(a, a) for a in args]])
        self.assert_one_error_line(result, message.format(symptoms))
        assert not out.exists()

    @pytest.mark.parametrize("symptoms, dims, message", [
        ("correlated", 60, "correlated anchors: only 60 features ever occur, fewer than the 100 "
                           "most frequent to draw from; pass anchor indices with --anchors PATH "
                           "or a symptom file with --symptoms PATH"),
        ("high-rp", 60, "high-rp symptoms: no feature occurs at least 50 times in both groups; "
                        + FILE_REMEDY),
        ("common", 40, "common symptoms: only 40 features ever occur, fewer than the 50 most "
                       "frequent to draw from; " + FILE_REMEDY),
    ])
    def test_simulate_semisynth_too_few_codes_says_what_to_pass(self, runner, tmp_path,
                                                               symptoms, dims, message):
        corpus = self.small_corpus(runner, tmp_path, dims)
        result = runner.invoke(main, ["simulate", "semisynth", "--visits", corpus,
                                      "--symptoms", symptoms, "--c", "a=0.5,b=0.3",
                                      "--out", str(tmp_path / "s.pu")])
        self.assert_one_error_line(result, message)

    def test_simulate_semisynth_recognized_without_eligible_code(self, runner, tmp_path):
        corpus = str(tmp_path / "visits.pu")
        result = runner.invoke(main, ["simulate", "corpus", "--n-a", "3", "--n-b", "3",
                                      "--out", corpus])
        assert result.exit_code == 0, result.output
        result = runner.invoke(main, ["simulate", "semisynth", "--visits", corpus,
                                      "--symptoms", "recognized", "--c", "a=0.5,b=0.3",
                                      "--out", str(tmp_path / "s.pu")])
        self.assert_one_error_line(
            result, "recognized symptoms: no feature occurs at least 10 times; " + FILE_REMEDY)

    @pytest.mark.parametrize("symptoms, option, text, message", [
        ("indices.txt", None, "500\n", "line 1: index 500 is not one of the data's 60 columns, "
                                        "0 to 59"),
        ("correlated", "--anchors", "500\n", "line 1: index 500 is not one of the data's 60 "
                                              "columns, 0 to 59"),
        ("indices.txt", None, "", "lists no index; expected one or more of the data's 60 "
                                  "columns, 0 to 59"),
        ("indices.txt", None, "-3\n", "line 1: index -3 is not one of the data's 60 columns, "
                                       "0 to 59"),
    ])
    def test_simulate_semisynth_index_file_outside_the_columns(self, runner, tmp_path,
                                                              symptoms, option, text, message):
        corpus = self.small_corpus(runner, tmp_path)
        path = tmp_path / "indices.txt"
        path.write_text(text)
        args = ["--symptoms", str(path) if option is None else symptoms]
        if option is not None:
            args += [option, str(path)]
        out = tmp_path / "s.pu"
        result = runner.invoke(main, ["simulate", "semisynth", "--visits", corpus, *args,
                                      "--c", "a=0.5,b=0.3", "--out", str(out)])
        self.assert_one_error_line(result, f"{path} {message}")
        assert not out.exists()

    @pytest.mark.parametrize("group", ["a", "b"])
    def test_simulate_semisynth_high_rp_same_group(self, runner, tmp_path, group):
        corpus = self.small_corpus(runner, tmp_path)
        out = tmp_path / "s.pu"
        result = runner.invoke(main, ["simulate", "semisynth", "--visits", corpus,
                                      "--symptoms", "high-rp", "--group-num", group,
                                      "--group-den", group, "--c", "a=0.5,b=0.3",
                                      "--out", str(out)])
        self.assert_one_error_line(
            result, f"high-rp symptoms: group {group!r} is both the numerator and the "
                    "denominator of the rate ratio; pass two different groups")
        assert not out.exists()

    @pytest.mark.parametrize("args, message", [
        (["--splits", "0"], "n_repeats must be positive"),
        (["--lambda-grid", ""], "bad --lambda-grid ''; expected comma-separated numbers"),
        (["--lambda-grid", "0.1,-1"], "lambda values must be non-negative"),
        (["--lambda-grid", "nan"], "lambda_grid must be a non-empty list of finite values"),
        (["--lambda-grid", "inf"], "lambda_grid must be a non-empty list of finite values"),
        (["--max-epochs", "0"], "max_epochs and patience must be at least 1"),
        (["--patience", "0"], "max_epochs and patience must be at least 1"),
        (["--em-max-iters", "0"], "EM max_iters and inner_epochs must be at least 1"),
        (["--em-max-iters", "-3"], "EM max_iters and inner_epochs must be at least 1"),
        (["--em-tol", "-1"], "EM tol must be finite and non-negative"),
        (["--em-tol", "nan"], "EM tol must be finite and non-negative"),
    ])
    def test_fit(self, runner, tmp_path, args, message):
        data = simulate_small(runner, str(tmp_path / "d.csv"))
        out = tmp_path / "m.json"
        result = runner.invoke(main, ["fit", "--data", data, "--method", "negative",
                                      "--out", str(out), *args])
        self.assert_one_error_line(result, message)
        assert not out.exists()


class TestBenchmark:
    def test_unknown_suite_is_config_error(self, runner, tmp_path):
        result = runner.invoke(main, ["benchmark", "--suite", "bogus",
                                      "--out", str(tmp_path / "o")])
        assert result.exit_code == 1

    def test_unknown_method_is_config_error(self, runner, tmp_path):
        result = runner.invoke(main, ["benchmark", "--suite", "separability",
                                      "--methods", "purple,km2",
                                      "--out", str(tmp_path / "o")])
        assert result.exit_code == 1

    @pytest.mark.parametrize("gauss_n, message", [
        ("0,10", "gauss_n must be two group sizes n_a,n_b >= 1, got (0, 10)"),
        ("-1,300", "gauss_n must be two group sizes n_a,n_b >= 1, got (-1, 300)"),
        ("1000", "gauss_n must be two group sizes n_a,n_b >= 1, got (1000,)"),
        ("300,450,600", "gauss_n must be two group sizes n_a,n_b >= 1, got (300, 450, 600)"),
        ("300,x", "bad --gauss-n '300,x'; expected n_a,n_b"),
    ])
    def test_bad_gauss_n_is_one_config_error(self, runner, tmp_path, gauss_n, message):
        out = tmp_path / "o"
        result = runner.invoke(main, ["benchmark", "--suite", "separability", "--splits", "2",
                                      "--gauss-n", gauss_n, "--out", str(out)])
        assert result.exit_code == 1 and isinstance(result.exception, SystemExit), result
        assert result.output.splitlines() == [f"configuration error: {message}"]
        assert not out.exists()

    @pytest.mark.parametrize("jobs", ["0", "-1"])
    def test_jobs_below_one_is_one_config_error(self, runner, tmp_path, jobs):
        out = tmp_path / "o"
        result = runner.invoke(main, ["benchmark", "--suite", "separability", "--splits", "2",
                                      "--gauss-n", "300,450", "--jobs", jobs, "--out", str(out)])
        assert result.exit_code == 1 and isinstance(result.exception, SystemExit), result
        assert result.output.splitlines() == [f"configuration error: jobs must be at least 1, "
                                              f"got {jobs}"]
        assert not out.exists()

    def test_gauss_n_refused_for_semisynth(self, runner, tmp_path):
        out = tmp_path / "o"
        result = runner.invoke(main, ["benchmark", "--suite", "semisynth", "--splits", "2",
                                      "--gauss-n", "300,450", "--out", str(out)])
        assert result.exit_code == 1 and isinstance(result.exception, SystemExit), result
        assert result.output.splitlines() == [
            "configuration error: gauss_n sets Gaussian group sizes; suite 'semisynth' "
            "has no Gaussian data"]
        assert not out.exists()

    def test_small_run_succeeds(self, runner, tmp_path):
        out = str(tmp_path / "bench")
        result = runner.invoke(main, ["benchmark", "--suite", "separability",
                                      "--methods", "purple", "--splits", "2",
                                      "--seed", "0", "--gauss-n", "300,600",
                                      "--out", out])
        assert result.exit_code == 0, result.output
        report = json.loads(open(f"{out}/report.json").read())
        assert report["n_failed_cells"] == 0
        assert len(report["results"]) == 2

    def test_failed_cells_exit_two(self, runner, tmp_path):
        # a 2-row group cannot be stratified, so every cell fails
        out = str(tmp_path / "bench2")
        result = runner.invoke(main, ["benchmark", "--suite", "separability",
                                      "--methods", "purple", "--splits", "2",
                                      "--seed", "0", "--gauss-n", "2,50",
                                      "--out", out])
        assert result.exit_code == 2, result.output
        report = json.loads(open(f"{out}/report.json").read())
        assert report["n_failed_cells"] > 0

    def test_one_row_groups_fail_their_cells(self, runner, tmp_path):
        out = str(tmp_path / "bench3")
        result = runner.invoke(main, ["benchmark", "--suite", "separability",
                                      "--methods", "purple", "--splits", "2",
                                      "--gauss-n", "1,1", "--out", out])
        assert result.exit_code == 2, result.output
        report = json.loads(open(f"{out}/report.json").read())
        assert report["n_failed_cells"] == 4
