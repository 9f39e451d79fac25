import json
from dataclasses import replace

import numpy as np
import pytest
from click.testing import CliRunner

from purple.baselines import EmConfig, baseline_relative_prevalence
from purple.cli import main
from purple.data import SplitSpec, load_dataset, split, write_dataset
from purple.model import TrainConfig
from purple.visits import (
    SemiSynthConfig,
    drop_anchor_features,
    load_symptom_indices,
    select_correlated_symptoms,
    select_high_rp_symptoms,
    simulate_labels,
)


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
            "--pool", "30", "--pick", "10", "--c", "a=0.5,b=0.3", "--seed", "4",
            "--out", out])
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
        """``simulate semisynth`` over a small corpus at --c a=0.5,b=0.3 and
        --seed 4; returns the corpus and the written dataset."""
        corpus = str(tmp_path / "visits.pu")
        result = runner.invoke(main, ["simulate", "corpus", "--n-a", "400", "--n-b", "400",
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
                               SemiSynthConfig(c={"a": 0.5, "b": 0.3}, seed=4))
        np.testing.assert_array_equal(got.features.dense_rows(), want.features.dense_rows())
        np.testing.assert_array_equal(got.y, want.y)
        np.testing.assert_array_equal(got.s, want.s)
        assert got.s.sum() > 0

    def test_semisynth_high_rp_matches_library(self, runner, tmp_path):
        base, got = self.semisynth(runner, tmp_path, "--symptoms", "high-rp",
                                   "--group-num", "a", "--group-den", "b",
                                   "--min-count", "20", "--top", "5")
        v_sym = select_high_rp_symptoms(base.features, base.group, base.group_names,
                                        "a", "b", min_count=20, top=5)
        assert len(v_sym) == 5
        self.assert_same_labels(got, base.features, base, v_sym)

    def test_semisynth_correlated_matches_library(self, runner, tmp_path):
        anchors = tmp_path / "anchors.txt"
        anchors.write_text("0\n3\n")
        base, got = self.semisynth(runner, tmp_path, "--symptoms", "correlated",
                                   "--anchors", str(anchors), "--top", "7")
        anchor_set = load_symptom_indices(str(anchors))
        visits, v_sym = drop_anchor_features(
            base.features, anchor_set, select_correlated_symptoms(base.features, anchor_set,
                                                                  top=7))
        assert (len(v_sym), got.n_dims) == (7, 118)
        self.assert_same_labels(got, visits, base, v_sym)

    def test_semisynth_correlated_requires_anchors(self, runner, tmp_path):
        simulate_small(runner, str(tmp_path / "d.pu"))
        result = runner.invoke(main, ["simulate", "semisynth", "--visits",
                                      str(tmp_path / "d.pu"), "--symptoms", "correlated",
                                      "--c", "a=0.5,b=0.3", "--out", str(tmp_path / "s.pu")])
        assert result.exit_code == 2, result.output
        assert "--symptoms correlated requires --anchors" in result.output


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
        entry = blob["fits"][0]["scorers"]["a"]
        assert {"c_hat", "converged", "n_iters", "c_init"} <= set(entry)

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
        write_dataset(full.take_rows(np.flatnonzero(full.group_mask("a"))), only_a)
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

    @pytest.mark.parametrize("option", ["--batch-size", "--learning-rate"])
    def test_retired_fit_options_rejected(self, runner, tmp_path, option):
        data = simulate_small(runner, str(tmp_path / "d.csv"))
        result = runner.invoke(main, ["fit", "--data", data, option, "64",
                                      "--out", str(tmp_path / "m.json")])
        assert result.exit_code == 2 and "No such option" in result.output


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
                                      "--symptoms", "common", "--pool", "20", "--pick", "5",
                                      "--c", "a=0.5", "--out", str(tmp_path / "s.pu")])
        self.assert_one_error_line(result, "no labeling frequency for group(s) 'b'")

    def test_simulate_semisynth_unknown_group(self, runner, tmp_path):
        data = simulate_small(runner, str(tmp_path / "d.pu"))
        out = tmp_path / "s.pu"
        result = runner.invoke(main, ["simulate", "semisynth", "--visits", data,
                                      "--symptoms", "high-rp", "--group-num", "zz",
                                      "--c", "a=0.5,b=0.3", "--out", str(out)])
        self.assert_one_error_line(result, "unknown group 'zz'; the data holds groups 'a', 'b'")
        assert not out.exists()

    @pytest.mark.parametrize("symptoms", ["recognized", "comon"])
    def test_simulate_semisynth_unknown_symptoms(self, runner, tmp_path, symptoms):
        data = simulate_small(runner, str(tmp_path / "d.pu"))
        out = tmp_path / "s.pu"
        result = runner.invoke(main, ["simulate", "semisynth", "--visits", data,
                                      "--symptoms", symptoms, "--c", "a=0.5,b=0.3",
                                      "--out", str(out)])
        self.assert_one_error_line(
            result, f"--symptoms {symptoms!r} is neither a mode (common, high-rp, "
                    "correlated) nor a readable file")
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
