import csv
import io
import json
import multiprocessing
import os
import signal
from concurrent.futures.process import BrokenProcessPool
from contextlib import contextmanager
from dataclasses import replace

import numpy as np
import pytest
from scipy.special import expit

from purple import baselines, gauss, harness, model, visits
from purple.data import FeatureMatrix, LabeledDataset, split
from purple.gauss import GaussSynthConfig, generate_gauss
from purple.harness import (
    SUITE_NAMES,
    derive_seed,
    emit_report,
    make_suite,
    report_json_bytes,
    results_csv_bytes,
    run_suite,
    suite_datasets,
    true_relative_prevalence,
)
from purple.model import TrainConfig
from purple.visits import generate_visit_corpus

TINY_TRAIN = TrainConfig(lambda_grid=(0.0,), max_epochs=250, patience=250)
SMALL_CORPUS = {"n_a": 1500, "n_b": 3000, "n_dims": 300, "mean_active": 8.0}


def tiny_suite(name="label-frequency", methods=("purple", "negative"), **overrides):
    defaults = dict(methods=methods, n_splits=2, base_seed=0,
                    gauss_n=(400, 800), train=TINY_TRAIN)
    defaults.update(overrides)
    if name == "label-frequency" and "sweep_values" not in defaults:
        defaults["sweep_values"] = (0.3, 0.9)
    return make_suite(name, **defaults)


def exploding(train, val, eval_data, seed):
    raise ValueError("boom")


@contextmanager
def time_limit(seconds):
    """Fail with ``TimeoutError`` instead of hanging past ``seconds``."""
    def expire(signum, frame):
        raise TimeoutError(f"still running after {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


class TestTrueRelativePrevalence:
    def test_constant_latent(self):
        x = np.zeros((6, 2))
        data = LabeledDataset(FeatureMatrix(x), [0, 0, 0, 1, 1, 1], ["a", "b"],
                              np.zeros(6, dtype=np.int8),
                              latent_p=np.full(6, 0.4))
        assert true_relative_prevalence(data, "a", "b") == 1.0

    def test_mean_latent_arithmetic(self):
        x = np.zeros((3, 1))
        data = LabeledDataset(FeatureMatrix(x), [0, 0, 1], ["a", "b"],
                              np.zeros(3, dtype=np.int8),
                              latent_p=np.array([1.0, 0.0, 0.5]))
        assert true_relative_prevalence(data, "a", "b") == 1.0

    def test_agrees_with_sampled_labels(self):
        data = generate_gauss(GaussSynthConfig(n_a=10000, n_b=10000), 0)
        exact = true_relative_prevalence(data, "a", "b")
        prev = [data.y[data.group == g].mean() for g in (0, 1)]
        sampled = prev[0] / prev[1]
        se = 3 * sampled * np.sqrt(sum((1 - p) / (p * 10000) for p in prev))
        assert abs(exact - sampled) < se

    def test_requires_latent(self):
        x = np.zeros((2, 1))
        data = LabeledDataset(FeatureMatrix(x), [0, 1], ["a", "b"],
                              np.zeros(2, dtype=np.int8))
        with pytest.raises(ValueError, match="latent_p"):
            true_relative_prevalence(data, "a", "b")

    def test_group_without_rows(self):
        data = LabeledDataset(FeatureMatrix(np.zeros((2, 1))), [0, 0], ["a", "b"],
                              np.zeros(2, dtype=np.int8), latent_p=np.full(2, 0.4))
        with pytest.raises(ValueError, match="^no rows in group 'b'$"):
            true_relative_prevalence(data, "a", "b")


class TestSuiteConstruction:
    def test_unknown_suite(self):
        with pytest.raises(ValueError, match="unknown suite"):
            make_suite("nonexistent")

    def test_min_splits(self):
        with pytest.raises(ValueError, match="n_splits"):
            make_suite("separability", n_splits=1)

    def test_defaults_per_suite(self):
        sep = make_suite("separability")
        assert sep.sweep_values == ("nonseparable", "separable")
        assert "em" in sep.methods
        semi = make_suite("semisynth")
        assert len(semi.sweep_values) == 20
        assert semi.train == TrainConfig(max_epochs=250, patience=10)
        shift = make_suite("covariate-shift")
        assert shift.sweep_values == (-1.0, 0.0, 0.5, 0.75, 1.0)
        viol = make_suite("violation")
        assert viol.sweep_values == (0.0, 0.1, 0.2, 0.3, 0.4)

    @pytest.mark.parametrize("gauss_n", [(0, 10), (-1, 300), (1000,), (300, 450, 600)])
    def test_gauss_n_must_be_two_sizes(self, gauss_n):
        with pytest.raises(ValueError, match=r"^gauss_n must be two group sizes n_a,n_b >= 1"):
            make_suite("separability", gauss_n=gauss_n)

    def test_gauss_n_refused_without_gaussian_data(self):
        with pytest.raises(ValueError, match="^gauss_n sets Gaussian group sizes; "
                                             "suite 'semisynth' has no Gaussian data$"):
            make_suite("semisynth", gauss_n=(300, 450))

    def test_derive_seed_stable(self):
        assert derive_seed(0, 1, "x") == derive_seed(0, 1, "x")
        assert derive_seed(0, 1, "x") != derive_seed(0, 1, "y")


class TestShiftSweep:
    """The covariate-shift entry's config: group a's mean at -1, group b's
    at v times the all-ones vector."""

    config = staticmethod(harness._SUITES["covariate-shift"].gauss_config)

    def test_minus_one_makes_groups_identical(self):
        cfg = self.config(-1.0)
        np.testing.assert_array_equal(cfg.mean_a, cfg.mean_b)

    def test_plus_one_is_default(self):
        cfg = self.config(1.0)
        default = GaussSynthConfig()
        np.testing.assert_array_equal(cfg.mean_a, default.mean_a)
        np.testing.assert_array_equal(cfg.mean_b, default.mean_b)
        assert cfg.variance == default.variance
        assert (cfg.n_a, cfg.n_b) == (default.n_a, default.n_b)
        assert cfg.c == default.c

    def test_sweep_enumerates(self):
        configs = [self.config(v) for v in make_suite("covariate-shift").sweep_values]
        assert len(configs) == 5
        gaps = [np.linalg.norm(c.mean_b - c.mean_a) for c in configs]
        assert gaps == sorted(gaps)


class TestSuiteDatasets:
    def test_label_frequency_points_share_features(self):
        suite = tiny_suite()
        points = suite_datasets(suite)
        assert len(points) == 2
        d1, d2 = points[0][1], points[1][1]
        np.testing.assert_array_equal(d1.features.dense_rows(),
                                      d2.features.dense_rows())
        np.testing.assert_array_equal(d1.y, d2.y)
        assert not np.array_equal(d1.s, d2.s)

    def test_violation_group_a_advantaged(self):
        suite = tiny_suite("violation", methods=("purple",),
                           sweep_values=(0.0, 0.2))
        points = dict((str(sv), d) for sv, d in suite_datasets(suite))
        rp0 = true_relative_prevalence(points["0.0"], "a", "b")
        rp2 = true_relative_prevalence(points["0.2"], "a", "b")
        assert rp0 > 1.0
        assert rp2 > rp0

    def test_semisynth_suite_generates_one_corpus(self, monkeypatch):
        calls = []

        def counting(*args, **kwargs):
            calls.append(args)
            return generate_visit_corpus(*args, **kwargs)

        monkeypatch.setattr(harness, "generate_visit_corpus", counting)
        monkeypatch.setattr(harness, "_CORPUS", SMALL_CORPUS)
        # "correlated" drops columns; the modes after it must still see the
        # whole corpus.
        suite = make_suite("semisynth", n_splits=2,
                           sweep_values=("correlated:0.3", "common:0.3", "high-rp:0.5",
                                         "recognized:0.9", "common:0.7"))
        points = suite_datasets(suite)
        assert len(calls) == 1
        for sv, data in points:
            (_, alone), = suite_datasets(replace(suite, sweep_values=(sv,)))
            got, want = data.features.raw, alone.features.raw
            assert got.shape == want.shape
            for attr in ("indptr", "indices", "data"):
                assert getattr(got, attr).tobytes() == getattr(want, attr).tobytes(), sv
            for attr in ("s", "y", "latent_p"):
                a, b = getattr(data, attr), getattr(alone, attr)
                assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), (sv, attr)
        assert len(calls) == 1 + len(points)


class TestEchoedSettings:
    """The labeling frequencies and split fractions a report echoes are the
    ones its data and its cells' splits were made with."""

    @pytest.mark.parametrize("name", SUITE_NAMES)
    def test_points_and_splits_follow_the_echo(self, monkeypatch, name):
        if name == "semisynth":
            monkeypatch.setattr(harness, "_CORPUS", SMALL_CORPUS)
            suite = make_suite(name, n_splits=2)
        else:
            suite = make_suite(name, n_splits=2, gauss_n=(300, 450))
        echo = suite.config_echo()
        points = suite_datasets(suite)
        if name == "semisynth":
            assert echo["semisynth_scale"] == SMALL_CORPUS
            assert all(data.n_rows == 4500 for _, data in points)
        for sv, data in points:
            # label-frequency sweeps c_b; a semisynth point is "mode:c_b".
            swept = name in ("label-frequency", "semisynth")
            c = {"a": echo["c_a"], "b": float(str(sv).split(":")[-1]) if swept else echo["c_b"]}
            assert data.gen_info["c"] == c, sv
            for gid, group_name in enumerate(data.group_names):
                positives = (data.group == gid) & (data.y == 1)
                rate, want = data.s[positives].mean(), c[group_name]
                assert abs(rate - want) < 4 * np.sqrt(want * (1 - want) / positives.sum()), sv

        specs = []

        def recording_split(data, spec, i):
            specs.append(spec)
            return split(data, spec, i)

        monkeypatch.setattr(harness, "split", recording_split)
        sv, data = points[0]
        for i in range(suite.n_splits):
            assert "error" not in harness._run_cell(suite, data, sv, i, "negative")
        assert [s.fractions for s in specs] == [tuple(echo["fractions"])] * suite.n_splits


class TestRunSuite:
    @pytest.fixture(autouse=True)
    def no_worker_outlives_its_call(self):
        yield
        assert multiprocessing.active_children() == []

    def test_report_structure_and_means(self):
        report = run_suite(tiny_suite())
        assert report.n_failed_cells == 0
        assert len(report.results) == 2 * 2  # sweep points x methods
        for r in report.results:
            est = r["estimate"]
            per_split = [s["rp_estimate"] for s in r["splits"]]
            assert est["value"] == pytest.approx(np.mean(per_split), abs=1e-12)
            assert est["ratio_to_true"] == pytest.approx(est["value"] / r["true_rp"],
                                                         rel=1e-12)
            assert len(r["accuracy_per_split"]) == 2

    def test_t_test_entries(self):
        report = run_suite(tiny_suite())
        keys = {(t["method"], t["sweep_value"]) for t in report.t_tests}
        assert ("negative", "0.3") in keys
        assert ("negative", "all") in keys
        for t in report.t_tests:
            assert "p" in t or "error" in t

    def test_deterministic_bytes(self):
        suite = tiny_suite()
        r1, r2 = run_suite(suite), run_suite(suite)
        assert report_json_bytes(r1) == report_json_bytes(r2)
        assert results_csv_bytes(r1) == results_csv_bytes(r2)

    def test_jobs_do_not_change_results(self, monkeypatch):
        monkeypatch.setitem(baselines._EXTERNAL, "exploding", exploding)
        monkeypatch.setattr(harness, "_CORPUS", SMALL_CORPUS)
        suites = [tiny_suite(), tiny_suite(methods=("negative", "exploding")),
                  # CSR data, inherited by the workers
                  make_suite("semisynth", n_splits=2, train=TINY_TRAIN,
                             sweep_values=("common:0.3", "high-rp:0.5"))]
        for suite in suites:
            reports = [run_suite(suite, jobs=jobs) for jobs in (1, 2, 3)]
            assert reports[0].n_failed_cells == 4 * ("exploding" in suite.methods)
            for report in reports[1:]:
                assert report_json_bytes(report) == report_json_bytes(reports[0])
                assert results_csv_bytes(report) == results_csv_bytes(reports[0])

    @pytest.mark.parametrize("jobs", [0, -1])
    def test_jobs_below_one_refused(self, jobs):
        with pytest.raises(ValueError, match=f"^jobs must be at least 1, got {jobs}$"):
            run_suite(tiny_suite(), jobs=jobs)

    def test_jobs_need_fork(self, monkeypatch):
        monkeypatch.setattr(multiprocessing, "get_all_start_methods", lambda: ["spawn"])
        with pytest.raises(ValueError, match="^jobs > 1 runs cells in processes started "
                                             "by fork, which this platform does not offer"):
            run_suite(tiny_suite(), jobs=2)
        run_suite(tiny_suite(methods=("negative",)), jobs=1)

    def test_dead_worker_breaks_the_pool(self, monkeypatch):
        def dying(train, val, eval_data, seed):
            os._exit(3)

        monkeypatch.setitem(baselines._EXTERNAL, "dying", dying)
        with time_limit(60), pytest.raises(BrokenProcessPool):
            run_suite(tiny_suite(methods=("negative", "dying")), jobs=2)

    def test_failed_cells_recorded_not_defaulted(self, monkeypatch):
        monkeypatch.setitem(baselines._EXTERNAL, "exploding", exploding)
        report = run_suite(tiny_suite(methods=("purple", "exploding")))
        assert report.n_failed_cells == 4
        failed = report.result_for("exploding", 0.3)
        for s in failed["splits"]:
            assert "error" in s and "rp_estimate" not in s
        assert failed["estimate"] is None
        # failed cells are absent from the CSV
        rows = list(csv.reader(io.StringIO(results_csv_bytes(report).decode())))
        assert len(rows) - 1 == 4  # header + purple cells only

    def test_non_finite_features_fail_their_cells(self, monkeypatch):
        def poisoned(cfg, seed):
            data = generate_gauss(cfg, seed)
            data.features.raw[0, 0] = np.nan  # past the check made when it was built
            return data

        monkeypatch.setattr(harness, "generate_gauss", poisoned)
        report = run_suite(tiny_suite())
        assert report.n_failed_cells == 2 * 2 * 2
        for r in report.results:
            assert r["estimate"] is None
            for s in r["splits"]:
                assert s["error"] == "ValueError: feature values must be finite"

    @pytest.mark.parametrize("bad", ["nan", "negative", "short", "2-d"])
    def test_bad_plugin_scores_fail_their_cells(self, monkeypatch, bad):
        n_rows = set()

        def plugin(train, val, eval_data, seed):
            n_rows.add(eval_data.n_rows)
            scores = np.full(eval_data.n_rows, 0.2)
            if bad in ("nan", "negative"):
                scores[eval_data.group_mask("b")] = np.nan if bad == "nan" else -0.1
            return {"short": scores[1:], "2-d": scores[:, None]}.get(bad, scores)

        monkeypatch.setitem(baselines._EXTERNAL, "bad-plugin", plugin)
        report = run_suite(tiny_suite(methods=("bad-plugin",)))
        assert report.n_failed_cells == 4
        (n_test,) = n_rows  # every test partition has the same size
        for r in report.results:
            assert r["estimate"] is None and r["accuracy_per_split"] == []
            for s in r["splits"]:
                assert s == {"split": s["split"], "error": (
                    f"ValueError: estimator 'bad-plugin' must return {n_test} finite, "
                    "non-negative scores, one per row of eval_data")}
        assert len(results_csv_bytes(report).splitlines()) == 1  # the header alone

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_library_bug_propagates(self, monkeypatch, jobs):
        def buggy(train, val, eval_data, seed):
            raise TypeError("not an estimator failure")

        monkeypatch.setitem(baselines._EXTERNAL, "buggy", buggy)
        with pytest.raises(TypeError, match="not an estimator failure"):
            run_suite(tiny_suite(methods=("negative", "buggy")), jobs=jobs)

    def test_csv_row_count(self):
        report = run_suite(tiny_suite())
        rows = list(csv.reader(io.StringIO(results_csv_bytes(report).decode())))
        assert rows[0] == ["suite", "method", "sweep_value", "split", "rp_estimate",
                           "rp_true", "ratio_to_true"]
        assert len(rows) - 1 == 2 * 2 * 2

    def test_emit_report_round_trip(self, tmp_path):
        report = run_suite(tiny_suite(methods=("purple",)))
        paths = emit_report(report, str(tmp_path / "out"))
        blob = json.loads(open(paths["report.json"]).read())
        assert blob["suite"] == "label-frequency"
        assert blob["config_hash"] == report.config_hash
        emit_report(report, str(tmp_path / "out2"))
        assert open(paths["report.json"], "rb").read() == \
            open(str(tmp_path / "out2/report.json"), "rb").read()

    def test_config_echo_carries_choices(self):
        report = run_suite(tiny_suite())
        cfg = report.config
        assert cfg["accuracy_definition"].startswith("abs(ratio_to_true")
        assert cfg["split_stratification"] == "by group"
        assert cfg["train"] == TINY_TRAIN.to_dict()
        assert set(cfg["em"]) == {"max_iters", "tol", "inner_epochs"}


class TestGeneratorKernel:
    """The generators take their sigmoid from ``model._logistic``; on every
    suite's full-size data it draws the same y and s as ``scipy.special.expit``."""

    @pytest.mark.parametrize("seed", [0, 1, 7])
    @pytest.mark.parametrize("name", SUITE_NAMES)
    def test_every_draw_matches_expit(self, monkeypatch, name, seed):
        suite = make_suite(name, base_seed=seed)
        shipped = suite_datasets(suite)
        zs = []

        def recording_expit(z):
            zs.append(np.array(z, dtype=np.float64))
            return expit(z)

        monkeypatch.setattr(gauss, "_logistic", recording_expit)
        monkeypatch.setattr(visits, "_logistic", recording_expit)
        with_expit = suite_datasets(suite)
        assert len(zs) == len(shipped) == len(with_expit)
        for z, (sv, ours), (_, theirs) in zip(zs, shipped, with_expit):
            p = model._logistic(z)
            np.testing.assert_allclose(p, expit(z), rtol=1e-15, atol=0)
            info = ours.gen_info
            if not info.get("separable") and not info.get("violation_delta"):
                np.testing.assert_array_equal(ours.latent_p, p, err_msg=str(sv))
            np.testing.assert_array_equal(ours.y, theirs.y, err_msg=str(sv))
            np.testing.assert_array_equal(ours.s, theirs.s, err_msg=str(sv))
