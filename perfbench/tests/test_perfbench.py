"""Tests of the benchmark itself, on workloads scaled down to run in seconds.

    python3 -m pytest perfbench/tests
"""

import json
import shutil
import subprocess
import sys

import pytest

import purple.baselines
import purple.cli
import purple.harness
import purple.model
import run
import tracer
from purple.data import FeatureMatrix, LabeledDataset
from purple.model import TrainConfig
from workloads import CliWorkload, SuiteWorkload, workloads

TINY_GAUSS = {"gauss_n": (200, 400),
              "train": TrainConfig(lambda_grid=(0.0,), max_epochs=20, patience=5)}


def tiny_suite(**kw):
    args = dict(name="tiny", why="test", suite="covariate-shift", methods=("purple",),
                sweep_values=(1.0,), n_splits=2, bands={}, overrides=TINY_GAUSS)
    args.update(kw)
    return SuiteWorkload(**args)


def tiny_cli():
    return CliWorkload(name="tiny-cli", why="test", n_a=300, n_b=600, dims=100)


def repeats_of(workload, tmp_path, trace, seconds=0.0):
    store = run.DigestStore(tmp_path / "digests.json", "fingerprint")
    return run.run_repeats(workload, 3, seconds, trace, store)


@pytest.fixture(autouse=True)
def in_tmp(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)


def wrapped_names():
    return {
        "gradients": (purple.model, "gradients"),
        "auc": (purple.model, "auc"),
        "cell": (purple.harness, "_run_cell"),
        "split": (purple.harness, "split"),
        "fit_logistic": (purple.baselines, "fit_logistic"),
        "load": (purple.cli, "load_dataset"),
        "take_rows": (LabeledDataset, "take_rows"),
        "matvec": (FeatureMatrix, "matvec"),
    }


def test_restore_puts_back_every_original():
    before = {k: vars(owner)[attr] for k, (owner, attr) in wrapped_names().items()}
    with tracer.Tracer() as t:
        assert not t.missing
        for k, (owner, attr) in wrapped_names().items():
            assert vars(owner)[attr] is not before[k], k
    for k, (owner, attr) in wrapped_names().items():
        assert vars(owner)[attr] is before[k], k


def test_restore_after_an_exception():
    before = purple.model.gradients
    with pytest.raises(RuntimeError):
        with tracer.Tracer():
            raise RuntimeError("boom")
    assert purple.model.gradients is before


def test_spans_nest_and_carry_the_cell_id():
    t = tracer.Tracer()
    t.call(tracer.CELL, lambda: t.call("data.split", lambda: t.call("data.take_rows", int)))
    by_name = {s[1]: s for s in t.spans}
    cell, split_, take = by_name[tracer.CELL], by_name["data.split"], by_name["data.take_rows"]
    assert split_[4] == cell[0] and take[4] == split_[0]
    assert cell[5] == split_[5] == take[5] == cell[0]
    m = tracer.layer_metrics(t.spans)
    assert m["harness.cells"] == 1 and m["data.split_calls"] == 1
    assert m["data.split_self_s"] == pytest.approx(
        m["data.split_s"] - m["data.take_rows_s"])


def test_benchmark_json_lists_exactly_the_emitted_metrics():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.E2E_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == tracer.LAYER_METRICS
    assert {w["name"]: w["why"] for w in spec["workloads"]} == \
        {name: w.why for name, w in workloads().items()}


@pytest.mark.parametrize("make", [tiny_suite, tiny_cli])
def test_traced_run_emits_every_layer_metric_with_a_unit(make, tmp_path):
    repeats, spans = repeats_of(make(), tmp_path, trace=True)
    result = run.summarize(repeats, True, [])
    assert result["correct"], [r["failures"] for r in repeats]
    assert set(result["metrics"]) == set(tracer.LAYER_METRICS)
    for name, m in result["metrics"].items():
        assert m["unit"] == tracer.LAYER_METRICS[name]
    assert spans and repeats[0]["digests"] == repeats[1]["digests"]


def test_untraced_run_emits_every_end_to_end_metric(tmp_path):
    repeats, _ = repeats_of(tiny_suite(), tmp_path, trace=False)
    result = run.summarize(repeats, False, [0.5, 0.6, 0.7])
    assert {k: m["unit"] for k, m in result["metrics"].items()} == run.E2E_UNITS
    assert result["metrics"]["setup_s"]["value"] == 0.6
    assert result["metrics"]["success_frac"]["value"] == 1.0


def test_missed_gate_is_counted_not_raised(tmp_path):
    repeats, _ = repeats_of(tiny_suite(bands={"purple": (100.0, 200.0)}), tmp_path, False)
    result = run.summarize(repeats, False, [1.0])
    assert not result["correct"]
    assert result["failed"] == 2 * len(repeats)  # both cells, determinism op passes
    assert result["metrics"]["success_frac"]["value"] == pytest.approx(1 / 3)


def test_failed_cell_is_counted_not_raised(tmp_path, monkeypatch):
    def broken(train, val, eval_data, seed):
        raise ValueError("broken estimator")

    monkeypatch.setitem(purple.baselines._EXTERNAL, "broken", broken)
    repeats, _ = repeats_of(tiny_suite(methods=("broken",)), tmp_path, False)
    assert repeats[0]["failed"] == 2 and "broken estimator" in repeats[0]["failures"][0]


def test_failed_command_is_counted_not_raised(tmp_path, monkeypatch):
    w = tiny_cli()
    monkeypatch.setattr(w, "commands", lambda seed, work_dir: [
        ("fit", ["fit", "--data", "missing.pu", "--out", "m.json"])])
    repeats, _ = repeats_of(w, tmp_path, False)
    assert repeats[0]["failed"] == w.n_ops  # the bad command and the three not run


def test_changed_digest_is_a_failure(tmp_path):
    store = run.DigestStore(tmp_path / "d.json", "fingerprint")
    assert store.compare({"report.json": "aa"}) == []
    assert run.DigestStore(tmp_path / "d.json", "fingerprint").compare(
        {"report.json": "bb"})
    assert run.DigestStore(tmp_path / "d.json", "other sources").compare(
        {"report.json": "bb"}) == []


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copytree(run.ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    done = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "gauss-core",
                           "--seed", "0", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert done.returncode != 0 and done.stdout == ""
