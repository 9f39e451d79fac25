"""The benchmark's workloads: what each runs, why it was chosen, and the
correctness gate of each operation.

A workload's ``run`` is the timed body of one iteration. It calls only
purple's public entry points (``make_suite``, ``run_suite``, ``emit_report``
and the click CLI in-process) and returns an ``Outcome`` that ``check``
turns into gated operations and report digests outside the timed region.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import math
import os
from dataclasses import dataclass, field

# Modules are looked up at call time (``harness.run_suite``), so a tracer
# installed by the caller sees every call the workload makes.
from purple import cli, harness
from purple.baselines import EmConfig, baseline_relative_prevalence
from purple.data import SplitSpec, load_dataset, split
from purple.model import TrainConfig


def sha256_file(path: str) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


@dataclass
class Outcome:
    """What one iteration's timed body produced, before any check."""

    work_dir: str
    report: object = None                                # RunReport of a suite
    files: dict[str, str] = field(default_factory=dict)  # artifact name -> path
    commands: list[tuple[str, str | None]] = field(default_factory=list)  # (name, error)


@dataclass
class Checked:
    attempted: int
    failed: int
    digests: dict[str, str]
    failures: list[str]


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def plain_call(name, fn, args=(), kwargs=None, observe=None):
    """Untraced stand-in for ``Tracer.call``: just make the call."""
    return fn(*args, **(kwargs or {}))


def _report_bytes(args, kwargs, paths) -> dict[str, int]:
    return {"harness.report_bytes": sum(os.path.getsize(p) for p in paths.values())}


@dataclass
class SuiteWorkload:
    """A suite run through ``run_suite`` and ``emit_report``.

    ``bands`` maps a method to the acceptance band of its mean
    ``ratio_to_true`` over the suite's splits, the statistic the acceptance
    criteria use. A cell passes its gate when it raised nothing, its
    estimate is finite and its (method, point) mean lies in the band.
    """

    name: str
    why: str
    suite: str
    methods: tuple[str, ...]
    sweep_values: tuple
    n_splits: int
    bands: dict[str, tuple[float, float]]
    jobs: int = 1
    overrides: dict = field(default_factory=dict)

    @property
    def n_ops(self) -> int:
        return len(self.methods) * len(self.sweep_values) * self.n_splits

    def make_suite(self, seed: int):
        return harness.make_suite(self.suite, methods=self.methods, n_splits=self.n_splits,
                                  base_seed=seed, sweep_values=self.sweep_values,
                                  **self.overrides)

    def setup(self, seed: int) -> None:
        """Generate the workload's datasets, as ``run_suite`` does first."""
        harness.suite_datasets(self.make_suite(seed))

    def run(self, seed: int, work_dir: str, call=plain_call) -> Outcome:
        report = call("harness.run_suite", harness.run_suite, (self.make_suite(seed),),
                      {"jobs": self.jobs})
        paths = call("harness.emit", harness.emit_report, (report, work_dir),
                     observe=_report_bytes)
        return Outcome(work_dir, report=report, files=dict(paths))

    def check(self, seed: int, out: Outcome) -> Checked:
        attempted = failed = 0
        failures = []
        for entry in out.report.results:
            band = self.bands.get(entry["method"])
            mean = (entry.get("estimate") or {}).get("ratio_to_true")
            in_band = band is None or (mean is not None and band[0] <= mean <= band[1])
            for cell in entry["splits"]:
                attempted += 1
                where = f"{entry['method']} {entry['sweep_value']} split {cell['split']}"
                if "error" in cell:
                    problem = cell["error"]
                elif not math.isfinite(cell["rp_estimate"]):
                    problem = f"non-finite estimate {cell['rp_estimate']}"
                elif not isinstance(cell.get("flags"), list):
                    problem = "flags not recorded"
                elif not in_band:
                    problem = f"mean ratio_to_true {mean} outside {band}"
                else:
                    continue
                failed += 1
                failures.append(f"{where}: {problem}")
        return Checked(attempted, failed, digests_of(out.files), failures)


def digests_of(files: dict[str, str]) -> dict[str, str]:
    return {name: sha256_file(path) for name, path in sorted(files.items())}


@dataclass
class CliWorkload:
    """The CLI round trip corpus -> semisynth -> fit -> estimate on .pu files.

    Each command is one operation; it fails if it raises. The estimate
    command also fails unless every per-split value equals the library's
    Negative estimate on the same split.
    """

    name: str
    why: str
    n_a: int = 7000
    n_b: int = 14000
    dims: int = 1200
    splits: int = 2

    n_ops = 4  # one per command

    def setup(self, seed: int) -> None:
        """Nothing to generate up front: the round trip makes its own data."""

    def commands(self, seed: int, work_dir: str) -> list[tuple[str, list[str]]]:
        p = lambda f: os.path.join(work_dir, f)
        return [
            ("simulate_corpus", ["simulate", "corpus", "--n-a", str(self.n_a),
                                 "--n-b", str(self.n_b), "--dims", str(self.dims),
                                 "--seed", str(seed), "--out", p("corpus.pu")]),
            ("simulate_semisynth", ["simulate", "semisynth", "--visits", p("corpus.pu"),
                                    "--symptoms", "common", "--c", "a=0.5,b=0.3",
                                    "--seed", str(seed), "--out", p("labeled.pu")]),
            ("fit", ["fit", "--data", p("labeled.pu"), "--method", "negative",
                     "--splits", str(self.splits), "--seed", str(seed),
                     "--out", p("m.json")]),
            ("estimate", ["estimate", "--model", p("m.json"), "--data", p("labeled.pu"),
                          "--pairs", "a:b", "--out", p("e.json")]),
        ]

    def run(self, seed: int, work_dir: str, call=plain_call) -> Outcome:
        """Run the commands in order, stopping at the first that raises."""
        out = Outcome(work_dir)
        for name, argv in self.commands(seed, work_dir):
            try:
                call(f"cli.{name}", cli.main, (argv,), {"standalone_mode": False})
            except Exception as e:  # a failed command is counted, not raised
                out.commands.append((name, f"{type(e).__name__}: {e}"))
                break
            out.commands.append((name, None))
        for fname in ("m.json", "e.json"):
            if os.path.exists(os.path.join(work_dir, fname)):
                out.files[fname] = os.path.join(work_dir, fname)
        return out

    def expected_estimates(self, seed: int, data_path: str) -> list[float]:
        data = load_dataset(data_path)
        spec = SplitSpec(seed=seed, n_repeats=self.splits)
        values = []
        for i in range(self.splits):
            train, val, test = split(data, spec, i)
            est = baseline_relative_prevalence("negative", train, val, test, "a", "b",
                                               seed=seed, config=TrainConfig())
            values.append(est.value)
        return values

    def check(self, seed: int, out: Outcome) -> Checked:
        failures = [f"{name}: {err}" for name, err in out.commands if err]
        ran = dict(out.commands)
        failed = self.n_ops - len(ran) + len(failures)
        if ran.get("estimate", "missing") is None:
            with open(out.files["e.json"], encoding="utf-8") as fh:
                got = json.load(fh)["estimates"][0]["per_split_values"]
            want = self.expected_estimates(seed, os.path.join(out.work_dir, "labeled.pu"))
            if got != want:
                failed += 1
                failures.append(f"estimate: per-split {got} != library {want}")
        return Checked(self.n_ops, failed, digests_of(out.files), failures)


def fixed_budget(suite: str, epochs: int) -> TrainConfig:
    """The suite's default training cut to ``epochs`` with early stopping off.

    Where early stopping fires depends on the data, so with it on the work
    of a run varies by up to a third between seeds. With every fit running
    its whole budget, the seed changes the data but not the amount of work.
    Versions whose training has no ``patience`` keep their own stopping rule.
    """
    train = harness.make_suite(suite).train
    budget = {"max_epochs": epochs}
    if any(f.name == "patience" for f in dataclasses.fields(train)):
        budget["patience"] = epochs
    return dataclasses.replace(train, **budget)


def workloads() -> dict:
    """The benchmark's workloads by name, each with the reason it exists.

    Budgets are sized so that a repeat takes seconds on a 2-core machine
    and every gate passes with a margin. ``gauss-baselines`` keeps its
    suite's early-stopped training and the acceptance run's five splits:
    its supervised band holds for the mean of five splits, and with two or
    three it was missed on some seeds.
    """
    return {w.name: w for w in (
        SuiteWorkload(
            name="gauss-core",
            why="Core fit on full-size dense Gaussian data: nearly all time is the "
                "full-batch gradient and Adam loop in model, none in baselines.",
            suite="covariate-shift", methods=("purple",), sweep_values=(1.0,),
            n_splits=2, bands={"purple": (0.85, 1.15)},
            overrides={"train": fixed_budget("covariate-shift", 1000)}),
        SuiteWorkload(
            name="gauss-baselines",
            why="Logistic and EM baseline fits with no core fit, cells in run_suite's "
                "thread pool at jobs=nproc: the only workload that uses the pool.",
            suite="separability", methods=("negative", "em", "supervised"),
            sweep_values=("nonseparable",), n_splits=5, jobs=nproc(),
            bands={"supervised": (0.95, 1.05), "negative": (1.7, 2.3)},
            overrides={"em": EmConfig(max_iters=20)}),
        SuiteWorkload(
            name="semisynth",
            why="Sparse CSR data with 1024-row minibatches and the 6-value lambda grid: "
                "take_rows and CSR kernels dominate, and each mode rebuilds the corpus.",
            suite="semisynth", methods=("purple", "negative"),
            sweep_values=("common:0.3", "high-rp:0.3"), n_splits=2,
            bands={"purple": (0.8, 1.2)},
            overrides={"train": fixed_budget("semisynth", 20)}),
        CliWorkload(
            name="cli-roundtrip",
            why="The CLI path simulate -> fit -> estimate on .pu files: the only "
                "workload that covers dataset file I/O and the cli module."),
    )}
