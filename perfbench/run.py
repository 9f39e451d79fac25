"""Benchmark for purple: one workload per run, in one process.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. The benchmark imports purple from the
checkout's ``src`` directory and exits with status 1 if it is missing.

``--trace 0`` measures the end-to-end metrics with tracing off. The timed
body of a workload (one suite run, or one CLI round trip) repeats while the
next repeat still fits in ``--seconds``; it always runs at least once.
``setup_s`` is the median over fresh interpreters of the time from launch
until purple is imported and the workload's datasets are generated.

``--trace 1`` alternates untraced and traced repeats (at least one of each)
and reports the per-layer metrics of the traced repeats, the tracing
overhead, and whether tracing left the report digests unchanged.

Every repeat's operations (suite cells, CLI commands) pass through the
workload's correctness gate; a miss is counted in ``failed``, never raised.
The last line of standard output is the JSON result. Run records, report
digests and the spans of the last traced repeat go under ``.perfbench_out/``.
"""

from __future__ import annotations

import os

# Pin BLAS before numpy is imported, here and in every child interpreter.
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in BLAS_THREAD_VARS:
    os.environ[_var] = "1"

import argparse
import contextlib
import hashlib
import io
import json
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
SETUP_PROBES = 5
PROBE_TIMEOUT_S = 120

E2E_UNITS = {"wall_s": "s", "cpu_s": "s", "setup_s": "s", "peak_rss_mb": "MB",
             "success_frac": "frac"}
# Measured by no workload: no suite or CLI command here runs assumption checks.
UNMEASURED_LAYERS = {"checks": "run by no suite and by no command of the CLI round trip"}


def import_purple():
    """Put the checkout's sources first on the path, or exit if there are none."""
    if not (SRC / "purple" / "__init__.py").is_file():
        sys.exit(f"perfbench: no purple sources at {SRC}; "
                 "run from the root of a checkout of the repository")
    sys.path.insert(0, str(SRC))
    import purple

    if Path(purple.__file__).resolve().parent != SRC / "purple":
        sys.exit(f"perfbench: imported purple from {purple.__file__}, not from {SRC}")
    return purple


def source_fingerprint() -> str:
    """sha256 over the program's and the benchmark's Python sources."""
    h = hashlib.sha256()
    for path in sorted([*SRC.rglob("*.py"), *Path(__file__).parent.glob("*.py")]):
        h.update(str(path.relative_to(ROOT)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def git_sha() -> str | None:
    """HEAD's commit id read from ``.git``, or None outside a git checkout."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment(jobs: int) -> dict:
    import numpy
    import scipy

    cpu_model = None
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu_model = next((line.split(":", 1)[1].strip() for line in fh
                              if line.startswith("model name")), None)
    except OSError:
        pass
    blas = {}
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except Exception:  # older numpy has no dict mode; the record says so
        pass
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model,
        "git_sha": git_sha(),
        "source_sha256": source_fingerprint(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": {"name": blas.get("name"), "version": blas.get("version"),
                 "config": blas.get("openblas configuration")},
        "blas_threads": {var: os.environ.get(var) for var in BLAS_THREAD_VARS},
        "suite_jobs": jobs,
    }


# ---------------------------------------------------------------------------
# Set-up time


def setup_probe(workload_name: str, seed: int) -> None:
    """Child side: import purple, generate the datasets, print the clock."""
    import_purple()
    from workloads import workloads

    workloads()[workload_name].setup(seed)
    print(repr(time.monotonic()))


def measure_setup(workload_name: str, seed: int) -> list[float]:
    """Seconds from launching a fresh interpreter until its set-up is done.

    CLOCK_MONOTONIC is shared by all processes, so the child's reading at
    the end minus the parent's at launch spans interpreter start, imports
    and data generation.
    """
    samples = []
    for _ in range(SETUP_PROBES):
        start = time.monotonic()
        done = subprocess.run(
            [sys.executable, __file__, "--setup-probe", "--workload", workload_name,
             "--seed", str(seed)],
            cwd=ROOT, capture_output=True, text=True, timeout=PROBE_TIMEOUT_S)
        if done.returncode != 0:
            sys.exit(f"perfbench: set-up probe failed:\n{done.stderr}")
        samples.append(float(done.stdout.split()[-1]) - start)
    return samples


# ---------------------------------------------------------------------------
# Timed repeats


class DigestStore:
    """Report digests per (workload, seed) for one version of the sources.

    A repeat whose digests differ from an earlier repeat of the same
    sources and seed, in this run or an earlier one, is a failure.
    """

    def __init__(self, path: Path, fingerprint: str):
        self.path = path
        self.fingerprint = fingerprint
        self.reference: dict | None = None
        try:
            stored = json.loads(self.path.read_text())
            if stored.get("source_sha256") == fingerprint:
                self.reference = stored["digests"]
        except (OSError, ValueError):
            pass

    def compare(self, digests: dict) -> list[str]:
        if self.reference is None:
            self.reference = digests
            self.path.parent.mkdir(parents=True, exist_ok=True)
            tmp = self.path.with_suffix(".tmp")
            tmp.write_text(json.dumps({"source_sha256": self.fingerprint,
                                       "digests": digests}, indent=1))
            os.replace(tmp, self.path)
            return []
        return [f"digest of {name} changed: {digests.get(name)} != {want}"
                for name, want in self.reference.items() if digests.get(name) != want]


def run_once(workload, seed: int, work_dir: str, tracer, digests: DigestStore) -> dict:
    """One timed repeat of the workload's body, then its checks, untimed."""
    from tracer import layer_metrics
    from workloads import plain_call

    shutil.rmtree(work_dir, ignore_errors=True)
    os.makedirs(work_dir)
    if tracer:
        tracer.install()
    error = None
    try:
        with contextlib.redirect_stdout(io.StringIO()):  # the CLI's "wrote ..." lines
            t0, c0 = time.perf_counter(), time.process_time()
            try:
                out = workload.run(seed, work_dir, tracer.call if tracer else plain_call)
            except Exception:  # the whole body failed: count every operation
                error = traceback.format_exc()
            wall, cpu = time.perf_counter() - t0, time.process_time() - c0
    finally:
        if tracer:
            tracer.restore()
    # Each repeat adds one operation: its digests match every earlier repeat's.
    if error is None:
        checked = workload.check(seed, out)
        changed = digests.compare(checked.digests)
        rec = {"attempted": checked.attempted + 1,
               "failed": checked.failed + (1 if changed else 0),
               "failures": checked.failures + changed, "digests": checked.digests}
    else:
        rec = {"attempted": workload.n_ops + 1, "failed": workload.n_ops + 1,
               "failures": [error], "digests": {}}
    shutil.rmtree(work_dir, ignore_errors=True)
    rec.update(traced=tracer is not None, wall_s=wall, cpu_s=cpu)
    if tracer:
        rec["layers"] = layer_metrics(tracer.spans)
    return rec


def run_repeats(workload, seed: int, seconds: float, trace: bool, digests: DigestStore):
    """Repeat the timed body while the next repeat fits in ``seconds``.

    Returns the per-repeat records and the spans of the last traced repeat.
    """
    from tracer import Tracer

    work_dir = os.path.join(".perfbench_out", "work", workload.name)
    repeats: list[dict] = []
    spans: list = []
    began = time.perf_counter()
    while True:
        tracer = Tracer() if trace and len(repeats) % 2 == 1 else None
        repeats.append(run_once(workload, seed, work_dir, tracer, digests))
        if tracer:
            spans = tracer.spans
        elapsed = time.perf_counter() - began
        typical = statistics.median(r["wall_s"] for r in repeats)
        if (not trace or len(repeats) >= 2) and elapsed + typical > seconds:
            return repeats, spans


def summarize(repeats: list[dict], trace: bool, setup: list[float]) -> dict:
    attempted = sum(r["attempted"] for r in repeats)
    failed = sum(r["failed"] for r in repeats)
    if not trace:
        metrics = {
            "wall_s": statistics.median(r["wall_s"] for r in repeats),
            "cpu_s": statistics.median(r["cpu_s"] for r in repeats),
            "setup_s": statistics.median(setup),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "success_frac": 1.0 - failed / attempted,
        }
        units = E2E_UNITS
    else:
        from tracer import LAYER_METRICS

        traced = [r for r in repeats if r["traced"]]
        untraced = [r for r in repeats if not r["traced"]]
        metrics = {name: statistics.median(r["layers"][name] for r in traced)
                   for name in LAYER_METRICS if name != "trace.overhead_s"}
        metrics["trace.overhead_s"] = (statistics.median(r["wall_s"] for r in traced)
                                       - statistics.median(r["wall_s"] for r in untraced))
        units = LAYER_METRICS
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": {name: {"value": value, "unit": units[name]}
                        for name, value in metrics.items()}}


def write_record(name: str, payload, indent: int | None = 1) -> None:
    path = OUT / name
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(payload, indent=indent))


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    os.chdir(ROOT)
    if args.setup_probe:
        setup_probe(args.workload, args.seed)
        return 0

    import_purple()
    from workloads import workloads

    table = workloads()
    if args.workload not in table:
        sys.exit(f"perfbench: unknown workload {args.workload!r}; "
                 f"expected one of {', '.join(table)}")
    workload = table[args.workload]
    setup = [] if args.trace else measure_setup(args.workload, args.seed)
    workload.setup(args.seed)
    env = environment(getattr(workload, "jobs", 1))
    digests = DigestStore(OUT / "digests" / f"{workload.name}-seed{args.seed}.json",
                          env["source_sha256"])
    repeats, spans = run_repeats(workload, args.seed, args.seconds, bool(args.trace), digests)
    if args.trace:
        from tracer import SPAN_FIELDS

        digest_sets = {json.dumps(r["digests"], sort_keys=True) for r in repeats}
        print(f"perfbench: traced and untraced digests "
              f"{'equal' if len(digest_sets) == 1 else 'DIFFER'}")
        # One file per workload, replaced by each traced run: a traced
        # repeat can hold a few hundred thousand spans.
        write_record(f"traces/{workload.name}.json",
                     {"seed": args.seed, "fields": SPAN_FIELDS, "spans": spans}, indent=None)
    result = summarize(repeats, bool(args.trace), setup)
    record = {"workload": workload.name, "why": workload.why, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace, "environment": env,
              "unmeasured_layers": UNMEASURED_LAYERS, "setup_samples_s": setup,
              "repeats": [{k: v for k, v in r.items() if k != "layers"} for r in repeats],
              "result": result}
    write_record(f"results/{workload.name}-seed{args.seed}-trace{args.trace}.json", record)
    print(f"perfbench: environment {json.dumps(env, sort_keys=True)}")
    for r in repeats:
        print(f"perfbench: {'traced' if r['traced'] else 'untraced'} repeat "
              f"wall {r['wall_s']:.3f}s digests {json.dumps(r['digests'], sort_keys=True)}")
        for failure in r["failures"]:
            print(f"perfbench: FAILED {failure}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
