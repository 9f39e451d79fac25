"""In-memory span tracer for the benchmark's traced runs.

``Tracer.install`` replaces purple's functions at the names their callers
look them up by (``purple.model.gradients`` is what the training loop calls,
``purple.harness.split`` is what a suite cell calls) with wrappers that
record one span per call: id, name, start, end, parent span, cell id and
thread, plus a few counts read off the call's arguments and result.
``Tracer.restore`` puts every original back. ``layer_metrics`` turns the
spans of one iteration into the per-layer metrics listed in ``LAYER_METRICS``.

The tracer changes no argument and no result, so a traced run must produce
byte-identical reports; the benchmark checks that.
"""

from __future__ import annotations

import inspect
import itertools
import os
import statistics
import sys
import threading
import time

# Span layout: [id, name, start, end, parent id, cell id, thread id, counts].
SPAN_FIELDS = ("id", "name", "start", "end", "parent", "cell", "thread", "counts")
CELL = "harness.cell"

# Spans that get _s (inclusive), _self_s and _calls metrics. The cell span
# is summarized separately (harness.cells, cell_s_p50, ...).
SPAN_NAMES = (
    "harness.run_suite", "harness.suite_datasets", "harness.emit",
    "gauss.generate", "visits.corpus", "visits.labels",
    "data.split", "data.take_rows", "data.matvec", "data.rtvec",
    "data.load", "data.write",
    "model.fit", "model.gradients", "metrics.auc", "stats.paired_t_test",
    "baselines.relative_prevalence", "baselines.fit_logistic", "baselines.fit_em",
    "cli.simulate_corpus", "cli.simulate_semisynth", "cli.fit", "cli.estimate",
)

# Counts that spans record from their call's arguments and result, summed.
COUNTERS = {
    "model.epochs": "count",                 # model.fit
    "model.budget_hits": "count",            # model.fit
    "data.kernel_bytes": "B-computed",       # data.matvec, data.rtvec
    "baselines.em_iters": "count",           # baselines.fit_em
    "baselines.em_nonconverged": "count",    # baselines.fit_em
    "data.load_bytes": "B",                  # data.load
    "data.write_bytes": "B",                 # data.write
    "harness.report_bytes": "B",             # harness.emit
}


def _layer_metric_units() -> dict[str, str]:
    units: dict[str, str] = {}
    for name in SPAN_NAMES:
        units[f"{name}_s"] = "s"
        units[f"{name}_self_s"] = "s"
        units[f"{name}_calls"] = "count"
    units.update({"harness.cells": "count", "harness.cell_s_p50": "s",
                  "harness.cell_s_max": "s", "harness.busy_s": "s",
                  "harness.concurrency": "ratio"})
    units.update(COUNTERS)
    units.update({"trace.spans": "count", "trace.overhead_s": "s"})
    return units


# Every per-layer metric a traced run reports, with its unit.
LAYER_METRICS = _layer_metric_units()


def _arg(sig: inspect.Signature, name: str, args, kwargs):
    bound = sig.bind_partial(*args, **kwargs)
    if name in bound.arguments:
        return bound.arguments[name]
    param = sig.parameters.get(name)
    return None if param is None or param.default is inspect.Parameter.empty else param.default


def _kernel_bytes(args, kwargs, result):
    """Bytes a matvec/rtvec reads and writes: matrix storage, vector, result."""
    raw = args[0].raw
    if hasattr(raw, "indptr"):
        matrix = raw.data.nbytes + raw.indices.nbytes + raw.indptr.nbytes
    else:
        matrix = raw.nbytes
    vec = args[1] if len(args) > 1 else next(iter(kwargs.values()))
    return {"data.kernel_bytes": matrix + getattr(vec, "nbytes", 0) + result.nbytes}


def _file_size(path) -> int:
    try:
        return os.path.getsize(path)
    except OSError:
        return 0


class Tracer:
    """Records spans while installed; not reentrant across installs."""

    def __init__(self):
        self.spans: list[list] = []
        self.missing: list[str] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._patches: list[tuple[object, str, object]] = []

    # -- recording -------------------------------------------------------

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def call(self, name: str, fn, args=(), kwargs=None, observe=None):
        """Run ``fn(*args, **kwargs)`` inside a span called ``name``."""
        kwargs = kwargs or {}
        stack = self._stack()
        sid = next(self._ids)
        parent = stack[-1] if stack else None
        cell = sid if name == CELL else (parent[5] if parent else None)
        rec = [sid, name, 0.0, 0.0, parent[0] if parent else None, cell,
               threading.get_ident(), None]
        stack.append(rec)
        rec[2] = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            rec[3] = time.perf_counter()
            stack.pop()
            self.spans.append(rec)
        if observe is not None:
            rec[7] = observe(args, kwargs, result)
        return result

    # -- patching --------------------------------------------------------

    def wrap(self, owner, attr: str, name: str, observe=None) -> None:
        """Replace ``owner.attr`` by a recording wrapper around it."""
        fn = vars(owner).get(attr)
        if fn is None:
            self.missing.append(f"{owner.__name__}.{attr}")
            return
        tracer = self

        def wrapper(*args, **kwargs):
            return tracer.call(name, fn, args, kwargs, observe)

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", attr)
        setattr(owner, attr, wrapper)
        self._patches.append((owner, attr, fn))

    def install(self) -> None:
        from purple import baselines, cli, harness, model
        from purple.data import FeatureMatrix, LabeledDataset

        fit_sig = inspect.signature(model.fit)
        default_epochs = model.TrainConfig().max_epochs

        def observe_fit(args, kwargs, result):
            config = _arg(fit_sig, "config", args, kwargs)
            cap = config.max_epochs if config is not None else default_epochs
            epochs = [m["epochs"] for m in result.lambda_metrics]
            return {"model.epochs": sum(epochs),
                    "model.budget_hits": sum(1 for e in epochs if e >= cap)}

        def observe_em(args, kwargs, result):
            return {"baselines.em_iters": result.n_iters,
                    "baselines.em_nonconverged": int(not result.converged)}

        def observe_load(args, kwargs, result):
            return {"data.load_bytes": _file_size(args[0] if args else kwargs["path"])}

        def observe_write(args, kwargs, result):
            path = args[1] if len(args) > 1 else kwargs["path"]
            return {"data.write_bytes": _file_size(path)}

        self.wrap(harness, "suite_datasets", "harness.suite_datasets")
        # The one private name: a cell has no public boundary of its own.
        self.wrap(harness, "_run_cell", CELL)
        self.wrap(harness, "split", "data.split")
        self.wrap(harness, "generate_gauss", "gauss.generate")
        self.wrap(harness, "generate_visit_corpus", "visits.corpus")
        self.wrap(harness, "simulate_labels", "visits.labels")
        self.wrap(harness, "paired_t_test", "stats.paired_t_test")
        self.wrap(harness, "baseline_relative_prevalence", "baselines.relative_prevalence")
        self.wrap(baselines, "fit_purple", "model.fit", observe_fit)
        self.wrap(baselines, "fit_logistic", "baselines.fit_logistic")
        self.wrap(baselines, "fit_em", "baselines.fit_em", observe_em)
        self.wrap(model, "gradients", "model.gradients")
        self.wrap(model, "auc", "metrics.auc")
        self.wrap(LabeledDataset, "take_rows", "data.take_rows")
        self.wrap(FeatureMatrix, "matvec", "data.matvec", _kernel_bytes)
        self.wrap(FeatureMatrix, "rtvec", "data.rtvec", _kernel_bytes)
        self.wrap(cli, "load_dataset", "data.load", observe_load)
        self.wrap(cli, "write_dataset", "data.write", observe_write)
        self.wrap(cli, "split", "data.split")
        self.wrap(cli, "split_indices", "data.split")
        self.wrap(cli, "generate_gauss", "gauss.generate")
        self.wrap(cli, "generate_visit_corpus", "visits.corpus")
        self.wrap(cli, "simulate_labels", "visits.labels")
        self.wrap(cli, "fit_purple", "model.fit", observe_fit)
        self.wrap(cli, "fit_em", "baselines.fit_em", observe_em)
        if self.missing:
            print(f"tracer: not found, left unwrapped: {', '.join(self.missing)}",
                  file=sys.stderr)

    def restore(self) -> None:
        """Put back every original, in reverse order of wrapping."""
        while self._patches:
            owner, attr, fn = self._patches.pop()
            setattr(owner, attr, fn)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.restore()
        return False


def layer_metrics(spans: list[list]) -> dict[str, float]:
    """Per-layer metrics of one iteration's spans (trace.overhead_s excluded).

    ``<span>_s`` sums span durations over all threads, ``<span>_self_s``
    subtracts the time of each span's direct children.
    """
    child_time: dict[int, float] = {}
    for s in spans:
        if s[4] is not None:
            child_time[s[4]] = child_time.get(s[4], 0.0) + (s[3] - s[2])
    out: dict[str, float] = {}
    for name in SPAN_NAMES:
        out[f"{name}_s"] = 0.0
        out[f"{name}_self_s"] = 0.0
        out[f"{name}_calls"] = 0
    out.update({name: 0 for name in COUNTERS})
    cells = []
    for s in spans:
        dur = s[3] - s[2]
        if s[1] == CELL:
            cells.append(dur)
        elif s[1] in SPAN_NAMES:
            out[f"{s[1]}_s"] += dur
            out[f"{s[1]}_self_s"] += dur - child_time.get(s[0], 0.0)
            out[f"{s[1]}_calls"] += 1
        if s[7]:
            for key, value in s[7].items():
                out[key] += value
    busy = sum(cells)
    suite_wall = out["harness.run_suite_s"]
    out.update({
        "harness.cells": len(cells),
        "harness.cell_s_p50": statistics.median(cells) if cells else 0.0,
        "harness.cell_s_max": max(cells) if cells else 0.0,
        "harness.busy_s": busy,
        "harness.concurrency": busy / suite_wall if suite_wall > 0 else 0.0,
        "trace.spans": len(spans),
    })
    return out
