"""Invariants checked on generated inputs: the objective kernel, the
full-batch fit, CLI estimates, dataset file round trips and parse errors,
and splitting.

Fit example counts stay small: each example runs two fits over a two-value
L1 grid.
"""

import json
import math
import tempfile
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from click.testing import CliRunner
from hypothesis import strategies as st
from helpers import reference_objective

from purple import baselines, data
from purple.baselines import baseline_relative_prevalence
from purple.cli import main
from purple.data import (FeatureMatrix, LabeledDataset, ParseError, SplitSpec, load_dataset,
                         split, split_indices, write_dataset)
from purple.gauss import GaussSynthConfig, generate_gauss
from purple.model import (PROB_FLOOR, PurpleModel, TrainConfig, _lbfgs_fit, _two_loop, fit,
                          gradients, loss, predict_diagnosis, relative_prevalence)

CFG = TrainConfig(lambda_grid=(1e-3, 0.0), max_epochs=300, patience=10)
PROPERTY = settings(max_examples=20, deadline=None)
group_sizes = st.integers(200, 600)
seeds = st.integers(0, 2**16)


def gauss_splits(n_a, n_b, seed):
    data = generate_gauss(GaussSynthConfig(n_a=n_a, n_b=n_b), seed)
    return split(data, SplitSpec(seed=seed), 0)


def params(result):
    m = result.model
    return np.concatenate([m.w, [m.b], m.theta])


def as_csr(data):
    return replace(data, features=FeatureMatrix(sp.csr_matrix(data.features.raw)))


def swap_groups(data):
    """The same rows with group ids 0 and 1 exchanged, names kept."""
    return replace(data, group=1 - data.group)


@PROPERTY
@given(n_a=group_sizes, n_b=group_sizes, seed=seeds)
def test_dense_and_csr_fits_agree(n_a, n_b, seed):
    tr, va, te = gauss_splits(n_a, n_b, seed)
    dense, sparse = fit(tr, va, CFG), fit(as_csr(tr), as_csr(va), CFG)
    assert dense.selected_lambda == sparse.selected_lambda
    np.testing.assert_allclose(params(sparse), params(dense), rtol=1e-8, atol=1e-8)
    np.testing.assert_allclose(relative_prevalence(sparse.model, te, "a", "b"),
                               relative_prevalence(dense.model, te, "a", "b"), rtol=1e-8)


@PROPERTY
@given(n_a=group_sizes, n_b=group_sizes, seed=seeds)
def test_swapping_groups_gives_the_reciprocal_estimate(n_a, n_b, seed):
    tr, va, te = gauss_splits(n_a, n_b, seed)
    ab = relative_prevalence(fit(tr, va, CFG).model, te, "a", "b")
    swapped = relative_prevalence(fit(swap_groups(tr), swap_groups(va), CFG).model,
                                  swap_groups(te), "a", "b")
    np.testing.assert_allclose(ab * swapped, 1.0, rtol=1e-8)


@settings(max_examples=100, deadline=None)
@given(n_a=st.integers(1, 3000), n_b=st.integers(1, 3000), seed=seeds,
       alpha_a=st.floats(1e-6, 1e6), alpha_b=st.floats(1e-6, 1e6))
def test_per_group_plugin_gives_the_ratio_of_its_estimates(n_a, n_b, seed, alpha_a, alpha_b):
    """A per-group prevalence estimator meets the per-row contract by returning
    its group's estimate on each of the group's rows; the relative prevalence
    is then the ratio of its two estimates. Each group mean of a constant
    rounds by at most about 12 eps at these sizes (numpy's blocked pairwise
    sum, then the division), so the ratio agrees to well within 1e-14; the
    largest error seen in 1e5 random draws was 6.3 eps (1.4e-15)."""
    group = np.random.default_rng(seed).permutation(np.r_[np.zeros(n_a), np.ones(n_b)])
    rows = LabeledDataset(FeatureMatrix(np.zeros((n_a + n_b, 1))), group.astype(np.int64),
                          ["a", "b"], np.zeros(n_a + n_b, dtype=np.int8))

    def per_group(train, val, eval_data, seed):
        return np.array([alpha_a, alpha_b])[eval_data.group]

    with mock.patch.dict(baselines._EXTERNAL, {"per-group": per_group}):
        value = baseline_relative_prevalence("per-group", rows, rows, rows, "a", "b").value
    assert value == pytest.approx(alpha_a / alpha_b, rel=1e-14)


@settings(max_examples=12, deadline=None)
@given(method=st.sampled_from(["negative", "em", "supervised", "purple"]),
       n_a=group_sizes, n_b=group_sizes, seed=seeds)
def test_cli_pair_times_reversed_pair_is_one(method, n_a, n_b, seed):
    runner = CliRunner()
    with tempfile.TemporaryDirectory() as tmp:
        data_path, model, out = (f"{tmp}/{name}" for name in ("d.csv", "m.json", "e.json"))
        for args in (["simulate", "gauss", "--n-a", str(n_a), "--n-b", str(n_b),
                      "--seed", str(seed), "--out", data_path],
                     ["fit", "--data", data_path, "--method", method, "--lambda-grid", "0",
                      "--max-epochs", "100", "--splits", "2", "--em-max-iters", "5",
                      "--out", model],
                     ["estimate", "--model", model, "--data", data_path,
                      "--pairs", "a:b,b:a", "--out", out]):
            result = runner.invoke(main, args)
            assert result.exit_code == 0, result.output
        with open(out) as fh:
            ab, ba = json.load(fh)["estimates"]
    for x, y in zip(ab["per_split_values"], ba["per_split_values"]):
        assert x * y == pytest.approx(1.0, abs=1e-12)


RESCALE_CFG = TrainConfig(lambda_grid=(0.0,), max_epochs=500, patience=500)


@settings(max_examples=12, deadline=None)
@given(seed=st.integers(0, 2), scales=st.lists(st.floats(0.1, 10.0), min_size=5, max_size=5))
def test_rescaling_features_keeps_the_estimate(seed, scales):
    """Unpenalized, the linear scorer absorbs any column scaling, so only the
    optimizer's stopping point can move the estimate."""
    tr, va, te = gauss_splits(2000, 3000, seed)

    def rescaled(d):
        return replace(d, features=FeatureMatrix(d.features.raw * np.asarray(scales)))

    base = fit(tr, va, RESCALE_CFG)
    scaled = fit(rescaled(tr), rescaled(va), RESCALE_CFG)
    assert {m["stop"] for m in base.lambda_metrics + scaled.lambda_metrics} == {"converged"}
    np.testing.assert_allclose(relative_prevalence(scaled.model, rescaled(te), "a", "b"),
                               relative_prevalence(base.model, te, "a", "b"), rtol=1e-2)


def unit_floats(size, low=-1.0, high=1.0):
    return st.lists(st.floats(low, high), min_size=size, max_size=size).map(np.array)


@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_soft_targets_do_not_change_gradient_differences(data):
    """The targets q enter ``fit_logistic``'s objective mean(softplus(z) - q*z)
    linearly, so the gradient difference between two points, an L-BFGS
    curvature pair, is the same for any q up to rounding. EM's M-steps share
    one L-BFGS memory on this ground."""
    n, d = data.draw(st.integers(1, 40)), data.draw(st.integers(1, 5))
    x = FeatureMatrix(data.draw(unit_floats(n * d)).reshape(n, d))
    points = [data.draw(unit_floats(d + 1, -3.0, 3.0)) for _ in range(2)]
    captured = []

    def capture(objective, params, max_iter, **_):
        captured.append(objective)
        return params, np.inf, 0, "budget"

    with mock.patch.object(baselines, "_lbfgs_fit", capture):
        for _ in range(2):
            targets = data.draw(unit_floats(n, 0.0, 1.0))
            baselines.fit_logistic(x, targets, x, targets.round(), TrainConfig())
    y = [objective(points[1])[1] - objective(points[0])[1] for objective in captured]
    np.testing.assert_allclose(y[0], y[1], rtol=0, atol=1e-12)


@settings(max_examples=50, deadline=None)
@given(data=st.data())
def test_l1_curvature_pairs_are_smooth_gradient_differences(data):
    """With an L1 term the solver keeps the objective smooth and adds the
    penalty itself, so each curvature pair it leaves is exact: ``s`` is the
    difference of two points the objective was called on, and ``y``, bit for
    bit, the difference of the smooth gradients there."""
    n, d = data.draw(st.integers(10, 40)), data.draw(st.integers(1, 4))
    x = data.draw(unit_floats(n * d, -3.0, 3.0)).reshape(n, d)
    group = np.arange(n) % 2
    s = np.asarray(data.draw(st.lists(st.integers(0, 1), min_size=n, max_size=n)))
    batch = LabeledDataset(FeatureMatrix(x), group, ["a", "b"], s)
    lam = data.draw(st.floats(1e-4, 1e-1))
    calls = []

    def objective(p):
        model = PurpleModel(p[:d], p[d], p[d + 1:], batch.group_names)
        f, gw, gb, gtheta = gradients(model, batch, 0.0, with_loss=True)
        calls.append((p.copy(), np.concatenate([gw, [gb], gtheta])))
        return f, calls[-1][1].copy()

    memory = []
    _lbfgs_fit(objective, np.zeros(d + 3), 30, l1=lam, n_l1=d, memory=memory)
    assert memory
    for step, y, _ in memory:
        assert any(np.array_equal(p1 - p0, step) and np.array_equal(g1 - g0, y)
                   for p0, g0 in calls for p1, g1 in calls)


# A logit of +-60 puts sigmoid within 1e-26 of 0 or 1, so a row's p lies on
# the clamp at PROB_FLOOR or at 1 - PROB_FLOOR. At 30 it lies 9e-14 below 1,
# where an unmasked negative row's gradient p (1 - f) / (1 - p) is not small.
logits = st.one_of(st.floats(-3.0, 3.0), st.sampled_from([-60.0, 30.0, 60.0]))


@st.composite
def kernel_cases(draw):
    """A model and a dense or CSR batch for the objective kernel. Up to four
    groups with any mix of labels, so some groups lack positives or
    negatives and some group ids have no rows; rows may lie on the clamp."""
    n, d, n_groups = draw(st.integers(1, 40)), draw(st.integers(1, 4)), draw(st.integers(1, 4))
    x = draw(unit_floats(n * d, -3.0, 3.0)).reshape(n, d)
    group = np.array(draw(st.lists(st.integers(0, n_groups - 1), min_size=n, max_size=n)))
    s = np.array(draw(st.lists(st.integers(0, 1), min_size=n, max_size=n)))
    names = [f"g{k}" for k in range(n_groups)]
    if draw(st.booleans()):
        x[draw(unit_floats(n * d, 0.0, 1.0)).reshape(n, d) < 0.5] = 0.0
        features = FeatureMatrix(sp.csr_matrix(x))
    else:
        features = FeatureMatrix(x)
    model = PurpleModel(draw(unit_floats(d, -2.0, 2.0)), draw(logits),
                        draw(st.lists(logits, min_size=n_groups, max_size=n_groups)), names)
    return model, LabeledDataset(features, group, names, s), draw(st.sampled_from([0.0, 1e-2]))


def assert_matches_reference(model, batch, lam):
    """``loss`` and ``gradients`` against the row-by-row reference to 1e-12
    relative. Each row adds at most 3 in size to a gradient entry (|x| <= 3,
    |dz| <= 1), so an entry that cancels to near 0 is held to 1e-12 absolute."""
    want = reference_objective(model, batch, lam)
    np.testing.assert_allclose(loss(model, batch, lam), want[0], rtol=1e-12)
    for got, ref in zip(gradients(model, batch, lam), want[1:]):
        np.testing.assert_allclose(got, ref, rtol=1e-12, atol=1e-12)


@settings(max_examples=300, deadline=None)
@given(case=kernel_cases(), data=st.data())
def test_kernel_matches_the_row_by_row_reference_in_any_row_order(case, data):
    model, batch, lam = case
    assert_matches_reference(model, batch, lam)
    order = np.array(data.draw(st.permutations(range(batch.n_rows))))
    shuffled = batch.take_rows(order)
    np.testing.assert_allclose(loss(model, shuffled, lam), loss(model, batch, lam), rtol=1e-12)
    for got, ref in zip(gradients(model, shuffled, lam), gradients(model, batch, lam)):
        np.testing.assert_allclose(got, ref, rtol=1e-12, atol=1e-12)


@pytest.mark.parametrize("sparse", [False, True])
def test_kernel_matches_the_reference_on_the_edge_cases(sparse):
    """One batch with every case the run kernel treats apart: rows on both
    clamps, a group without positives, one without negatives, and a group
    id without rows."""
    rng = np.random.default_rng(5)
    x = rng.uniform(-3.0, 3.0, (60, 4))
    x[rng.uniform(size=x.shape) < 0.3] = 0.0
    x[:4] = 7.375  # w.x + b = 30: score and c_g0 each 9e-14 below 1
    group = np.repeat([0, 1, 2, 3], 15)  # g4 has no rows
    s = rng.integers(0, 2, 60)
    s[15:30], s[30:45] = 0, 1  # g1 has no positives, g2 no negatives
    s[:4] = [1, 0, 1, 0]
    names = ["g0", "g1", "g2", "g3", "g4"]
    batch = LabeledDataset(FeatureMatrix(sp.csr_matrix(x) if sparse else x), group, names, s)
    model = PurpleModel(np.ones(4), 0.5, np.array([30.0, 0.3, -0.4, -60.0, 1.0]), names)
    p = predict_diagnosis(model, batch.features, batch.group)
    assert (p[:4] >= 1.0 - PROB_FLOOR).all() and (p[45:] <= PROB_FLOOR).all()
    for lam in (0.0, 1e-2):
        assert_matches_reference(model, batch, lam)
    assert gradients(model, batch, 0.0)[2][4] == 0.0


def classic_two_loop(g, pairs):
    """-H g over the scalar initial matrix ``(s.y / y.y) I`` of the newest
    pair, or I without pairs: the L-BFGS two-loop recursion before the
    solver took a diagonal initial matrix."""
    q = g.copy()
    alphas = []
    for s, y, rho in reversed(pairs):
        alphas.append(rho * (s @ q))
        q -= alphas[-1] * y
    if pairs:
        s, y, _ = pairs[-1]
        q *= (s @ y) / (y @ y)
    for (s, y, rho), alpha in zip(pairs, reversed(alphas)):
        q += (alpha - rho * (y @ q)) * s
    return -q


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_two_loop_with_unit_scale_is_the_classic_recursion(data):
    """With every ``scale`` entry 1.0, as on binary features, the diagonal
    initial matrix is the scalar one and ``_two_loop`` gives the classic
    recursion's result bit for bit."""
    n, k = data.draw(st.integers(1, 12)), data.draw(st.integers(0, 10))
    g = data.draw(unit_floats(n, -1e3, 1e3))
    pairs = []
    for _ in range(k):
        s, y = data.draw(unit_floats(n, -10.0, 10.0)), data.draw(unit_floats(n, -10.0, 10.0))
        if s @ y > 1e-8:
            pairs.append((s, y, 1.0 / (s @ y)))
    np.testing.assert_array_equal(_two_loop(g, pairs, np.ones(n)), classic_two_loop(g, pairs))


# ---------------------------------------------------------------------------
# Dataset files and splits

IO_PROPERTY = settings(max_examples=100, deadline=None)
# Rows per block while reading and writing .pu: tiny blocks put the block
# boundaries between the rows of a small example.
block_rows = st.sampled_from([1, 2, 3, data._PU_BLOCK_ROWS])
feature_values = st.one_of(
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e308, -1e308,
                     1.7976931348623157e308, 1.0]),
    st.floats(allow_nan=False, allow_infinity=False))


# Group names hold no space and no line break, which the format forbids, but
# may hold anything else: non-ASCII letters, colons, tabs, NULs and the
# Unicode line separators that reading a text file does not split at.
group_names = st.text("ab:é日\t\x00\x85\u2028", max_size=3)


@st.composite
def datasets(draw, sparse):
    """A small data set whose group table is in order of first appearance,
    as a loader builds it; ``sparse`` stores explicit zeros and ``-0.0``."""
    n, d = draw(st.integers(1, 12)), draw(st.integers(1, 5))
    raw = draw(st.lists(st.integers(0, 3), min_size=n, max_size=n))
    order = list(dict.fromkeys(raw))
    names = draw(st.lists(group_names, min_size=len(order), max_size=len(order), unique=True))
    group = np.array([order.index(g) for g in raw], dtype=np.int64)
    s = np.array(draw(st.lists(st.integers(0, 1), min_size=n, max_size=n)), dtype=np.int8)
    y = None
    if draw(st.booleans()):
        y = s | np.array(draw(st.lists(st.integers(0, 1), min_size=n, max_size=n)), dtype=np.int8)
    stored = np.array(draw(st.lists(st.booleans(), min_size=n * d, max_size=n * d)),
                      dtype=bool).reshape(n, d)
    values = draw(st.lists(feature_values, min_size=int(stored.sum()),
                           max_size=int(stored.sum())))
    if sparse:
        indptr = np.r_[0, np.cumsum(stored.sum(axis=1))]
        x = sp.csr_matrix((np.array(values, dtype=np.float64), np.nonzero(stored)[1], indptr),
                          shape=(n, d))
    else:
        x = np.zeros((n, d))
        x[stored] = values
    return LabeledDataset(FeatureMatrix(x), group, names, s, y)


@st.composite
def non_canonical(draw, m):
    """``m`` with each row's entries shuffled and ``-0.0`` duplicates added,
    which sum away exactly: ``v + -0.0`` is ``v`` for every ``v``."""
    data, indices, indptr = [], [], [0]
    for i in range(m.shape[0]):
        a, b = m.indptr[i], m.indptr[i + 1]
        row = list(zip(m.indices[a:b].tolist(), m.data[a:b].tolist()))
        row += [(j, -0.0) for j, _ in row if draw(st.booleans())]
        row = draw(st.permutations(row))
        indices += [j for j, _ in row]
        data += [v for _, v in row]
        indptr.append(len(indices))
    return sp.csr_matrix((np.array(data, dtype=np.float64), np.array(indices, dtype=np.int32),
                          np.array(indptr, dtype=np.int32)), shape=m.shape)


def reference_pu(dataset):
    """The ``.pu`` bytes of ``dataset``, written line by line: each row's
    stored entries (a dense row's nonzero ones) in ascending column order."""
    x = sp.csr_matrix(dataset.features.raw)
    lines = [f"#sparse d={dataset.n_dims}"]
    for i in range(dataset.n_rows):
        a, b = x.indptr[i], x.indptr[i + 1]
        y = "?" if dataset.y is None else int(dataset.y[i])
        lines.append(f"{dataset.group_names[dataset.group[i]]} {int(dataset.s[i])} {y}"
                     + "".join(f" {j}:{v!r}" for j, v in zip(x.indices[a:b].tolist(),
                                                               x.data[a:b].tolist())))
    return ("\n".join(lines) + "\n").encode()


def write_bytes(dataset, path):
    write_dataset(dataset, str(path))
    return path.read_bytes()


def assert_same_rows(back, dataset, bitwise=True):
    a, b = back.features.raw, dataset.features.raw
    if sp.issparse(b):
        for name in ("indptr", "indices"):
            np.testing.assert_array_equal(getattr(a, name), getattr(b, name))
        np.testing.assert_array_equal(a.data.view(np.uint64), b.data.view(np.uint64))
    else:
        got = back.features.dense_rows()
        if bitwise:
            got, b = got.view(np.uint64), b.view(np.uint64)
        np.testing.assert_array_equal(got, b)
    np.testing.assert_array_equal(back.group, dataset.group)
    assert back.group_names == dataset.group_names
    np.testing.assert_array_equal(back.s, dataset.s)
    assert (back.y is None) == (dataset.y is None)
    if dataset.y is not None:
        np.testing.assert_array_equal(back.y, dataset.y)


@IO_PROPERTY
@given(dataset=st.one_of(datasets(sparse=True), datasets(sparse=False)), rows=block_rows)
def test_pu_round_trip_is_exact(tmp_path_factory, dataset, rows):
    # Dense zeros, -0.0 among them, are not stored in .pu and load as 0.0.
    path = tmp_path_factory.mktemp("pu") / "d.pu"
    with mock.patch.object(data, "_PU_BLOCK_ROWS", rows):
        first = write_bytes(dataset, path)
        back = load_dataset(str(path))
        assert write_bytes(back, path) == first
    assert_same_rows(back, dataset, bitwise=dataset.features.is_sparse)


@IO_PROPERTY
@given(dataset=st.one_of(datasets(sparse=True), datasets(sparse=False)), rows=block_rows,
       shuffle=st.booleans(), draw=st.data())
def test_pu_bytes_equal_a_line_by_line_writer(tmp_path_factory, dataset, rows, shuffle, draw):
    path = tmp_path_factory.mktemp("pu") / "d.pu"
    expected = reference_pu(dataset)
    if shuffle and dataset.features.is_sparse:
        mangled = draw.draw(non_canonical(dataset.features.raw))
        dataset = replace(dataset, features=FeatureMatrix(mangled))
    with mock.patch.object(data, "_PU_BLOCK_ROWS", rows):
        assert write_bytes(dataset, path) == expected


def test_pu_writer_keeps_every_value_bit_when_a_block_has_one_value(tmp_path):
    """Blocks of 2 rows: the first holds only 1.0, the next 1.0, -0.0 and
    1e-320 in columns the first used, and the last a single entry."""
    rows = [[(0, 1.0), (2, 1.0)], [(1, 1.0)], [(0, 1.0), (1, -0.0)], [(0, 1e-320), (2, 1.0)],
            [(2, 1.0)]]
    x = sp.csr_matrix(([v for row in rows for _, v in row], [j for row in rows for j, _ in row],
                       np.r_[0, np.cumsum([len(row) for row in rows])]), shape=(len(rows), 3))
    dataset = LabeledDataset(FeatureMatrix(x), np.zeros(len(rows), dtype=np.int64), ["a"],
                             np.zeros(len(rows), dtype=np.int8))
    path = tmp_path / "d.pu"
    with mock.patch.object(data, "_PU_BLOCK_ROWS", 2):
        assert write_bytes(dataset, path) == reference_pu(dataset)
        back = load_dataset(str(path))
    assert_same_rows(back, dataset)


@IO_PROPERTY
@given(dataset=datasets(sparse=False))
def test_csv_round_trip_is_exact(tmp_path_factory, dataset):
    path = tmp_path_factory.mktemp("csv") / "d.csv"
    first = write_bytes(dataset, path)
    back = load_dataset(str(path))
    assert write_bytes(back, path) == first
    assert_same_rows(back, dataset)


D = 8
# The long values share their first or their last eight bytes, so a reader
# that groups equal tokens must compare them whole.
GOOD_ENTRY_VALUES = ["1", "1.0", "-2.5", "-0.0", "1e-320", "7", "0.1234567890123",
                     "9.1234567890123", "19.1234567890123", "0.1234567890124"]
# Malformed entries, then entries that int() and float() read in ways a
# byte-level reader could get wrong. "0:1" and f"{D - 1}:1" break the order
# unless placed well; the last two indices share their last eight bytes.
ODD_ENTRIES = ["3", "4:1:2", ":1", "1:", "x:1", "-1:1", "5:nan", "", f"{D}:1", "2:inf",
               "0:1", f"{D - 1}:1", "+2:1", "1_0:1", "007:1.0", "٣:1.0", "2:1_0", "2:0x1",
               "\t3:1.0", "99999999999999999999:1", "2:1e400", "000000000003:1",
               "100000000003:1"]
HEADS = ["a 0 ?", "b 1 ?", "a 1 1", "b 0 0", "é 0 ?", "日本 1 1", " 0 ?"]
BAD_HEADS = ["a 2 ?", "b 1 x", "a 00 ?", "a 0", "é"]


def first_fault(text):
    """The line-by-line reference: ``(line number, message)`` of the first
    line that breaks a ``.pu`` rule, or None. The header is valid and y is
    never mixed."""
    for lineno, line in enumerate(text.split("\n")[1:], start=2):
        if not line:
            continue
        fields = line.split(" ", 3)
        if len(fields) < 3:
            return lineno, f"expected '<g> <s> <y|?> ...', got {line!r}"
        if fields[1] not in ("0", "1"):
            return lineno, f"s must be 0 or 1, got {fields[1]!r}"
        if fields[2] not in ("0", "1", "?"):
            return lineno, f"y must be 0 or 1, got {fields[2]!r}"
        prev = -1
        for tok in fields[3].split(" ") if len(fields) == 4 else []:
            if ":" not in tok:
                return lineno, f"expected '<index>:<value>', got {tok!r}"
            i_str, v_str = tok.split(":", 1)
            try:
                i, v = int(i_str), float(v_str)
            except ValueError:
                return lineno, f"bad entry {tok!r}"
            if not 0 <= i < D:
                return lineno, f"index {i} outside [0, {D})"
            if not math.isfinite(v):
                return lineno, f"non-finite feature value in {tok!r}"
            if i <= prev:
                return lineno, "indices must be strictly ascending"
            prev = i
    return None


@st.composite
def pu_texts(draw):
    lines = [f"#sparse d={D}"]
    for _ in range(draw(st.integers(0, 7))):
        cols = sorted(draw(st.sets(st.integers(0, D - 1), max_size=4)))
        toks = [f"{j}:{draw(st.sampled_from(GOOD_ENTRY_VALUES))}" for j in cols]
        for _ in range(draw(st.integers(0, 1))):
            toks.insert(draw(st.integers(0, len(toks))), draw(st.sampled_from(ODD_ENTRIES)))
        if draw(st.booleans()) and len(toks) > 1:
            k = draw(st.integers(0, len(toks) - 2))
            toks[k], toks[k + 1] = toks[k + 1], toks[k]
        kind = draw(st.integers(0, 19))
        head = "" if kind == 0 else draw(st.sampled_from(BAD_HEADS if kind == 1 else HEADS))
        lines.append(" ".join([head] + toks) if head else "")
    # A file has y on every row or on none.
    if draw(st.booleans()):
        lines = [line.replace(" 1 1", " 1 ?").replace(" 0 0", " 0 ?") for line in lines]
    else:
        lines = [line.replace(" 0 ?", " 0 0").replace(" 1 ?", " 1 1") for line in lines]
    return "\n".join(lines) + draw(st.sampled_from(["\n", ""]))  # the last line may lack one


@IO_PROPERTY
@given(text=pu_texts(), rows=block_rows)
def test_malformed_pu_names_the_first_bad_line(tmp_path_factory, text, rows):
    """The load fails with the line and message of the reference's first
    fault or, if there is none, reads each entry as int() and float() do;
    with "\\r\\n" or "\\r" line ends it loads equal to the "\\n" version
    or fails the same way."""
    fault = first_fault(text)
    path = tmp_path_factory.mktemp("bad") / "d.pu"
    loaded = []
    with mock.patch.object(data, "_PU_BLOCK_ROWS", rows):
        for line_end in ("\n", "\r\n", "\r"):
            path.write_bytes(text.replace("\n", line_end).encode())
            if fault is None:
                loaded.append(load_dataset(str(path)))
            else:
                with pytest.raises(ParseError) as err:
                    load_dataset(str(path))
                assert str(err.value) == "line {}: {}".format(*fault)
    if loaded:  # each entry as int() and float() read it
        entries = [tok.split(":") for line in text.split("\n")[1:]
                   for tok in line.split(" ")[3:]]
        np.testing.assert_array_equal(loaded[0].features.raw.indices,
                                      [int(i) for i, _ in entries])
        np.testing.assert_array_equal(loaded[0].features.raw.data.view(np.uint64),
                                      np.array([float(v) for _, v in entries]).view(np.uint64))
    for back in loaded[1:]:
        assert_same_rows(back, loaded[0])


@IO_PROPERTY
@given(lines=st.lists(st.lists(st.tuples(st.booleans(), st.sampled_from(GOOD_ENTRY_VALUES)),
                               max_size=D), min_size=1, max_size=6), rows=block_rows)
def test_pu_tokens_are_compared_whole(tmp_path_factory, lines, rows):
    """Each distinct token of a block is converted once, so tokens that share
    their first or last eight bytes still read as int() and float() read
    them; an index may carry eleven leading zeros."""
    text = f"#sparse d={D}\n" + "".join(
        "a 0 ?" + "".join(f" {'0' * 11 * pad}{j}:{v}" for j, (pad, v) in enumerate(line)) + "\n"
        for line in lines)
    path = tmp_path_factory.mktemp("long") / "d.pu"
    path.write_text(text)
    with mock.patch.object(data, "_PU_BLOCK_ROWS", rows):
        got = load_dataset(str(path)).features.raw
    np.testing.assert_array_equal(got.indices, [j for line in lines for j in range(len(line))])
    want = np.array([float(v) for line in lines for _, v in line])
    np.testing.assert_array_equal(got.data.view(np.uint64), want.view(np.uint64))


@IO_PROPERTY
@given(sizes=st.lists(st.integers(3, 40), min_size=1, max_size=4), seed=seeds,
       repeat=st.integers(0, 2))
def test_split_indices_partition_each_group(sizes, seed, repeat):
    group = np.random.default_rng(seed).permutation(np.repeat(np.arange(len(sizes)), sizes))
    n = group.size
    dataset = LabeledDataset(FeatureMatrix(np.zeros((n, 1))), group,
                             [f"g{k}" for k in range(len(sizes))], np.zeros(n, dtype=np.int8))
    parts = split_indices(dataset, SplitSpec(seed=seed, n_repeats=3), repeat)
    for part in parts:
        assert np.all(np.diff(part) > 0)
    np.testing.assert_array_equal(np.sort(np.concatenate(parts)), np.arange(n))
    for gid, size in enumerate(sizes):
        _, val, test = (np.count_nonzero(group[part] == gid) for part in parts)
        assert (val, test) == (math.floor(0.2 * size), math.floor(0.2 * size))


@st.composite
def csr_matrices(draw):
    """A CSR matrix with zero or more rows, empty rows and columns, and
    column indices that may be unsorted or repeated within a row."""
    n, d = draw(st.integers(0, 10)), draw(st.integers(1, 6))
    counts = draw(st.lists(st.integers(0, 2 * d), min_size=n, max_size=n))
    nnz = sum(counts)
    indices = draw(st.lists(st.integers(0, d - 1), min_size=nnz, max_size=nnz))
    values = draw(st.lists(st.floats(-1e6, 1e6), min_size=nnz, max_size=nnz))
    indptr = np.r_[0, np.cumsum(counts)].astype(np.int32)
    return sp.csr_matrix((np.array(values, dtype=np.float64),
                          np.array(indices, dtype=np.int32), indptr), shape=(n, d))


def vectors(size):
    return st.lists(st.floats(-1e6, 1e6), min_size=size, max_size=size).map(np.array)


def assert_rtvec_is_scipy_bits(features, r):
    want = np.asarray(features.raw.T @ r).ravel()
    assert features.rtvec(r).tobytes() == want.tobytes()


@IO_PROPERTY
@given(data=st.data())
def test_rtvec_equals_scipy_transposed_product_bitwise(data):
    m = data.draw(csr_matrices())
    n, d = m.shape
    features = FeatureMatrix(m)
    for _ in range(3):  # the transpose built by the first call serves the rest
        assert_rtvec_is_scipy_bits(features, data.draw(vectors(n)))
    rows = np.array(data.draw(st.lists(st.integers(0, n - 1), max_size=8)) if n else [],
                    dtype=np.intp)
    child = features.take_rows(rows)
    assert_rtvec_is_scipy_bits(child, data.draw(vectors(rows.size)))
    cols = data.draw(st.lists(st.integers(0, d - 1), max_size=d - 1, unique=True))
    reduced, _ = features.drop_columns(cols)
    r = data.draw(vectors(n))
    assert_rtvec_is_scipy_bits(reduced, r)
    keep = np.setdiff1d(np.arange(d), cols)
    assert reduced.rtvec(r).tobytes() == np.asarray(m[:, keep].T @ r).ravel().tobytes()
    assert_rtvec_is_scipy_bits(features, r)  # the parent's own transpose is unchanged
