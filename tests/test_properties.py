"""Invariants checked on generated inputs: the full-batch fit, CLI
estimates, dataset file round trips and parse errors, and splitting.

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

from purple import data
from purple.cli import main
from purple.data import (FeatureMatrix, LabeledDataset, ParseError, SplitSpec, load_dataset,
                         split, split_indices, write_dataset)
from purple.gauss import GaussSynthConfig, generate_gauss
from purple.model import TrainConfig, fit, relative_prevalence

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


@st.composite
def datasets(draw, sparse):
    """A small data set whose group table is in order of first appearance,
    as a loader builds it; ``sparse`` stores explicit zeros and ``-0.0``."""
    n, d = draw(st.integers(1, 12)), draw(st.integers(1, 5))
    raw = draw(st.lists(st.integers(0, 3), min_size=n, max_size=n))
    order = list(dict.fromkeys(raw))
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
    return LabeledDataset(FeatureMatrix(x), group, [f"g{k}" for k in range(len(order))], s, y)


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
@given(dataset=datasets(sparse=False))
def test_csv_round_trip_is_exact(tmp_path_factory, dataset):
    path = tmp_path_factory.mktemp("csv") / "d.csv"
    first = write_bytes(dataset, path)
    back = load_dataset(str(path))
    assert write_bytes(back, path) == first
    assert_same_rows(back, dataset)


D = 8
GOOD_ENTRY_VALUES = ["1", "1.0", "-2.5", "-0.0", "1e-320", "7"]
BAD_ENTRIES = ["3", "4:1:2", ":1", "1:", "x:1", "-1:1", "5:nan", "", f"{D}:1", "2:inf",
               "0:1", f"{D - 1}:1"]  # the last two break the order unless placed well
HEADS = ["a 0 ?", "b 1 ?", "a 1 1", "b 0 0"]


def first_bad_line(text):
    """The line-by-line reference: the number of the first line that breaks
    a ``.pu`` rule, or None. The header is valid and y is never mixed."""
    for lineno, line in enumerate(text.split("\n")[1:], start=2):
        if not line:
            continue
        prev = -1
        for tok in line.split(" ")[3:]:
            if ":" not in tok:
                return lineno
            i_str, v_str = tok.split(":", 1)
            try:
                i, v = int(i_str), float(v_str)
            except ValueError:
                return lineno
            if not (0 <= i < D and math.isfinite(v) and i > prev):
                return lineno
            prev = i
    return None


@st.composite
def pu_texts(draw):
    lines = [f"#sparse d={D}"]
    for _ in range(draw(st.integers(0, 7))):
        cols = sorted(draw(st.sets(st.integers(0, D - 1), max_size=4)))
        toks = [f"{j}:{draw(st.sampled_from(GOOD_ENTRY_VALUES))}" for j in cols]
        for _ in range(draw(st.integers(0, 1))):
            toks.insert(draw(st.integers(0, len(toks))), draw(st.sampled_from(BAD_ENTRIES)))
        if draw(st.booleans()) and len(toks) > 1:
            k = draw(st.integers(0, len(toks) - 2))
            toks[k], toks[k + 1] = toks[k + 1], toks[k]
        head = "" if draw(st.integers(0, 9)) == 0 else draw(st.sampled_from(HEADS))
        lines.append(" ".join([head] + toks) if head else "")
    # A file has y on every row or on none.
    if draw(st.booleans()):
        lines = [line.replace(" 1 1", " 1 ?").replace(" 0 0", " 0 ?") for line in lines]
    else:
        lines = [line.replace(" 0 ?", " 0 0").replace(" 1 ?", " 1 1") for line in lines]
    return "\n".join(lines) + "\n"


@IO_PROPERTY
@given(text=pu_texts(), rows=block_rows)
def test_malformed_pu_names_the_first_bad_line(tmp_path_factory, text, rows):
    path = tmp_path_factory.mktemp("bad") / "d.pu"
    path.write_text(text)
    bad = first_bad_line(text)
    with mock.patch.object(data, "_PU_BLOCK_ROWS", rows):
        if bad is None:
            load_dataset(str(path))
        else:
            with pytest.raises(ParseError, match=f"^line {bad}: "):
                load_dataset(str(path))


@IO_PROPERTY
@given(sizes=st.lists(st.integers(3, 40), min_size=1, max_size=4), seed=seeds,
       repeat=st.integers(0, 2), fv=st.floats(0.05, 0.45), ft=st.floats(0.05, 0.45))
def test_split_indices_partition_each_group(sizes, seed, repeat, fv, ft):
    group = np.random.default_rng(seed).permutation(np.repeat(np.arange(len(sizes)), sizes))
    n = group.size
    dataset = LabeledDataset(FeatureMatrix(np.zeros((n, 1))), group,
                             [f"g{k}" for k in range(len(sizes))], np.zeros(n, dtype=np.int8))
    spec = SplitSpec((1.0 - fv - ft, fv, ft), seed=seed, n_repeats=3)
    parts = split_indices(dataset, spec, repeat)
    for part in parts:
        assert np.all(np.diff(part) > 0)
    np.testing.assert_array_equal(np.sort(np.concatenate(parts)), np.arange(n))
    for gid, size in enumerate(sizes):
        _, val, test = (np.count_nonzero(group[part] == gid) for part in parts)
        assert (val, test) == (math.floor(fv * size), math.floor(ft * size))


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
