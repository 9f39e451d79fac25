import os
import re

import numpy as np
import pytest
import scipy.sparse as sp

from purple.data import (
    FeatureMatrix,
    LabeledDataset,
    ParseError,
    SplitSpec,
    load_dataset,
    split,
    split_indices,
    write_dataset,
)


def make_dataset(n_per_group=(10, 10), seed=0, d=3):
    rng = np.random.default_rng(seed)
    n = sum(n_per_group)
    x = rng.standard_normal((n, d))
    group = np.repeat(np.arange(len(n_per_group)), n_per_group)
    s = rng.integers(0, 2, size=n).astype(np.int8)
    names = [chr(ord("a") + i) for i in range(len(n_per_group))]
    return LabeledDataset(FeatureMatrix(x), group, names, s)


class TestFeatureMatrix:
    def test_dense_sparse_dot_agreement(self):
        rng = np.random.default_rng(3)
        dense = rng.standard_normal((40, 7))
        dense[rng.uniform(size=dense.shape) < 0.6] = 0.0
        w = rng.standard_normal(7)
        fd = FeatureMatrix(dense)
        fs = FeatureMatrix(sp.csr_matrix(dense))
        np.testing.assert_allclose(fd.matvec(w), fs.matvec(w), rtol=1e-12, atol=1e-12)
        r = rng.standard_normal(40)
        np.testing.assert_allclose(fd.rtvec(r), fs.rtvec(r), rtol=1e-12, atol=1e-12)

    def test_column_counts_and_binary(self):
        m = FeatureMatrix(np.array([[1.0, 0.0], [1.0, 1.0], [0.0, 0.0]]))
        np.testing.assert_array_equal(m.column_counts(), [2, 1])
        assert m.is_binary()
        assert not FeatureMatrix(np.array([[0.5]])).is_binary()

    def test_binary_reads_repeated_csr_entries_summed(self):
        # Two stored 1.0 at one position are one 2.0 to the products, so the
        # matrix is not binary; two stored 0.5 are one 1.0, so it is.
        def one_row(values, cols):
            return FeatureMatrix(sp.csr_matrix(
                (np.array(values), np.array(cols), np.array([0, len(cols)])), shape=(1, 2)))

        doubled = one_row([1.0, 1.0, 1.0], [0, 0, 1])
        assert not doubled.raw.has_canonical_format
        np.testing.assert_array_equal(doubled.column_mean_square(), [4.0, 1.0])
        assert not doubled.is_binary()
        assert one_row([0.5, 0.5, 1.0], [0, 0, 1]).is_binary()
        assert not doubled.raw.has_canonical_format  # the stored matrix is left as it is

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("sparse", [False, True])
    def test_non_finite_values_rejected(self, bad, sparse):
        x = np.zeros((3, 2))
        x[1, 1] = bad
        with pytest.raises(ValueError, match="feature values must be finite"):
            FeatureMatrix(sp.csr_matrix(x) if sparse else x)

    def test_rtvec_of_zero_rows_is_zero(self):
        out = FeatureMatrix(sp.csr_matrix((0, 3))).rtvec(np.empty(0))
        assert out.tobytes() == np.zeros(3).tobytes()

    def test_drop_columns_remap(self):
        m = FeatureMatrix(np.arange(12, dtype=float).reshape(3, 4))
        reduced, index_map = m.drop_columns([1])
        assert reduced.n_dims == 3
        np.testing.assert_array_equal(index_map, [0, -1, 1, 2])
        np.testing.assert_array_equal(reduced.dense_rows()[:, 1], m.dense_rows()[:, 2])


class TestDatasetInvariants:
    def test_rejects_bad_s(self):
        with pytest.raises(ValueError, match="s must be 0 or 1"):
            LabeledDataset(FeatureMatrix(np.zeros((2, 1))), [0, 0], ["a"], [0, 2])

    def test_rejects_false_positive_rows(self):
        with pytest.raises(ValueError, match="false positives"):
            LabeledDataset(FeatureMatrix(np.zeros((2, 1))), [0, 0], ["a"],
                           s=[1, 0], y=[0, 0])

    def test_rejects_group_out_of_range(self):
        with pytest.raises(ValueError, match="name table"):
            LabeledDataset(FeatureMatrix(np.zeros((2, 1))), [0, 1], ["a"], [0, 0])


class TestDenseCsv:
    def test_single_row_example(self, tmp_path):
        p = tmp_path / "d.csv"
        p.write_text("g,s,y,x0,x1\na,1,1,0.5,-1.0\n")
        data = load_dataset(str(p))
        assert data.n_rows == 1 and data.n_dims == 2
        assert data.group_names[data.group[0]] == "a"
        assert data.s[0] == 1 and data.y[0] == 1
        np.testing.assert_array_equal(data.features.dense_rows()[0], [0.5, -1.0])

    def test_unknown_y_marker(self, tmp_path):
        p = tmp_path / "d.csv"
        p.write_text("g,s,y,x0\na,0,?,1.5\nb,1,?,0.0\n")
        data = load_dataset(str(p))
        assert data.y is None

    def test_bad_s_names_line(self, tmp_path):
        p = tmp_path / "d.csv"
        p.write_text("g,s,y,x0\na,1,1,0.0\na,2,1,0.0\n")
        with pytest.raises(ParseError, match="line 3"):
            load_dataset(str(p))

    def test_wrong_arity(self, tmp_path):
        p = tmp_path / "d.csv"
        p.write_text("g,s,y,x0,x1\na,1,1,0.5\n")
        with pytest.raises(ParseError, match="line 2"):
            load_dataset(str(p))

    def test_mixed_y_rejected(self, tmp_path):
        p = tmp_path / "d.csv"
        p.write_text("g,s,y,x0\na,1,1,0.0\na,0,?,0.0\n")
        with pytest.raises(ParseError, match="some rows"):
            load_dataset(str(p))

    @pytest.mark.parametrize("bad", ["nan", "inf", "-inf"])
    def test_non_finite_feature_rejected(self, tmp_path, bad):
        p = tmp_path / "d.csv"
        p.write_text(f"g,s,y,x0,x1\na,1,1,0.0,1.0\nb,0,0,0.5,{bad}\n")
        with pytest.raises(ParseError, match="line 3: non-finite"):
            load_dataset(str(p))


class TestSparsePu:
    def test_sparse_row_example(self, tmp_path):
        p = tmp_path / "d.pu"
        p.write_text("#sparse d=20\nb 0 ? 3:1 17:1\n")
        data = load_dataset(str(p))
        assert data.n_rows == 1 and data.n_dims == 20
        assert data.y is None
        row = data.features.dense_rows()[0]
        assert row[3] == 1 and row[17] == 1 and row.sum() == 2

    def test_index_out_of_range(self, tmp_path):
        p = tmp_path / "d.pu"
        p.write_text("#sparse d=5\na 0 ? 5:1\n")
        with pytest.raises(ParseError, match="line 2"):
            load_dataset(str(p))

    def test_index_tokens_read_as_int_reads_them(self, tmp_path):
        # 1 to 8 ASCII digits are read by arithmetic, every other index by int().
        tokens = ["99999999", "00000007", "000000007", "100000000", "+7"]
        p = tmp_path / "d.pu"
        p.write_text("#sparse d=1000000000\n" + "".join(f"a 0 ? {t}:1\n" for t in tokens))
        got = load_dataset(str(p)).features.raw
        np.testing.assert_array_equal(got.indices, [int(t) for t in tokens])
        np.testing.assert_array_equal(got.indptr, np.arange(len(tokens) + 1))

    @pytest.mark.parametrize("d,token", [(99999999, "99999999"), (7, "00000007")])
    def test_eight_digit_index_outside_names_its_line_and_value(self, tmp_path, d, token):
        p = tmp_path / "d.pu"
        p.write_text(f"#sparse d={d}\na 0 ? 1:1\na 0 ? 2:1 {token}:1\n")
        with pytest.raises(ParseError) as err:
            load_dataset(str(p))
        assert str(err.value) == f"line 3: index {int(token)} outside [0, {d})"

    def test_non_ascending_indices(self, tmp_path):
        p = tmp_path / "d.pu"
        p.write_text("#sparse d=5\na 0 ? 3:1 2:1\n")
        with pytest.raises(ParseError, match="ascending"):
            load_dataset(str(p))

    @pytest.mark.parametrize("data,indices,indptr,canonical", [
        ([1.0, 2.0], [3, 1], [0, 2, 2], [[0.0, 2.0, 0.0, 1.0, 0.0], [0.0] * 5]),
        ([1.0, 2.0, 4.0], [3, 1, 1], [0, 1, 3], [[0.0, 0.0, 0.0, 1.0, 0.0],
                                                  [0.0, 6.0, 0.0, 0.0, 0.0]]),
    ], ids=["unsorted", "duplicate"])
    def test_non_canonical_csr_written_canonical(self, tmp_path, data, indices, indptr,
                                                 canonical):
        def dataset(m):
            return LabeledDataset(FeatureMatrix(m), np.array([0, 1]), ["a", "b"],
                                  np.array([1, 0], dtype=np.int8))

        m = sp.csr_matrix((data, indices, indptr), shape=(2, 5))
        assert not m.has_canonical_format
        write_dataset(dataset(m), str(tmp_path / "raw.pu"))
        write_dataset(dataset(sp.csr_matrix(np.array(canonical))), str(tmp_path / "ok.pu"))
        assert (tmp_path / "raw.pu").read_bytes() == (tmp_path / "ok.pu").read_bytes()
        back = load_dataset(str(tmp_path / "raw.pu"))
        np.testing.assert_array_equal(back.features.dense_rows(), canonical)
        np.testing.assert_array_equal(m.indices, indices)  # the input is left as it was

    @pytest.mark.parametrize("bad", ["nan", "inf", "-inf"])
    def test_non_finite_feature_rejected(self, tmp_path, bad):
        p = tmp_path / "d.pu"
        p.write_text(f"#sparse d=5\na 0 ? 1:1\na 1 ? 0:2 4:{bad}\n")
        with pytest.raises(ParseError, match="line 3: non-finite"):
            load_dataset(str(p))

    def test_missing_header(self, tmp_path):
        p = tmp_path / "d.pu"
        p.write_text("a 0 ? 1:1\n")
        with pytest.raises(ParseError, match="line 1"):
            load_dataset(str(p))

    def test_negative_dimensionality(self, tmp_path):
        p = tmp_path / "d.pu"
        p.write_text("#sparse d=-1\na 0 ?\n")
        with pytest.raises(ParseError, match="line 1: bad dimensionality"):
            load_dataset(str(p))

    @pytest.mark.parametrize("d", [2**63, 99999999999999999999999])
    def test_dimensionality_beyond_int64(self, tmp_path, d):
        p = tmp_path / "d.pu"
        p.write_text(f"#sparse d={d}\na 0 ? 3:1\n")
        with pytest.raises(ParseError) as err:
            load_dataset(str(p))
        assert str(err.value) == f"line 1: bad dimensionality in '#sparse d={d}'"

    def test_largest_int64_dimensionality_loads(self, tmp_path):
        p = tmp_path / "d.pu"
        p.write_text(f"#sparse d={2**63 - 1}\na 0 ? 3:1\n")
        assert load_dataset(str(p)).n_dims == 2**63 - 1

    @pytest.mark.parametrize("name", ["d.txt", "d", "d.pu.gz"])
    def test_unknown_extension_rejected(self, tmp_path, name):
        ext = repr(os.path.splitext(name)[1])
        with pytest.raises(ValueError, match=f"extension {ext}"):
            load_dataset(str(tmp_path / name))
        data = LabeledDataset(FeatureMatrix(np.zeros((1, 1))), [0], ["a"], [0])
        with pytest.raises(ValueError, match=f"extension {ext}"):
            write_dataset(data, str(tmp_path / name))
        assert not (tmp_path / name).exists()


class TestRoundTrip:
    @pytest.mark.parametrize("fmt,ext", [("dense-csv", "csv"), ("sparse-pu", "pu")])
    def test_write_then_load(self, tmp_path, fmt, ext):
        rng = np.random.default_rng(7)
        x = rng.standard_normal((30, 4))
        x[rng.uniform(size=x.shape) < 0.5] = 0.0
        data = LabeledDataset(FeatureMatrix(x), rng.integers(0, 2, 30), ["a", "b"],
                              s=np.zeros(30, dtype=np.int8),
                              y=np.zeros(30, dtype=np.int8))
        p = tmp_path / f"d.{ext}"
        write_dataset(data, str(p))
        back = load_dataset(str(p))
        np.testing.assert_allclose(back.features.dense_rows(), x, rtol=1e-12, atol=0)
        np.testing.assert_array_equal(back.s, data.s)
        np.testing.assert_array_equal(back.y, data.y)
        np.testing.assert_array_equal(back.group, data.group)
        assert back.group_names == data.group_names

    @pytest.mark.parametrize("ext,name", [("pu", "a b"), ("pu", "a\nb"), ("pu", "a\rb"),
                                          ("csv", "a,b"), ("csv", "a\nb"), ("csv", "a\rb")])
    def test_unwritable_group_name_rejected(self, tmp_path, ext, name):
        data = make_dataset((3, 3))
        data.group_names[1] = name
        p = tmp_path / f"d.{ext}"
        with pytest.raises(ValueError, match=re.escape(f"group name {name!r}")):
            write_dataset(data, str(p))
        assert not p.exists()

    # A file records each row's group, so a name with no rows would not load
    # back, and the ids of the names after it would shift.
    @pytest.mark.parametrize("ext", ["pu", "csv"])
    @pytest.mark.parametrize("sizes, empty", [((0, 3), "a"), ((3, 0), "b")])
    def test_group_without_rows_rejected(self, tmp_path, ext, sizes, empty):
        p = tmp_path / f"d.{ext}"
        with pytest.raises(ValueError, match=re.escape(f"group name {empty!r} cannot be "
                                                       "written") + ".*no row is in that group"):
            write_dataset(make_dataset(sizes), str(p))
        assert not p.exists()

    @pytest.mark.parametrize("ext,name", [("pu", "a,b"), ("csv", "a b")])
    def test_other_format_separator_round_trips(self, tmp_path, ext, name):
        data = make_dataset((3, 3))
        data.group_names[1] = name
        p = tmp_path / f"d.{ext}"
        write_dataset(data, str(p))
        assert load_dataset(str(p)).group_names == ["a", name]

    def test_rewrite_is_byte_identical(self, tmp_path):
        rng = np.random.default_rng(11)
        x = rng.standard_normal((20, 3))
        data = LabeledDataset(FeatureMatrix(x), rng.integers(0, 2, 20), ["a", "b"],
                              s=rng.integers(0, 2, 20))
        p1, p2 = tmp_path / "one.csv", tmp_path / "two.csv"
        write_dataset(data, str(p1))
        write_dataset(load_dataset(str(p1)), str(p2))
        assert p1.read_bytes() == p2.read_bytes()


class TestSplit:
    def test_sizes_single_group(self):
        data = make_dataset((10,))
        tr, va, te = split(data, SplitSpec(seed=0), 0)
        assert (tr.n_rows, va.n_rows, te.n_rows) == (6, 2, 2)

    def test_deterministic(self):
        data = make_dataset((50, 50))
        a = split_indices(data, SplitSpec(seed=3), 1)
        b = split_indices(data, SplitSpec(seed=3), 1)
        for x, y in zip(a, b):
            np.testing.assert_array_equal(x, y)

    def test_repeats_differ(self):
        data = make_dataset((50, 50))
        a = split_indices(data, SplitSpec(seed=0), 0)
        b = split_indices(data, SplitSpec(seed=0), 1)
        assert not np.array_equal(a[0], b[0])

    def test_is_partition(self):
        data = make_dataset((17, 23))
        tr, va, te = split_indices(data, SplitSpec(seed=5), 2)
        merged = np.concatenate([tr, va, te])
        np.testing.assert_array_equal(np.sort(merged), np.arange(40))

    def test_stratified_by_group(self):
        data = make_dataset((40, 80))
        tr, va, te = split(data, SplitSpec(seed=1), 0)
        for part, frac in ((tr, 0.6), (va, 0.2), (te, 0.2)):
            assert int((part.group == 0).sum()) == int(frac * 40)
            assert int((part.group == 1).sum()) == int(frac * 80)

    def test_small_group_rejected(self):
        data = make_dataset((2, 30))
        with pytest.raises(ValueError, match="cannot stratify"):
            split_indices(data, SplitSpec(seed=0), 0)

    def test_repeat_index_bound(self):
        data = make_dataset((10,))
        with pytest.raises(ValueError, match="repeat_index"):
            split_indices(data, SplitSpec(seed=0, n_repeats=5), 5)

    def test_group_s_rate_preserved_within_noise(self):
        # 3 binomial standard errors on each partition's per-group s-rate.
        rng = np.random.default_rng(0)
        n = 12000
        x = rng.standard_normal((n, 2))
        group = rng.integers(0, 2, n)
        rate = np.where(group == 0, 0.3, 0.6)
        s = (rng.uniform(size=n) < rate).astype(np.int8)
        data = LabeledDataset(FeatureMatrix(x), group, ["a", "b"], s)
        overall = {g: s[group == g].mean() for g in (0, 1)}
        for part in split(data, SplitSpec(seed=2), 0):
            for g in (0, 1):
                mask = part.group == g
                se = np.sqrt(overall[g] * (1 - overall[g]) / mask.sum())
                assert abs(part.s[mask].mean() - overall[g]) < 3 * se
