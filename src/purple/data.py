"""Grouped positive-unlabeled datasets: in-memory model, file I/O, splitting.

Two on-disk formats are supported:

* ``dense-csv`` -- header ``g,s,y,x0,...,x{d-1}``; the ``y`` column may hold
  ``?`` for unknown true labels.
* ``sparse-pu`` -- first line ``#sparse d=<dims>``; each data row is
  ``<g> <s> <y|?> <i>:<v> <i>:<v> ...`` with strictly ascending indices.

Feature values must be finite in both; ``nan`` and ``inf`` are parse errors.

Group identifiers are stored as dense small integers plus a name table;
all reports and files use the names.
"""

from __future__ import annotations

import math
import os
import sys
from dataclasses import dataclass
from itertools import islice, repeat
from typing import Sequence

import numpy as np


def _is_sparse(values) -> bool:
    """Whether ``values`` is a scipy sparse matrix, without importing scipy.

    No sparse matrix can exist before ``scipy.sparse`` is imported, so a
    process that never loaded it holds none.
    """
    sparse = sys.modules.get("scipy.sparse")
    return sparse is not None and sparse.issparse(values)


def _scipy_sparse():
    """``scipy.sparse``, imported on first use, so dense work never loads scipy."""
    import scipy.sparse

    return scipy.sparse


class ParseError(ValueError):
    """A dataset file violated its format contract."""


class FeatureMatrix:
    """Row-major feature storage, either dense ``ndarray`` or CSR sparse.

    Both storages expose the same small interface so downstream code never
    branches on the representation; dot products agree to float64 accuracy.
    Every value must be finite.
    """

    def __init__(self, values):
        if _is_sparse(values):
            self._m = values.tocsr().astype(np.float64, copy=False)
            stored = self._m.data
        else:
            stored = self._m = np.asarray(values, dtype=np.float64)
            if stored.ndim != 2:
                raise ValueError("feature matrix must be 2-dimensional")
        if not np.isfinite(stored).all():
            raise ValueError("feature values must be finite")
        self._t = None  # the transpose, built by the first rtvec

    @property
    def n_rows(self) -> int:
        return self._m.shape[0]

    @property
    def n_dims(self) -> int:
        return self._m.shape[1]

    @property
    def is_sparse(self) -> bool:
        return _is_sparse(self._m)

    @property
    def raw(self):
        """The underlying ndarray or CSR matrix (read-only by convention:
        ``rtvec`` keeps a transpose of it)."""
        return self._m

    def matvec(self, w: np.ndarray) -> np.ndarray:
        """Row-wise dot products ``X @ w`` as a dense vector."""
        out = self._m @ np.asarray(w, dtype=np.float64)
        return np.asarray(out).ravel()

    def rtvec(self, r: np.ndarray) -> np.ndarray:
        """Transposed product ``X.T @ r`` as a dense vector.

        CSR storage keeps its transpose as a second CSR matrix, built on the
        first call (about 12 bytes per stored entry), so every product is a
        row-major pass rather than a scatter. Each output entry still sums
        its terms in ascending row order from 0.0, so the result is the same
        bits as ``X.T @ r`` on the CSR matrix itself.
        """
        if self._t is None:
            self._t = self._m.T.tocsr() if self.is_sparse else self._m.T
        out = self._t @ np.asarray(r, dtype=np.float64)
        return np.asarray(out).ravel()

    def take_rows(self, idx: np.ndarray) -> "FeatureMatrix":
        return FeatureMatrix(self._m[np.asarray(idx)])

    def column_counts(self, row_mask: np.ndarray | None = None) -> np.ndarray:
        """Number of rows with a nonzero entry per column."""
        m = self._m if row_mask is None else self._m[np.asarray(row_mask)]
        if self.is_sparse:
            return np.asarray((m != 0).sum(axis=0)).ravel()
        return np.count_nonzero(m, axis=0)

    def is_binary(self) -> bool:
        vals = self._m.data if self.is_sparse else self._m
        return bool(np.all((vals == 0.0) | (vals == 1.0)))

    def drop_columns(self, cols: Sequence[int]) -> tuple["FeatureMatrix", np.ndarray]:
        """Remove columns, returning the reduced matrix and an index map.

        ``index_map[old] == new`` for kept columns, ``-1`` for dropped ones.
        """
        drop = np.zeros(self.n_dims, dtype=bool)
        drop[np.asarray(list(cols), dtype=np.intp)] = True
        keep = np.flatnonzero(~drop)
        index_map = np.full(self.n_dims, -1, dtype=np.int64)
        index_map[keep] = np.arange(keep.size)
        return FeatureMatrix(self._m[:, keep]), index_map

    def dense_rows(self) -> np.ndarray:
        if self.is_sparse:
            return self._m.toarray()
        return self._m


@dataclass
class LabeledDataset:
    """Rows of (features, group, observed label s, optional true label y).

    ``latent_p`` holds the generator's ground-truth p(y=1|x) and exists only
    on generated data. ``gen_info`` carries generator provenance (seed and
    per-group labeling frequencies) needed by downstream transforms.
    """

    features: FeatureMatrix
    group: np.ndarray
    group_names: list[str]
    s: np.ndarray
    y: np.ndarray | None = None
    latent_p: np.ndarray | None = None
    gen_info: dict | None = None

    def __post_init__(self):
        self.group = np.asarray(self.group, dtype=np.int64)
        self.s = np.asarray(self.s, dtype=np.int8)
        n = self.features.n_rows
        if self.group.shape != (n,) or self.s.shape != (n,):
            raise ValueError("group/s length does not match feature rows")
        if not np.all((self.s == 0) | (self.s == 1)):
            raise ValueError("observed label s must be 0 or 1")
        if n and (self.group.min() < 0 or self.group.max() >= len(self.group_names)):
            raise ValueError("group id outside the name table")
        if self.y is not None:
            self.y = np.asarray(self.y, dtype=np.int8)
            if self.y.shape != (n,):
                raise ValueError("y length does not match feature rows")
            if not np.all((self.y == 0) | (self.y == 1)):
                raise ValueError("true label y must be 0 or 1")
            if np.any((self.s == 1) & (self.y == 0)):
                raise ValueError("dataset has s=1 rows with y=0 (false positives)")
        if self.latent_p is not None:
            self.latent_p = np.asarray(self.latent_p, dtype=np.float64)
            if self.latent_p.shape != (n,):
                raise ValueError("latent_p length does not match feature rows")

    @property
    def n_rows(self) -> int:
        return self.features.n_rows

    @property
    def n_dims(self) -> int:
        return self.features.n_dims

    def group_id(self, name: str) -> int:
        try:
            return self.group_names.index(name)
        except ValueError:
            raise KeyError(f"unknown group {name!r}") from None

    def group_mask(self, name: str) -> np.ndarray:
        return self.group == self.group_id(name)

    def take_rows(self, idx: np.ndarray) -> "LabeledDataset":
        idx = np.asarray(idx)
        return LabeledDataset(
            features=self.features.take_rows(idx),
            group=self.group[idx],
            group_names=list(self.group_names),
            s=self.s[idx],
            y=None if self.y is None else self.y[idx],
            latent_p=None if self.latent_p is None else self.latent_p[idx],
            gen_info=self.gen_info,
        )

    def present_groups(self) -> list[int]:
        return sorted(np.unique(self.group).tolist())


@dataclass(frozen=True)
class SplitSpec:
    """Deterministic train/val/test splitting, stratified by group."""

    fractions: tuple[float, float, float] = (0.6, 0.2, 0.2)
    seed: int = 0
    n_repeats: int = 5

    def __post_init__(self):
        f = self.fractions
        if len(f) != 3 or any(not (0.0 < x < 1.0) for x in f):
            raise ValueError("fractions must each lie in (0, 1)")
        if abs(sum(f) - 1.0) > 1e-9:
            raise ValueError("fractions must sum to 1")
        if self.n_repeats < 1:
            raise ValueError("n_repeats must be positive")


def split_indices(data: LabeledDataset, spec: SplitSpec, repeat_index: int):
    """Partition row indices into (train, val, test), stratified by group.

    The shuffle is a pure function of ``(spec.seed, repeat_index)``. Within
    each group the val/test sizes are floored and the remainder goes to
    train. Each returned index array is sorted ascending.
    """
    if repeat_index >= spec.n_repeats or repeat_index < 0:
        raise ValueError(f"repeat_index {repeat_index} outside n_repeats {spec.n_repeats}")
    rng = np.random.default_rng(np.random.SeedSequence([int(spec.seed), int(repeat_index)]))
    _, fv, ft = spec.fractions
    train_parts, val_parts, test_parts = [], [], []
    for gid in range(len(data.group_names)):
        rows = np.flatnonzero(data.group == gid)
        if rows.size == 0:
            continue
        if rows.size < 3:
            raise ValueError(
                f"group {data.group_names[gid]!r} has {rows.size} rows; cannot stratify"
            )
        perm = rng.permutation(rows)
        n_val = int(np.floor(fv * rows.size))
        n_test = int(np.floor(ft * rows.size))
        n_train = rows.size - n_val - n_test
        train_parts.append(perm[:n_train])
        val_parts.append(perm[n_train:n_train + n_val])
        test_parts.append(perm[n_train + n_val:])
    cat = lambda parts: np.sort(np.concatenate(parts)) if parts else np.empty(0, dtype=np.int64)
    return cat(train_parts), cat(val_parts), cat(test_parts)


def split(data: LabeledDataset, spec: SplitSpec, repeat_index: int):
    """Materialize the (train, val, test) datasets for one repeat."""
    tr, va, te = split_indices(data, spec, repeat_index)
    return data.take_rows(tr), data.take_rows(va), data.take_rows(te)


def group_summary(data: LabeledDataset) -> dict[str, tuple[int, int, float]]:
    """Per-group (row count, count of s=1, observed rate)."""
    out: dict[str, tuple[int, int, float]] = {}
    for gid, name in enumerate(data.group_names):
        mask = data.group == gid
        n = int(mask.sum())
        if n == 0:
            continue
        pos = int(data.s[mask].sum())
        out[name] = (n, pos, pos / n)
    return out


# ---------------------------------------------------------------------------
# File I/O

# ``.pu`` files are read and written this many rows at a time: enough that
# a block's entries go through a handful of C-level calls, few enough that
# its token lists stay small. On a 21k-row file with 179k entries, parsing
# it whole raised the peak memory of a simulate/fit/estimate round trip
# from 74 to 120 MB.
_PU_BLOCK_ROWS = 2048
_LABELS = frozenset({"0", "1"})
_Y_TOKENS = _LABELS | {"?"}


def _format_value(v: float) -> str:
    return repr(float(v))


def _parse_label(tok: str, what: str, lineno: int) -> int:
    if tok not in _LABELS:
        raise ParseError(f"line {lineno}: {what} must be 0 or 1, got {tok!r}")
    return int(tok)


def _finish_groups(raw_groups: list[str]) -> tuple[np.ndarray, list[str]]:
    names = list(dict.fromkeys(raw_groups))  # in order of first appearance
    index = {g: k for k, g in enumerate(names)}
    return np.fromiter(map(index.__getitem__, raw_groups), np.int64, len(raw_groups)), names


def _finish_y(y_toks: list[str], path: str) -> np.ndarray | None:
    unknown = y_toks.count("?")
    if unknown == len(y_toks):
        return None
    if unknown:
        raise ParseError(f"{path}: y is present on some rows and '?' on others")
    return (np.array(y_toks) == "1").astype(np.int8)


def _load_dense_csv(path: str) -> LabeledDataset:
    with open(path, "r", encoding="utf-8") as fh:
        header = fh.readline().rstrip("\n")
        cols = header.split(",")
        if cols[:3] != ["g", "s", "y"]:
            raise ParseError(f"line 1: header must start with g,s,y, got {header!r}")
        d = len(cols) - 3
        for j, name in enumerate(cols[3:]):
            if name != f"x{j}":
                raise ParseError(f"line 1: expected feature column x{j}, got {name!r}")
        groups: list[str] = []
        s_vals: list[int] = []
        y_toks: list[str] = []
        rows: list[list[float]] = []
        for lineno, line in enumerate(fh, start=2):
            line = line.rstrip("\n")
            if not line:
                continue
            toks = line.split(",")
            if len(toks) != 3 + d:
                raise ParseError(f"line {lineno}: expected {3 + d} fields, got {len(toks)}")
            groups.append(toks[0])
            s_vals.append(_parse_label(toks[1], "s", lineno))
            if toks[2] != "?":
                _parse_label(toks[2], "y", lineno)
            y_toks.append(toks[2])
            try:
                rows.append([float(t) for t in toks[3:]])
            except ValueError as e:
                raise ParseError(f"line {lineno}: bad feature value ({e})") from None
            if not all(map(math.isfinite, rows[-1])):
                raise ParseError(f"line {lineno}: non-finite feature value")
    feats = FeatureMatrix(np.asarray(rows, dtype=np.float64).reshape(len(rows), d))
    ids, names = _finish_groups(groups)
    return LabeledDataset(feats, ids, names, np.asarray(s_vals), _finish_y(y_toks, path))


def _first(mask: np.ndarray) -> int:
    """Index of the first True in ``mask``, or its length if none is."""
    hits = np.flatnonzero(mask)
    return int(hits[0]) if hits.size else mask.size


def _convert(convert, toks: list[str]) -> list:
    """``convert`` applied to each token, stopping before the first it rejects."""
    try:
        return list(map(convert, toks))
    except ValueError:  # find the culprit, one token at a time
        out = []
        for tok in toks:
            try:
                out.append(convert(tok))
            except ValueError:
                return out
        raise


def _parse_pu_block(block: list[str], lineno: int, d: int, heads: tuple[list, list, list]):
    """Parse a block of ``.pu`` data lines, the first of them numbered ``lineno``.

    Appends each non-empty line's group, s and y tokens to ``heads`` and
    returns the block's entry count per line, indices and values. Each rule
    is checked over the whole block and cuts it short at its first failure,
    so what is raised is the first failure in file order, with the message
    of the first rule that line or entry breaks.
    """
    stripped = list(map(str.rstrip, block, repeat("\n")))
    linenos = [k for k, line in enumerate(stripped, start=lineno) if line]
    lines = [line for line in stripped if line]
    fields = list(map(str.split, lines, repeat(" "), repeat(3)))
    fault = None  # (line number, message) of the earliest failure found so far

    n = _first(np.fromiter(map(len, fields), np.intp, len(fields)) < 3)
    if n < len(fields):
        fault = (linenos[n], f"expected '<g> <s> <y|?> ...', got {lines[n]!r}")
    s_toks, y_toks = [f[1] for f in fields[:n]], [f[2] for f in fields[:n]]
    if not (_LABELS.issuperset(s_toks) and _Y_TOKENS.issuperset(y_toks)):
        n = next(k for k in range(n) if s_toks[k] not in _LABELS or y_toks[k] not in _Y_TOKENS)
        fault = (linenos[n], f"s must be 0 or 1, got {s_toks[n]!r}" if s_toks[n] not in _LABELS
                 else f"y must be 0 or 1, got {y_toks[n]!r}")
    del fields[n:], s_toks[n:], y_toks[n:]
    heads[0].extend(f[0] for f in fields)
    heads[1].extend(s_toks)
    heads[2].extend(y_toks)
    counts = [f[3].count(" ") + 1 if len(f) == 4 else 0 for f in fields]
    entries = " ".join([f[3] for f in fields if len(f) == 4])
    per_line = np.array(counts, dtype=np.intp)
    ends = np.cumsum(per_line)
    line_of = lambda k: linenos[int(np.searchsorted(ends, k, side="right"))]

    # Exactly one colon per entry, so that re-splitting the block on ':'
    # keeps each index beside its value ('3 4:1:2' must not read as two
    # entries). Bytes suffice: neither byte occurs inside a UTF-8 character.
    n = sum(counts)
    buf = np.frombuffer(entries.encode(), dtype=np.uint8)
    colons = np.bincount(np.searchsorted(np.flatnonzero(buf == 32), np.flatnonzero(buf == 58)),
                         minlength=n)
    k = _first(colons != 1)
    if k < n:
        toks = entries.split(" ")
        fault = (line_of(k), f"expected '<index>:<value>', got {toks[k]!r}" if colons[k] == 0
                 else f"bad entry {toks[k]!r}")  # no float holds a colon
        n, entries = k, " ".join(toks[:k])
    halves = entries.replace(":", " ").split(" ") if n else []
    i_strs, v_strs = halves[0::2], halves[1::2]

    # Python's own int() and float() decide which tokens are numbers.
    ints, vals = _convert(int, i_strs), _convert(float, v_strs)
    if min(len(ints), len(vals)) < n:
        n = min(len(ints), len(vals))
        fault = (line_of(n), f"bad entry {i_strs[n] + ':' + v_strs[n]!r}")
    try:
        idx = np.array(ints[:n], dtype=np.int64)
    except OverflowError:  # compare as Python ints instead
        idx = np.array(ints[:n], dtype=object)
    val = np.array(vals[:n], dtype=np.float64)
    outside = (idx < 0) | (idx >= d)
    nonfinite = ~np.isfinite(val)
    descending = np.zeros(n, dtype=bool)
    descending[1:] = idx[1:] <= idx[:-1]
    starts = ends - per_line
    descending[starts[starts < n]] = False
    k = _first(outside | nonfinite | descending)
    if k < n:
        fault = (line_of(k), f"index {ints[k]} outside [0, {d})" if outside[k]
                 else f"non-finite feature value in {i_strs[k] + ':' + v_strs[k]!r}"
                 if nonfinite[k] else "indices must be strictly ascending")
    if fault:
        raise ParseError(f"line {fault[0]}: {fault[1]}")
    return counts, idx, val


def _load_sparse_pu(path: str) -> LabeledDataset:
    with open(path, "r", encoding="utf-8") as fh:
        first = fh.readline().rstrip("\n")
        if not first.startswith("#sparse d="):
            raise ParseError(f"line 1: expected '#sparse d=<dims>' header, got {first!r}")
        try:
            d = int(first[len("#sparse d="):])
        except ValueError:
            d = -1  # reported below, as a negative count is
        if d < 0:
            raise ParseError(f"line 1: bad dimensionality in {first!r}")
        heads: tuple[list, list, list] = ([], [], [])
        counts: list[int] = []
        indices = [np.empty(0, dtype=np.int64)]
        values = [np.empty(0, dtype=np.float64)]
        lineno = 2
        while block := list(islice(fh, _PU_BLOCK_ROWS)):
            c, i, v = _parse_pu_block(block, lineno, d, heads)
            lineno += len(block)
            counts += c
            indices.append(i)
            values.append(v)
    groups, s_toks, y_toks = heads
    indptr = np.zeros(len(counts) + 1, dtype=np.int64)
    np.cumsum(counts, out=indptr[1:])
    mat = _scipy_sparse().csr_matrix(
        (np.concatenate(values), np.concatenate(indices), indptr), shape=(len(groups), d))
    ids, names = _finish_groups(groups)
    return LabeledDataset(FeatureMatrix(mat), ids, names, np.asarray(list(map(int, s_toks))),
                          _finish_y(y_toks, path))


def _infer_format(path: str) -> str:
    ext = os.path.splitext(path)[1].lower()
    if ext == ".csv":
        return "dense-csv"
    if ext == ".pu":
        return "sparse-pu"
    raise ValueError(f"cannot infer dataset format from extension {ext!r}; pass format=")


def load_dataset(path: str, format: str | None = None) -> LabeledDataset:
    """Load a dataset file in ``dense-csv`` or ``sparse-pu`` format."""
    fmt = format or _infer_format(path)
    if fmt == "dense-csv":
        return _load_dense_csv(path)
    if fmt == "sparse-pu":
        return _load_sparse_pu(path)
    raise ValueError(f"unknown dataset format {fmt!r}")


def _write_dense_csv(data: LabeledDataset, fh) -> None:
    names, y = data.group_names, data.y
    fh.write("g,s,y," + ",".join(f"x{j}" for j in range(data.n_dims)) + "\n")
    dense = data.features.dense_rows()
    for i in range(data.n_rows):
        ytok = "?" if y is None else str(int(y[i]))
        feats = ",".join(_format_value(v) for v in dense[i])
        fh.write(f"{names[data.group[i]]},{int(data.s[i])},{ytok},{feats}\n")


def _write_sparse_pu(data: LabeledDataset, fh) -> None:
    """Write the stored entries of each row, a block of rows per ``write``.

    Within a block, each distinct column index and each distinct value, by
    its bit pattern so that ``-0.0`` keeps its sign, is formatted once. A CSR
    with unsorted or repeated column indices is written as its canonical
    copy, duplicates summed, since the loader requires ascending indices.
    """
    m = data.features.raw
    csr = m if data.features.is_sparse else _scipy_sparse().csr_matrix(m)
    if not csr.has_canonical_format:
        csr = csr.copy()
        csr.sum_duplicates()
    names, indptr = data.group_names, csr.indptr
    y = ["?"] * data.n_rows if data.y is None else data.y.tolist()
    fh.write(f"#sparse d={data.n_dims}\n")
    for lo in range(0, data.n_rows, _PU_BLOCK_ROWS):
        hi = min(lo + _PU_BLOCK_ROWS, data.n_rows)
        a, b = indptr[lo], indptr[hi]
        cols, col_of = np.unique(csr.indices[a:b], return_inverse=True)
        bits, val_of = np.unique(csr.data[a:b].view(np.uint64), return_inverse=True)
        prefixes = [f" {j}:" for j in cols.tolist()]
        texts = [_format_value(v) for v in bits.view(np.float64).tolist()]
        entries = list(map(str.__add__, map(prefixes.__getitem__, col_of.tolist()),
                           map(texts.__getitem__, val_of.tolist())))
        ptr = (indptr[lo:hi + 1] - a).tolist()
        heads = map("{} {} {}".format, map(names.__getitem__, data.group[lo:hi].tolist()),
                    data.s[lo:hi].tolist(), y[lo:hi])
        fh.write("".join([head + "".join(entries[p:q]) + "\n"
                          for head, p, q in zip(heads, ptr, ptr[1:])]))


def write_dataset(data: LabeledDataset, path: str, format: str | None = None) -> None:
    """Write a dataset file; format inferred from extension unless given.

    Floats are written with shortest round-trip formatting, so write/load
    reproduces features exactly. ``latent_p`` and provenance are not part
    of either format and are dropped. A group name holding the format's
    field separator or a line break is rejected before the file is opened.
    """
    fmt = format or _infer_format(path)
    if fmt == "dense-csv":
        writer, separator = _write_dense_csv, ","
    elif fmt == "sparse-pu":
        writer, separator = _write_sparse_pu, " "
    else:
        raise ValueError(f"unknown dataset format {fmt!r}")
    for name in data.group_names:
        for ch in separator + "\n\r":  # reading splits lines at \r too
            if ch in name:
                raise ValueError(f"group name {name!r} cannot be written to a {fmt} "
                                 f"file: it contains {ch!r}")
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        writer(data, fh)
