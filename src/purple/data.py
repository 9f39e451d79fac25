r"""Grouped positive-unlabeled datasets: in-memory model, file I/O, splitting.

Two on-disk formats are supported:

* ``dense-csv`` -- header ``g,s,y,x0,...,x{d-1}``; the ``y`` column may hold
  ``?`` for unknown true labels.
* ``sparse-pu`` -- first line ``#sparse d=<dims>``; each data row is
  ``<g> <s> <y|?> <i>:<v> <i>:<v> ...`` with strictly ascending indices.

Feature values must be finite in both; ``nan`` and ``inf`` are parse errors.

``.pu`` files are read and written in blocks of ``_PU_BLOCK_ROWS`` (2048)
rows, so working memory is bounded by a block. A block is read as text, so
``\r\n`` and ``\r`` end lines as ``\n`` does, and encoded once; the reader
takes every field from the byte positions of its spaces, newlines and
colons, and converts each distinct index and value token once, with
Python's own ``int()`` and ``float()``. The writer formats each distinct
row head and ``<i>:<v>`` entry of a block once and joins the block's bytes
from them.

Group identifiers are stored as dense small integers plus a name table;
all reports and files use the names. A load builds the table from the
rows in order of first appearance, so a name with no rows is not kept.

Splits are stratified by group, in the fixed ``SPLIT_FRACTIONS`` (60/20/20)
train/val/test proportions; a ``SplitSpec`` sets only the seed and the
number of repeats.
"""

from __future__ import annotations

import math
import os
import sys
from dataclasses import dataclass, field
from itertools import accumulate, islice
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


def _summed(csr):
    """``csr``, or, if it is not canonical, its copy with sorted column
    indices and repeated entries summed: the values its products see."""
    if csr.has_canonical_format:
        return csr
    csr = csr.copy()
    csr.sum_duplicates()
    return csr


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
        self._mean_square = None  # built by the first column_mean_square

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

    def column_mean_square(self) -> np.ndarray:
        """Mean over rows of each column's squared entries, computed on the
        first call and kept, like ``rtvec``'s transpose. CSR duplicates are
        summed first, as the products see them. 0 for a matrix with no rows.
        """
        if self._mean_square is None:
            m = self._m
            if self.is_sparse:
                m = _summed(m)
                squares = np.bincount(m.indices, weights=np.square(m.data),
                                      minlength=self.n_dims)
            else:
                squares = np.einsum("ij,ij->j", m, m)
            self._mean_square = squares / max(self.n_rows, 1)
        return self._mean_square

    def _rows(self, idx: np.ndarray):
        """The storage of the rows ``idx``, an integer index array. Dense rows
        are gathered by ``np.take``, about 4x faster than fancy indexing on
        18 000 x 5."""
        return self._m[idx] if self.is_sparse else np.take(self._m, idx, axis=0)

    def take_rows(self, idx: np.ndarray) -> "FeatureMatrix":
        """The rows ``idx``, checked again like any new matrix."""
        return FeatureMatrix(self._rows(np.asarray(idx)))

    def _reordered(self, order: np.ndarray) -> "FeatureMatrix":
        """The rows in ``order``, a permutation, whose values are not checked
        again: a value written into the storage after this matrix was
        checked reaches readers of the copy as it reaches readers of this
        matrix."""
        out = FeatureMatrix.__new__(FeatureMatrix)
        out._m = self._rows(order)
        out._t = out._mean_square = None
        return out

    def column_counts(self, row_mask: np.ndarray | None = None) -> np.ndarray:
        """Number of rows with a nonzero entry per column."""
        m = self._m if row_mask is None else self._m[np.asarray(row_mask)]
        if self.is_sparse:
            return np.asarray((m != 0).sum(axis=0)).ravel()
        return np.count_nonzero(m, axis=0)

    def is_binary(self) -> bool:
        """Whether every entry is 0 or 1; CSR duplicates are summed first, as
        the products see them."""
        vals = _summed(self._m).data if self.is_sparse else self._m
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
    on generated data.
    """

    features: FeatureMatrix
    group: np.ndarray
    group_names: list[str]
    s: np.ndarray
    y: np.ndarray | None = None
    latent_p: np.ndarray | None = None
    _runs: tuple | None = field(default=None, init=False, repr=False, compare=False)

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
        )

    def present_groups(self) -> list[int]:
        return np.flatnonzero(np.bincount(self.group, minlength=len(self.group_names))).tolist()

    def label_runs(self) -> tuple[FeatureMatrix, list[tuple[int, int, int, int]]]:
        """The feature rows in a stable (group, s) order, and the runs of rows
        that share both, as ``(group, s, start, stop)`` row ranges of that
        order. Built on the first call and kept, like ``FeatureMatrix``'s
        transpose. The rows are a copy (``FeatureMatrix._reordered``), so a
        non-finite value written into the storage after its check reaches
        the model's objective.
        """
        if self._runs is None:
            # The smallest integer type that holds every key, so that the
            # stable sort is a radix sort: 3x faster than on int64.
            key = (self.group * 2 + self.s).astype(np.min_scalar_type(2 * len(self.group_names)))
            counts = np.bincount(key).tolist()
            runs = [(k // 2, k % 2, stop - n, stop)
                    for k, (n, stop) in enumerate(zip(counts, accumulate(counts))) if n]
            self._runs = self.features._reordered(np.argsort(key, kind="stable")), runs
        return self._runs


# The train/val/test fractions of every split.
SPLIT_FRACTIONS = (0.6, 0.2, 0.2)


@dataclass(frozen=True)
class SplitSpec:
    """Deterministic train/val/test splitting, stratified by group, in the
    ``SPLIT_FRACTIONS`` proportions."""

    seed: int = 0
    n_repeats: int = 5

    def __post_init__(self):
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
    _, fv, ft = SPLIT_FRACTIONS
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

# ``.pu`` files are read and written this many rows at a time, so a load or
# a write holds one block's text and arrays rather than the whole file's. On
# a 21k-row file with 179k entries, parsing it whole raised the peak memory
# of a simulate/fit/estimate round trip from 74 to 120 MB.
_PU_BLOCK_ROWS = 2048
_LABELS = frozenset({"0", "1"})
_SPACE, _NEWLINE, _COLON = b" \n:"
_Y_CODES = np.full(256, -2, dtype=np.int8)  # a y byte's label; -1 for '?', -2 if invalid
_Y_CODES[list(b"01?")] = 0, 1, -1
_LOW_BYTES = np.array([(1 << 8 * n) - 1 for n in range(9)], dtype=np.uint64)  # n low bytes set
_SPACES = np.uint64(int.from_bytes(b" " * 8, "little"))


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


def _finish_y(y: np.ndarray, path: str) -> np.ndarray | None:
    """The true labels, or None if every row has -1 (``?``)."""
    unknown = y < 0
    if unknown.all():
        return None
    if unknown.any():
        raise ParseError(f"{path}: y is present on some rows and '?' on others")
    return y


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
        y_vals: list[int] = []
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
            y_vals.append(-1 if toks[2] == "?" else _parse_label(toks[2], "y", lineno))
            try:
                rows.append([float(t) for t in toks[3:]])
            except ValueError as e:
                raise ParseError(f"line {lineno}: bad feature value ({e})") from None
            if not all(map(math.isfinite, rows[-1])):
                raise ParseError(f"line {lineno}: non-finite feature value")
    feats = FeatureMatrix(np.asarray(rows, dtype=np.float64).reshape(len(rows), d))
    ids, names = _finish_groups(groups)
    return LabeledDataset(feats, ids, names, np.asarray(s_vals),
                          _finish_y(np.asarray(y_vals, dtype=np.int8), path))


def _first(mask: np.ndarray) -> int:
    """Index of the first True in ``mask``, or its length if none is."""
    hits = np.flatnonzero(mask)
    return int(hits[0]) if hits.size else mask.size


def _distinct(buf: np.ndarray, starts: np.ndarray, ends: np.ndarray):
    """Group the byte strings ``buf[starts[k]:ends[k]]`` by content.

    Returns a position of each distinct string and each string's index into
    that list. A string is keyed eight bytes at a time from its end, as
    little-endian words read in place, the bytes before its start replaced
    by spaces, which no token holds, so equal keys mean equal strings. The
    last bytes of a number vary most, so distinct numbers are usually told
    apart by their last eight bytes, and keying stops once every string is.
    """
    lens = ends - starts
    width = int(lens.max(initial=0))
    padded = np.concatenate([np.full(width + 8, _SPACE, dtype=np.uint8), buf])
    words = np.ndarray((buf.size + width + 1,), dtype="<u8", buffer=padded, strides=(1,))
    inverse = np.zeros(starts.size, dtype=np.intp)
    for w in range(8, width + 8, 8):  # the word that ends w - 8 bytes before the end
        dead = _LOW_BYTES[np.clip(w - lens, 0, 8)]
        _, word = np.unique((words[ends + width + 8 - w] & ~dead) | (_SPACES & dead),
                            return_inverse=True)
        if w > 8:
            _, word = np.unique(inverse * (word.max() + 1) + word, return_inverse=True)
        inverse = word
        if inverse.max() + 1 == starts.size:
            break
    rep = np.empty(int(inverse.max(initial=-1)) + 1, dtype=np.intp)
    rep[inverse] = np.arange(starts.size)
    return rep, inverse


def _convert_each(convert, raw: bytes, starts: np.ndarray, ends: np.ndarray):
    """``convert`` of each text ``raw[starts[k]:ends[k]]``, 0 where it raises
    ValueError, and a mask of the texts where it does."""
    texts = [raw[p:q].decode() for p, q in zip(starts.tolist(), ends.tolist())]
    rejected = np.zeros(len(texts), dtype=bool)
    try:
        return list(map(convert, texts)), rejected
    except ValueError:  # find the culprits, one text at a time
        out = []
        for k, text in enumerate(texts):
            try:
                out.append(convert(text))
            except ValueError:
                out.append(0)
                rejected[k] = True
        return out, rejected


def _parse_pu_block(text: str, lineno: int, d: int):
    """Parse a block of ``.pu`` data lines, the first of them numbered ``lineno``.

    Works on byte positions: every field of a line ends at a space or at the
    line's newline, and an entry's colon splits it into its index and value,
    none of those bytes occurring inside a multi-byte UTF-8 character. Each
    distinct index and value token is converted once, by Python's own
    ``int()`` and ``float()``. Returns the group names in order of first
    appearance, then per non-empty line its group's position in that list,
    s, y (-1 for ``?``) and entry count, then the entries' indices and
    values. Each rule is checked over the whole block and cuts it short at
    its first failure, so what is raised is the first failure in file
    order, with the message of the first rule that line or entry breaks.
    """
    if not text.endswith("\n"):
        text += "\n"
    raw = text.encode()
    buf = np.frombuffer(raw, dtype=np.uint8)
    marks = np.flatnonzero((buf == _SPACE) | (buf == _NEWLINE) | (buf == _COLON))
    end_at = np.flatnonzero(buf[marks] != _COLON)  # the marks that end a field
    ends = marks[end_at]
    starts = np.r_[0, ends[:-1] + 1]
    n_colons = np.diff(end_at, prepend=-1) - 1
    eol = buf[ends] == _NEWLINE
    line_of = np.cumsum(eol) - eol  # per field
    head = np.flatnonzero(np.r_[True, eol[:-1]])  # each line's first field
    pos = np.arange(ends.size) - head[line_of]  # a field's place in its line
    n_fields = np.diff(head, append=ends.size)
    blank = (n_fields == 1) & (starts[head] == ends[head])
    token = lambda f: raw[starts[f]:ends[f]].decode()
    fault = None  # (line number, message) of the earliest failure found so far

    # The head ``<g> <s> <y|?>``: s and y are single bytes. A line with too
    # few fields reads its neighbours' here, or clips at the block's end.
    s_field = np.minimum(head + 1, ends.size - 1)
    y_field = np.minimum(head + 2, ends.size - 1)
    short = ~blank & (n_fields < 3)
    s = buf[starts[s_field]] - np.uint8(ord("0"))
    y = _Y_CODES[buf[starts[y_field]]]
    bad_s = (ends[s_field] - starts[s_field] != 1) | (s > 1)
    bad_y = (ends[y_field] - starts[y_field] != 1) | (y == -2)
    n = _first(short | (~blank & (n_fields >= 3) & (bad_s | bad_y)))
    if n < head.size:
        line = raw[starts[head[n]]:ends[head[n] + n_fields[n] - 1]].decode()
        fault = (lineno + n, f"expected '<g> <s> <y|?> ...', got {line!r}" if short[n]
                 else f"s must be 0 or 1, got {token(s_field[n])!r}" if bad_s[n]
                 else f"y must be 0 or 1, got {token(y_field[n])!r}")
    rows = np.flatnonzero(~blank[:n])
    entry = np.flatnonzero((pos >= 3) & (line_of < n))

    # Exactly one colon per entry, so that each index keeps its value
    # ('3 4:1:2' must not read as two entries).
    k = _first(n_colons[entry] != 1)
    if k < entry.size:
        tok = token(entry[k])
        fault = (lineno + line_of[entry[k]], f"expected '<index>:<value>', got {tok!r}"
                 if n_colons[entry[k]] == 0 else f"bad entry {tok!r}")  # no float holds a colon
        entry = entry[:k]
    colon = marks[end_at[entry] - 1]

    # Python's own int() and float() decide which tokens are numbers, each
    # distinct token converted once.
    i_rep, i_of = _distinct(buf, starts[entry], colon)
    v_rep, v_of = _distinct(buf, colon + 1, ends[entry])
    ints, i_bad = _convert_each(int, raw, starts[entry[i_rep]], colon[i_rep])
    floats, v_bad = _convert_each(float, raw, colon[v_rep] + 1, ends[entry[v_rep]])
    k = _first(i_bad[i_of] | v_bad[v_of])
    if k < entry.size:
        fault = (lineno + line_of[entry[k]], f"bad entry {token(entry[k])!r}")
        entry, i_of, v_of = entry[:k], i_of[:k], v_of[:k]
    # An index outside [0, d) becomes -1, so that every int() result fits.
    idx = np.array([v if 0 <= v < d else -1 for v in ints], dtype=np.int64)[i_of]
    val = np.array(floats, dtype=np.float64)[v_of]
    outside = idx < 0
    nonfinite = ~np.isfinite(val)
    descending = np.zeros(entry.size, dtype=bool)
    descending[1:] = idx[1:] <= idx[:-1]
    descending[pos[entry] == 3] = False  # a line's first entry
    k = _first(outside | nonfinite | descending)
    if k < entry.size:
        fault = (lineno + line_of[entry[k]], f"index {ints[i_of[k]]} outside [0, {d})"
                 if outside[k] else f"non-finite feature value in {token(entry[k])!r}"
                 if nonfinite[k] else "indices must be strictly ascending")
    if fault:
        raise ParseError(f"line {fault[0]}: {fault[1]}")

    # Number the groups in order of first appearance.
    _, g_of = _distinct(buf, starts[head[rows]], ends[head[rows]])
    firsts = np.sort(np.unique(g_of, return_index=True)[1])
    number = np.empty_like(firsts)
    number[g_of[firsts]] = np.arange(firsts.size)
    names = [token(head[rows[r]]) for r in firsts.tolist()]
    return names, number[g_of], s[rows].astype(np.int8), y[rows], n_fields[rows] - 3, idx, val


def _load_sparse_pu(path: str) -> LabeledDataset:
    with open(path, "r", encoding="utf-8") as fh:
        first = fh.readline().rstrip("\n")
        if not first.startswith("#sparse d="):
            raise ParseError(f"line 1: expected '#sparse d=<dims>' header, got {first!r}")
        try:
            d = int(first[len("#sparse d="):])
        except ValueError:
            d = -1  # reported below, as a negative count is
        if not 0 <= d <= np.iinfo(np.int64).max:  # the CSR build needs an int64 shape
            raise ParseError(f"line 1: bad dimensionality in {first!r}")
        table: dict[str, int] = {}  # group name -> id, in order of first appearance
        parts = [[np.empty(0, dtype=t)] for t in (np.int64, np.int8, np.int8, np.int64,
                                                   np.int64, np.float64)]
        lineno = 2
        while block := list(islice(fh, _PU_BLOCK_ROWS)):
            names, *arrays = _parse_pu_block("".join(block), lineno, d)
            ids = np.array([table.setdefault(name, len(table)) for name in names], dtype=np.int64)
            arrays[0] = ids[arrays[0]]
            for part, a in zip(parts, arrays):
                part.append(a)
            lineno += len(block)
    groups, s, y, counts, indices, values = map(np.concatenate, parts)
    indptr = np.zeros(counts.size + 1, dtype=np.int64)
    np.cumsum(counts, out=indptr[1:])
    mat = _scipy_sparse().csr_matrix((values, indices, indptr), shape=(groups.size, d))
    return LabeledDataset(FeatureMatrix(mat), groups, list(table), s, _finish_y(y, path))


def _infer_format(path: str) -> str:
    """``dense-csv`` for a ``.csv`` path, ``sparse-pu`` for a ``.pu`` one."""
    ext = os.path.splitext(path)[1].lower()
    if ext == ".csv":
        return "dense-csv"
    if ext == ".pu":
        return "sparse-pu"
    raise ValueError(f"cannot infer dataset format from extension {ext!r}; "
                     "expected .csv or .pu")


def load_dataset(path: str) -> LabeledDataset:
    """Load a ``.csv`` (``dense-csv``) or ``.pu`` (``sparse-pu``) dataset file."""
    if _infer_format(path) == "dense-csv":
        return _load_dense_csv(path)
    return _load_sparse_pu(path)


def _write_dense_csv(data: LabeledDataset, fh) -> None:
    names, y = data.group_names, data.y
    fh.write(("g,s,y," + ",".join(f"x{j}" for j in range(data.n_dims)) + "\n").encode())
    dense = data.features.dense_rows()
    for i in range(data.n_rows):
        ytok = "?" if y is None else str(int(y[i]))
        feats = ",".join(_format_value(v) for v in dense[i])
        fh.write(f"{names[data.group[i]]},{int(data.s[i])},{ytok},{feats}\n".encode())


def _write_sparse_pu(data: LabeledDataset, fh) -> None:
    """Write the stored entries of each row, a block of rows per ``write``.

    A block's text is gathered from a small vocabulary: its distinct
    ``<g> <s> <y>`` heads and its distinct `` <j>:<v>`` entries, each value
    keyed by its bit pattern so that ``-0.0`` keeps its sign, and each
    formatted once. A CSR with unsorted or repeated column indices is
    written as its canonical copy, duplicates summed, since the loader
    requires ascending indices.
    """
    m = data.features.raw
    csr = _summed(m) if data.features.is_sparse else _scipy_sparse().csr_matrix(m)
    names, indptr = data.group_names, csr.indptr
    y = np.full(data.n_rows, 2) if data.y is None else data.y  # 2 writes '?'
    head_keys = data.group * 6 + data.s * 3 + y
    fh.write(f"#sparse d={data.n_dims}\n".encode())
    for lo in range(0, data.n_rows, _PU_BLOCK_ROWS):
        hi = min(lo + _PU_BLOCK_ROWS, data.n_rows)
        a, b = indptr[lo], indptr[hi]
        heads, head_of = np.unique(head_keys[lo:hi], return_inverse=True)
        cols, col_of = np.unique(csr.indices[a:b], return_inverse=True)
        bits, val_of = np.unique(csr.data[a:b].view(np.uint64), return_inverse=True)
        pairs, pair_of = np.unique(col_of * bits.size + val_of, return_inverse=True)
        cols, texts = cols.tolist(), [_format_value(v) for v in bits.view(np.float64).tolist()]
        vocab = [b"\n"]  # ends a row
        vocab += [f"{names[h // 6]} {h // 3 % 2} {'01?'[h % 3]}".encode() for h in heads.tolist()]
        vocab += [f" {cols[c]}:{texts[v]}".encode()
                  for c, v in zip(*(x.tolist() for x in np.divmod(pairs, bits.size)))]
        # Each row is its head, its entries and a newline.
        ptr = indptr[lo:hi + 1] - a + 2 * np.arange(hi - lo + 1)  # where each row starts
        pieces = np.zeros(ptr[-1], dtype=np.intp)
        entry = np.ones(ptr[-1], dtype=bool)
        entry[ptr[:-1]] = entry[ptr[1:] - 1] = False
        pieces[ptr[:-1]] = 1 + head_of
        pieces[entry] = 1 + heads.size + pair_of
        fh.write(b"".join(map(vocab.__getitem__, pieces.tolist())))


def write_dataset(data: LabeledDataset, path: str) -> None:
    """Write a dataset file in the format of its extension, as ``load_dataset``
    reads it.

    Floats are written with shortest round-trip formatting, so write/load
    reproduces features exactly. ``latent_p`` and provenance are not part
    of either format and are dropped. A group name holding the format's
    field separator or a line break, or naming a group with no rows (a file
    names only the groups of its rows), is rejected before the file is
    opened.
    """
    fmt = _infer_format(path)
    writer, separator = ((_write_dense_csv, ",") if fmt == "dense-csv"
                         else (_write_sparse_pu, " "))
    for name in data.group_names:
        for ch in separator + "\n\r":  # reading splits lines at \r too
            if ch in name:
                raise ValueError(f"group name {name!r} cannot be written to a {fmt} "
                                 f"file: it contains {ch!r}")
    for name, n_rows in zip(data.group_names,
                            np.bincount(data.group, minlength=len(data.group_names))):
        if n_rows == 0:
            raise ValueError(f"group name {name!r} cannot be written to a {fmt} file: "
                             "no row is in that group")
    with open(path, "wb") as fh:  # UTF-8, each line ended by "\n"
        writer(data, fh)
