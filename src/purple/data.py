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
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np
import scipy.sparse as sp


class ParseError(ValueError):
    """A dataset file violated its format contract."""


class FeatureMatrix:
    """Row-major feature storage, either dense ``ndarray`` or CSR sparse.

    Both storages expose the same small interface so downstream code never
    branches on the representation; dot products agree to float64 accuracy.
    """

    def __init__(self, values):
        if sp.issparse(values):
            self._m = values.tocsr().astype(np.float64)
        else:
            arr = np.asarray(values, dtype=np.float64)
            if arr.ndim != 2:
                raise ValueError("feature matrix must be 2-dimensional")
            self._m = arr

    @property
    def n_rows(self) -> int:
        return self._m.shape[0]

    @property
    def n_dims(self) -> int:
        return self._m.shape[1]

    @property
    def is_sparse(self) -> bool:
        return sp.issparse(self._m)

    @property
    def raw(self):
        """The underlying ndarray or CSR matrix (read-only by convention)."""
        return self._m

    def matvec(self, w: np.ndarray) -> np.ndarray:
        """Row-wise dot products ``X @ w`` as a dense vector."""
        out = self._m @ np.asarray(w, dtype=np.float64)
        return np.asarray(out).ravel()

    def rtvec(self, r: np.ndarray) -> np.ndarray:
        """Transposed product ``X.T @ r`` as a dense vector."""
        out = self._m.T @ np.asarray(r, dtype=np.float64)
        return np.asarray(out).ravel()

    def take_rows(self, idx: np.ndarray) -> "FeatureMatrix":
        return FeatureMatrix(self._m[np.asarray(idx)])

    def column_counts(self, row_mask: np.ndarray | None = None) -> np.ndarray:
        """Number of rows with a nonzero entry per column."""
        m = self._m if row_mask is None else self._m[np.asarray(row_mask)]
        if sp.issparse(m):
            return np.asarray((m != 0).sum(axis=0)).ravel()
        return np.count_nonzero(m, axis=0)

    def is_binary(self) -> bool:
        vals = self._m.data if sp.issparse(self._m) else self._m
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

    def iter_sparse_rows(self) -> Iterable[tuple[np.ndarray, np.ndarray]]:
        """Yield (indices, values) of the nonzero entries of each row."""
        if sp.issparse(self._m):
            m = self._m
            for i in range(m.shape[0]):
                lo, hi = m.indptr[i], m.indptr[i + 1]
                yield m.indices[lo:hi], m.data[lo:hi]
        else:
            for row in self._m:
                idx = np.flatnonzero(row)
                yield idx, row[idx]

    def dense_rows(self) -> np.ndarray:
        if sp.issparse(self._m):
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


def _format_value(v: float) -> str:
    return repr(float(v))


def _parse_label(tok: str, what: str, lineno: int) -> int:
    if tok not in ("0", "1"):
        raise ParseError(f"line {lineno}: {what} must be 0 or 1, got {tok!r}")
    return int(tok)


def _finish_groups(raw_groups: list[str]) -> tuple[np.ndarray, list[str]]:
    names: list[str] = []
    index: dict[str, int] = {}
    ids = np.empty(len(raw_groups), dtype=np.int64)
    for i, g in enumerate(raw_groups):
        if g not in index:
            index[g] = len(names)
            names.append(g)
        ids[i] = index[g]
    return ids, names


def _finish_y(raw_y: list[int | None], path: str) -> np.ndarray | None:
    known = [v for v in raw_y if v is not None]
    if not known:
        return None
    if len(known) != len(raw_y):
        raise ParseError(f"{path}: y is present on some rows and '?' on others")
    return np.asarray(raw_y, dtype=np.int8)


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
        y_vals: list[int | None] = []
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
            y_vals.append(None if toks[2] == "?" else _parse_label(toks[2], "y", lineno))
            try:
                rows.append([float(t) for t in toks[3:]])
            except ValueError as e:
                raise ParseError(f"line {lineno}: bad feature value ({e})") from None
            if not all(map(math.isfinite, rows[-1])):
                raise ParseError(f"line {lineno}: non-finite feature value")
    feats = FeatureMatrix(np.asarray(rows, dtype=np.float64).reshape(len(rows), d))
    ids, names = _finish_groups(groups)
    return LabeledDataset(feats, ids, names, np.asarray(s_vals), _finish_y(y_vals, path))


def _load_sparse_pu(path: str) -> LabeledDataset:
    with open(path, "r", encoding="utf-8") as fh:
        first = fh.readline().rstrip("\n")
        if not first.startswith("#sparse d="):
            raise ParseError(f"line 1: expected '#sparse d=<dims>' header, got {first!r}")
        try:
            d = int(first[len("#sparse d="):])
        except ValueError:
            raise ParseError(f"line 1: bad dimensionality in {first!r}") from None
        groups: list[str] = []
        s_vals: list[int] = []
        y_vals: list[int | None] = []
        indptr = [0]
        indices: list[int] = []
        values: list[float] = []
        for lineno, line in enumerate(fh, start=2):
            line = line.rstrip("\n")
            if not line:
                continue
            toks = line.split(" ")
            if len(toks) < 3:
                raise ParseError(f"line {lineno}: expected '<g> <s> <y|?> ...', got {line!r}")
            groups.append(toks[0])
            s_vals.append(_parse_label(toks[1], "s", lineno))
            y_vals.append(None if toks[2] == "?" else _parse_label(toks[2], "y", lineno))
            prev = -1
            for tok in toks[3:]:
                if ":" not in tok:
                    raise ParseError(f"line {lineno}: expected '<index>:<value>', got {tok!r}")
                i_str, v_str = tok.split(":", 1)
                try:
                    i, v = int(i_str), float(v_str)
                except ValueError:
                    raise ParseError(f"line {lineno}: bad entry {tok!r}") from None
                if i < 0 or i >= d:
                    raise ParseError(f"line {lineno}: index {i} outside [0, {d})")
                if not math.isfinite(v):
                    raise ParseError(f"line {lineno}: non-finite feature value in {tok!r}")
                if i <= prev:
                    raise ParseError(f"line {lineno}: indices must be strictly ascending")
                prev = i
                indices.append(i)
                values.append(v)
            indptr.append(len(indices))
    mat = sp.csr_matrix(
        (np.asarray(values, dtype=np.float64), np.asarray(indices, dtype=np.int32),
         np.asarray(indptr, dtype=np.int64)),
        shape=(len(groups), d),
    )
    ids, names = _finish_groups(groups)
    return LabeledDataset(FeatureMatrix(mat), ids, names, np.asarray(s_vals), _finish_y(y_vals, path))


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


def write_dataset(data: LabeledDataset, path: str, format: str | None = None) -> None:
    """Write a dataset file; format inferred from extension unless given.

    Floats are written with shortest round-trip formatting, so write/load
    reproduces features exactly. ``latent_p`` and provenance are not part
    of either format and are dropped.
    """
    fmt = format or _infer_format(path)
    names = data.group_names
    y = data.y
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        if fmt == "dense-csv":
            d = data.n_dims
            fh.write("g,s,y," + ",".join(f"x{j}" for j in range(d)) + "\n")
            dense = data.features.dense_rows()
            for i in range(data.n_rows):
                ytok = "?" if y is None else str(int(y[i]))
                feats = ",".join(_format_value(v) for v in dense[i])
                fh.write(f"{names[data.group[i]]},{int(data.s[i])},{ytok},{feats}\n")
        elif fmt == "sparse-pu":
            fh.write(f"#sparse d={data.n_dims}\n")
            for i, (idx, vals) in enumerate(data.features.iter_sparse_rows()):
                ytok = "?" if y is None else str(int(y[i]))
                entries = "".join(f" {int(j)}:{_format_value(v)}" for j, v in zip(idx, vals))
                fh.write(f"{names[data.group[i]]} {int(data.s[i])} {ytok}{entries}\n")
        else:
            raise ValueError(f"unknown dataset format {fmt!r}")


