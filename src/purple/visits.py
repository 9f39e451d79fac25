"""Disease-label simulation over sparse binary visit matrices.

A visit matrix is a binary one-hot encoding of codes assigned during a
visit. Labels are simulated from a chosen set of suspicious symptoms: the
condition probability is a logistic function of the number of suspicious
symptoms present, identical across groups, and observed labels thin the
true labels by a per-group frequency. A symptom set is a bare set of
feature indices, and the labels are a pure function of the visit matrix,
the set, the per-group labeling frequencies and the seed.

``select_symptoms`` chooses the set in one of the four ``SYMPTOM_MODES`` of
the paper's semi-synthetic evaluation, each mode's rule and sizes stated
once there; the semisynth suite and ``purple simulate semisynth`` both call
it. A set of any other size is written to a symptom file, one index a line,
and read with ``load_symptom_indices`` (``--symptoms PATH``).

Note on the probability formula: the condition probability is
``sigmoid(k / sqrt(|v_sym|))`` where ``k`` counts the active suspicious
symptoms -- the count is scaled by the Euclidean norm of the one-hot
symptom vector *inside* the sigmoid, mirroring the fully synthetic
generator's ``sigmoid(w.x / ||w||)`` form.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import FeatureMatrix, LabeledDataset, _scipy_sparse
from .model import _logistic


@dataclass(frozen=True)
class SymptomSet:
    """A non-empty set of suspicious feature indices, held sorted."""

    indices: tuple[int, ...]

    def __post_init__(self):
        idx = tuple(sorted(int(i) for i in self.indices))
        if not idx:
            raise ValueError("symptom set must be non-empty")
        if len(set(idx)) != len(idx):
            raise ValueError("symptom set has duplicate indices")
        if idx[0] < 0:
            raise ValueError("symptom indices must be non-negative")
        object.__setattr__(self, "indices", idx)

    def __len__(self) -> int:
        return len(self.indices)


def _check_binary(visits: FeatureMatrix):
    if not visits.is_binary():
        raise ValueError("visit matrix must be binary-valued")


def symptom_counts(visits: FeatureMatrix, v_sym: SymptomSet) -> np.ndarray:
    """Number of active suspicious symptoms per row."""
    idx = np.asarray(v_sym.indices, dtype=np.intp)
    if idx.max() >= visits.n_dims:
        raise ValueError(f"symptom index {idx.max()} is not one of the {visits.n_dims} columns")
    sub = visits.raw[:, idx]
    if visits.is_sparse:
        return np.asarray(sub.sum(axis=1)).ravel()
    return sub.sum(axis=1)


def simulate_labels(visits: FeatureMatrix, groups: np.ndarray, group_names: list[str],
                    v_sym: SymptomSet, c: dict[str, float], seed: int) -> LabeledDataset:
    """Simulate (y, s) on top of a visit matrix from a suspicious-symptom set.

    ``latent_p = sigmoid(k / sqrt(|v_sym|))`` with k the per-row count of
    active suspicious symptoms; y ~ Bernoulli(latent_p); s ~ Bernoulli(c_g y).
    The condition probability depends on the row only through k, never on
    the group, so the shared-condition-probability assumption holds exactly.
    ``c`` maps each group name to its labeling frequency c_g; ``seed``
    drives both draws.
    """
    if any(not (0.0 <= v <= 1.0) for v in c.values()):
        raise ValueError("labeling frequencies must lie in [0, 1]")
    _check_binary(visits)
    missing = [name for name in group_names if name not in c]
    if missing:
        raise ValueError(f"no labeling frequency for group(s) {', '.join(map(repr, missing))}")
    groups = np.asarray(groups, dtype=np.int64)
    k = symptom_counts(visits, v_sym)
    latent_p = _logistic(k / np.sqrt(len(v_sym)))
    ss = np.random.SeedSequence([int(seed)])
    rng_y, rng_s = [np.random.default_rng(child) for child in ss.spawn(2)]
    n = visits.n_rows
    y = (rng_y.uniform(size=n) < latent_p).astype(np.int8)
    c_row = np.asarray([c[name] for name in group_names])[groups]
    s = ((rng_s.uniform(size=n) < c_row) & (y == 1)).astype(np.int8)
    return LabeledDataset(
        features=visits,
        group=groups,
        group_names=list(group_names),
        s=s,
        y=y,
        latent_p=latent_p,
    )


def _draw_frequent(visits: FeatureMatrix, pool: int, pick: int, seed: int,
                   what: str, remedy: str) -> SymptomSet:
    """``pick`` codes drawn uniformly from the ``pool`` most frequent, ranked
    by occurrence count descending with ties by index."""
    counts = visits.column_counts()
    seen = int((counts > 0).sum())
    if seen < pool:
        raise ValueError(f"{what}: only {seen} features ever occur, fewer than the {pool} "
                         f"most frequent to draw from; pass {remedy}")
    order = np.lexsort((np.arange(counts.size), -counts))
    rng = np.random.default_rng(np.random.SeedSequence([int(seed)]))
    chosen = rng.choice(order[:pool], size=pick, replace=False)
    return SymptomSet(tuple(int(i) for i in chosen))


def _top_by_ratio(ratio: np.ndarray, top: int) -> tuple[int, ...]:
    """The ``top`` codes of largest finite ratio, ties by index."""
    order = np.lexsort((np.arange(ratio.size), -ratio))
    return tuple(int(i) for i in order[np.isfinite(ratio[order])][:top])


SYMPTOM_MODES = ("common", "high-rp", "correlated", "recognized")
_SYMPTOM_FILE = "a symptom file with --symptoms PATH"


def select_symptoms(visits: FeatureMatrix, groups: np.ndarray, group_names: list[str],
                    mode: str, seed: int, anchors: SymptomSet | None = None,
                    group_num: str | None = None, group_den: str | None = None,
                    ) -> tuple[FeatureMatrix, SymptomSet]:
    """The visit matrix to simulate labels on and the symptom set of one of
    the ``SYMPTOM_MODES``, at the sizes of the paper's evaluation:

    - ``common``: 25 codes drawn from the 50 most frequent;
    - ``high-rp``: the 10 codes with the highest rate in ``group_num`` over
      ``group_den`` (default: the last group over the first), among codes
      that occur at least 50 times in both, which keeps every rate positive;
    - ``correlated``: the 25 codes whose rate among rows carrying one of the
      ``anchors`` most exceeds their overall rate, the anchors excluded;
      default anchors are 10 codes drawn from the 100 most frequent. The
      anchor columns are dropped from the returned matrix and the indices
      refer to the columns that remain;
    - ``recognized``: 100 codes drawn from those that occur at least 10
      times (all of them if fewer do).

    Every mode but ``correlated`` returns ``visits`` itself. ``seed`` drives
    the draws; rankings break ties by index. Where a mode finds too few
    codes to choose from, the ``ValueError`` says what to pass instead:
    anchors (``--anchors``) or a symptom file (``--symptoms PATH``).
    """
    if mode == "common":
        return visits, _draw_frequent(visits, 50, 25, seed, "common symptoms", _SYMPTOM_FILE)
    if mode == "high-rp":
        group_num = group_num or group_names[-1]
        group_den = group_den or group_names[0]
        for name in (group_num, group_den):
            if name not in group_names:
                raise ValueError(f"unknown group {name!r}; the data holds groups "
                                 f"{', '.join(map(repr, group_names))}")
        if group_num == group_den:
            raise ValueError(f"high-rp symptoms: group {group_num!r} is both the numerator "
                             "and the denominator of the rate ratio; pass two different "
                             "groups")
        groups = np.asarray(groups, dtype=np.int64)
        mask_num = groups == group_names.index(group_num)
        mask_den = groups == group_names.index(group_den)
        if not mask_num.any() or not mask_den.any():
            raise ValueError("both groups must be present")
        counts_num = visits.column_counts(mask_num)
        counts_den = visits.column_counts(mask_den)
        keep = (counts_num >= 50) & (counts_den >= 50)
        if not keep.any():
            raise ValueError("high-rp symptoms: no feature occurs at least 50 times in both "
                             f"groups; pass {_SYMPTOM_FILE}")
        rate_num = counts_num / mask_num.sum()
        rate_den = counts_den / mask_den.sum()
        ratio = np.where(keep, rate_num / np.where(keep, rate_den, 1.0), -np.inf)
        return visits, SymptomSet(_top_by_ratio(ratio, 10))
    if mode == "correlated":
        if anchors is None:
            anchors = _draw_frequent(visits, 100, 10, seed, "correlated anchors",
                                     f"anchor indices with --anchors PATH or {_SYMPTOM_FILE}")
        _check_binary(visits)
        anchor_rows = symptom_counts(visits, anchors) > 0
        n_pos = int(anchor_rows.sum())
        if n_pos == 0:
            raise ValueError("no row carries an anchor feature")
        counts_pos = visits.column_counts(anchor_rows)
        counts_all = visits.column_counts()
        with np.errstate(invalid="ignore"):
            ratio = np.where(counts_all > 0,
                             (counts_pos / n_pos) / (counts_all / visits.n_rows),
                             -np.inf)
        ratio[np.asarray(anchors.indices, dtype=np.intp)] = -np.inf
        chosen = _top_by_ratio(ratio, 25)
        if not chosen:
            raise ValueError("no candidate feature outside the anchor set")
        reduced, index_map = visits.drop_columns(anchors.indices)
        return reduced, SymptomSet(tuple(int(index_map[i]) for i in chosen))
    if mode == "recognized":
        eligible = np.flatnonzero(visits.column_counts() >= 10)
        if eligible.size == 0:
            raise ValueError("recognized symptoms: no feature occurs at least 10 times; "
                             f"pass {_SYMPTOM_FILE}")
        rng = np.random.default_rng(np.random.SeedSequence([int(seed)]))
        chosen = rng.choice(eligible, size=min(100, eligible.size), replace=False)
        return visits, SymptomSet(tuple(int(i) for i in chosen))
    raise ValueError(f"unknown symptom-selection mode {mode!r}; expected one of "
                     f"{', '.join(SYMPTOM_MODES)}")


def load_symptom_indices(path: str, n_dims: int) -> SymptomSet:
    """Read a newline-separated list of feature indices, each one of the
    ``n_dims`` columns of the visit matrix it selects from."""
    columns = f"the data's {n_dims} columns, 0 to {n_dims - 1}"
    indices: list[int] = []
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            try:
                index = int(line)
            except ValueError:
                raise ValueError(f"{path} line {lineno}: expected an integer index") from None
            if not 0 <= index < n_dims:
                raise ValueError(f"{path} line {lineno}: index {index} is not one of {columns}")
            indices.append(index)
    if not indices:
        raise ValueError(f"{path} lists no index; expected one or more of {columns}")
    return SymptomSet(tuple(indices))


_ZIPF_EXPONENT = 0.9
_ZIPF_OFFSET = 10.0
_GROUP_TILT = 0.4


def generate_visit_corpus(n_a: int, n_b: int, n_dims: int, mean_active: float = 8.0,
                          seed: int = 0):
    """Synthetic stand-in for a real visit matrix, at desk scale.

    Feature frequencies follow a (shifted) Zipf profile; each feature's rate
    is additionally tilted per group by a lognormal factor, so the feature
    distribution differs across groups while staying binary and sparse.
    Returns (visits, group ids, group names) with group a's rows first.
    """
    sp = _scipy_sparse()
    ss = np.random.SeedSequence([int(seed)])
    rng_tilt, rng_a, rng_b = [np.random.default_rng(child) for child in ss.spawn(3)]
    ranks = np.arange(1, n_dims + 1, dtype=np.float64)
    base = (ranks + _ZIPF_OFFSET) ** (-_ZIPF_EXPONENT)
    base *= mean_active / base.sum()
    tilt = np.exp(_GROUP_TILT * rng_tilt.standard_normal(n_dims))
    p_a = np.clip(base * tilt, 0.0, 0.6)
    p_b = np.clip(base / tilt, 0.0, 0.6)

    def draw_block(rng, n_rows, p):
        rows_parts, cols_parts = [], []
        for j in range(n_dims):
            n_hits = rng.binomial(n_rows, p[j])
            if n_hits == 0:
                continue
            hit_rows = rng.choice(n_rows, size=n_hits, replace=False)
            rows_parts.append(hit_rows)
            cols_parts.append(np.full(n_hits, j, dtype=np.int64))
        rows = np.concatenate(rows_parts) if rows_parts else np.empty(0, dtype=np.int64)
        cols = np.concatenate(cols_parts) if cols_parts else np.empty(0, dtype=np.int64)
        return sp.csr_matrix((np.ones(rows.size), (rows, cols)), shape=(n_rows, n_dims))

    block_a = draw_block(rng_a, n_a, p_a)
    block_b = draw_block(rng_b, n_b, p_b)
    visits = FeatureMatrix(sp.vstack([block_a, block_b], format="csr"))
    group = np.concatenate([np.zeros(n_a, dtype=np.int64), np.ones(n_b, dtype=np.int64)])
    return visits, group, ["a", "b"]
