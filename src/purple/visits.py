"""Disease-label simulation over sparse binary visit matrices.

A visit matrix is a binary one-hot encoding of codes assigned during a
visit. Labels are simulated from a chosen set of suspicious symptoms: the
condition probability is a logistic function of the number of suspicious
symptoms present, identical across groups, and observed labels thin the
true labels by a per-group frequency.

Note on the probability formula: the condition probability is
``sigmoid(k / sqrt(|v_sym|))`` where ``k`` counts the active suspicious
symptoms -- the count is scaled by the Euclidean norm of the one-hot
symptom vector *inside* the sigmoid, mirroring the fully synthetic
generator's ``sigmoid(w.x / ||w||)`` form.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .data import FeatureMatrix, LabeledDataset, _scipy_sparse
from .model import _logistic


@dataclass(frozen=True)
class SymptomSet:
    """A named set of suspicious feature indices."""

    indices: tuple[int, ...]
    name: str = ""

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


@dataclass
class SemiSynthConfig:
    c: dict[str, float] = field(default_factory=lambda: {"a": 0.5, "b": 0.5})
    seed: int = 0

    def __post_init__(self):
        if any(not (0.0 <= v <= 1.0) for v in self.c.values()):
            raise ValueError("labeling frequencies must lie in [0, 1]")


def _check_binary(visits: FeatureMatrix):
    if not visits.is_binary():
        raise ValueError("visit matrix must be binary-valued")


def symptom_counts(visits: FeatureMatrix, v_sym: SymptomSet) -> np.ndarray:
    """Number of active suspicious symptoms per row."""
    idx = np.asarray(v_sym.indices, dtype=np.intp)
    if idx.max() >= visits.n_dims:
        raise ValueError("symptom index outside feature dimensionality")
    sub = visits.raw[:, idx]
    if visits.is_sparse:
        return np.asarray(sub.sum(axis=1)).ravel()
    return sub.sum(axis=1)


def simulate_labels(visits: FeatureMatrix, groups: np.ndarray, group_names: list[str],
                    v_sym: SymptomSet, cfg: SemiSynthConfig) -> LabeledDataset:
    """Simulate (y, s) on top of a visit matrix from a suspicious-symptom set.

    ``latent_p = sigmoid(k / sqrt(|v_sym|))`` with k the per-row count of
    active suspicious symptoms; y ~ Bernoulli(latent_p); s ~ Bernoulli(c_g y).
    The condition probability depends on the row only through k, never on
    the group, so the shared-condition-probability assumption holds exactly.
    """
    _check_binary(visits)
    missing = [name for name in group_names if name not in cfg.c]
    if missing:
        raise ValueError(f"no labeling frequency for group(s) {', '.join(map(repr, missing))}")
    groups = np.asarray(groups, dtype=np.int64)
    k = symptom_counts(visits, v_sym)
    latent_p = _logistic(k / np.sqrt(len(v_sym)))
    ss = np.random.SeedSequence([int(cfg.seed)])
    rng_y, rng_s = [np.random.default_rng(child) for child in ss.spawn(2)]
    n = visits.n_rows
    y = (rng_y.uniform(size=n) < latent_p).astype(np.int8)
    c_row = np.asarray([cfg.c[name] for name in group_names])[groups]
    s = ((rng_s.uniform(size=n) < c_row) & (y == 1)).astype(np.int8)
    return LabeledDataset(
        features=visits,
        group=groups,
        group_names=list(group_names),
        s=s,
        y=y,
        latent_p=latent_p,
        gen_info={"seed": int(cfg.seed), "c": dict(cfg.c), "symptoms": v_sym.name},
    )


def select_common_symptoms(visits: FeatureMatrix, pool: int = 50, pick: int = 25,
                           seed: int = 0) -> SymptomSet:
    """Uniformly sample ``pick`` symptoms from the ``pool`` most frequent ones.

    Frequency ranking is by occurrence count descending with ties broken by
    index, so the pool is a deterministic function of the matrix.
    """
    if pick > pool:
        raise ValueError("pick must not exceed pool")
    counts = visits.column_counts()
    if int((counts > 0).sum()) < pool:
        raise ValueError(f"fewer than pool={pool} features ever occur")
    order = np.lexsort((np.arange(counts.size), -counts))
    pool_idx = order[:pool]
    rng = np.random.default_rng(np.random.SeedSequence([int(seed)]))
    chosen = rng.choice(pool_idx, size=pick, replace=False)
    return SymptomSet(tuple(int(i) for i in chosen), name="common")


def select_high_rp_symptoms(visits: FeatureMatrix, groups: np.ndarray,
                            group_names: list[str], group_num: str, group_den: str,
                            min_count: int = 50, top: int = 10) -> SymptomSet:
    """Symptoms with the highest occurrence-rate ratio between two groups.

    Features occurring fewer than ``min_count`` times in either group are
    dropped first (which guarantees a positive denominator); the survivors
    are ranked by rate(group_num) / rate(group_den) descending, ties by
    index.
    """
    groups = np.asarray(groups, dtype=np.int64)
    for name in (group_num, group_den):
        if name not in group_names:
            raise ValueError(f"unknown group {name!r}; the data holds groups "
                             f"{', '.join(map(repr, group_names))}")
    gi_num = group_names.index(group_num)
    gi_den = group_names.index(group_den)
    mask_num = groups == gi_num
    mask_den = groups == gi_den
    if not mask_num.any() or not mask_den.any():
        raise ValueError("both groups must be present")
    counts_num = visits.column_counts(mask_num)
    counts_den = visits.column_counts(mask_den)
    keep = (counts_num >= min_count) & (counts_den >= min_count)
    if not keep.any():
        raise ValueError(f"no feature occurs at least min_count={min_count} times in both groups")
    rate_num = counts_num / mask_num.sum()
    rate_den = counts_den / mask_den.sum()
    ratio = np.where(keep, rate_num / np.where(keep, rate_den, 1.0), -np.inf)
    order = np.lexsort((np.arange(ratio.size), -ratio))
    chosen = [int(i) for i in order if keep[i]][:top]
    return SymptomSet(tuple(chosen), name="high-rp")


def select_correlated_symptoms(visits: FeatureMatrix, anchor: SymptomSet,
                               top: int = 25) -> SymptomSet:
    """Symptoms most over-represented among rows carrying an anchor feature.

    Per feature: (rate among anchor-positive rows) / (rate among all rows),
    ranked descending with ties by index. Anchor features themselves are
    excluded from the result; callers are expected to also drop the anchor
    columns from the matrix before simulating labels downstream.
    """
    _check_binary(visits)
    anchor_rows = symptom_counts(visits, anchor) > 0
    n_pos = int(anchor_rows.sum())
    if n_pos == 0:
        raise ValueError("no row carries an anchor feature")
    counts_pos = visits.column_counts(anchor_rows)
    counts_all = visits.column_counts()
    with np.errstate(invalid="ignore"):
        ratio = np.where(counts_all > 0,
                         (counts_pos / n_pos) / (counts_all / visits.n_rows),
                         -np.inf)
    ratio[np.asarray(anchor.indices, dtype=np.intp)] = -np.inf
    order = np.lexsort((np.arange(ratio.size), -ratio))
    chosen = [int(i) for i in order if np.isfinite(ratio[i])][:top]
    if not chosen:
        raise ValueError("no candidate feature outside the anchor set")
    return SymptomSet(tuple(chosen), name="correlated")


def drop_anchor_features(visits: FeatureMatrix, anchor: SymptomSet,
                         selected: SymptomSet) -> tuple[FeatureMatrix, SymptomSet]:
    """Remove anchor columns from the matrix and remap the selected indices."""
    reduced, index_map = visits.drop_columns(anchor.indices)
    remapped = tuple(int(index_map[i]) for i in selected.indices)
    if any(i < 0 for i in remapped):
        raise ValueError("selected symptoms overlap the anchor set")
    return reduced, SymptomSet(remapped, name=selected.name)


def load_symptom_indices(path: str, name: str = "") -> SymptomSet:
    """Read a newline-separated list of feature indices."""
    indices = []
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            try:
                indices.append(int(line))
            except ValueError:
                raise ValueError(f"{path} line {lineno}: expected an integer index") from None
    return SymptomSet(tuple(indices), name=name or path)


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
