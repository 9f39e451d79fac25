"""Two-group Gaussian synthetic data with group-dependent label frequencies.

Features for each group are isotropic Gaussians; the condition probability
is a logistic function of the signed distance to the hyperplane through the
origin normal to the all-ones vector; observed labels thin the true labels
by a per-group frequency. Variants cover separable classes, a sweep over the
gap between group means, and a controlled breach of the shared-condition-
probability assumption. A dataset is a pure function of its config and seed.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .data import FeatureMatrix, LabeledDataset
from .model import _logistic

# Sub-stream indices of the per-dataset seed: changing one column's draws
# (e.g. relabeling s under a new c) never perturbs the others.
_STREAM_X, _STREAM_Y, _STREAM_S, _STREAM_SEPARABLE_S = 0, 1, 2, 3


@dataclass
class GaussSynthConfig:
    n_dims: int = 5
    mean_a: np.ndarray | None = None   # default: -1 in every coordinate
    mean_b: np.ndarray | None = None   # default: +1 in every coordinate
    variance: float = 16.0
    n_a: int = 10000
    n_b: int = 20000
    c: dict[str, float] = field(default_factory=lambda: {"a": 0.5, "b": 0.25})
    separable: bool = False
    violation_delta: float = 0.0

    def __post_init__(self):
        if self.n_dims < 1:
            raise ValueError("n_dims must be at least 1")
        if self.n_a < 1 or self.n_b < 1:
            raise ValueError(f"n_a and n_b must be at least 1, got {self.n_a}, {self.n_b}")
        if self.mean_a is None:
            self.mean_a = -np.ones(self.n_dims)
        if self.mean_b is None:
            self.mean_b = np.ones(self.n_dims)
        self.mean_a = np.asarray(self.mean_a, dtype=np.float64)
        self.mean_b = np.asarray(self.mean_b, dtype=np.float64)
        if self.variance <= 0:
            raise ValueError("variance must be positive")
        if set(self.c) != {"a", "b"}:
            raise ValueError("c must map exactly the groups 'a' and 'b'")
        if any(not (0.0 <= v <= 1.0) for v in self.c.values()):
            raise ValueError("labeling frequencies must lie in [0, 1]")
        if not abs(self.violation_delta) < 1.0:
            raise ValueError("violation_delta must satisfy |delta| < 1")
        for name, vec in (("mean_a", self.mean_a), ("mean_b", self.mean_b)):
            if vec.shape != (self.n_dims,):
                raise ValueError(f"{name} must have length n_dims={self.n_dims}")


def _rng(seed: int, stream: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence([int(seed), stream]))


def generate_gauss(config: GaussSynthConfig, seed: int) -> LabeledDataset:
    """Draw one dataset from the generative model.

    Row order is group a's block followed by group b's. ``latent_p`` stores
    the exact per-row condition probability, ``sigmoid(w.x / ||w||)`` for
    the all-ones ``w``, so s=1 implies y=1 by
    construction and the true relative prevalence is recoverable downstream.
    A nonzero ``violation_delta`` breaks the shared condition probability:
    it adds +delta/2 in group a and -delta/2 in group b, clamped to [0, 1].

    ``separable`` drops the 40% of rows whose ``latent_p`` is closest to 0.5
    (ties broken by row index). The rest keep their order and their
    features, ``latent_p`` is thresholded to 0/1, ``y`` equals it, and ``s``
    is drawn from a sub-stream of its own.
    """
    n = config.n_a + config.n_b
    group = np.concatenate([np.zeros(config.n_a, dtype=np.int64),
                            np.ones(config.n_b, dtype=np.int64)])
    std = np.sqrt(config.variance)
    # Standard normals first: the x stream is identical across mean/c sweeps.
    x = _rng(seed, _STREAM_X).standard_normal((n, config.n_dims)) * std
    x[:config.n_a] += config.mean_a
    x[config.n_a:] += config.mean_b

    w = np.ones(config.n_dims)
    z = x @ w / np.linalg.norm(w)
    latent_p = _logistic(z)
    if config.violation_delta != 0.0:
        half = config.violation_delta / 2.0
        latent_p = latent_p + np.where(group == 0, half, -half)
        latent_p = np.clip(latent_p, 0.0, 1.0)

    if config.separable:
        n_drop = int(np.floor(0.4 * n))
        keep = np.sort(np.argsort(np.abs(latent_p - 0.5), kind="stable")[n_drop:])
        x, group = x[keep], group[keep]
        latent_p = (latent_p[keep] > 0.5).astype(np.float64)
        y = latent_p.astype(np.int8)
        rng_s = _rng(seed, _STREAM_SEPARABLE_S)
    else:
        y = (_rng(seed, _STREAM_Y).uniform(size=n) < latent_p).astype(np.int8)
        rng_s = _rng(seed, _STREAM_S)
    c_row = np.where(group == 0, config.c["a"], config.c["b"])
    s = ((rng_s.uniform(size=group.size) < c_row) & (y == 1)).astype(np.int8)
    return LabeledDataset(features=FeatureMatrix(x), group=group, group_names=["a", "b"],
                          s=s, y=y, latent_p=latent_p)
