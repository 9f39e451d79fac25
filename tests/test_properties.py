"""Invariants of the full-batch fit, checked on generated Gaussian data sets.

Example counts stay small: each example runs two fits over a two-value L1
grid.
"""

from dataclasses import replace

import numpy as np
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from purple.data import FeatureMatrix, SplitSpec, split
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
