"""Property tests over random small instances (derandomized, so reproducible)."""

import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

import memsel.criteria
from conftest import random_instance
from memsel.chain import BoundaryMode, StateAlphabet, Trajectory, count_transitions, merge_counts
from memsel.criteria import (
    CRITERIA,
    DirichletPrior,
    argmin,
    evaluate,
    evaluate_depths,
    predictive_log_density,
)
from memsel.oracle import cv2_refit, loo_refit
from memsel.specfun import log_multivariate_beta, trigamma

PROPERTY = settings(derandomize=True, max_examples=40, deadline=None)


def reference_terms(tc, prior):
    """LPPD, LOO, CV2 and k_WAIC2 (log scale), one trajectory at a time."""
    tables = [t for _, t in tc.per_trajectory]
    half = len(tables) // 2
    meta = dict(h=tc.h, alphabet=tc.alphabet, boundary=tc.boundary)
    folds = (merge_counts(tables[half:], **meta), merge_counts(tables[:half], **meta))
    a = prior.alpha
    lppd = loo = cv2 = k_waic2 = 0.0
    for j, table in enumerate(tables):
        keys, t = table.matrix()
        if not keys:
            continue
        g = np.stack([tc.total.get(key) for key in keys])
        lppd += float(np.sum(log_multivariate_beta(g + t + a) - log_multivariate_beta(g + a)))
        loo += float(np.sum(log_multivariate_beta(g + a) - log_multivariate_beta((g - t) + a)))
        cv2 += predictive_log_density(folds[j >= half], table, prior)
        tf = t.astype(float)
        ts = tf.sum(axis=1)
        k_waic2 += float(np.sum(tf * tf * trigamma(g + a))
                         - np.sum(ts * ts * trigamma(g.sum(axis=1) + prior.total)))
    return {"LPPD": -2.0 * lppd, "LOO": -2.0 * loo,
            "CV2": -2.0 * cv2 if len(tables) >= 2 else math.nan, "k_WAIC2": k_waic2}


def random_case(seed, m, j, h, mode, asymmetric):
    """Counts at depth h of J random walks, plus a symmetric or random prior."""
    rng = np.random.default_rng(seed)
    _, trajs, tc = random_instance(rng, m=m, j=j, h=h, max_len=8, mode=mode)
    prior = DirichletPrior(rng.uniform(0.2, 3.0, m)) if asymmetric else DirichletPrior.symmetric(m)
    return trajs, tc, prior


def assert_matches_reference(tc, prior):
    rep = evaluate(tc, prior)
    for name, expected in reference_terms(tc, prior).items():
        got = rep.value(name)
        assert got == expected or (math.isnan(got) and math.isnan(expected)), name


@PROPERTY
@given(
    seed=st.integers(0, 2**32 - 1),
    j=st.integers(1, 4),
    which=st.lists(st.sampled_from(CRITERIA), unique=True),
)
def test_subset_evaluation_matches_full_report(seed, j, which):
    _, _, tc = random_instance(np.random.default_rng(seed), j=j)
    full = evaluate(tc)
    part = evaluate(tc, which=which)
    assert set(which) <= set(part.values)
    for name, value in part.values.items():
        expected = full.value(name)
        assert value == expected or (math.isnan(value) and math.isnan(expected)), name


@PROPERTY
@given(seed=st.integers(0, 2**32 - 1), j=st.integers(2, 5), m=st.integers(2, 3))
def test_trajectory_order_leaves_argmin_unchanged(seed, j, m):
    rng = np.random.default_rng(seed)
    alphabet = StateAlphabet.of_size(m)
    trajs = [Trajectory(f"t{i}", tuple(rng.integers(0, m, int(rng.integers(1, 8))).tolist()))
             for i in range(j)]
    shuffled = [trajs[i] for i in rng.permutation(j)]
    a = evaluate_depths(trajs, alphabet, range(0, 3))
    b = evaluate_depths(shuffled, alphabet, range(0, 3))
    for name in CRITERIA:
        if name == "CV2":
            continue  # the folds follow input order by design
        assert argmin(a, name).h == argmin(b, name).h, name


@PROPERTY
@given(
    seed=st.integers(0, 2**32 - 1),
    m=st.integers(2, 4),
    j=st.integers(1, 6),
    h=st.integers(0, 4),
    mode=st.sampled_from(list(BoundaryMode)),
    asymmetric=st.booleans(),
    block_rows=st.sampled_from([1, 3, 8, memsel.criteria._BLOCK_ROWS]),
)
def test_pointwise_kernel_matches_per_trajectory_loop(seed, m, j, h, mode, asymmetric,
                                                       block_rows):
    # TRUNCATED walks shorter than h + 1 leave trajectories with no rows;
    # small block sizes split the stacked rows into many blocks
    _, tc, prior = random_case(seed, m, j, h, mode, asymmetric)
    default = memsel.criteria._BLOCK_ROWS
    memsel.criteria._BLOCK_ROWS = block_rows
    try:
        assert_matches_reference(tc, prior)
    finally:
        memsel.criteria._BLOCK_ROWS = default


@settings(derandomize=True, max_examples=4, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), mode=st.sampled_from(list(BoundaryMode)),
       asymmetric=st.booleans())
def test_pointwise_kernel_matches_loop_beyond_one_block(seed, mode, asymmetric):
    # walks of 20 to 1,500 steps over 8 states at h = 4 give tables of a
    # few to ~1,300 rows: at the default block size some blocks hold
    # several trajectories and some trajectories exceed a block alone
    rng = np.random.default_rng(seed)
    trajs = [Trajectory(f"t{i}", tuple(rng.integers(0, 8, rng.integers(20, 1500)).tolist()))
             for i in range(8)]
    tc = count_transitions(trajs, 4, StateAlphabet.of_size(8), mode)
    assert sum(t.n_contexts for _, t in tc.per_trajectory) > 2 * memsel.criteria._BLOCK_ROWS
    prior = DirichletPrior(rng.uniform(0.2, 3.0, 8)) if asymmetric else DirichletPrior.symmetric(8)
    assert_matches_reference(tc, prior)


@PROPERTY
@given(
    seed=st.integers(0, 2**32 - 1),
    m=st.integers(2, 3),
    j=st.integers(2, 5),
    h=st.integers(0, 3),
    mode=st.sampled_from(list(BoundaryMode)),
    asymmetric=st.booleans(),
)
def test_loo_and_cv2_equal_refit_loops(seed, m, j, h, mode, asymmetric):
    trajs, tc, prior = random_case(seed, m, j, h, mode, asymmetric)
    rep = evaluate(tc, prior, which=("LOO", "CV2"))
    assert rep.value("LOO") == loo_refit(tc, prior)
    assert rep.value("CV2") == cv2_refit(trajs, h, tc.alphabet, mode, prior)
