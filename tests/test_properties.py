"""Property tests over random small instances (derandomized, so reproducible)."""

import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_instance
from memsel.chain import StateAlphabet, Trajectory
from memsel.criteria import CRITERIA, argmin, evaluate, evaluate_depths

PROPERTY = settings(derandomize=True, max_examples=40, deadline=None)


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
