"""Context tying and the jagged free-throw model."""

import numpy as np
import pytest

from conftest import keyed_sum, rows_of
from memsel.chain import (
    START,
    BoundaryMode,
    StateAlphabet,
    Trajectory,
    count_transitions,
)
from memsel.criteria import CRITERIA, evaluate
from memsel.tying import TieMap, jagged_free_throw_map, tie_counts, tied_param_count

AB2 = StateAlphabet(("0", "1"))


def binary_games(rng, n_games=25, p=0.6):
    out = []
    for i in range(n_games):
        length = int(rng.integers(1, 9))
        out.append(Trajectory(f"g{i}", tuple((rng.random(length) < p).astype(int).tolist())))
    return out


def test_tiemap_validation():
    with pytest.raises(ValueError):
        TieMap(1, 0, {})
    with pytest.raises(ValueError):
        TieMap(1, 2, {(0,): 5})
    with pytest.raises(ValueError):
        TieMap(1, 2, {(0, 1): 0})  # wrong context length
    with pytest.raises(ValueError):
        TieMap(1, 2, {}, default_class=7)
    tm = TieMap(1, 2, {(0,): 0}, default_class=1)
    assert tm.class_of((1,)) == 1
    tm2 = TieMap(1, 2, {(0,): 0, (2,): 1})
    with pytest.raises(ValueError):
        tm2.class_of((1,))


def test_class_without_context_must_be_the_default():
    # it would add M - 1 free parameters that no count uses
    with pytest.raises(ValueError, match="class 1 has no context and is not the default"):
        TieMap(1, 3, {(0,): 0, (2,): 2})
    with pytest.raises(ValueError, match="class 0 has no context"):
        TieMap(0, 1, {})
    assert TieMap(1, 3, {(0,): 0, (2,): 2}, default_class=1).class_of((1,)) == 1


def test_identity_map_preserves_all_criteria_exactly():
    rng = np.random.default_rng(0)
    trajs = binary_games(rng)
    tc = count_transitions(trajs, 1, AB2)
    identity = TieMap(1, 3, {
        (START,): 0, (0,): 1, (1,): 2})
    tied = tie_counts(tc, identity)
    a = evaluate(tc, k_params=3)
    b = evaluate(tied, k_params=3)
    for name in CRITERIA:
        assert a.value(name) == b.value(name)


def test_constant_map_equals_h0_counts():
    rng = np.random.default_rng(1)
    trajs = binary_games(rng)
    tc1 = count_transitions(trajs, 1, AB2)
    pooled = tie_counts(tc1, TieMap(1, 1, {}, default_class=0))
    tc0 = count_transitions(trajs, 0, AB2)
    assert pooled.total.n_contexts == 1
    (pooled_row,) = pooled.total.rows.values()
    (h0_row,) = tc0.total.rows.values()
    assert np.array_equal(pooled_row, h0_row)
    a = evaluate(pooled, k_params=1)
    b = evaluate(tc0, k_params=1)
    for name in CRITERIA:
        assert a.value(name) == pytest.approx(b.value(name), rel=1e-12)


def test_class_count_conservation():
    rng = np.random.default_rng(2)
    trajs = binary_games(rng)
    tc = count_transitions(trajs, 1, AB2)
    tied = tie_counts(tc, jagged_free_throw_map(AB2))
    rebuilt = keyed_sum([t for _, t in tied.per_trajectory], 1, AB2, BoundaryMode.PADDED)
    assert rows_of(rebuilt) == rows_of(tied.total)
    assert tied.total.total_transitions() == tc.total.total_transitions()


def test_h_mismatch_rejected():
    rng = np.random.default_rng(3)
    tc = count_transitions(binary_games(rng), 2, AB2)
    with pytest.raises(ValueError):
        tie_counts(tc, jagged_free_throw_map(AB2))


@pytest.mark.parametrize("ctx", [(5,), (START, 2)])
def test_out_of_alphabet_tie_tokens_rejected(ctx):
    # such a context can never be counted, so it would silently catch nothing
    tc = count_transitions(binary_games(np.random.default_rng(3)), len(ctx), AB2)
    tie_map = TieMap(len(ctx), 2, {ctx: 0}, default_class=1)
    with pytest.raises(ValueError, match=rf"token {max(ctx)}.*M=2"):
        tie_counts(tc, tie_map)


def test_unmapped_context_without_default_rejected():
    tc = count_transitions([Trajectory("g", (0, 1, 1, 0))], 1, AB2)
    partial = TieMap(1, 2, {(START,): 0, (0,): 1})
    with pytest.raises(ValueError, match="no tie class"):
        tie_counts(tc, partial)


class TestJaggedMap:
    def test_padded_classes(self):
        tm = jagged_free_throw_map(AB2)
        assert tm.n_classes == 2
        assert tm.class_of((0,)) == 0       # after a miss
        assert tm.class_of((1,)) == 1       # after a hit
        assert tm.class_of((START,)) == 1   # first shot of a game
        assert tied_param_count(tm, 2) == 2

    def test_truncated_classes(self):
        # truncated counts hold no START row: class 1 is the after-hit row alone
        trajs = [Trajectory("a", (1, 1, 0)), Trajectory("b", (0, 0, 1))]
        tc = count_transitions(trajs, 1, AB2, BoundaryMode.TRUNCATED)
        tied = tie_counts(tc, jagged_free_throw_map(AB2))
        assert tied.total.rows[0].tolist() == [1, 1]  # after a miss: 0 -> 0, 0 -> 1
        assert tied.total.rows[1].tolist() == [1, 1]  # after a hit: 1 -> 1, 1 -> 0
        assert tied.total.total_transitions() == 4

    def test_first_shot_pools_with_after_hit(self):
        # games starting with a make and a miss: the first-shot counts land
        # in class 1 together with the after-hit counts
        trajs = [Trajectory("a", (1, 1)), Trajectory("b", (0, 0))]
        tc = count_transitions(trajs, 1, AB2)
        tied = tie_counts(tc, jagged_free_throw_map(AB2))
        # class 1 rows: two first shots (one make, one miss) + after-hit make
        assert tied.total.rows[1].tolist() == [1, 2]
        assert tied.total.rows[0].tolist() == [1, 0]

    def test_needs_binary_alphabet(self):
        with pytest.raises(ValueError):
            jagged_free_throw_map(StateAlphabet.of_size(3))
