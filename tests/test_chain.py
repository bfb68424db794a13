"""Counting, contexts and boundary handling."""

import json

import numpy as np
import pytest

from conftest import keyed_sum
from memsel import chain
from memsel.chain import (
    START,
    BoundaryMode,
    CountTable,
    StateAlphabet,
    Trajectory,
    _count_depths,
    count_transitions,
)
from memsel.dataio import load_tie_map
from memsel.tying import TieMap, tie_counts

AB3 = StateAlphabet.of_size(3)


def rows_of(table):
    return {k: v.tolist() for k, v in table.rows.items()}


def tie_map_file(tmp_path, h, contexts):
    path = tmp_path / "tie.json"
    path.write_text(json.dumps({"h": h, "classes": [{"contexts": contexts}]}))
    return path


class TestAlphabetAndTrajectory:
    def test_alphabet_basics(self):
        ab = StateAlphabet(("a", "b", "c"))
        assert ab.size == 3
        assert ab.index("b") == 1
        assert ab.label(2) == "c"
        with pytest.raises(ValueError):
            ab.index("z")

    def test_alphabet_validation(self):
        with pytest.raises(ValueError):
            StateAlphabet(("only",))
        with pytest.raises(ValueError):
            StateAlphabet(("x", "x"))

    def test_trajectory_validation(self):
        with pytest.raises(ValueError):
            Trajectory("empty", ())
        with pytest.raises(ValueError):
            Trajectory("neg", (0, -2))
        assert len(Trajectory("ok", (0, 1, 0))) == 3

    def test_trajectory_error_messages(self):
        with pytest.raises(ValueError, match=r"^trajectory 'empty' has no steps$"):
            Trajectory("empty", ())
        with pytest.raises(ValueError,
                           match=r"^trajectory 'neg' contains a negative state id$"):
            Trajectory("neg", (0, 1, -2, 1))
        assert Trajectory("np", np.array([1, 0])).steps == (1, 0)

    def test_indices_maps_str_of_each_label(self):
        ab = StateAlphabet(("0", "1", "x"))
        assert ab.indices(["x", 0, "1", 1]) == (2, 0, 1, 1)
        assert ab.indices([]) == ()
        with pytest.raises(ValueError, match=r"^unknown state label '7'$"):
            ab.indices(["0", 7, "1"])


class TestContext:
    # contexts are plain token tuples; they enter from outside through tie
    # maps, which check them
    def test_empty_context_for_h0(self, tmp_path):
        tm = load_tie_map(tie_map_file(tmp_path, 0, [[]]), AB3)
        assert list(tm.assignments) == [()]
        assert tm.class_of(()) == 0

    def test_start_prefix_allowed(self, tmp_path):
        tm = load_tie_map(tie_map_file(tmp_path, 2, [["START", "2"]]), AB3)
        assert list(tm.assignments) == [(START, 2)]
        assert TieMap(2, 1, {(START, 2): 0}).class_of((START, 2)) == 0

    def test_order_sensitivity(self):
        tm = TieMap(3, 2, {(1, 0, 2): 0, (2, 0, 1): 1})
        assert tm.class_of((1, 0, 2)) != tm.class_of((2, 0, 1))

    def test_roundtrip(self, tmp_path):
        toks = (START, START, 1)
        tm = load_tie_map(tie_map_file(tmp_path, 3, [["START", "START", "1"]]), AB3)
        assert list(tm.assignments) == [toks]
        assert tm.class_of(toks) == 0

    def test_start_after_state_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="contiguous context prefix"):
            TieMap(2, 1, {(1, START): 0})
        with pytest.raises(ValueError, match="contiguous context prefix"):
            load_tie_map(tie_map_file(tmp_path, 2, [["1", "START"]]), AB3)
        with pytest.raises(ValueError, match="invalid context token"):
            TieMap(1, 1, {(-2,): 0})
        with pytest.raises(ValueError, match="not a length-2 context"):
            TieMap(2, 1, {(1,): 0})

    def test_out_of_range_token_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            load_tie_map(tie_map_file(tmp_path, 1, [["3"]]), AB3)


class TestCounting:
    def test_truncated_h1(self):
        tc = count_transitions([Trajectory("t", (0, 1, 2))], 1, AB3, BoundaryMode.TRUNCATED)
        assert rows_of(tc.total) == {(0,): [0, 1, 0], (1,): [0, 0, 1]}
        assert tc.total.total_transitions() == 2

    def test_padded_h1_adds_first_step(self):
        tc = count_transitions([Trajectory("t", (0, 1, 2))], 1, AB3, BoundaryMode.PADDED)
        assert rows_of(tc.total) == {
            (START,): [1, 0, 0], (0,): [0, 1, 0], (1,): [0, 0, 1]}
        assert tc.total.total_transitions() == 3

    def test_truncated_h2(self):
        tc = count_transitions([Trajectory("t", (0, 1, 2, 0))], 2, AB3, BoundaryMode.TRUNCATED)
        assert rows_of(tc.total) == {(0, 1): [0, 0, 1], (1, 2): [1, 0, 0]}

    def test_padded_total_is_step_count(self):
        rng = np.random.default_rng(0)
        trajs = [Trajectory(f"t{i}", tuple(rng.integers(0, 3, int(rng.integers(1, 9))).tolist()))
                 for i in range(10)]
        for h in (0, 1, 2, 3):
            tc = count_transitions(trajs, h, AB3, BoundaryMode.PADDED)
            assert tc.total.total_transitions() == sum(len(t) for t in trajs)
            tcT = count_transitions(trajs, h, AB3, BoundaryMode.TRUNCATED)
            assert tcT.total.total_transitions() == sum(max(len(t) - h, 0) for t in trajs)

    def test_h0_single_context(self):
        tc = count_transitions([Trajectory("a", (0, 1)), Trajectory("b", (2,))], 0, AB3)
        assert set(tc.total.rows) == {()}
        assert tc.total.get(()).sum() == 3

    def test_per_trajectory_tables_sum_to_total(self):
        rng = np.random.default_rng(1)
        trajs = [Trajectory(f"t{i}", tuple(rng.integers(0, 3, int(rng.integers(1, 7))).tolist()))
                 for i in range(8)]
        tc = count_transitions(trajs, 2, AB3)
        rebuilt = keyed_sum([t for _, t in tc.per_trajectory], 2, AB3, BoundaryMode.PADDED)
        assert rebuilt == tc.total

    def test_trajectory_order_invariance_of_total(self):
        rng = np.random.default_rng(2)
        trajs = [Trajectory(f"t{i}", tuple(rng.integers(0, 3, 5).tolist())) for i in range(6)]
        a = count_transitions(trajs, 1, AB3).total
        b = count_transitions(trajs[::-1], 1, AB3).total
        assert a == b

    def test_errors(self):
        with pytest.raises(ValueError):
            count_transitions([], 1, AB3)
        with pytest.raises(ValueError):
            count_transitions([Trajectory("t", (0,))], -1, AB3)
        with pytest.raises(ValueError):
            count_transitions([Trajectory("t", (0, 5))], 1, AB3)

    def test_error_messages(self):
        good, bad = Trajectory("good", (0, 1, 2)), Trajectory("bad", (1, 4, 0))
        for mode in BoundaryMode:
            with pytest.raises(ValueError, match=r"trajectory 'bad' contains state id 4"):
                count_transitions([good, bad, good], 1, AB3, mode)
        with pytest.raises(ValueError, match="h must be >= 0"):
            count_transitions([good], -1, AB3)
        with pytest.raises(ValueError, match="no trajectories"):
            count_transitions(iter(()), 0, AB3)


class TestCountTable:
    def test_zero_rows_dropped_and_readonly(self):
        table = CountTable(1, AB3, {
            (0,): np.array([0, 0, 0]),
            (1,): np.array([1, 0, 2]),
        })
        assert set(table.rows) == {(1,)}
        with pytest.raises(ValueError):
            table.rows[(1,)][0] = 9

    def test_get_missing_is_zero(self):
        table = CountTable(1, AB3, {(1,): np.array([1, 0, 2])})
        assert table.get((0,)).tolist() == [0, 0, 0]

    def test_negative_counts_rejected(self):
        with pytest.raises(ValueError):
            CountTable(0, AB3, {(): np.array([1, -1, 0])})

    def test_matrix_insertion_order(self):
        table = CountTable(1, AB3, {
            (2,): np.array([0, 1, 0]),
            (0,): np.array([3, 0, 0]),
        })
        assert table.keys == ((2,), (0,))
        assert table.counts.tolist() == [[0, 1, 0], [3, 0, 0]]


def reference_counts(trajs, h, m, mode):
    """Per-step count loop: total rows and each trajectory's rows, in order of first occurrence."""
    total: dict[tuple, list[int]] = {}
    per_trajectory = []
    for tr in trajs:
        rows: dict[tuple, list[int]] = {}
        for i, dest in enumerate(tr.steps):
            if mode is BoundaryMode.TRUNCATED and i < h:
                continue
            ctx = tuple(tr.steps[i - lag] if i >= lag else START for lag in range(h, 0, -1))
            for table in (total, rows):
                table.setdefault(ctx, [0] * m)[dest] += 1
        per_trajectory.append(rows)
    return total, per_trajectory


class TestCountDepths:
    """All depths counted in one pass equal each depth counted on its own."""

    @staticmethod
    def assert_matches(tc, trajs, h, m, mode):
        total, per_trajectory = reference_counts(trajs, h, m, mode)
        keys = tc.total.keys
        assert list(keys) == list(total)
        assert tc.total.counts.tolist() == list(total.values())
        idx, counts, bounds = tc.stacked()
        b = bounds.tolist()
        assert b[-1] == len(idx)
        for j, rows in enumerate(per_trajectory):
            assert [keys[i] for i in idx[b[j]:b[j + 1]].tolist()] == list(rows)
            assert counts[b[j]:b[j + 1]].tolist() == list(rows.values())

    def check(self, trajs, hs, m, mode):
        alphabet = StateAlphabet.of_size(m)
        batched = _count_depths([trajs], hs, alphabet, mode)
        assert sorted(batched) == sorted(set(hs))
        for h in hs:
            alone = count_transitions(trajs, h, alphabet, mode)
            for tc in (batched[h].view(0), alone):
                assert (tc.h, tc.boundary, tc.ids) == (h, mode, tuple(t.id for t in trajs))
                self.assert_matches(tc, trajs, h, m, mode)

    @pytest.mark.parametrize("mode", list(BoundaryMode))
    def test_random_datasets(self, mode):
        rng = np.random.default_rng(11)
        for m in range(2, 9):
            for j in (1, 3, 7):
                trajs = [Trajectory(f"t{i}", tuple(rng.integers(0, m, int(rng.integers(1, 12)))
                                                   .tolist())) for i in range(j)]
                self.check(trajs, [0, 1, 2, 3, 5, 9], m, mode)
                self.check(trajs, [4], m, mode)

    @pytest.mark.parametrize("mode", list(BoundaryMode))
    def test_deep_contexts_past_int64_rerank(self, mode):
        # 3^40 > 2^63: the M=2 code is re-ranked before the lag-40 digit goes on
        rng = np.random.default_rng(3)
        trajs = [Trajectory(f"t{i}", tuple(rng.integers(0, 2, int(n)).tolist()))
                 for i, n in enumerate(rng.integers(30, 90, 5))]
        self.check(trajs, range(40, 46), 2, mode)

    @pytest.mark.parametrize("per_key", [0, 10**9])
    @pytest.mark.parametrize("mode", list(BoundaryMode))
    def test_dense_and_sorted_ranking(self, monkeypatch, mode, per_key):
        # a bound of 0 sends every ranking to the sort, 10**9 every one to the table
        monkeypatch.setattr(chain, "_DENSE_SPAN_PER_KEY", per_key)
        rng = np.random.default_rng(8)
        trajs = [Trajectory(f"t{i}", tuple(rng.integers(0, 2, int(n)).tolist()))
                 for i, n in enumerate(rng.integers(30, 90, 5))]
        self.check(trajs, range(40, 46), 2, mode)
        for m in (2, 5, 9):
            trajs = [Trajectory(f"t{i}", tuple(rng.integers(0, m, int(rng.integers(1, 15)))
                                               .tolist())) for i in range(6)]
            self.check(trajs, [0, 1, 2, 4, 7], m, mode)

    @pytest.mark.parametrize("mode", list(BoundaryMode))
    def test_ranking_tables_stay_within_m_plus_1_per_step(self, monkeypatch, mode):
        spans = []

        def spy(keys, span):
            spans.append(span)
            return first_occurrence(keys, span)

        first_occurrence = chain._first_occurrence
        monkeypatch.setattr(chain, "_first_occurrence", spy)
        rng = np.random.default_rng(9)
        for m in (2, 4, 12):
            trajs = [Trajectory(f"t{i}", tuple(rng.integers(0, m, 40).tolist()))
                     for i in range(30)]
            spans.clear()
            _count_depths([trajs], range(0, 12), StateAlphabet.of_size(m), mode)
            assert spans and max(spans) <= (m + 1) * 40 * 30

    def test_unsorted_and_repeated_depths(self):
        trajs = [Trajectory("a", (0, 1, 2, 1)), Trajectory("b", (2, 2))]
        self.check(trajs, [3, 1, 3, 0], 3, BoundaryMode.PADDED)


def reference_first_occurrence(keys):
    """Sorting reference: np.unique's ids renumbered by first position."""
    _, first, inverse = np.unique(keys, return_index=True, return_inverse=True)
    order = np.argsort(first, kind="stable")
    rank = np.empty_like(order)
    rank[order] = np.arange(order.size)
    return rank[inverse.ravel()], first[order]


class TestFirstOccurrence:
    @pytest.mark.parametrize("per_key", [0, chain._DENSE_SPAN_PER_KEY, 10**9])
    def test_matches_sorting_reference(self, monkeypatch, per_key):
        monkeypatch.setattr(chain, "_DENSE_SPAN_PER_KEY", per_key)
        rng = np.random.default_rng(4)
        for n in (0, 1, 2, 9, 100, 3000):
            for span in {1, 2, n + 1, 5 * n + 1, 40 * n + 3}:
                keys = rng.integers(0, span, n)
                rank, first = chain._first_occurrence(keys, span)
                want_rank, want_first = reference_first_occurrence(keys)
                assert rank.tolist() == want_rank.tolist()
                assert first.tolist() == want_first.tolist()

    @pytest.mark.parametrize("per_key", [0, 10**9])
    def test_tie_counts_on_either_branch(self, monkeypatch, per_key):
        rng = np.random.default_rng(6)
        trajs = [Trajectory(f"t{i}", tuple(rng.integers(0, 3, 25).tolist())) for i in range(9)]
        tc = count_transitions(trajs, 2, AB3)
        classes = {ctx: i % 4 for i, ctx in enumerate(sorted(tc.total.rows))}
        tie_map = TieMap(h=2, n_classes=4, assignments=classes)
        want = tie_counts(tc, tie_map)
        monkeypatch.setattr(chain, "_DENSE_SPAN_PER_KEY", per_key)
        got = tie_counts(tc, tie_map)
        assert got.total == want.total
        for a, b in zip(got.stacked(), want.stacked()):
            assert a.tolist() == b.tolist()
