"""Property tests over random small instances (derandomized, so reproducible)."""

import json
import math
from functools import reduce
from operator import add

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import keyed_sum, random_instance
from memsel.chain import (
    START,
    BoundaryMode,
    StateAlphabet,
    Trajectory,
    _count_depths,
    count_transitions,
)
from memsel.criteria import (
    CRITERIA,
    DirichletPrior,
    argmin,
    evaluate,
    evaluate_depths,
    predictive_log_density,
)
from memsel.dataio import Records, _json_text
from memsel.oracle import cv2_refit, loo_refit
from memsel.simulate import generate_network, sample_trajectory
from memsel.specfun import log_beta_ratio, trigamma
from memsel.tying import TieMap, tie_counts

PROPERTY = settings(derandomize=True, max_examples=40, deadline=None)


def reference_terms(tc, prior):
    """LPPD, LOO, CV2 and k_WAIC2 (log scale), one trajectory at a time.

    Each trajectory's k_WAIC2 term adds its per-row values left to right,
    the order in which ``np.bincount`` sums them.
    """
    tables = [t for _, t in tc.per_trajectory]
    half = len(tables) // 2
    meta = dict(h=tc.h, alphabet=tc.alphabet, boundary=tc.boundary)
    folds = (keyed_sum(tables[half:], **meta), keyed_sum(tables[:half], **meta))
    a = prior.alpha
    lppd = loo = cv2 = k_waic2 = 0.0
    for j, table in enumerate(tables):
        keys, t = table.keys, table.counts
        if not keys:
            continue
        g = np.stack([tc.total.get(key) for key in keys])
        lppd += float(log_beta_ratio(g + a, t)[0])
        loo += float(log_beta_ratio((g - t) + a, t)[0])
        cv2 += predictive_log_density(folds[j >= half], table, prior)
        tf = t.astype(float)
        ts = tf.sum(axis=1)
        per_row = ((tf * tf * trigamma(g + a)).sum(axis=1)
                   - ts * ts * trigamma(g.sum(axis=1) + prior.total))
        k_waic2 += reduce(add, per_row.tolist(), 0.0)
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
@given(
    m=st.integers(2, 4),
    sets=st.lists(st.lists(st.lists(st.integers(0, 3), min_size=1, max_size=8), min_size=1,
                           max_size=4), min_size=1, max_size=5),
    hs=st.sets(st.integers(0, 4), min_size=1),
    mode=st.sampled_from(list(BoundaryMode)),
)
def test_joint_counting_equals_each_set_counted_alone(m, sets, hs, mode):
    # one-step walks included: a TRUNCATED set may have no rows at some depth
    sets = [[Trajectory(f"s{s}t{i}", tuple(x % m for x in steps)) for i, steps in enumerate(g)]
            for s, g in enumerate(sets)]
    alphabet = StateAlphabet.of_size(m)
    joint = _count_depths(sets, hs, alphabet, mode)
    for h in hs:
        stack = joint[h]
        assert stack.n_sets == len(sets)
        alone = [_count_depths([group], hs, alphabet, mode)[h].view(0) for group in sets]
        # the stack holds each set's arrays in turn, as counted alone
        assert stack.counts.tobytes() == np.concatenate([a.total.counts for a in alone]).tobytes()
        assert stack.t.tobytes() == np.concatenate([a.stacked()[1] for a in alone]).tobytes()
        for s, want in enumerate(alone):
            got = stack.view(s)
            assert (got.h, got.boundary, got.ids) == (want.h, want.boundary, want.ids)
            assert got.total.keys == want.total.keys
            assert got.total.counts.dtype == want.total.counts.dtype
            assert got.total.counts.tobytes() == want.total.counts.tobytes()
            for a, b in zip(got.stacked(), want.stacked()):
                assert (a.dtype, a.shape, a.tobytes()) == (b.dtype, b.shape, b.tobytes())


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
)
def test_pointwise_kernel_matches_per_trajectory_loop(seed, m, j, h, mode, asymmetric):
    # TRUNCATED walks shorter than h + 1 leave trajectories with no rows
    _, tc, prior = random_case(seed, m, j, h, mode, asymmetric)
    assert_matches_reference(tc, prior)


@settings(derandomize=True, max_examples=4, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), mode=st.sampled_from(list(BoundaryMode)),
       asymmetric=st.booleans())
def test_pointwise_kernel_matches_loop_on_long_walks(seed, mode, asymmetric):
    # walks of 20 to 1,500 steps over 8 states at h = 4 give tables of a
    # few to ~1,300 rows, scored in one stacked call
    rng = np.random.default_rng(seed)
    trajs = [Trajectory(f"t{i}", tuple(rng.integers(0, 8, rng.integers(20, 1500)).tolist()))
             for i in range(8)]
    tc = count_transitions(trajs, 4, StateAlphabet.of_size(8), mode)
    prior = DirichletPrior(rng.uniform(0.2, 3.0, 8)) if asymmetric else DirichletPrior.symmetric(8)
    assert_matches_reference(tc, prior)


@PROPERTY
@given(
    seed=st.integers(0, 2**32 - 1),
    m=st.integers(2, 4),
    j=st.integers(1, 5),
    mode=st.sampled_from(list(BoundaryMode)),
    asymmetric=st.booleans(),
)
def test_state_relabelling_leaves_values_and_argmin_unchanged(seed, m, j, mode, asymmetric):
    # relabelling reorders every row's destinations, and so the order in
    # which the log-beta kernel draws them: values agree to rounding
    rng = np.random.default_rng(seed)
    trajs = random_walks(rng, m, j, 12)
    alpha = rng.uniform(0.2, 3.0, m) if asymmetric else np.ones(m)
    p = rng.permutation(m)
    relabelled = [Trajectory(tr.id, tuple(int(p[s]) for s in tr.steps)) for tr in trajs]
    moved = np.empty(m)
    moved[p] = alpha
    alphabet = StateAlphabet.of_size(m)
    a = evaluate_depths(trajs, alphabet, range(0, 4), DirichletPrior(alpha), mode)
    b = evaluate_depths(relabelled, alphabet, range(0, 4), DirichletPrior(moved), mode)
    for x, y in zip(a, b):
        for name, value in x.values.items():
            other = y.values[name]
            assert (math.isclose(value, other, rel_tol=1e-12)
                    or (math.isnan(value) and math.isnan(other))), name
    for name in CRITERIA:
        if name == "CV2" and j < 2:
            continue
        best_a, best_b = argmin(a, name), argmin(b, name)
        if best_a.h != best_b.h:  # only an exact tie, broken by rounding, may flip
            assert best_a.value(name) == a[best_b.h].value(name), name


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
    assert rep.value("LOO") == loo_refit(trajs, h, tc.alphabet, mode, prior)
    assert rep.value("CV2") == cv2_refit(trajs, h, tc.alphabet, mode, prior)


# ---------------------------------------------------------------------------
# Counting, tying and sampling against plain per-step loops


def reference_count(trajs, h, m, mode):
    """Per-trajectory and total rows from one dict lookup per step."""
    per, total = [], {}
    for tr in trajs:
        rows = {}
        first = 0 if mode is BoundaryMode.PADDED else h
        for l in range(first, len(tr.steps)):
            toks = tr.steps[l - h:l] if l >= h else (START,) * (h - l) + tr.steps[:l]
            rows.setdefault(toks, [0] * m)[tr.steps[l]] += 1
        per.append((tr.id, rows))
        for ctx, vec in rows.items():
            acc = total.setdefault(ctx, [0] * m)
            acc[:] = [a + b for a, b in zip(acc, vec)]
    return per, total


def assert_table(table, rows):
    assert list(table.keys) == list(rows)  # first-occurrence order, not just the same set
    assert table.counts.tolist() == list(rows.values())


def assert_counts_match_reference(trajs, h, m, mode):
    tc = count_transitions(trajs, h, StateAlphabet.of_size(m), mode)
    per, total = reference_count(trajs, h, m, mode)
    assert_table(tc.total, total)
    assert [tid for tid, _ in tc.per_trajectory] == [tid for tid, _ in per]
    for (_, table), (_, rows) in zip(tc.per_trajectory, per):
        assert_table(table, rows)
    return tc


def random_walks(rng, m, j, max_len):
    return [Trajectory(f"w{i}", tuple(rng.integers(0, m, int(rng.integers(1, max_len + 1))).tolist()))
            for i in range(j)]


@PROPERTY
@given(
    seed=st.integers(0, 2**32 - 1),
    m=st.integers(2, 8),
    j=st.integers(1, 6),
    h=st.integers(0, 5),
    max_len=st.sampled_from([1, 3, 12, 60]),
    mode=st.sampled_from(list(BoundaryMode)),
)
def test_counting_matches_per_step_loop(seed, m, j, h, max_len, mode):
    # max_len 1 gives single-step walks; TRUNCATED walks of at most h steps
    # leave trajectories with zero rows
    trajs = random_walks(np.random.default_rng(seed), m, j, max_len)
    assert_counts_match_reference(trajs, h, m, mode)


@settings(derandomize=True, max_examples=10, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), h=st.integers(40, 45),
       mode=st.sampled_from(list(BoundaryMode)))
def test_counting_past_the_int64_code_range(seed, h, mode):
    # 3^40 > 2^63: the codes are re-ranked before they would overflow
    rng = np.random.default_rng(seed)
    trajs = random_walks(rng, 2, 4, 80) + [Trajectory("long", tuple(rng.integers(0, 2, 90).tolist()))]
    assert 3**h > 2**63
    tc = assert_counts_match_reference(trajs, h, 2, mode)
    assert tc.total.n_contexts > 1


@pytest.mark.parametrize("mode", list(BoundaryMode))
@pytest.mark.parametrize("m", [2, 3, 8])
def test_contexts_differing_only_in_the_oldest_state_stay_apart(m, mode):
    # at h = 45 the oldest digit's weight (M+1)^44 is 0 modulo 2^64 for even
    # bases, so a code that wrapped instead of re-ranking merges these rows
    h = 45
    trajs = [Trajectory(f"s{a}", (a,) + (1,) * h) for a in range(m)]
    tc = assert_counts_match_reference(trajs, h, m, mode)
    assert tc.total.n_contexts == (m if mode is BoundaryMode.TRUNCATED else 1 + m * h)


def reference_tie(table, tie_map):
    rows = {}
    for ctx, vec in table.rows.items():
        acc = rows.setdefault(tie_map.class_of(ctx), [0] * len(vec))
        acc[:] = [a + int(b) for a, b in zip(acc, vec)]
    return rows


@PROPERTY
@given(
    seed=st.integers(0, 2**32 - 1),
    m=st.integers(2, 4),
    j=st.integers(1, 6),
    h=st.integers(0, 3),
    mode=st.sampled_from(list(BoundaryMode)),
    n_classes=st.integers(1, 4),
)
def test_tying_matches_class_reduce_loop(seed, m, j, h, mode, n_classes):
    rng = np.random.default_rng(seed)
    tc = count_transitions(random_walks(rng, m, j, 12), h, StateAlphabet.of_size(m), mode)
    keys = tc.total.keys
    # about half the contexts listed, the rest caught by the default class
    listed = {ctx: int(rng.integers(0, n_classes)) for ctx in keys if rng.random() < 0.5}
    default = int(rng.integers(0, n_classes))
    # a map may not have a class without contexts: number the used ones 0..C-1
    ids = {c: i for i, c in enumerate(sorted({default, *listed.values()}))}
    tie_map = TieMap(h, len(ids), {ctx: ids[c] for ctx, c in listed.items()},
                     default_class=ids[default])
    tied = tie_counts(tc, tie_map)
    assert_table(tied.total, reference_tie(tc.total, tie_map))
    for (_, table), (_, orig) in zip(tied.per_trajectory, tc.per_trajectory):
        assert_table(table, reference_tie(orig, tie_map))


def assert_same_report(a, b):
    assert a.values.keys() == b.values.keys()
    for name, x in a.values.items():
        y = b.values[name]
        assert x == y or (math.isnan(x) and math.isnan(y)), name


def stack_from_tables(per_trajectory, total):
    """Stacked arrays rebuilt from per-trajectory tables, one key lookup per row."""
    index = {k: i for i, k in enumerate(total.keys)}
    mats = [(table.keys, table.counts) for _, table in per_trajectory]
    idx = np.array([index[k] for tkeys, _ in mats for k in tkeys], dtype=np.intp)
    counts = np.concatenate([total.counts[:0]] + [tmat for _, tmat in mats])
    return idx, counts, np.cumsum([0] + [len(tkeys) for tkeys, _ in mats])


@PROPERTY
@given(
    seed=st.integers(0, 2**32 - 1),
    m=st.integers(2, 4),
    j=st.integers(1, 5),
    h=st.integers(0, 3),
    mode=st.sampled_from(list(BoundaryMode)),
)
def test_counts_from_tables_stack_like_counting(seed, m, j, h, mode):
    # counting stacks the per-trajectory rows directly; it must equal
    # stacking the tables by key lookup
    rng = np.random.default_rng(seed)
    counted = count_transitions(random_walks(rng, m, j, 10), h, StateAlphabet.of_size(m), mode)
    for x, y in zip(counted.stacked(), stack_from_tables(counted.per_trajectory, counted.total)):
        assert np.array_equal(x, y)


@PROPERTY
@given(
    seed=st.integers(0, 2**32 - 1),
    m=st.integers(2, 4),
    j=st.integers(1, 5),
    h=st.integers(0, 3),
    mode=st.sampled_from(list(BoundaryMode)),
)
def test_identity_tie_map_gives_the_untied_report(seed, m, j, h, mode):
    rng = np.random.default_rng(seed)
    tc = count_transitions(random_walks(rng, m, j, 12), h, StateAlphabet.of_size(m), mode)
    keys = tc.total.keys
    identity = TieMap(h, max(len(keys), 1), {ctx: c for c, ctx in enumerate(keys)},
                      default_class=None if keys else 0)
    assert_same_report(evaluate(tie_counts(tc, identity)), evaluate(tc))


@PROPERTY
@given(
    seed=st.integers(0, 2**32 - 1),
    m=st.integers(2, 5),
    j=st.integers(1, 5),
    h=st.integers(0, 5),
    max_len=st.sampled_from([1, 3, 12]),
)
def test_start_only_as_prefix_and_only_when_padded(seed, m, j, h, max_len):
    trajs = random_walks(np.random.default_rng(seed), m, j, max_len)
    alphabet = StateAlphabet.of_size(m)
    padded = count_transitions(trajs, h, alphabet, BoundaryMode.PADDED)
    truncated = count_transitions(trajs, h, alphabet, BoundaryMode.TRUNCATED)
    assert [t.total_transitions() for _, t in padded.per_trajectory] == [len(tr) for tr in trajs]
    assert ([t.total_transitions() for _, t in truncated.per_trajectory]
            == [max(len(tr) - h, 0) for tr in trajs])
    for ctx in padded.total.rows:
        k = ctx.count(START)
        assert len(ctx) == h and ctx[:k] == (START,) * k
    assert (START,) * h in padded.total.rows
    assert all(START not in ctx for ctx in truncated.total.rows)


def reference_walk(net, length_cap, rng):
    """The walk looked up by a context tuple rebuilt from the history at each
    step, from state 0 until the absorbing state M-1."""
    h, history, steps = net.h_true, [0], []
    while len(steps) < length_cap:
        padded = (START,) * h + tuple(history)
        cum = np.cumsum(net.rows[padded[len(padded) - h:]])
        nxt = min(int(np.searchsorted(cum, rng.random(), side="right")), net.m - 1)
        steps.append(nxt)
        history.append(nxt)
        if nxt == net.m - 1:
            break
    return tuple(steps)


@settings(derandomize=True, max_examples=20, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), m=st.integers(2, 5), h=st.integers(0, 3))
def test_sampler_matches_context_walk(seed, m, h):
    net = generate_network(m, h, seed)
    for rep in range(5):
        walk = sample_trajectory(net, 40, np.random.default_rng([seed, rep]))
        assert walk.steps == reference_walk(net, 40, np.random.default_rng([seed, rep]))


_JSON_SCALARS = (st.text() | st.integers() | st.booleans() | st.none()
                 | st.floats(allow_nan=True, allow_infinity=True))


@settings(derandomize=True, max_examples=300, deadline=None)
@given(st.recursive(_JSON_SCALARS, lambda inner: st.lists(inner, max_size=4)
                    | st.dictionaries(st.text(), inner, max_size=4), max_leaves=30))
def test_json_writer_equals_indented_json_dumps(obj):
    # the writer keeps json.dumps(indent=2, sort_keys=True) byte for byte
    assert _json_text(obj) == json.dumps(obj, indent=2, sort_keys=True)


# a column of Records holds one type
_COLUMN_CELLS = (st.floats(allow_nan=True, allow_infinity=True), st.integers(), st.text())


@st.composite
def _typed_records(draw):
    """Keys in one order and records over them, each column of one type: float, int or str."""
    keys = draw(st.lists(st.text(), min_size=1, max_size=4, unique=True))
    n = draw(st.integers(0, 5))
    columns = [draw(st.lists(draw(st.sampled_from(_COLUMN_CELLS)), min_size=n, max_size=n))
               for _ in keys]
    return keys, [dict(zip(keys, cells)) for cells in zip(*columns)]


_FLAT_DICTS = _typed_records().map(lambda drawn: drawn[1])


def _typed(records) -> bool:
    """Whether Records takes ``records``: dicts sharing one non-empty key
    order, each column of one type, float, int or str."""
    if not all(isinstance(rec, dict) for rec in records) or {} in records:
        return False
    if len({tuple(rec) for rec in records}) > 1:
        return False
    return all(len(set(map(type, col))) == 1 and type(col[0]) in (float, int, str)
               for col in zip(*(rec.values() for rec in records)))


def _with_records(obj):
    """``obj`` with each list of records that Records takes as ``Records``."""
    if isinstance(obj, dict):
        return {k: _with_records(v) for k, v in obj.items()}
    if isinstance(obj, list):
        if _typed(obj):
            return Records(obj)
        return [_with_records(v) for v in obj]
    return obj


@settings(derandomize=True, max_examples=300, deadline=None)
@given(st.dictionaries(st.text(), _FLAT_DICTS | st.lists(_FLAT_DICTS, max_size=3), max_size=3))
def test_json_writer_on_lists_of_flat_dicts(obj):
    # the shape of summary.json and criteria.json: record lists written by Records
    expected = json.dumps(obj, indent=2, sort_keys=True)
    assert _json_text(_with_records(obj)) == expected
    assert _json_text(obj) == expected


@pytest.mark.parametrize("obj", [{}, [], {"a": {}, "b": [], "c": [{}, []]}, [[[]], {"x": {}}],
                                 [{"}": "{", "a": {}}, {"b": {}}, {}], [{"k": "},\n  {"}, {"k": 1}],
                                 {"é": ["ü", float("nan"), -math.inf, math.inf, None, True]},
                                 [{"v": 1.5}, {"v": math.nan}, {"v": -math.inf}, {"v": math.inf}],
                                 {"r": [{"%s": "%", "é": math.nan, "n": None, "t": True, "i": 3}]},
                                 [{"}": "{", "a": "},\n  {"}, {"}": "", "a": "%s"}],
                                 {"r": [{"%s": "%", "é": math.nan, "i": 3}, {"%s": "", "é": 0.5,
                                                                         "i": -1}]}])
def test_json_writer_on_empty_containers_and_special_values(obj):
    expected = json.dumps(obj, indent=2, sort_keys=True)
    assert _json_text(_with_records(obj)) == expected
    assert _json_text(obj) == expected


@settings(derandomize=True, max_examples=300, deadline=None)
@given(drawn=_typed_records(), data=st.data())
def test_record_csv_rows_are_repr_or_str_cells(drawn, data):
    # each row: the given columns' cells (floats by repr, the rest by str),
    # in the order asked for; keys not asked for are left out
    keys, records = drawn
    order = data.draw(st.permutations(keys))
    columns = order[:data.draw(st.integers(1, len(order)))]
    lines = [",".join(columns)] + [",".join(repr(v) if isinstance(v, float) else str(v)
                                            for v in (rec[c] for c in columns))
                                   for rec in records]
    assert Records(records).csv(tuple(columns)) == "\n".join(lines) + "\n"


@pytest.mark.parametrize("records, message", [
    ([{"a": 1.5, "b": "x"}, {"a": 2, "b": "y"}], "column 'a' must hold only floats"),
    ([{"a": np.float64(0.5)}], "column 'a' must hold only floats"),
    ([{"a": True}], "column 'a' must hold only floats"),
    ([{"a": None}], "column 'a' must hold only floats"),
    ([{"a": 1, "b": 2}, {"b": 2, "a": 1}], "every record must hold the keys"),
    ([{"a": 1}, {"a": 1, "b": 2}], "every record must hold the keys"),
    ([{}, {}], "a record needs at least one column"),
], ids=["mixed", "float64", "bool", "none", "key-order", "extra-key", "empty-record"])
def test_records_refuse_mixed_columns_and_key_orders(records, message):
    with pytest.raises(ValueError, match=message):
        Records(records)
