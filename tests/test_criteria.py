"""Closed-form criteria: frozen values, identities and invariances."""

import math
import tracemalloc
from functools import reduce
from operator import add

import numpy as np
import pytest
from scipy import special as sp

from conftest import digamma, random_instance, trigamma
from memsel.chain import (
    BoundaryMode,
    CountTable,
    StateAlphabet,
    Trajectory,
    count_transitions,
)
from memsel.criteria import (
    CRITERIA,
    DirichletPrior,
    aic,
    argmin,
    evaluate,
    evaluate_depths,
    lpd,
    param_count,
    predictive_log_density,
    select_order,
)
from memsel import criteria as criteria_module
from memsel import simulate
from memsel.oracle import cv2_refit, loo_refit
from memsel.specfun import log_beta_ratio
from memsel.tying import TieMap, tie_counts, tied_param_count

AB2 = StateAlphabet(("0", "1"))
AB3 = StateAlphabet.of_size(3)
EMPTY2 = CountTable(1, AB2, {})


def single_row_table(counts, alphabet=AB2):
    return CountTable(0, alphabet, {(): np.array(counts)})


def value(tc, name, prior=None):
    """One criterion or complexity term, evaluated alone."""
    which = name[2:] if name.startswith("k_") else name
    return evaluate(tc, prior, which=(which,)).value(name)


def log_lppd(tc):
    """LPPD back on the log scale; the factor -0.5 undoes -2 exactly."""
    return -0.5 * value(tc, "LPPD")


def single_row_tc(counts, alphabet=AB2):
    steps = []
    for state, n in enumerate(counts):
        steps.extend([state] * n)
    return count_transitions([Trajectory("t", tuple(steps))], 0, alphabet)


class TestAic:
    def test_free_throw_season_total(self):
        # 471 hits, 222 misses; exact value recomputed from the counts
        table = single_row_table([222, 471])
        assert aic(table, 1) == pytest.approx(871.2025, abs=1e-3)
        expected = -2 * (471 * math.log(471 / 693) + 222 * math.log(222 / 693)) + 2
        assert aic(table, 1) == pytest.approx(expected, rel=1e-14)

    def test_empty_table_is_pure_penalty(self):
        m, h = 3, 2
        k = m**h * (m - 1)
        assert aic(CountTable(h, AB3, {}), k) == 2 * k

    def test_two_equal_counts(self):
        assert aic(single_row_table([1, 1]), 1) == pytest.approx(4 * math.log(2) + 2, rel=1e-14)

    def test_k_validation(self):
        with pytest.raises(ValueError):
            aic(single_row_table([1, 1]), 0)

    def test_count_past_the_float_range_is_inf(self):
        # M^(h+1) - 1 at M=2, h=1100 does not fit in a float
        assert aic(single_row_table([1, 1]), 2**1101 - 1) == math.inf


class TestParamCounts:
    def test_values(self):
        truncated = BoundaryMode.TRUNCATED
        assert param_count(2, 0, truncated) == 1
        assert param_count(2, 1, truncated) == 2
        assert param_count(8, 3, truncated) == 8**3 * 7 == 3584

    def test_padded_counts_include_start_contexts(self):
        # one extra context per padding depth: 2^(h+1) - 1 for M=2
        padded = BoundaryMode.PADDED
        assert param_count(2, 0, padded) == 1
        assert param_count(2, 1, padded) == 3
        assert param_count(8, 3, padded) == 8**4 - 1

    def test_mode_dispatch(self):
        assert param_count(2, 1, BoundaryMode.TRUNCATED) == 2
        assert param_count(2, 1, BoundaryMode.PADDED) == 3

    def test_no_overflow_for_large_h(self):
        # python integers are exact; the count is simply huge
        assert param_count(8, 30, BoundaryMode.TRUNCATED) == 8**30 * 7
        assert param_count(8, 30, BoundaryMode.PADDED) == 8**31 - 1

    def test_validation(self):
        for mode in BoundaryMode:
            with pytest.raises(ValueError):
                param_count(1, 2, mode)
            with pytest.raises(ValueError):
                param_count(3, -1, mode)


class TestLpd:
    def test_empty_counts(self):
        assert lpd(EMPTY2) == 0.0

    def test_single_observation(self):
        # E[p_1] under Dirichlet([2, 1]) = 2/3, so LPD = ln(2/3)
        assert lpd(single_row_table([0, 1])) == pytest.approx(math.log(2 / 3), rel=1e-12)

    def test_beta_ratio_formula(self):
        counts = np.array([2, 1, 0])
        table = single_row_table(counts, AB3)
        expected = (
            sum(sp.gammaln(2 * counts + 1)) - sp.gammaln(sum(2 * counts + 1))
            - sum(sp.gammaln(counts + 1)) + sp.gammaln(sum(counts + 1))
        )
        assert lpd(table) == pytest.approx(expected, rel=1e-12)

    def test_prior_dimension_checked(self):
        with pytest.raises(ValueError):
            lpd(single_row_table([1, 1]), DirichletPrior.symmetric(3))


class TestLppd:
    def test_single_trajectory_collapses_to_lpd(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            _, _, tc = random_instance(rng, j=1)
            assert log_lppd(tc) == lpd(tc.total)

    def test_empty_counts(self):
        trajs = [Trajectory("a", (0,)), Trajectory("b", (1,))]
        tc = count_transitions(trajs, 2, AB2, BoundaryMode.TRUNCATED)
        assert tc.total.n_contexts == 0
        assert log_lppd(tc) == 0.0

    def test_matches_predictive_density_route(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            _, _, tc = random_instance(rng)
            via_pred = sum(
                predictive_log_density(tc.total, table) for _, table in tc.per_trajectory
            )
            assert log_lppd(tc) == via_pred


class TestWaic:
    def test_empty_counts(self):
        trajs = [Trajectory("a", (0,)), Trajectory("b", (1,))]
        tc = count_transitions(trajs, 2, AB2, BoundaryMode.TRUNCATED)
        rep = evaluate(tc)
        for name in ("WAIC1", "k_WAIC1", "WAIC2", "k_WAIC2"):
            assert rep.value(name) == 0.0

    def test_k_waic2_single_context(self):
        # one trajectory with counts [2, 1]: the variance decomposes into
        # 4 psi'(3) + 1 psi'(2) - 9 psi'(5)
        tc = single_row_tc([2, 1])
        expected = 4 * sp.polygamma(1, 3) + sp.polygamma(1, 2) - 9 * sp.polygamma(1, 5)
        k2 = value(tc, "k_WAIC2")
        assert k2 == pytest.approx(float(expected), rel=1e-12)
        assert k2 == pytest.approx(0.2327637326, abs=1e-9)

    def test_definitional_identity_exact(self):
        rng = np.random.default_rng(2)
        for _ in range(30):
            _, _, tc = random_instance(rng)
            rep = evaluate(tc)
            for variant in (1, 2):
                k = rep.value(f"k_WAIC{variant}")
                assert rep.value(f"WAIC{variant}") == rep.value("LPPD") + 2.0 * k

    def test_k_waic2_nonnegative(self):
        rng = np.random.default_rng(3)
        for _ in range(100):
            _, _, tc = random_instance(rng)
            assert value(tc, "k_WAIC2") >= 0.0

    def test_variant_validation(self):
        tc = single_row_tc([1, 1])
        with pytest.raises(ValueError):
            evaluate(tc, which=("WAIC3",))
        with pytest.raises(ValueError, match="criterion 'WAIC1' is named twice"):
            evaluate(tc, which=("WAIC1", "WAIC1"))


class TestDic:
    def test_empty_counts(self):
        trajs = [Trajectory("a", (0,)), Trajectory("b", (1,))]
        tc = count_transitions(trajs, 2, AB2, BoundaryMode.TRUNCATED)
        rep = evaluate(tc)
        for name in ("DIC1", "k_DIC1", "DIC2", "k_DIC2"):
            assert rep.value(name) == 0.0

    def test_k_dic1_nonnegative_jensen(self):
        rng = np.random.default_rng(4)
        for _ in range(100):
            _, _, tc = random_instance(rng)
            assert value(tc, "k_DIC1") >= 0.0

    def test_k_dic2_single_context(self):
        # counts [3, 1]: 2 (9 psi'(4) + 1 psi'(2) - 16 psi'(6))
        tc = single_row_tc([3, 1])
        expected = 2 * (9 * sp.polygamma(1, 4) + sp.polygamma(1, 2) - 16 * sp.polygamma(1, 6))
        k2 = value(tc, "k_DIC2")
        assert k2 == pytest.approx(float(expected), rel=1e-12)
        assert k2 == pytest.approx(0.5963467534, abs=1e-9)

    def test_deviance_identity_exact(self):
        rng = np.random.default_rng(5)
        for _ in range(30):
            _, _, tc = random_instance(rng)
            n = tc.total.counts
            ns = n.sum(axis=1)
            deviance = -2.0 * float(np.sum(n * (np.log(n + 1.0) - np.log(ns + tc.alphabet.size)[:, None])))
            rep = evaluate(tc)
            for variant in (1, 2):
                k = rep.value(f"k_DIC{variant}")
                assert rep.value(f"DIC{variant}") == pytest.approx(
                    deviance + 2 * k, rel=1e-12, abs=1e-12)


class TestLoo:
    def test_single_trajectory_is_prior_predictive(self):
        tc = single_row_tc([2, 1])
        counts = np.array([2, 1])
        expected = -2 * (
            sum(sp.gammaln(counts + 1)) - sp.gammaln(sum(counts + 1))
            - (sum(sp.gammaln(np.ones(2))) - sp.gammaln(2.0))
        )
        assert value(tc, "LOO") == pytest.approx(float(expected), rel=1e-12)

    def test_empty_counts(self):
        trajs = [Trajectory("a", (0,)), Trajectory("b", (1,))]
        tc = count_transitions(trajs, 2, AB2, BoundaryMode.TRUNCATED)
        assert value(tc, "LOO") == 0.0

    def test_equals_refit_loop_exactly(self):
        rng = np.random.default_rng(6)
        for _ in range(40):
            _, trajs, tc = random_instance(rng)
            assert value(tc, "LOO") == loo_refit(trajs, tc.h, tc.alphabet)

    def test_three_binary_trajectories(self):
        trajs = [Trajectory("a", (0, 0)), Trajectory("b", (0, 1)), Trajectory("c", (1,))]
        tc = count_transitions(trajs, 0, AB2)
        assert value(tc, "LOO") == loo_refit(trajs, 0, AB2)

    def test_single_trajectory_refit_trains_on_an_empty_table(self):
        rng = np.random.default_rng(16)
        for mode in BoundaryMode:
            for _ in range(10):
                _, trajs, tc = random_instance(rng, j=1, mode=mode)
                assert value(tc, "LOO") == loo_refit(trajs, tc.h, tc.alphabet, mode)


class TestCv2:
    def test_two_trajectories_equal_loo_exactly(self):
        rng = np.random.default_rng(7)
        for _ in range(30):
            _, _, tc = random_instance(rng, j=2)
            rep = evaluate(tc)
            assert rep.value("CV2") == rep.value("LOO")

    def test_equals_refit_loop_exactly(self):
        rng = np.random.default_rng(8)
        for _ in range(30):
            _, trajs, tc = random_instance(rng, j=4, h=1)
            assert value(tc, "CV2") == cv2_refit(trajs, 1, tc.alphabet)

    def test_needs_two_trajectories(self):
        _, _, tc = random_instance(np.random.default_rng(9), j=1)
        assert math.isnan(value(tc, "CV2"))
        with pytest.raises(ValueError, match="CV2.*at least two trajectories"):
            argmin([evaluate(tc)], "CV2")

    def test_order_dependent_by_design(self):
        trajs = [
            Trajectory("t0", (1, 1, 1, 1, 1, 1)),
            Trajectory("t1", (0, 0, 0, 0, 0, 0)),
            Trajectory("t2", (0, 1, 0, 1)),
            Trajectory("t3", (1, 1, 0)),
        ]
        forward = value(count_transitions(trajs, 1, AB2), "CV2")
        rotated = value(count_transitions(trajs[1:] + trajs[:1], 1, AB2), "CV2")
        assert forward != rotated  # the folds hold different trajectories


class TestInvariances:
    def test_state_permutation_leaves_criteria_unchanged(self):
        rng = np.random.default_rng(11)
        for _ in range(10):
            m = 3
            trajs = [Trajectory(f"t{i}", tuple(rng.integers(0, m, 6).tolist())) for i in range(4)]
            perm = rng.permutation(m)
            permuted = [Trajectory(t.id, tuple(int(perm[s]) for s in t.steps)) for t in trajs]
            tc_a = count_transitions(trajs, 1, AB3)
            tc_b = count_transitions(permuted, 1, AB3)
            va = evaluate(tc_a)
            vb = evaluate(tc_b)
            for name in CRITERIA:
                assert va.value(name) == pytest.approx(vb.value(name), rel=1e-10, abs=1e-10)

    def test_trajectory_order_invariance(self):
        rng = np.random.default_rng(12)
        trajs = [Trajectory(f"t{i}", tuple(rng.integers(0, 2, 6).tolist())) for i in range(5)]
        shuffled = list(trajs)
        rng.shuffle(shuffled)
        va = evaluate(count_transitions(trajs, 1, AB2))
        vb = evaluate(count_transitions(shuffled, 1, AB2))
        for name in CRITERIA:
            if name == "CV2":
                continue  # order-dependent by design
            assert va.value(name) == pytest.approx(vb.value(name), rel=1e-10, abs=1e-10)


class TestPosteriorSummary:
    def test_means_normalized_and_positive(self):
        # DIC's plug-in deviance sits at the posterior means (N + a) / (N_row + a0)
        rng = np.random.default_rng(13)
        _, _, tc = random_instance(rng, j=3)
        n = tc.total.counts
        means = (n + 1.0) / (n.sum(axis=1) + tc.alphabet.size)[:, None]
        assert np.allclose(means.sum(axis=1), 1.0, rtol=1e-14)
        assert np.all(means > 0.0)
        rep = evaluate(tc)
        plugin = rep.value("DIC1") - 2.0 * rep.value("k_DIC1")
        assert plugin == pytest.approx(-2.0 * float(np.sum(n * np.log(means))), rel=1e-12)

    def test_unseen_context_falls_back_to_prior_mean(self):
        # a context absent from the training counts is predicted by the prior mean
        train = CountTable(1, AB2, {(1,): np.array([1, 1])})
        test = CountTable(1, AB2, {(0,): np.array([0, 1])})
        assert predictive_log_density(train, test) == pytest.approx(math.log(0.5), rel=1e-14)


class TestEvaluateAndSelect:
    def test_scoring_decodes_no_context_keys(self):
        rng = np.random.default_rng(18)
        for mode in BoundaryMode:
            _, trajs, _ = random_instance(rng, m=3, j=4, max_len=8)
            for h in range(4):
                tc = count_transitions(trajs, h, StateAlphabet.of_size(3), mode)
                evaluate(tc)
                assert not {"keys", "rows"} & vars(tc.total).keys(), (mode, h)

    def test_report_fields_consistent(self):
        rng = np.random.default_rng(14)
        _, _, tc = random_instance(rng, j=3, h=1)
        rep = evaluate(tc)
        # report stores -2 LPPD, so WAIC = stored LPPD + 2 k
        assert rep.value("WAIC1") == pytest.approx(
            rep.value("LPPD") + 2 * rep.value("k_WAIC1"), rel=1e-12)
        assert rep.value("WAIC2") == pytest.approx(
            rep.value("LPPD") + 2 * rep.value("k_WAIC2"), rel=1e-12)
        assert rep.n_trajectories == 3
        d = rep.as_dict()
        assert d["LOO"] == rep.value("LOO")
        assert d["k_WAIC2"] == rep.value("k_WAIC2")
        with pytest.raises(ValueError):
            rep.value("NOPE")

    @pytest.mark.parametrize("which", [(), []])
    def test_empty_criterion_list_is_refused(self, which):
        # a report with no values would be written without a word
        alphabet, trajs, tc = random_instance(np.random.default_rng(16), j=3, h=1)
        with pytest.raises(ValueError, match="name at least one criterion"):
            evaluate(tc, which=which)
        with pytest.raises(ValueError, match="name at least one criterion"):
            evaluate_depths(trajs, alphabet, range(2), which=which)

    def test_cv2_nan_for_single_trajectory(self):
        _, _, tc = random_instance(np.random.default_rng(15), j=1)
        assert math.isnan(evaluate(tc).value("CV2"))

    def test_select_prefers_true_memoryless_model(self):
        rng = np.random.default_rng(16)
        # strongly biased i.i.d. data: h = 0 should win under LOO
        trajs = [
            Trajectory(f"t{i}", tuple((rng.random(12) < 0.9).astype(int).tolist()))
            for i in range(40)
        ]
        best, reports = select_order(trajs, AB2, range(0, 3), criterion="LOO")
        assert best == 0
        assert [r.h for r in reports] == [0, 1, 2]

    def test_tie_breaks_to_smallest_h(self):
        # a single length-1 trajectory gives identical padded tables for all h
        trajs = [Trajectory("t", (1,))]
        best, reports = select_order(trajs, AB2, range(0, 4), criterion="LOO")
        assert best == 0
        values = [r.value("LOO") for r in reports]
        assert all(v == values[0] for v in values)

    def test_exact_ties_across_depths_select_smallest_h(self):
        # walks of at most 4 steps: at every h >= 3 each padded context is a
        # START run plus the walk's whole prefix, so the h = 3, 4 and 5
        # tables match row for row and every criterion must tie bit for bit
        trajs = [Trajectory("a", (0, 1, 1, 0)), Trajectory("b", (0, 1, 1, 1)),
                 Trajectory("c", (1, 0)), Trajectory("d", (0, 1, 0, 0))]
        for prior in (None, DirichletPrior(np.array([0.3, 1.7]))):
            # one shared AIC penalty, so AIC's fit term is compared too
            reports = [evaluate(count_transitions(trajs, h, AB2), prior, k_params=7)
                       for h in (3, 4, 5)]
            for name in CRITERIA:
                hexes = {float(r.value(name)).hex() for r in reports}
                assert len(hexes) == 1, name
                assert argmin(reports[::-1], name).h == 3, name
            default = evaluate_depths(trajs, AB2, range(3, 6), prior)
            for name in set(CRITERIA) - {"AIC"}:  # AIC's default penalty grows with h
                assert argmin(default, name).h == 3, name

    def test_argmin_ties_prefer_smaller_h_then_list_order(self):
        # one length-1 trajectory gives equal values at every h
        trajs = [Trajectory("t", (1,))]
        _, (h0, h2) = select_order(trajs, AB2, [0, 2], criterion="LOO")
        assert h0.value("LOO") == h2.value("LOO")
        assert argmin([h2, h0], "LOO") is h0
        again = evaluate(count_transitions(trajs, 0, AB2))
        assert argmin([h0, again], "LOO") is h0
        assert argmin([again, h0], "LOO") is again

    def test_select_validation(self):
        trajs = [Trajectory("t", (1, 0))]
        with pytest.raises(ValueError):
            select_order(trajs, AB2, [], criterion="LOO")
        with pytest.raises(ValueError, match="unknown criterion 'NOPE'"):
            select_order(trajs, AB2, range(0, 2), criterion="NOPE")
        with pytest.raises(ValueError):
            select_order(trajs, AB2, range(0, 2), criterion="CV2")  # J = 1

    def test_aic_penalty_full_flag(self):
        trajs = [Trajectory("t", (1, 0, 1))]
        _, reports = select_order(trajs, AB2, range(0, 2), criterion="AIC", aic_penalty="full")
        assert reports[0].k_params == 2  # M^(h+1) at h=0
        assert reports[1].k_params == 4

    def test_prior_changes_bayesian_criteria_only(self):
        rng = np.random.default_rng(17)
        _, _, tc = random_instance(rng, j=3, h=0, m=2)
        base = evaluate(tc)
        half = evaluate(tc, DirichletPrior.symmetric(2, 0.5))
        assert half.value("AIC") == base.value("AIC")
        assert half.value("LOO") != base.value("LOO")
        assert half.value("LPD") != base.value("LPD")


def reference_values(tc, prior, k_params):
    """Every criterion and k term of one model, scored alone.

    The per-model loop that the batched scorer replaced, kept as the
    reference: each value must come out of the batch with the same bits.
    """
    n = tc.total.counts
    ns = n.sum(axis=1)
    a, a0 = prior.alpha, prior.total
    idx, t, bounds = tc.idx, tc.t, tc.bounds
    j = tc.n_trajectories
    traj = np.repeat(np.arange(j), np.diff(bounds))

    def per_trajectory(x):
        rows = zip(bounds[:-1], bounds[1:])
        return reduce(add, (log_beta_ratio(x[r0:r1], t[r0:r1]) for r0, r1 in rows), 0.0)

    lppd = per_trajectory(n[idx] + a)
    loo = per_trajectory((n[idx] - t) + a)
    cv2 = math.nan
    if j >= 2:
        split = bounds[j // 2]
        first = np.zeros_like(n)
        np.add.at(first, idx[:split], t[:split])
        cv2 = -2.0 * per_trajectory(
            np.concatenate(((n - first)[idx[:split]], first[idx[split:]])) + a)
    tf, ts = t.astype(float), t.sum(axis=1).astype(float)
    per_row = (tf * tf * trigamma(n + a)[idx]).sum(axis=1) - ts * ts * trigamma(ns + a0)[idx]
    k_waic2 = reduce(add, np.bincount(traj, weights=per_row, minlength=j).tolist(), 0.0)
    if n.size == 0:
        ml = plugin = post = k_dic2 = 0.0
    else:
        ml = float(np.sum(n * np.log(np.where(n > 0, n / ns[:, None], 1.0))))
        plugin = float(np.sum(n * (np.log(n + a) - np.log(ns + a0)[:, None])))
        post = float(np.sum(n * (digamma(n + a) - digamma(ns + a0)[:, None])))
        nf, nsf = n.astype(float), ns.astype(float)
        k_dic2 = 2.0 * float(np.sum(
            np.sum(nf * nf * trigamma(n + a), axis=1) - nsf * nsf * trigamma(ns + a0)))
    k = {"k_DIC1": 2.0 * (plugin - post), "k_DIC2": k_dic2,
         "k_WAIC1": 2.0 * lppd - 2.0 * post, "k_WAIC2": k_waic2}
    return {
        "AIC": -2.0 * ml + 2.0 * float(k_params),
        "DIC1": -2.0 * plugin + 2.0 * k["k_DIC1"],
        "DIC2": -2.0 * plugin + 2.0 * k["k_DIC2"],
        "LPD": -2.0 * log_beta_ratio(n + a, n),
        "LPPD": -2.0 * lppd,
        "WAIC1": -2.0 * lppd + 2.0 * k["k_WAIC1"],
        "WAIC2": -2.0 * lppd + 2.0 * k["k_WAIC2"],
        "LOO": -2.0 * loo,
        "CV2": cv2,
        **k,
    }


class TestBatchedScorer:
    """Models scored together equal each model scored alone, to the bit."""

    @staticmethod
    def dataset(rng, m, j, mode):
        alphabet = StateAlphabet.of_size(m)
        trajs = [Trajectory(f"t{i}", tuple(rng.integers(0, m, int(rng.integers(1, 9))).tolist()))
                 for i in range(j)]
        prior = DirichletPrior(rng.uniform(0.2, 3.0, m))  # asymmetric
        # a tie map with a default class: two named contexts, the rest pooled
        tie_map = TieMap(1, 3, {(0,): 0, (m - 1,): 1}, default_class=2)
        return alphabet, trajs, prior, tie_map

    def check(self, rng, m, j, mode):
        alphabet, trajs, prior, tie_map = self.dataset(rng, m, j, mode)
        hs = range(0, 4)
        reports = evaluate_depths(trajs, alphabet, hs, prior, mode, tie_map=tie_map)
        models = [count_transitions(trajs, h, alphabet, mode) for h in hs]
        models.append(tie_counts(models[1], tie_map))
        ks = [param_count(m, h, mode) for h in hs] + [tied_param_count(tie_map, m)]
        assert [r.label for r in reports][-1] == "tied(h=1)"
        for rep, tc, k in zip(reports, models, ks):
            ref = reference_values(tc, prior, k)
            assert set(rep.values) == set(ref)
            got = {name: float.hex(rep.values[name]) for name in ref}
            assert got == {name: float.hex(v) for name, v in ref.items()}, (m, j, mode, rep.label)
            assert rep.n_transitions == tc.total.total_transitions()
        # one model alone through evaluate, restricted criteria included
        for rep, tc, k in zip(reports, models, ks):
            alone = evaluate(tc, prior, k_params=k, label=rep.label)
            assert {n: float.hex(v) for n, v in alone.values.items()} == \
                {n: float.hex(v) for n, v in rep.values.items()}
            for name in CRITERIA:
                assert float.hex(evaluate(tc, prior, (name,), k_params=k).value(name)) == \
                    float.hex(rep.value(name))

    @pytest.mark.parametrize("cells", [1, 2**14, 10**9])
    def test_bit_identical_to_per_model_reference(self, cells, monkeypatch):
        monkeypatch.setattr(criteria_module, "_BATCH_CELLS", cells)
        rng = np.random.default_rng(2024)
        for m in range(2, 9):
            for j in range(1, 9):
                for mode in BoundaryMode:
                    self.check(rng, m, j, mode)

    @pytest.mark.parametrize("mode", list(BoundaryMode))
    def test_parameter_counts_past_int64(self, mode):
        # M=3 at h >= 40 has more than 2^63 parameters: AIC adds 2.0 * float(k)
        rng = np.random.default_rng(17)
        alphabet, _, prior, _ = self.dataset(rng, 3, 1, mode)
        trajs = [Trajectory(f"t{i}", tuple(rng.integers(0, 3, int(n)).tolist()))
                 for i, n in enumerate(rng.integers(45, 90, 4))]
        for penalty in ("params", "full"):
            reports = evaluate_depths(trajs, alphabet, [40, 41], prior, mode, aic_penalty=penalty)
            for rep in reports:
                k = 3 ** (rep.h + 1) if penalty == "full" else param_count(3, rep.h, mode)
                assert rep.k_params == k > 2**63
                ref = reference_values(count_transitions(trajs, rep.h, alphabet, mode), prior, k)
                assert {n: float.hex(v) for n, v in rep.values.items()} == \
                    {n: float.hex(v) for n, v in ref.items()}

    @pytest.mark.parametrize("alpha", [1.0, 0.3])
    def test_cv2_fold_table_equals_the_add_at_form(self, alpha):
        # the first fold's table is summed by np.bincount; the reference uses np.add.at
        rng = np.random.default_rng(31)
        for m in (2, 3, 8):
            alphabet = StateAlphabet.of_size(m)
            prior = DirichletPrior.symmetric(m, alpha)
            for j in (2, 3, 7, 16):
                trajs = [Trajectory(f"t{i}", tuple(rng.integers(0, m, int(rng.integers(1, 12)))
                                                   .tolist())) for i in range(j)]
                for rep in evaluate_depths(trajs, alphabet, range(4), prior, which=("CV2",)):
                    tc = count_transitions(trajs, rep.h, alphabet)
                    assert float.hex(rep.value("CV2")) == \
                        float.hex(reference_values(tc, prior, 1)["CV2"]), (m, j, rep.h)

    @pytest.mark.parametrize("cells", [1, 10**9])
    def test_non_dyadic_prior_on_rows_of_many_cells(self, cells, monkeypatch):
        # alpha = 0.3 makes row totals inexact, and M = 8 rows of three or more
        # drawing cells sum as a tree: both must keep the reference's bits
        monkeypatch.setattr(criteria_module, "_BATCH_CELLS", cells)
        rng = np.random.default_rng(41)
        alphabet = StateAlphabet.of_size(8)
        prior = DirichletPrior.symmetric(8, 0.3)
        trajs = [Trajectory(f"t{i}", tuple(rng.integers(0, 8, 24).tolist())) for i in range(16)]
        for mode in BoundaryMode:
            for rep in evaluate_depths(trajs, alphabet, range(3), prior, mode):
                tc = count_transitions(trajs, rep.h, alphabet, mode)
                assert (np.count_nonzero(tc.t, axis=1) >= 3).any()
                ref = reference_values(tc, prior, rep.k_params)
                assert {n: float.hex(rep.values[n]) for n in ref} == \
                    {n: float.hex(v) for n, v in ref.items()}, (mode, rep.h)

    def test_empty_truncated_tables(self, monkeypatch):
        # every trajectory shorter than the deepest h: those tables have no rows
        trajs = [Trajectory("a", (0, 1)), Trajectory("b", (1,)), Trajectory("c", (1, 1, 0))]
        prior = DirichletPrior([0.5, 2.0])
        for cells in (1, 10**9):
            monkeypatch.setattr(criteria_module, "_BATCH_CELLS", cells)
            reports = evaluate_depths(trajs, AB2, range(0, 6), prior, BoundaryMode.TRUNCATED)
            assert [r.n_transitions for r in reports] == [6, 3, 1, 0, 0, 0]
            for rep in reports:
                tc = count_transitions(trajs, rep.h, AB2, BoundaryMode.TRUNCATED)
                ref = reference_values(tc, prior, rep.k_params)
                assert {n: float.hex(rep.values[n]) for n in ref} == \
                    {n: float.hex(v) for n, v in ref.items()}

    def test_batches_respect_the_cell_bound(self, monkeypatch):
        seen = []
        real = criteria_module._score_batch

        # each depth's parameter count (2, 8, 26, 80 at M=3) names the batch's models
        depth_of = {param_count(3, h, BoundaryMode.PADDED): h for h in range(4)}

        def spy(ks, *args):
            seen.append([depth_of[int(k)] for k in ks.tolist()])
            return real(ks, *args)

        monkeypatch.setattr(criteria_module, "_score_batch", spy)
        rng = np.random.default_rng(5)
        alphabet, trajs, prior, _ = self.dataset(rng, 3, 6, BoundaryMode.PADDED)
        # a model's size is its (trajectory, context) rows plus its transitions (Polya draws)
        sizes = {h: count_transitions(trajs, h, alphabet).t for h in range(4)}
        sizes = {h: len(t) + int(t.sum()) for h, t in sizes.items()}
        monkeypatch.setattr(criteria_module, "_BATCH_CELLS", sizes[0] + sizes[1])
        evaluate_depths(trajs, alphabet, range(4), prior)
        assert seen[0] == [0, 1]
        assert all(len(b) == 1 or sum(sizes[h] for h in b) <= sizes[0] + sizes[1] for b in seen)
        assert sum(seen, []) == [0, 1, 2, 3]
        seen.clear()
        monkeypatch.setattr(criteria_module, "_BATCH_CELLS", 10**9)
        evaluate_depths(trajs, alphabet, range(4), prior)
        assert seen == [[0, 1, 2, 3]]


class TestTabulatedPsi:
    """psi and psi' of counts plus a prior, read from a table, equal the direct call."""

    @pytest.mark.parametrize("fn", [digamma, trigamma])
    @pytest.mark.parametrize("alpha", [np.ones(4), np.array([0.3, 1.0, 2.5, 7.0])])
    def test_table_and_fallback_equal_the_direct_call(self, fn, alpha):
        rng = np.random.default_rng(7)
        small = rng.integers(0, 6, size=(300, 4))
        big = small.copy()
        big[0, 0] = 10**8  # a table would need 1e8 entries per column
        empty = np.zeros((0, 4), dtype=np.int64)
        a0 = float(alpha.sum())
        for n, tabulated in ((small, True), (big, False), (empty, False)):
            for counts, a in ((n, alpha), (n.sum(axis=1), a0)):
                args, at = criteria_module._count_args(counts, a)
                got = fn(args)[at]
                want = fn(counts + a)
                assert got.shape == want.shape
                assert got.tobytes() == want.tobytes()
                # the table holds one entry per value 0 .. max, per column
                width = counts.shape[1] if np.ndim(a) else 1
                assert args.size == ((int(counts.max()) + 1) * width if tabulated else counts.size)

    @pytest.mark.parametrize("big", [False, True])
    def test_score_evaluates_each_table_once(self, big, monkeypatch):
        rng = np.random.default_rng(11)
        alphabet, trajs, prior, tie_map = TestBatchedScorer.dataset(rng, 3, 6, BoundaryMode.PADDED)
        if big:  # one long series: a table would outgrow the cells, so each call is direct
            trajs.append(Trajectory("long", (0, 1) * 2000))
        want = evaluate_depths(trajs, alphabet, range(4), prior, tie_map=tie_map)
        calls = []
        real = criteria_module._polygamma

        def spy(z):
            calls.append(z.size)
            return real(z)

        monkeypatch.setattr(criteria_module, "_polygamma", spy)
        monkeypatch.setattr(criteria_module, "_BATCH_CELLS", 1)  # every model a batch of its own
        got = evaluate_depths(trajs, alphabet, range(4), prior, tie_map=tie_map)
        assert [r.values for r in got] == [r.values for r in want]
        # psi and psi' of the count cells and of the row sums: one shared pass per _score call
        assert len(calls) == 1
        calls.clear()
        evaluate_depths(trajs, alphabet, range(4), prior, which=("WAIC1", "LOO"))
        assert len(calls) == 1
        calls.clear()
        evaluate_depths(trajs, alphabet, range(4), prior, which=("LOO", "CV2"))
        assert calls == []


def traced_peak(fn) -> int:
    """Bytes that ``fn()`` allocates at its peak, over what was allocated before, under tracemalloc."""
    was_tracing = tracemalloc.is_tracing()
    if not was_tracing:
        tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        fn()
        return tracemalloc.get_traced_memory()[1] - before
    finally:
        if not was_tracing:
            tracemalloc.stop()


class TestScoreMemory:
    """The scorer holds no dense copy of a chunk's counts and one table's Polya weights at a time."""

    @staticmethod
    def power_grid_chunk():
        # one power_grid operation's chunk: M=8, h 1..5, one replicate at each J of 4, 16 and 64
        cfg = simulate.SimConfig(m=8, h_true=1, h_range=range(1, 6), J_values=(4, 16, 64),
                                 replicates=1, seed=8)
        net = simulate.generate_network(cfg.m, cfg.h_true, cfg.seed)
        kept = [simulate._replicate_values(cfg, j, 0, net) for j in range(3)]
        return criteria_module._depth_models(kept, cfg.alphabet, cfg.h_range)

    def test_power_grid_chunk_peak(self):
        stacks, ks = self.power_grid_chunk()
        prior = DirichletPrior.symmetric(8)
        peak = traced_peak(lambda: criteria_module._score(stacks, prior, CRITERIA, ks))
        # 2,010 KiB with numpy 2.4.6, against 2,664 KiB when psi and psi' were
        # gathered at every total-row cell for the whole call and each batch
        # concatenated its dense per-trajectory rows: the 2,304 KiB budget is
        # 15% above the one and 13% below the other
        assert peak < 2304 * 1024

    def test_shared_ratio_call_holds_one_table_at_a_time(self):
        # one 20 x 50,000-step model at h=1: 1e6 Polya draws, 8 MB per draw-sized array
        rng = np.random.default_rng(0)
        trajs = [Trajectory(f"t{i}", tuple(rng.integers(0, 2, 50_000).tolist()))
                 for i in range(20)]
        tc = count_transitions(trajs, 1, AB2)
        shared = traced_peak(lambda: evaluate(tc, which=("LPPD", "LOO", "CV2")))
        alone = traced_peak(lambda: evaluate(tc, which=("LPPD",)))
        # four draw-sized arrays at once (the draw -> cell index, k, i or one
        # table's weights, the row totals): 30.5 MiB with LPPD alone or all
        # three. With every table's weights alive at once the shared call held
        # six, 45.9 MiB. The budget is four and a half.
        assert shared < 36e6
        assert shared < 1.05 * alone

    def test_symmetric_prior_takes_one_argument_per_count_value(self, monkeypatch):
        rng = np.random.default_rng(11)
        alphabet, trajs, _, _ = TestBatchedScorer.dataset(rng, 3, 6, BoundaryMode.PADDED)
        prior = DirichletPrior.symmetric(3, 0.3)
        want = evaluate_depths(trajs, alphabet, range(4), DirichletPrior(np.array([0.3] * 3)))
        calls = []
        real = criteria_module._polygamma

        def spy(z):
            calls.append(z.copy())
            return real(z)

        monkeypatch.setattr(criteria_module, "_polygamma", spy)
        got = evaluate_depths(trajs, alphabet, range(4), prior)
        assert [r.values for r in got] == [r.values for r in want]
        N = np.concatenate([count_transitions(trajs, h, alphabet).counts for h in range(4)])
        # the cells' arguments 0 .. max(N) plus a, then the row sums' 0 .. max(Ns) plus a0
        args = np.concatenate([np.arange(N.max() + 1) + 0.3,
                               np.arange(N.sum(axis=1).max() + 1) + prior.total])
        assert len(calls) == 1
        assert calls[0].tobytes() == args.tobytes()


class TestRowSums:
    """Short rows summed column by column keep the bits of numpy's row sums."""

    @pytest.mark.parametrize("m", list(range(2, 18)) + [128, 129])
    def test_equals_numpy_row_sums(self, m):
        rng = np.random.default_rng(m)
        for n in (0, 1, 7, 1000):
            x = rng.standard_normal((n, m)) * 10.0 ** rng.uniform(-6, 6, (n, m))
            x[rng.random((n, m)) < 0.3] = 0.0
            counts = rng.integers(0, 50, (n, m))
            for table in (x, counts, np.abs(x)):
                got = criteria_module._row_sums(table)
                want = table.sum(axis=1)
                assert got.dtype == want.dtype and got.shape == want.shape
                assert got.tobytes() == want.tobytes(), (m, n, table.dtype)
