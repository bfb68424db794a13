"""Monte-Carlo oracle behavior (small-draw smoke level; the full
50-instance audit runs in the acceptance suite).

``audit`` draws LPD and k_DIC2 at ``seed``, LPPD and k_WAIC2 at
``seed + 1``, LOO at ``seed + 2`` and CV2 at ``seed + 3``.
"""

import math

import numpy as np
import pytest

from conftest import random_instance
from memsel.chain import CountTable, StateAlphabet, Trajectory, count_transitions
from memsel.criteria import DirichletPrior, evaluate, evaluate_depths, lpd
from memsel.oracle import (
    MIN_DRAWS,
    OracleEstimate,
    _log_mean_power,
    _variance,
    audit,
    cv2_refit,
    loo_refit,
)
from memsel.simulate import generate_network
from memsel.tying import TieMap

AB2 = StateAlphabet(("0", "1"))
DRAWS = 20_000


def test_minimum_draws_enforced():
    _, _, tc = random_instance(np.random.default_rng(0))
    for draws in (MIN_DRAWS - 1, 10):
        with pytest.raises(ValueError):
            audit(tc, draws=draws)


def test_zero_counts_estimates():
    from memsel.chain import BoundaryMode

    trajs = [Trajectory("a", (0,)), Trajectory("b", (1,))]
    tc = count_transitions(trajs, 2, AB2, BoundaryMode.TRUNCATED)
    # no transitions, so no cells: every estimate is 0 whatever the seed
    got = audit(tc, draws=DRAWS, seed=0)
    assert got["LPPD"].estimate == 0.0 and got["LPPD"].std_error == 0.0
    assert got["k_WAIC2"].estimate == 0.0


@pytest.mark.parametrize("call, error, message", [
    (lambda: cv2_refit([Trajectory("a", (0, 1))], 1, AB2), ValueError,
     "two-fold cross validation needs at least two trajectories"),
    (lambda: audit(random_instance(np.random.default_rng(0))[2], draws=MIN_DRAWS - 1),
     ValueError, f"at least {MIN_DRAWS} draws are required, got {MIN_DRAWS - 1}"),
    # the refusals of the layers under the oracle that no other test reaches
    (lambda: CountTable(-1, AB2, {}), ValueError, "memory depth h must be >= 0"),
    (lambda: CountTable(1, AB2, {(0,): np.array([1, 2, 3])}), ValueError,
     "count row for (0,) must have length 2"),
    (lambda: DirichletPrior([1.0]), ValueError,
     "prior must be a vector with one component per state"),
    (lambda: evaluate_depths([Trajectory("a", (0, 1))], AB2, [-1, 0]), ValueError,
     "memory depths must be >= 0"),
    (lambda: evaluate_depths([Trajectory("a", (0, 1))], AB2, [0], aic_penalty="bic"),
     ValueError, "aic_penalty must be 'params' or 'full'"),
    (lambda: TieMap(h=-1, n_classes=1, assignments={}), ValueError,
     "memory depth h must be >= 0"),
    # checked before the seed, which takes h_true as a key, is made
    (lambda: generate_network(3, -1, 0), ValueError, "true memory depth must be >= 0"),
], ids=["cv2-refit-one-trajectory", "audit-few-draws", "count-table-negative-depth",
        "count-table-row-length", "prior-one-component", "depths-negative",
        "depths-aic-penalty", "tie-map-negative-depth", "network-negative-depth"])
def test_error_table(call, error, message):
    with pytest.raises(error) as info:
        call()
    assert str(info.value) == message


def test_z_at_zero_standard_error():
    # an exact estimate: a reference equal to it is no gap, any other an infinite one
    exact = OracleEstimate(-3.5, 0.0)
    assert exact.z(-3.5) == 0.0
    assert exact.z(-3.25) == math.inf and exact.z(-4.0) == math.inf


def test_lppd_agreement():
    rng = np.random.default_rng(1)
    for i in range(6):
        _, _, tc = random_instance(rng)
        est = audit(tc, draws=DRAWS, seed=99 + i)["LPPD"]
        assert abs(est.z(-0.5 * evaluate(tc).value("LPPD"))) < 4.0


def test_lpd_agreement_and_j1_collapse():
    rng = np.random.default_rng(2)
    for i in range(6):
        _, _, tc = random_instance(rng, j=1)
        est_lpd = audit(tc, draws=DRAWS, seed=200 + i)["LPD"]
        est_lppd = audit(tc, draws=DRAWS, seed=199 + i)["LPPD"]
        assert abs(est_lpd.z(lpd(tc.total))) < 4.0
        # same quantity and same seed: identical cells, identical estimate
        assert est_lpd.estimate == est_lppd.estimate


def test_loo_and_cv2_agreement():
    rng = np.random.default_rng(3)
    for i in range(4):
        _, trajs, tc = random_instance(rng, j=3)
        rep = evaluate(tc)
        assert abs(audit(tc, draws=DRAWS, seed=298 + i)["LOO"].z(rep.value("LOO"))) < 4.0
        assert abs(audit(tc, draws=DRAWS, seed=397 + i)["CV2"].z(rep.value("CV2"))) < 4.0


def test_variance_oracle_validates_waic2_and_dic2():
    rng = np.random.default_rng(4)
    for i in range(4):
        _, _, tc = random_instance(rng)
        rep = evaluate(tc)
        k2 = rep.value("k_WAIC2")
        est = audit(tc, draws=DRAWS, seed=499 + i)["k_WAIC2"]
        assert est.estimate >= 0.0
        assert abs(est.z(k2)) < 4.0
        # twice the total rows' variance: z is the same as for k_DIC2 / 2
        assert abs(audit(tc, draws=DRAWS, seed=600 + i)["k_DIC2"].z(rep.value("k_DIC2"))) < 4.0


def test_variance_estimator_matches_numpy_and_fourth_moment_form():
    rng = np.random.default_rng(9)
    for n in (1_000, 4_097, 20_000):
        p = rng.dirichlet(rng.uniform(0.3, 5.0, 3), size=n)
        for t in (rng.normal(rng.normal(0.0, 5.0), rng.uniform(0.1, 3.0), n),
                  np.log(p) @ np.array([3.0, 1.0, 0.0])):
            var, var_of_var = _variance(t)
            assert var == float(np.var(t, ddof=1))
            d = t - t.mean()
            m2 = float(np.mean(d * d))
            se_pow = math.sqrt(max(float(np.mean(d**4)) - m2 * m2, 0.0) / n)
            assert abs(math.sqrt(var_of_var) - se_pow) <= 1e-12 * se_pow


def test_known_variance_value():
    # single context with counts [2, 1]: posterior variance of the
    # log-likelihood is 4 psi'(3) + psi'(2) - 9 psi'(5) = 0.23276...
    tc = count_transitions([Trajectory("t", (0, 0, 1))], 0, AB2)
    est = audit(tc, draws=200_000, seed=6)["k_WAIC2"]
    assert abs(est.z(0.2327637326)) < 4.0


def test_std_error_scales_with_draws():
    rng = np.random.default_rng(5)
    _, _, tc = random_instance(rng, j=2)
    se1 = audit(tc, draws=20_000, seed=7)["LPPD"].std_error
    se2 = audit(tc, draws=40_000, seed=8)["LPPD"].std_error
    ratio = se2 / se1
    assert 0.8 / np.sqrt(2) < ratio < 1.2 / np.sqrt(2)


def test_determinism():
    rng = np.random.default_rng(6)
    _, _, tc = random_instance(rng)
    a = audit(tc, draws=DRAWS, seed=41)["LPPD"]
    b = audit(tc, draws=DRAWS, seed=41)["LPPD"]
    assert a == b
    c = audit(tc, draws=DRAWS, seed=42)["LPPD"]
    assert a.estimate != c.estimate


def test_refit_oracles_match_closed_forms():
    rng = np.random.default_rng(7)
    for _ in range(25):
        _, trajs, tc = random_instance(rng, h=1)
        rep = evaluate(tc)
        assert loo_refit(trajs, 1, tc.alphabet) == rep.value("LOO")
        if tc.n_trajectories >= 2:
            assert cv2_refit(trajs, 1, tc.alphabet) == rep.value("CV2")


def test_log_mean_power_std_equals_numpy():
    rng = np.random.default_rng(13)
    for n in (1_000, 4_097, 5_000):
        for t in (rng.normal(rng.normal(0.0, 5.0), rng.uniform(0.1, 30.0), n),
                  np.log(rng.dirichlet([0.7, 2.0], size=n)) @ np.array([4.0, 1.0])):
            est, var = _log_mean_power(t)
            mx = float(t.max())
            w = np.exp(t - mx)
            mean_w = float(w.mean())
            se = float(w.std(ddof=1)) / (mean_w * math.sqrt(t.size))
            assert est == mx + math.log(mean_w)
            assert var == se * se
