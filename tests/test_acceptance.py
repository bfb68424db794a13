"""Acceptance suite: one test per exit criterion, one printed line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines. The
statistical checks are seeded, so outcomes are reproducible; tolerances
are the stated ones, not calibrated after the fact.
"""

import json
import math

import numpy as np
import pytest

from conftest import find_record
from memsel.chain import (
    BoundaryMode,
    CountTable,
    StateAlphabet,
    Trajectory,
    count_transitions,
)
from memsel.cli import main
from memsel.criteria import CRITERIA, aic, evaluate, lpd
from memsel.oracle import audit, cv2_refit, loo_refit
from memsel.simulate import (
    FreeThrowModel,
    FreeThrowSimConfig,
    SimConfig,
    free_throw_power,
    run_power_study,
)
from memsel.tying import jagged_free_throw_map, tie_counts

AB2 = StateAlphabet(("0", "1"))
ORACLE_DRAWS = 100_000


def _report(n: int, message: str) -> None:
    print(f"[ACCEPTANCE #{n}] PASS: {message}")


# ---------------------------------------------------------------------------
# Shared fixtures


@pytest.fixture(scope="module")
def oracle_suite():
    """50 random small instances: M <= 3, J <= 4, every count <= 5."""
    rng = np.random.default_rng(0)
    instances = []
    while len(instances) < 50:
        m = int(rng.integers(2, 4))
        j = int(rng.integers(2, 5))
        h = int(rng.integers(0, 2))
        alphabet = StateAlphabet.of_size(m)
        trajs = [
            Trajectory(f"t{i}", tuple(rng.integers(0, m, int(rng.integers(1, 5))).tolist()))
            for i in range(j)
        ]
        tc = count_transitions(trajs, h, alphabet)
        if max(int(v.max()) for v in tc.total.rows.values()) <= 5:
            instances.append((trajs, tc))
    return instances


@pytest.fixture(scope="module")
def selection_grid():
    """Reduced-scale selection grid shared by criteria 4 and 6."""
    cfg = SimConfig(
        m=8, h_true=1, h_range=(1, 2, 3, 4, 5), J_values=(4, 16, 256),
        replicates=500, criteria=("WAIC1", "LPD", "LOO"), seed=0,
    )
    return run_power_study(cfg)


# ---------------------------------------------------------------------------
# Criteria


def test_criterion_01_oracle_agreement(oracle_suite):
    worst = 0.0
    for idx, (trajs, tc) in enumerate(oracle_suite):
        s = 1000 + idx * 10
        rep = evaluate(tc)
        closed = {"LPD": lpd(tc.total), "LPPD": -0.5 * rep.value("LPPD")}
        closed.update((name, rep.value(name)) for name in ("LOO", "CV2", "k_WAIC2", "k_DIC2"))
        estimates = audit(tc, draws=ORACLE_DRAWS, seed=s)
        assert list(estimates) == list(closed)
        for name, est in estimates.items():
            z = abs(est.z(closed[name]))
            worst = max(worst, z)
            assert z <= 3.0, f"instance {idx}, {name}: |z| = {z:.2f}"
    _report(1, f"50 instances x 6 quantities within 3 SE at 1e5 draws "
               f"(max |z| = {worst:.2f})")


def test_criterion_02_refit_equivalence(oracle_suite):
    for idx, (trajs, tc) in enumerate(oracle_suite):
        rep = evaluate(tc, which=("LOO", "CV2"))
        assert rep.value("LOO") == loo_refit(trajs, tc.h, tc.alphabet), \
            f"instance {idx}: LOO refit mismatch"
        assert rep.value("CV2") == cv2_refit(trajs, tc.h, tc.alphabet), \
            f"instance {idx}: CV2 refit mismatch"
    _report(2, "closed-form LOO and CV2 equal literal refit loops exactly "
               "on all 50 instances")


def test_criterion_03_free_throw_aic():
    table = CountTable(0, AB2, {(): np.array([222, 471])})
    value = aic(table, 1)
    # exact recomputation from the 471-of-693 season totals
    expected = -2.0 * (471 * math.log(471 / 693) + 222 * math.log(222 / 693)) + 2.0
    assert value == pytest.approx(expected, rel=1e-14)
    assert value == pytest.approx(871.2025, abs=0.01)
    _report(3, f"season-total AIC = {value:.4f} with k=1 "
               f"(exact recomputation from the 471-of-693 counts)")


def test_criterion_04_selection_power_at_small_samples(selection_grid):
    freq = find_record(selection_grid.selection, J=4, criterion="WAIC1", h_chosen=1)["frequency"]
    assert 0.55 <= freq <= 0.75, f"WAIC1 picked h=1 in {freq:.1%} of replicates"
    # at large samples the recommended criterion is near-certain
    loo_large = find_record(selection_grid.selection, J=256, criterion="LOO",
                            h_chosen=1)["frequency"]
    assert loo_large > 0.90
    _report(4, f"WAIC1 selects h=1 at J=4 in {freq:.1%} of 500 replicates "
               f"(target 65% +- 10pp); LOO at J=256: {loo_large:.1%}")


def test_criterion_05_no_underfitting_at_j64():
    cfg = SimConfig(
        m=8, h_true=2, h_range=(1, 2, 3), J_values=(64,),
        replicates=300, criteria=("LOO", "WAIC2"), seed=0,
    )
    result = run_power_study(cfg)
    for crit in ("LOO", "WAIC2"):
        row = find_record(result.deltas, J=64, criterion=crit, h=1)
        assert row["frac_below_zero"] == 0.0, \
            f"{crit}: {row['frac_below_zero']:.1%} of deltas below zero"
        assert row["min"] > 0.0
    _report(5, "h_true=2, J=64: zero replicates with delta(h=1) < 0 under "
               "LOO and WAIC2 (300 replicates)")


def test_criterion_06_lpd_complexity_bias(selection_grid):
    def over_select_rate(j):
        return sum(find_record(selection_grid.selection, J=j, criterion="LPD", h_chosen=h)["frequency"]
                   for h in (2, 3, 4, 5))

    low, high = over_select_rate(16), over_select_rate(256)
    assert high >= low, f"LPD over-selection fell from {low:.1%} to {high:.1%}"
    _report(6, f"LPD selects h>1 in {high:.1%} at J=256 vs {low:.1%} at J=16 "
               f"(bias does not shrink with data)")


def test_criterion_07_jagged_model_recovery():
    cfg = FreeThrowSimConfig(
        model=FreeThrowModel.jagged(0.82, 0.66), games=91, lam=7.615,
        replicates=300, seed=0, criteria=("LOO",),
    )
    result = free_throw_power(cfg)
    rate = result.jagged_win_rate["LOO"]
    assert rate > 0.60, f"jagged model won in only {rate:.1%} of replicates"
    _report(7, f"jagged truth: jagged model beats both h=0 and h=1 on LOO in "
               f"{rate:.1%} of 300 replicates (>60% required)")


def test_criterion_08_exact_jagged_values_need_per_game_data():
    # The jagged fit's exact criterion values depend on the per-game shot
    # sequences, which aggregate season totals do not determine. The
    # pipeline computes that exact row for any user who supplies real
    # per-game data; here a synthetic season with the same 471-of-693
    # aggregate exercises the identical code path.
    rng = np.random.default_rng(42)
    pool = np.array([1] * 471 + [0] * 222)
    rng.shuffle(pool)
    trajs, i, g = [], 0, 0
    while i < 693:
        n = min(max(1, int(rng.poisson(7.615))), 693 - i)
        trajs.append(Trajectory(f"g{g}", tuple(int(x) for x in pool[i:i + n])))
        i += n
        g += 1
    assert sum(sum(t.steps) for t in trajs) == 471
    assert sum(len(t) for t in trajs) == 693
    tc = count_transitions(trajs, 1, AB2)
    tied = tie_counts(tc, jagged_free_throw_map(AB2))
    values = evaluate(tied, k_params=2)
    for name in ("AIC", "WAIC1", "WAIC2", "LOO"):
        assert math.isfinite(values.value(name))
    # aggregate-preserving synthetic data lands near the season-total
    # AIC (~871); exact values need the real sequences
    assert 850 < values.value("AIC") < 900
    _report(8, "jagged pipeline computes the full criterion row from per-game "
               "data; exact values require the real shot sequences "
               "(not derivable from season totals)")


def test_criterion_09_byte_identical_reruns(tmp_path):
    sim_args = ["simulate", "--M", "6", "--h-true", "1", "--h-range", "1..3",
                "--J", "8", "--replicates", "40", "--criteria", "LOO,WAIC1",
                "--seed", "123"]
    assert main(sim_args + ["--out", str(tmp_path / "s1")]) == 0
    assert main(sim_args + ["--out", str(tmp_path / "s2")]) == 0
    for name in ("selection.csv", "delta.csv"):
        a = (tmp_path / "s1" / name).read_bytes()
        b = (tmp_path / "s2" / name).read_bytes()
        assert a == b, f"{name} differs between identical runs"

    data = tmp_path / "data.jsonl"
    rng = np.random.default_rng(1)
    lines = [json.dumps({"id": f"g{i}",
                         "seq": [str(s) for s in rng.integers(0, 2, 6)]})
             for i in range(10)]
    data.write_text("\n".join(lines) + "\n")
    oracle_args = ["oracle", "--input", str(data), "--h", "1",
                   "--draws", "20000", "--seed", "7"]
    assert main(oracle_args + ["--out", str(tmp_path / "o1")]) == 0
    assert main(oracle_args + ["--out", str(tmp_path / "o2")]) == 0
    a = (tmp_path / "o1" / "oracle.json").read_bytes()
    b = (tmp_path / "o2" / "oracle.json").read_bytes()
    assert a == b
    _report(9, "simulate and oracle reruns with fixed seeds are byte-identical")


def test_criterion_10_invariant_suite():
    rng = np.random.default_rng(99)
    checks = 0
    for _ in range(40):
        m = int(rng.integers(2, 4))
        alphabet = StateAlphabet.of_size(m)
        trajs = [
            Trajectory(f"t{i}", tuple(rng.integers(0, m, int(rng.integers(1, 7))).tolist()))
            for i in range(int(rng.integers(1, 5)))
        ]
        h = int(rng.integers(0, 3))
        tc = count_transitions(trajs, h, alphabet)

        # permutation invariance of every criterion
        perm = rng.permutation(m)
        permuted = [Trajectory(t.id, tuple(int(perm[s]) for s in t.steps)) for t in trajs]
        tcp = count_transitions(permuted, h, alphabet)
        va, vb = evaluate(tc), evaluate(tcp)
        for name in CRITERIA:
            if math.isnan(va.value(name)):
                assert math.isnan(vb.value(name))
                continue
            assert va.value(name) == pytest.approx(vb.value(name), rel=1e-10, abs=1e-10)

        # definitional identities, exact
        for variant in (1, 2):
            kw = va.value(f"k_WAIC{variant}")
            assert va.value(f"WAIC{variant}") == va.value("LPPD") + 2.0 * kw
        # nonnegative complexities
        assert va.value("k_DIC1") >= 0.0
        assert va.value("k_DIC2") >= 0.0
        assert va.value("k_WAIC2") >= 0.0
        # single-trajectory collapse
        if tc.n_trajectories == 1:
            assert -0.5 * va.value("LPPD") == lpd(tc.total)
        checks += 1

    # trivial-count identities
    empty_tc = count_transitions(
        [Trajectory("a", (0,)), Trajectory("b", (1,))], 2, AB2, BoundaryMode.TRUNCATED)
    assert lpd(empty_tc.total) == 0.0
    empty = evaluate(empty_tc)
    for name in ("LPPD", "LOO", "CV2", "WAIC1", "WAIC2", "DIC1", "DIC2",
                 "k_WAIC1", "k_WAIC2", "k_DIC1", "k_DIC2"):
        assert empty.value(name) == 0.0, name
    assert aic(empty_tc.total, 6) == 12.0

    _report(10, f"invariant suite green on {checks} random instances plus "
                f"trivial-count identities")
