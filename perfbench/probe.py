"""Criterion kernel probe: nanoseconds per count row for each criterion.

Times the public closed forms (aic, lpd, lppd, waic 1/2, dic 1/2, loo,
lppd_cv2) on two benchmark-generated count tables: the long_series
input at depths 2 and 5, and one power_grid-shaped J=64 batch counted
at depths 1..5. A row is one (trajectory, context) row for the
per-trajectory criteria and one context row of the total table for
AIC, LPD and DIC, which read only the total.
"""

from __future__ import annotations

import time

import gen

LONG_DEPTHS = (2, 5)
BATCH_DEPTHS = (1, 2, 3, 4, 5)
MIN_SECONDS = 0.02


def _kernels(criteria):
    """name -> (callable on TrajectoryCounts, reads only the total table)."""
    return {
        "AIC": (lambda tc: criteria.aic(tc.total, criteria.param_count(
            tc.alphabet.size, tc.h, tc.boundary)), True),
        "DIC1": (lambda tc: criteria.dic(tc, variant=1), True),
        "DIC2": (lambda tc: criteria.dic(tc, variant=2), True),
        "LPD": (lambda tc: criteria.lpd(tc.total), True),
        "LPPD": (lambda tc: criteria.lppd(tc), False),
        "WAIC1": (lambda tc: criteria.waic(tc, variant=1), False),
        "WAIC2": (lambda tc: criteria.waic(tc, variant=2), False),
        "LOO": (lambda tc: criteria.loo(tc), False),
        "CV2": (lambda tc: criteria.lppd_cv2(tc), False),
    }


def _seconds_per_call(fn, tc) -> float:
    """Mean call time over a batch of calls lasting at least MIN_SECONDS."""
    n, t0 = 0, time.perf_counter()
    while True:
        fn(tc)
        n += 1
        elapsed = time.perf_counter() - t0
        if elapsed >= MIN_SECONDS:
            return elapsed / n


def _tables(seed: int):
    # memsel is importable only once run.py has put the checkout's src/ on sys.path.
    from memsel import BoundaryMode, StateAlphabet, Trajectory, count_transitions

    def counted(seqs, m, depths):
        alphabet = StateAlphabet.of_size(m)
        trajs = [Trajectory(f"t{i}", tuple(int(s) for s in seq)) for i, seq in enumerate(seqs)]
        return [count_transitions(trajs, h, alphabet, BoundaryMode.PADDED) for h in depths]

    return {
        "": counted(gen.long_series_sequences(seed), gen.LONG_STATES, LONG_DEPTHS),
        "_j64": counted(gen.absorbing_batch(seed), gen.BATCH_STATES, BATCH_DEPTHS),
    }


def run(seed: int) -> dict[str, float]:
    """criteria.<NAME>.ns_per_row (long_series) and ...ns_per_row_j64 (J=64 batch)."""
    from memsel import criteria

    out = {}
    for suffix, tables in _tables(seed).items():
        for name, (fn, total_only) in _kernels(criteria).items():
            seconds = rows = 0
            for tc in tables:
                seconds += _seconds_per_call(fn, tc)
                rows += tc.total.n_contexts if total_only else sum(
                    t.n_contexts for _, t in tc.per_trajectory)
            out[f"criteria.{name}.ns_per_row{suffix}"] = seconds / rows * 1e9
    return out
