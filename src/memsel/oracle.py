"""Monte-Carlo oracles for the closed-form criteria.

These estimators integrate the same posterior expectations the closed
forms evaluate analytically, by drawing directly from the Dirichlet
posteriors. They share no code with the closed forms beyond the special
functions, so agreement within a few standard errors is a genuine
cross-check. The refit scorers at the bottom are the literal
hold-out-and-score loops that LOO and CV2 collapse into closed form.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .chain import (
    BoundaryMode,
    CountTable,
    StateAlphabet,
    TrajectoryCounts,
    count_transitions,
    merge_counts,
)
from .criteria import DirichletPrior, _prior_for, predictive_log_density

__all__ = [
    "MIN_DRAWS",
    "OracleEstimate",
    "mc_lpd",
    "mc_lppd",
    "mc_loo",
    "mc_cv2",
    "mc_variance_loglik",
    "as_single_point",
    "loo_refit",
    "cv2_refit",
]

MIN_DRAWS = 1_000


@dataclass(frozen=True)
class OracleEstimate:
    estimate: float
    std_error: float
    draws: int

    def z(self, reference: float) -> float:
        """Standardized gap between a reference value and this estimate."""
        if self.std_error == 0.0:
            return 0.0 if reference == self.estimate else math.inf
        return (reference - self.estimate) / self.std_error


def _require_draws(draws: int) -> int:
    draws = int(draws)
    if draws < MIN_DRAWS:
        raise ValueError(f"at least {MIN_DRAWS} draws are required, got {draws}")
    return draws


def _cell_rngs(seed: int, n: int) -> list[np.random.Generator]:
    return [np.random.default_rng(c) for c in np.random.SeedSequence(seed).spawn(max(n, 1))]


def _loglik_draws(post: np.ndarray, expo: np.ndarray, draws: int, rng) -> np.ndarray:
    """log prod_m p_m^expo_m at each of ``draws`` draws p ~ Dirichlet(post)."""
    cols = np.nonzero(expo > 0)[0]
    p = rng.dirichlet(post, size=draws)
    return np.log(p[:, cols]) @ expo[cols].astype(float)


def _log_mean_power(t: np.ndarray) -> tuple[float, float]:
    """log E exp(t) from draws of t, with its delta-method variance."""
    mx = float(t.max())
    w = np.exp(t - mx)
    mean_w = float(w.mean())
    est = mx + math.log(mean_w)
    se = float(w.std(ddof=1)) / (mean_w * math.sqrt(t.size))
    return est, se * se


def _variance(t: np.ndarray) -> tuple[float, float]:
    """Sample variance of the draws, with its asymptotic variance."""
    d = t - t.mean()
    m2 = float(np.mean(d * d))
    m4 = float(np.mean(d**4))
    return float(np.var(t, ddof=1)), max(m4 - m2 * m2, 0.0) / t.size


def _sum_cells(cells, draws, seed, estimator=_log_mean_power) -> OracleEstimate:
    """Independent per-cell estimates summed; standard errors in quadrature."""
    rngs = _cell_rngs(seed, len(cells))
    est = 0.0
    var = 0.0
    for (post, expo), rng in zip(cells, rngs):
        e, v = estimator(_loglik_draws(post, expo, draws, rng))
        est += e
        var += v
    return OracleEstimate(est, math.sqrt(var), draws)


def _posterior_cells(tc: TrajectoryCounts, prior: DirichletPrior) -> list:
    """One (posterior given the total, trajectory counts) cell per trajectory row."""
    idx, counts, _ = tc.stacked()
    return list(zip(tc.total.matrix()[1][idx] + prior.alpha, counts))


def mc_lpd(
    total: CountTable,
    prior: DirichletPrior | None = None,
    draws: int = 100_000,
    seed: int = 0,
) -> OracleEstimate:
    """MC estimate of the log predictive density of the whole dataset."""
    draws = _require_draws(draws)
    prior = _prior_for(total.alphabet, prior)
    cells = [(vec + prior.alpha, vec) for vec in total.rows.values()]
    return _sum_cells(cells, draws, seed)


def mc_lppd(
    tc: TrajectoryCounts,
    prior: DirichletPrior | None = None,
    draws: int = 100_000,
    seed: int = 0,
) -> OracleEstimate:
    """MC estimate of the log pointwise predictive density.

    For every (trajectory, context) pair the expectation of the
    trajectory's likelihood contribution is taken over the posterior given
    the total counts, via independent draw batches per pair.
    """
    draws = _require_draws(draws)
    prior = _prior_for(tc.alphabet, prior)
    return _sum_cells(_posterior_cells(tc, prior), draws, seed)


def mc_loo(
    tc: TrajectoryCounts,
    prior: DirichletPrior | None = None,
    draws: int = 100_000,
    seed: int = 0,
) -> OracleEstimate:
    """MC estimate of leave-one-out (deviance scale, so -2 x the log sum)."""
    draws = _require_draws(draws)
    prior = _prior_for(tc.alphabet, prior)
    idx, counts, _ = tc.stacked()
    rest = tc.total.matrix()[1][idx] - counts
    inner = _sum_cells(list(zip(rest + prior.alpha, counts)), draws, seed)
    return OracleEstimate(-2.0 * inner.estimate, 2.0 * inner.std_error, draws)


def mc_cv2(
    tc: TrajectoryCounts,
    prior: DirichletPrior | None = None,
    draws: int = 100_000,
    seed: int = 0,
) -> OracleEstimate:
    """MC estimate of two-fold cross validation (deviance scale)."""
    draws = _require_draws(draws)
    if tc.n_trajectories < 2:
        raise ValueError("two-fold cross validation needs at least two trajectories")
    prior = _prior_for(tc.alphabet, prior)
    idx, counts, bounds = tc.stacked()
    n = tc.total.matrix()[1]
    split = bounds[tc.n_trajectories // 2]
    first = np.zeros_like(n)
    np.add.at(first, idx[:split], counts[:split])  # exact: integer counts
    # each held-out row is scored against the other fold's counts
    train = np.concatenate(((n - first)[idx[:split]], first[idx[split:]]))
    inner = _sum_cells(list(zip(train + prior.alpha, counts)), draws, seed)
    return OracleEstimate(-2.0 * inner.estimate, 2.0 * inner.std_error, draws)


def mc_variance_loglik(
    tc: TrajectoryCounts,
    prior: DirichletPrior | None = None,
    draws: int = 100_000,
    seed: int = 0,
) -> OracleEstimate:
    """MC estimate of sum_j sum_x var[log Pr(N_x^(j) | p_x)] under the posterior.

    Validates k_WAIC2 directly; called with a single pseudo-trajectory
    equal to the total counts it validates k_DIC2 / 2.
    """
    draws = _require_draws(draws)
    prior = _prior_for(tc.alphabet, prior)
    return _sum_cells(_posterior_cells(tc, prior), draws, seed, _variance)


def as_single_point(tc: TrajectoryCounts) -> TrajectoryCounts:
    """Wrap the total counts as one pseudo-trajectory (for k_DIC2 checks)."""
    n_rows = tc.total.n_contexts
    return TrajectoryCounts(("total",), tc.total, np.arange(n_rows), tc.total.matrix()[1],
                            np.array([0, n_rows]))


# ---------------------------------------------------------------------------
# Literal refit-and-score loops


def loo_refit(tc: TrajectoryCounts, prior: DirichletPrior | None = None) -> float:
    """Leave-one-out by actually refitting without each trajectory.

    Matches the closed-form LOO of ``evaluate`` exactly: the refit
    posterior counts plus the held-out counts recompose the total in
    integer arithmetic.
    """
    prior = _prior_for(tc.alphabet, prior)
    tables = [t for _, t in tc.per_trajectory]
    meta = dict(h=tc.h, alphabet=tc.alphabet, boundary=tc.boundary)
    out = 0.0
    for j, table in enumerate(tables):
        rest = merge_counts(tables[:j] + tables[j + 1:], **meta)
        out += predictive_log_density(rest, table, prior)
    return -2.0 * out


def cv2_refit(
    trajectories,
    h: int,
    alphabet: StateAlphabet,
    mode: BoundaryMode = BoundaryMode.PADDED,
    prior: DirichletPrior | None = None,
) -> float:
    """Two-fold cross validation by recounting each fold from scratch."""
    trajs = list(trajectories)
    if len(trajs) < 2:
        raise ValueError("two-fold cross validation needs at least two trajectories")
    prior = _prior_for(alphabet, prior)
    half = len(trajs) // 2
    first = count_transitions(trajs[:half], h, alphabet, mode)
    second = count_transitions(trajs[half:], h, alphabet, mode)
    out = 0.0
    for _, table in first.per_trajectory:
        out += predictive_log_density(second.total, table, prior)
    for _, table in second.per_trajectory:
        out += predictive_log_density(first.total, table, prior)
    return -2.0 * out
