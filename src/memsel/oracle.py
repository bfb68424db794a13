"""Monte-Carlo oracle for the closed-form criteria.

``audit`` estimates LPD, LPPD, LOO, CV2, k_WAIC2 and k_DIC2 by drawing
directly from the Dirichlet posteriors whose expectations the closed
forms evaluate analytically. It shares nothing with the closed forms but
the prior, so agreement within a few standard errors is a genuine
cross-check. Each cell (one posterior and the counts it scores) draws
from its own stream, spawned from the seed of its cell set, and each of
the four cell sets is drawn once:

- the total rows at ``seed`` feed LPD and k_DIC2;
- the per-trajectory rows, scored against the total, at ``seed + 1``
  feed LPPD and k_WAIC2;
- the leave-one-out rows at ``seed + 2`` feed LOO;
- the two-fold rows at ``seed + 3`` feed CV2.

The refit scorers at the bottom are the literal hold-out-and-score loops
that LOO and CV2 collapse into closed form: exact references, not
estimates.
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
)
from .criteria import DirichletPrior, _prior_for, predictive_log_density

__all__ = [
    "MIN_DRAWS",
    "OracleEstimate",
    "audit",
    "loo_refit",
    "cv2_refit",
]

MIN_DRAWS = 1_000


@dataclass(frozen=True)
class OracleEstimate:
    estimate: float
    std_error: float

    def z(self, reference: float) -> float:
        """Standardized gap between a reference value and this estimate."""
        if self.std_error == 0.0:
            return 0.0 if reference == self.estimate else math.inf
        return (reference - self.estimate) / self.std_error

    def scaled(self, factor: float) -> "OracleEstimate":
        """The estimate of ``factor`` times the quantity."""
        return OracleEstimate(factor * self.estimate, abs(factor) * self.std_error)


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
    # w.std(ddof=1) to the bit, reusing the mean: squared deviations, pairwise sum
    w -= mean_w
    w *= w
    se = math.sqrt(float(w.sum()) / (t.size - 1)) / (mean_w * math.sqrt(t.size))
    return est, se * se


def _variance(t: np.ndarray) -> tuple[float, float]:
    """Sample variance of the draws, with its asymptotic variance.

    The variance is ``np.var(t, ddof=1)`` to the bit: the same mean,
    squared deviations and pairwise sum.
    """
    d = t - t.mean()
    d2 = d * d
    ss = d2.sum()
    m2 = float(ss / t.size)
    m4 = float(np.mean(d2 * d2))
    return float(ss / (t.size - 1)), max(m4 - m2 * m2, 0.0) / t.size


def _sum_cells(cells, draws, seed, estimators) -> list[OracleEstimate]:
    """Per estimator, the independent per-cell estimates summed, standard
    errors in quadrature; each cell's draws feed every estimator."""
    rngs = _cell_rngs(seed, len(cells))
    est = [0.0] * len(estimators)
    var = [0.0] * len(estimators)
    for (post, expo), rng in zip(cells, rngs):
        t = _loglik_draws(post, expo, draws, rng)
        for i, estimator in enumerate(estimators):
            e, v = estimator(t)
            est[i] += e
            var[i] += v
    return [OracleEstimate(e, math.sqrt(v)) for e, v in zip(est, var)]


def audit(
    tc: TrajectoryCounts,
    prior: DirichletPrior | None = None,
    draws: int = 100_000,
    seed: int = 0,
) -> dict[str, OracleEstimate]:
    """Every check of ``memsel oracle``, drawing each distinct cell set once.

    Keys in report order: LPD and LPPD (log scale), LOO and CV2 (deviance
    scale; CV2 for two or more trajectories only), k_WAIC2, and k_DIC2 as
    twice the posterior variance of the total rows' log-likelihood. Seeds
    are as in the module docstring.
    """
    draws = int(draws)
    if draws < MIN_DRAWS:
        raise ValueError(f"at least {MIN_DRAWS} draws are required, got {draws}")
    alpha = _prior_for(tc.alphabet, prior).alpha
    both, one = (_log_mean_power, _variance), (_log_mean_power,)
    idx, counts, bounds = tc.idx, tc.t, tc.bounds
    n = tc.total.counts
    totals = n[idx]  # the total row of each trajectory row's context
    lpd, half_dic = _sum_cells(list(zip(n + alpha, n)), draws, seed, both)
    lppd, waic = _sum_cells(list(zip(totals + alpha, counts)), draws, seed + 1, both)
    # each held-out row is scored against the other trajectories' counts
    loo = _sum_cells(list(zip(totals - counts + alpha, counts)), draws, seed + 2, one)[0]
    out = {"LPD": lpd, "LPPD": lppd, "LOO": loo.scaled(-2.0)}
    if tc.n_trajectories >= 2:
        split = bounds[tc.n_trajectories // 2]
        first = np.zeros_like(n)
        np.add.at(first, idx[:split], counts[:split])  # exact: integer counts
        # for CV2, against the other fold's counts
        train = np.concatenate(((n - first)[idx[:split]], first[idx[split:]]))
        cv2 = _sum_cells(list(zip(train + alpha, counts)), draws, seed + 3, one)[0]
        out["CV2"] = cv2.scaled(-2.0)
    out["k_WAIC2"] = waic
    out["k_DIC2"] = half_dic.scaled(2.0)
    return out


# ---------------------------------------------------------------------------
# Literal refit-and-score loops


def loo_refit(
    trajectories,
    h: int,
    alphabet: StateAlphabet,
    mode: BoundaryMode = BoundaryMode.PADDED,
    prior: DirichletPrior | None = None,
) -> float:
    """Leave-one-out by recounting the other trajectories for each held-out one.

    Matches the closed-form LOO of ``evaluate`` exactly: the recounted
    training counts plus the held-out counts make up the total in integer
    arithmetic. A single trajectory is scored against an empty table.
    """
    trajs = list(trajectories)
    prior = _prior_for(alphabet, prior)
    held_out = count_transitions(trajs, h, alphabet, mode).per_trajectory
    out = 0.0
    for j, (_, table) in enumerate(held_out):
        rest = trajs[:j] + trajs[j + 1:]
        train = (count_transitions(rest, h, alphabet, mode).total if rest
                 else CountTable(h, alphabet, {}, mode))
        out += predictive_log_density(train, table, prior)
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
