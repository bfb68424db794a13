"""Monte-Carlo oracles for the closed-form criteria.

These estimators integrate the same posterior expectations the closed
forms evaluate analytically, by drawing directly from the Dirichlet
posteriors. They share no code with the closed forms beyond the special
functions, so agreement within a few standard errors is a genuine
cross-check. The refit scorers at the bottom are the literal
hold-out-and-score loops that LOO and CV2 collapse into closed form.

Each cell (one posterior and the counts it scores) draws from its own
stream, spawned from the seed of its cell set. ``audit`` makes every
check of ``memsel oracle`` and draws each distinct cell set once:

- the total rows at ``seed`` feed LPD and k_DIC2;
- the per-trajectory posterior rows at ``seed + 1`` feed LPPD and k_WAIC2;
- the leave-one-out rows at ``seed + 2`` feed LOO;
- the two-fold rows at ``seed + 3`` feed CV2.

So k_DIC2 and k_WAIC2 reuse LPD's and LPPD's draws, and every estimate
equals the matching ``mc_*`` call at that seed.
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
    "mc_lpd",
    "mc_lppd",
    "mc_loo",
    "mc_cv2",
    "mc_variance_loglik",
    "audit",
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

    def scaled(self, factor: float) -> "OracleEstimate":
        """The estimate of ``factor`` times the quantity."""
        return OracleEstimate(factor * self.estimate, abs(factor) * self.std_error, self.draws)


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
    return [OracleEstimate(e, math.sqrt(v), draws) for e, v in zip(est, var)]


def _posterior_cells(tc: TrajectoryCounts, prior: DirichletPrior) -> list:
    """One (posterior given the total, trajectory counts) cell per trajectory row."""
    idx, counts, _ = tc.stacked()
    return list(zip(tc.total.counts[idx] + prior.alpha, counts))


def mc_lpd(
    total: CountTable,
    prior: DirichletPrior | None = None,
    draws: int = 100_000,
    seed: int = 0,
) -> OracleEstimate:
    """MC estimate of the log predictive density of the whole dataset."""
    draws = _require_draws(draws)
    prior = _prior_for(total.alphabet, prior)
    cells = [(vec + prior.alpha, vec) for vec in total.counts]
    return _sum_cells(cells, draws, seed, (_log_mean_power,))[0]


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
    return _sum_cells(_posterior_cells(tc, prior), draws, seed, (_log_mean_power,))[0]


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
    rest = tc.total.counts[idx] - counts
    cells = list(zip(rest + prior.alpha, counts))
    return _sum_cells(cells, draws, seed, (_log_mean_power,))[0].scaled(-2.0)


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
    n = tc.total.counts
    split = bounds[tc.n_trajectories // 2]
    first = np.zeros_like(n)
    np.add.at(first, idx[:split], counts[:split])  # exact: integer counts
    # each held-out row is scored against the other fold's counts
    train = np.concatenate(((n - first)[idx[:split]], first[idx[split:]]))
    cells = list(zip(train + prior.alpha, counts))
    return _sum_cells(cells, draws, seed, (_log_mean_power,))[0].scaled(-2.0)


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
    return _sum_cells(_posterior_cells(tc, prior), draws, seed, (_variance,))[0]


def audit(
    tc: TrajectoryCounts,
    prior: DirichletPrior | None = None,
    draws: int = 100_000,
    seed: int = 0,
) -> dict[str, OracleEstimate]:
    """Every check of ``memsel oracle``, drawing each distinct cell set once.

    Keys in report order: LPD, LPPD, LOO, CV2 (two or more trajectories
    only), k_WAIC2 and k_DIC2, on the scales of the ``mc_*`` estimators.
    LPD and k_DIC2 share the total rows' draws at ``seed``, LPPD and
    k_WAIC2 the posterior rows' draws at ``seed + 1``; LOO and CV2 draw at
    ``seed + 2`` and ``seed + 3``.
    """
    draws = _require_draws(draws)
    prior = _prior_for(tc.alphabet, prior)
    both = (_log_mean_power, _variance)
    # the total rows, as one pseudo-trajectory, are mc_lpd's cells
    lpd, half_dic = _sum_cells(_posterior_cells(as_single_point(tc), prior), draws, seed, both)
    lppd, waic = _sum_cells(_posterior_cells(tc, prior), draws, seed + 1, both)
    out = {"LPD": lpd, "LPPD": lppd, "LOO": mc_loo(tc, prior, draws, seed + 2)}
    if tc.n_trajectories >= 2:
        out["CV2"] = mc_cv2(tc, prior, draws, seed + 3)
    out["k_WAIC2"] = waic
    out["k_DIC2"] = half_dic.scaled(2.0)
    return out


def as_single_point(tc: TrajectoryCounts) -> TrajectoryCounts:
    """Wrap the total counts as one pseudo-trajectory (for k_DIC2 checks)."""
    n_rows = tc.total.n_contexts
    return TrajectoryCounts(("total",), tc.total, np.arange(n_rows), tc.total.counts,
                            np.array([0, n_rows]))


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
