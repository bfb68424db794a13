"""Closed-form model selection criteria for Dirichlet-multinomial chain models.

With a Dirichlet(alpha) prior on every context's transition vector, the
posterior given counts N_x is Dirichlet(alpha + N_x), and every criterion
below reduces to log-beta ratios log B(x + t) - log B(x) with integer
increments t, scored by ``specfun.log_beta_ratio``, plus digamma and
trigamma terms over the observed count rows. All values are reported on
the deviance scale (-2 x log predictive quantity), so lower is better for
every criterion.

LPPD, LOO, CV2 and k_WAIC2 sum over (trajectory, context) rows: one
pointwise kernel scores each of them over all stacked rows at once, one
term per trajectory.

Criterion names used throughout: AIC, DIC1, DIC2, LPD, LPPD, WAIC1,
WAIC2, LOO, CV2.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import reduce
from operator import add
from typing import Iterable, Sequence

import numpy as np

from .chain import (
    BoundaryMode,
    CountTable,
    StateAlphabet,
    Trajectory,
    TrajectoryCounts,
    count_transitions,
)
from .specfun import digamma, log_beta_ratio, trigamma
from .tying import TieMap, tie_counts, tied_param_count

__all__ = [
    "CRITERIA",
    "K_TERMS",
    "DirichletPrior",
    "CriterionReport",
    "default_param_count",
    "padded_param_count",
    "param_count",
    "aic",
    "lpd",
    "predictive_log_density",
    "evaluate",
    "evaluate_depths",
    "argmin",
    "select_order",
]

CRITERIA = ("AIC", "DIC1", "DIC2", "LPD", "LPPD", "WAIC1", "WAIC2", "LOO", "CV2")
# complexity terms reported alongside the criteria that use them
K_TERMS = ("k_DIC1", "k_DIC2", "k_WAIC1", "k_WAIC2")


@dataclass(frozen=True, eq=False)
class DirichletPrior:
    """Per-destination Dirichlet hyperparameters, shared by every context."""

    alpha: np.ndarray

    def __post_init__(self):
        arr = np.asarray(self.alpha, dtype=float)
        if arr.ndim != 1 or arr.size < 2:
            raise ValueError("prior must be a vector with one component per state")
        if not np.all(np.isfinite(arr)) or np.min(arr) <= 0.0:
            raise ValueError("prior components must be finite and > 0")
        arr = arr.copy()
        arr.flags.writeable = False
        object.__setattr__(self, "alpha", arr)

    @classmethod
    def symmetric(cls, m: int, value: float = 1.0) -> "DirichletPrior":
        return cls(np.full(m, float(value)))

    @property
    def size(self) -> int:
        return int(self.alpha.size)

    @property
    def total(self) -> float:
        return float(self.alpha.sum())


def _prior_for(alphabet: StateAlphabet, prior: DirichletPrior | None) -> DirichletPrior:
    if prior is None:
        return DirichletPrior.symmetric(alphabet.size)
    if prior.size != alphabet.size:
        raise ValueError(
            f"prior has {prior.size} components but the alphabet has {alphabet.size} states"
        )
    return prior


# ---------------------------------------------------------------------------
# Parameter counting


def default_param_count(m: int, h: int) -> int:
    """Free parameters of a depth-h model over M states: M^h (M - 1)."""
    if m < 2:
        raise ValueError("alphabet size must be >= 2")
    if h < 0:
        raise ValueError("memory depth h must be >= 0")
    return m**h * (m - 1)


def padded_param_count(m: int, h: int) -> int:
    """Free parameters when START-padded contexts are modeled: M^(h+1) - 1.

    There are (M^(h+1) - 1) / (M - 1) possible contexts once the
    START-prefixed ones are included, each carrying M - 1 free
    probabilities.
    """
    if m < 2:
        raise ValueError("alphabet size must be >= 2")
    if h < 0:
        raise ValueError("memory depth h must be >= 0")
    return m ** (h + 1) - 1


def param_count(m: int, h: int, boundary: BoundaryMode) -> int:
    """Mode-aware free-parameter count used for AIC penalties in reports."""
    if BoundaryMode(boundary) is BoundaryMode.PADDED:
        return padded_param_count(m, h)
    return default_param_count(m, h)


# ---------------------------------------------------------------------------
# Internal aligned-array view and kernels


class _View:
    """Aligned array form of a TrajectoryCounts for vectorised criterion sums."""

    __slots__ = ("N", "Ns", "alpha", "a0")

    def __init__(self, tc: TrajectoryCounts, prior: DirichletPrior):
        self.N = tc.total.matrix()[1]
        self.Ns = self.N.sum(axis=1)
        self.alpha, self.a0 = prior.alpha, prior.total


def _aic(N: np.ndarray, Ns: np.ndarray, k_params: int) -> float:
    # -2 sum N log(N / N_row) + 2 k, with 0 log 0 = 0
    if N.size == 0:
        ml_loglik = 0.0
    else:
        ratio = np.where(N > 0, N / Ns[:, None], 1.0)
        ml_loglik = float(np.sum(N * np.log(ratio)))
    return -2.0 * ml_loglik + 2.0 * float(k_params)


def _lpd(N: np.ndarray, alpha: np.ndarray) -> float:
    return float(log_beta_ratio(N + alpha, N)[0])


def _pointwise(tc: TrajectoryCounts, v: _View, names: set[str]) -> dict[str, np.ndarray]:
    """Per-trajectory log-scale terms of "LPPD", "LOO", "CV2" and "k_WAIC2".

    Trajectory j's term sums, over its count rows t with total rows g and
    rows c of the other CV2 fold (the first floor(J/2) trajectories against
    the rest and vice versa): log B(g + t + a) - log B(g + a) for LPPD,
    log B(g + a) - log B(g - t + a) for LOO, log B(c + t + a) - log B(c + a)
    for CV2, and t^2 psi'(g + a) - (sum t)^2 psi'(sum g + a0) for k_WAIC2.
    Each is one call over all the rows of ``tc.stacked()`` grouped by
    trajectory: ``log_beta_ratio`` for the log-beta terms, and for k_WAIC2
    one ``np.bincount`` of the per-row values. Both sum a trajectory's
    terms sequentially in row order, so every value is bit-identical to
    scoring one trajectory at a time (``predictive_log_density`` included).
    """
    idx, t, bounds = tc.stacked()
    n_traj, a = tc.n_trajectories, v.alpha
    traj = np.repeat(np.arange(n_traj), np.diff(bounds))
    out = {}
    if "LPPD" in names:
        out["LPPD"] = log_beta_ratio(v.N[idx] + a, t, traj, n_traj)
    if "LOO" in names:
        out["LOO"] = log_beta_ratio((v.N[idx] - t) + a, t, traj, n_traj)
    if "CV2" in names:
        split = bounds[n_traj // 2]
        first = np.zeros_like(v.N)
        np.add.at(first, idx[:split], t[:split])  # exact: integer counts
        c = np.concatenate(((v.N - first)[idx[:split]], first[idx[split:]]))
        out["CV2"] = log_beta_ratio(c + a, t, traj, n_traj)
    if "k_WAIC2" in names:
        tf, ts = t.astype(float), t.sum(axis=1).astype(float)
        per_row = ((tf * tf * trigamma(v.N + a)[idx]).sum(axis=1)
                   - ts * ts * trigamma(v.Ns + v.a0)[idx])
        out["k_WAIC2"] = np.bincount(traj, weights=per_row, minlength=n_traj)
    return out


def _post_mean_loglik(v: _View) -> float:
    # posterior mean of the log likelihood: sum N (psi(N + a) - psi(N_row + a0))
    if v.N.size == 0:
        return 0.0
    return float(np.sum(v.N * (digamma(v.N + v.alpha) - digamma(v.Ns + v.a0)[:, None])))


def _plugin_loglik(v: _View) -> float:
    # log-likelihood at the posterior mean: sum N log((N + a) / (N_row + a0))
    if v.N.size == 0:
        return 0.0
    return float(np.sum(v.N * (np.log(v.N + v.alpha) - np.log(v.Ns + v.a0)[:, None])))


def _k_dic2(v: _View) -> float:
    if v.N.size == 0:
        return 0.0
    n, ns = v.N.astype(float), v.Ns.astype(float)
    term = np.sum(n * n * trigamma(v.N + v.alpha), axis=1) - ns * ns * trigamma(v.Ns + v.a0)
    return 2.0 * float(np.sum(term))


# ---------------------------------------------------------------------------
# Count-table forms


def aic(total: CountTable, k_params: int) -> float:
    """-2 max log likelihood + 2 k, with 0 log 0 = 0 and empty rows skipped."""
    if k_params < 1:
        raise ValueError("k_params must be >= 1")
    _, n = total.matrix()
    return _aic(n, n.sum(axis=1), k_params)


def lpd(total: CountTable, prior: DirichletPrior | None = None) -> float:
    """Log predictive density: sum_x log B(2 N_x + a) / B(N_x + a).

    This is the log of the posterior-averaged likelihood of the whole
    dataset (the Bayes-factor numerator). Reports store -2 x this value.
    """
    prior = _prior_for(total.alphabet, prior)
    return _lpd(total.matrix()[1], prior.alpha)


def predictive_log_density(
    train: CountTable,
    test: CountTable,
    prior: DirichletPrior | None = None,
) -> float:
    """sum_x log B(train_x + test_x + a) / B(train_x + a) over the test rows.

    The log probability of the test counts under the posterior fitted to
    the training counts (unseen contexts fall back to the prior): the
    oracle's refit loops score with it; ``evaluate`` batches the same sums.
    """
    prior = _prior_for(train.alphabet, prior)
    tkeys, tmat = test.matrix()
    if tmat.size == 0:
        return 0.0
    g = np.stack([train.get(k) for k in tkeys])
    return float(log_beta_ratio(g + prior.alpha, tmat)[0])


# ---------------------------------------------------------------------------
# Reports and order selection


@dataclass(frozen=True)
class CriterionReport:
    """Criterion values and complexity terms for one fitted model.

    ``values`` maps names from CRITERIA and K_TERMS to numbers. Every
    criterion is on the deviance scale; in particular LPD and LPPD store
    -2 x the log predictive quantities. CV2 is NaN when only one
    trajectory is available. A report made with ``which`` holds only
    those criteria and the complexity terms they use.
    """

    h: int
    label: str
    boundary: str
    n_trajectories: int
    n_transitions: int
    k_params: int
    values: dict[str, float]

    def value(self, name: str) -> float:
        """A criterion or complexity term by name, e.g. "LOO" or "k_WAIC2"."""
        try:
            return self.values[name]
        except KeyError:
            raise ValueError(f"unknown or unevaluated criterion {name!r}") from None

    def as_dict(self) -> dict:
        return {
            "label": self.label,
            "h": self.h,
            "boundary": self.boundary,
            "J": self.n_trajectories,
            "transitions": self.n_transitions,
            "k_params": self.k_params,
            **self.values,
        }


def _normalize_which(which) -> tuple[str, ...]:
    if which is None:
        return CRITERIA
    names = tuple(which)
    for name in names:
        if name not in CRITERIA:
            raise ValueError(f"unknown criterion {name!r}")
    return names


def evaluate(
    tc: TrajectoryCounts,
    prior: DirichletPrior | None = None,
    which: Iterable[str] | None = None,
    k_params: int | None = None,
    label: str | None = None,
) -> CriterionReport:
    """Criterion report for one fitted memory depth.

    ``which`` limits the work to the named criteria (default: all of
    CRITERIA). ``k_params`` is the parameter count of the AIC penalty;
    it defaults to the mode-aware free-parameter count of an untied
    depth-h model, so pass it for tied models or other penalties.
    """
    which = _normalize_which(which)
    need = set(which)
    prior = _prior_for(tc.alphabet, prior)
    if k_params is None:
        k_params = param_count(tc.alphabet.size, tc.h, tc.boundary)
    v = _View(tc, prior)

    # log-scale quantities shared by several criteria
    users = {"LPPD": {"LPPD", "WAIC1", "WAIC2"}, "LOO": {"LOO"}, "k_WAIC2": {"WAIC2"},
             "CV2": {"CV2"} if tc.n_trajectories >= 2 else set()}
    terms = {term for term, used_by in users.items() if need & used_by}
    pointwise = _pointwise(tc, v, terms) if terms else {}
    # trajectories add left to right (not sum(), which compensates from Python 3.12)
    sums = {n: reduce(add, x.tolist(), 0.0) for n, x in pointwise.items()}
    lppd = sums.get("LPPD")
    plugin = _plugin_loglik(v) if need & {"DIC1", "DIC2"} else None
    post = _post_mean_loglik(v) if need & {"WAIC1", "DIC1"} else None

    values: dict[str, float] = {}
    ks: dict[str, float] = {}
    for name in which:
        if name == "AIC":
            values[name] = _aic(v.N, v.Ns, k_params)
        elif name == "LPD":
            values[name] = -2.0 * _lpd(v.N, v.alpha)
        elif name == "LPPD":
            values[name] = -2.0 * lppd
        elif name == "LOO":
            values[name] = -2.0 * sums["LOO"]
        elif name == "CV2":
            values[name] = -2.0 * sums["CV2"] if "CV2" in sums else math.nan
        else:
            # WAIC penalizes the LPPD fit and DIC the plug-in fit at the
            # posterior mean; variant 1 takes k from posterior means of the
            # log likelihood, variant 2 from its posterior variances.
            if name == "WAIC1":
                fit, k = lppd, 2.0 * lppd - 2.0 * post
            elif name == "WAIC2":
                fit, k = lppd, sums["k_WAIC2"]
            elif name == "DIC1":
                fit, k = plugin, 2.0 * (plugin - post)
            else:
                fit, k = plugin, _k_dic2(v)
            ks["k_" + name] = k
            values[name] = -2.0 * fit + 2.0 * k
    values.update(ks)
    return CriterionReport(
        h=tc.h,
        label=label if label is not None else f"h={tc.h}",
        boundary=tc.boundary.value,
        n_trajectories=tc.n_trajectories,
        n_transitions=int(v.Ns.sum()),
        k_params=int(k_params),
        values=values,
    )


def evaluate_depths(
    trajectories: Sequence[Trajectory],
    alphabet: StateAlphabet,
    h_range: Iterable[int],
    prior: DirichletPrior | None = None,
    mode: BoundaryMode = BoundaryMode.PADDED,
    which: Iterable[str] | None = None,
    aic_penalty: str = "params",
    tie_map: TieMap | None = None,
    tie_label: str | None = None,
) -> list[CriterionReport]:
    """Count and evaluate every depth in ``h_range``, in increasing order.

    ``aic_penalty`` is "params" (free-parameter count) or "full"
    (M^(h+1), the blunter alternative). With ``tie_map`` one more report,
    for the tied model, is appended; it reuses the count made at
    ``tie_map.h`` when that depth is in ``h_range``.
    """
    hs = sorted({int(h) for h in h_range})
    if not hs:
        raise ValueError("h_range must be non-empty")
    if hs[0] < 0:
        raise ValueError("memory depths must be >= 0")
    if aic_penalty not in ("params", "full"):
        raise ValueError("aic_penalty must be 'params' or 'full'")
    trajs = list(trajectories)
    prior = _prior_for(alphabet, prior)
    counts: dict[int, TrajectoryCounts] = {}
    reports = []
    for h in hs:
        counts[h] = count_transitions(trajs, h, alphabet, mode)
        k = alphabet.size ** (h + 1) if aic_penalty == "full" else None
        reports.append(evaluate(counts[h], prior, which, k_params=k))
    if tie_map is not None:
        tc = counts.get(tie_map.h)
        if tc is None:
            tc = count_transitions(trajs, tie_map.h, alphabet, mode)
        reports.append(evaluate(
            tie_counts(tc, tie_map), prior, which,
            k_params=tied_param_count(tie_map, alphabet.size),
            label=tie_label if tie_label is not None else f"tied(h={tie_map.h})",
        ))
    return reports


def argmin(reports: Iterable[CriterionReport], criterion: str) -> CriterionReport:
    """The report with the least ``criterion`` value.

    Ties break toward the smaller h, then toward the earlier report. A NaN
    value (CV2 on a single trajectory) raises ValueError.
    """
    reports = list(reports)
    for rep in reports:
        if math.isnan(rep.value(criterion)):
            raise ValueError(
                f"criterion {criterion} is unavailable for this dataset "
                f"(needs at least two trajectories)"
            )
    return min(reports, key=lambda r: (r.value(criterion), r.h))


def select_order(
    trajectories: Sequence[Trajectory],
    alphabet: StateAlphabet,
    h_range: Iterable[int],
    prior: DirichletPrior | None = None,
    mode: BoundaryMode = BoundaryMode.PADDED,
    criterion: str = "LOO",
    aic_penalty: str = "params",
) -> tuple[int, list[CriterionReport]]:
    """Fit every depth in ``h_range`` and pick the argmin of ``criterion``."""
    if criterion not in CRITERIA:
        raise ValueError(f"unknown criterion {criterion!r}")
    reports = evaluate_depths(trajectories, alphabet, h_range, prior, mode,
                              aic_penalty=aic_penalty)
    return argmin(reports, criterion).h, reports


# ---------------------------------------------------------------------------
# Single-criterion views over ``evaluate``. perfbench/probe.py times each
# criterion kernel through these names; the library itself does not use them.


def lppd(tc: TrajectoryCounts, prior: DirichletPrior | None = None) -> float:
    return -0.5 * evaluate(tc, prior, ("LPPD",)).value("LPPD")


def loo(tc: TrajectoryCounts, prior: DirichletPrior | None = None) -> float:
    return evaluate(tc, prior, ("LOO",)).value("LOO")


def lppd_cv2(tc: TrajectoryCounts, prior: DirichletPrior | None = None) -> float:
    return evaluate(tc, prior, ("CV2",)).value("CV2")


def waic(tc: TrajectoryCounts, prior: DirichletPrior | None = None,
         variant: int = 1) -> tuple[float, float]:
    rep = evaluate(tc, prior, (f"WAIC{variant}",))
    return rep.value(f"WAIC{variant}"), rep.value(f"k_WAIC{variant}")


def dic(tc: TrajectoryCounts, prior: DirichletPrior | None = None,
        variant: int = 1) -> tuple[float, float]:
    rep = evaluate(tc, prior, (f"DIC{variant}",))
    return rep.value(f"DIC{variant}"), rep.value(f"k_DIC{variant}")
