"""Closed-form model selection criteria for Dirichlet-multinomial chain models.

With a Dirichlet(alpha) prior on every context's transition vector, the
posterior given counts N_x is Dirichlet(alpha + N_x), and every criterion
below reduces to sums of log-gamma, digamma and trigamma terms over the
observed count rows. All values are reported on the deviance scale
(-2 x log predictive quantity), so lower is better for every criterion.

Criterion names used throughout: AIC, DIC1, DIC2, LPD, LPPD, WAIC1,
WAIC2, LOO, CV2.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import ClassVar, Iterable, Sequence

import numpy as np

from .chain import (
    BoundaryMode,
    CountTable,
    StateAlphabet,
    Trajectory,
    TrajectoryCounts,
    count_transitions,
    merge_counts,
)
from .specfun import digamma, log_multivariate_beta, trigamma

__all__ = [
    "CRITERIA",
    "DirichletPrior",
    "PosteriorSummary",
    "CriterionReport",
    "posterior_summary",
    "default_param_count",
    "padded_param_count",
    "param_count",
    "aic",
    "lpd",
    "lppd",
    "predictive_log_density",
    "waic",
    "dic",
    "loo",
    "lppd_cv2",
    "criterion_values",
    "evaluate",
    "select_order",
]

CRITERIA = ("AIC", "DIC1", "DIC2", "LPD", "LPPD", "WAIC1", "WAIC2", "LOO", "CV2")


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


@dataclass(frozen=True, eq=False)
class PosteriorSummary:
    """Posterior Dirichlet parameters and means for every observed context."""

    params: dict
    means: dict
    prior_mean: np.ndarray

    def mean_for(self, ctx) -> np.ndarray:
        """Posterior mean transition vector; the prior mean for unseen contexts."""
        return self.means.get(ctx, self.prior_mean)


def posterior_summary(table: CountTable, prior: DirichletPrior | None = None) -> PosteriorSummary:
    prior = _prior_for(table.alphabet, prior)
    params: dict = {}
    means: dict = {}
    for ctx, vec in table.rows.items():
        a = vec + prior.alpha
        a.flags.writeable = False
        mean = a / a.sum()
        mean.flags.writeable = False
        params[ctx] = a
        means[ctx] = mean
    prior_mean = prior.alpha / prior.total
    prior_mean.flags.writeable = False
    return PosteriorSummary(params, means, prior_mean)


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
# Internal aligned-array view


class _View:
    """Aligned array form of a TrajectoryCounts for vectorised criterion sums."""

    __slots__ = ("keys", "N", "Ns", "alpha", "a0", "_tc", "_per")

    def __init__(self, tc: TrajectoryCounts, prior: DirichletPrior):
        self.keys, self.N = tc.total.matrix()
        self.Ns = self.N.sum(axis=1)
        self.alpha = prior.alpha
        self.a0 = prior.total
        self._tc = tc
        self._per = None

    @property
    def per(self):
        """Per-trajectory (row-index array, count matrix) pairs."""
        if self._per is None:
            index = {k: i for i, k in enumerate(self.keys)}
            per = []
            for _, table in self._tc.per_trajectory:
                tkeys, tmat = table.matrix()
                idx = np.fromiter((index[k] for k in tkeys), dtype=np.intp, count=len(tkeys))
                per.append((idx, tmat))
            self._per = per
        return self._per


def _ml_loglik(N: np.ndarray, Ns: np.ndarray) -> float:
    # sum N log(N / N_row), with 0 log 0 = 0
    if N.size == 0:
        return 0.0
    ratio = np.where(N > 0, N / Ns[:, None], 1.0)
    return float(np.sum(N * np.log(ratio)))


def _lpd(v: _View) -> float:
    if v.N.size == 0:
        return 0.0
    upper = log_multivariate_beta(2 * v.N + v.alpha, axis=-1)
    lower = log_multivariate_beta(v.N + v.alpha, axis=-1)
    return float(np.sum(upper - lower))


def _lppd(v: _View) -> float:
    out = 0.0
    for idx, tmat in v.per:
        if tmat.size == 0:
            continue
        g = v.N[idx]
        upper = log_multivariate_beta(g + tmat + v.alpha, axis=-1)
        lower = log_multivariate_beta(g + v.alpha, axis=-1)
        out += float(np.sum(upper - lower))
    return out


def _k_waic1(v: _View, lppd_value: float) -> float:
    if v.N.size == 0:
        return 2.0 * lppd_value
    post_mean_ll = float(
        np.sum(v.N * (digamma(v.N + v.alpha) - digamma(v.Ns + v.a0)[:, None]))
    )
    return 2.0 * lppd_value - 2.0 * post_mean_ll


def _k_waic2(v: _View) -> float:
    if v.N.size == 0:
        return 0.0
    pg_rows = trigamma(v.N + v.alpha)
    pg_sums = trigamma(v.Ns + v.a0)
    out = 0.0
    for idx, tmat in v.per:
        if tmat.size == 0:
            continue
        t = tmat.astype(float)
        ts = t.sum(axis=1)
        out += float(np.sum(t * t * pg_rows[idx]) - np.sum(ts * ts * pg_sums[idx]))
    return out


def _plugin_loglik(v: _View) -> float:
    # log-likelihood at the posterior mean: sum N log((N + a) / (N_row + a0))
    if v.N.size == 0:
        return 0.0
    return float(
        np.sum(v.N * (np.log(v.N + v.alpha) - np.log(v.Ns + v.a0)[:, None]))
    )


def _k_dic1(v: _View) -> float:
    if v.N.size == 0:
        return 0.0
    post_mean_ll = float(
        np.sum(v.N * (digamma(v.N + v.alpha) - digamma(v.Ns + v.a0)[:, None]))
    )
    return 2.0 * (_plugin_loglik(v) - post_mean_ll)


def _k_dic2(v: _View) -> float:
    if v.N.size == 0:
        return 0.0
    n = v.N.astype(float)
    ns = v.Ns.astype(float)
    term = np.sum(n * n * trigamma(v.N + v.alpha), axis=1) - ns * ns * trigamma(v.Ns + v.a0)
    return 2.0 * float(np.sum(term))


def _loo(v: _View) -> float:
    out = 0.0
    for idx, tmat in v.per:
        if tmat.size == 0:
            continue
        g = v.N[idx]
        upper = log_multivariate_beta(g + v.alpha, axis=-1)
        lower = log_multivariate_beta((g - tmat) + v.alpha, axis=-1)
        out += float(np.sum(upper - lower))
    return -2.0 * out


# ---------------------------------------------------------------------------
# Public closed forms


def aic(total: CountTable, k_params: int) -> float:
    """-2 max log likelihood + 2 k, with 0 log 0 = 0 and empty rows skipped."""
    if k_params < 1:
        raise ValueError("k_params must be >= 1")
    keys, n = total.matrix()
    return -2.0 * _ml_loglik(n, n.sum(axis=1)) + 2.0 * float(k_params)


def lpd(total: CountTable, prior: DirichletPrior | None = None) -> float:
    """Log predictive density: sum_x log B(2 N_x + a) / B(N_x + a).

    This is the log of the posterior-averaged likelihood of the whole
    dataset (the Bayes-factor numerator). Reports store -2 x this value.
    """
    prior = _prior_for(total.alphabet, prior)
    if total.n_contexts == 0:
        return 0.0
    keys, n = total.matrix()
    upper = log_multivariate_beta(2 * n + prior.alpha, axis=-1)
    lower = log_multivariate_beta(n + prior.alpha, axis=-1)
    return float(np.sum(upper - lower))


def predictive_log_density(
    train: CountTable,
    test: CountTable,
    prior: DirichletPrior | None = None,
) -> float:
    """sum_x log B(train_x + test_x + a) / B(train_x + a) over the test rows.

    The log probability of the test counts under the posterior fitted to
    the training counts; contexts absent from the training table fall back
    to the prior. This single form underlies LPPD, LOO and CV2.
    """
    prior = _prior_for(train.alphabet, prior)
    tkeys, tmat = test.matrix()
    if tmat.size == 0:
        return 0.0
    g = np.stack([train.get(k) for k in tkeys])
    upper = log_multivariate_beta(g + tmat + prior.alpha, axis=-1)
    lower = log_multivariate_beta(g + prior.alpha, axis=-1)
    return float(np.sum(upper - lower))


def lppd(tc: TrajectoryCounts, prior: DirichletPrior | None = None) -> float:
    """Log pointwise predictive density with trajectories as the points."""
    prior = _prior_for(tc.alphabet, prior)
    return _lppd(_View(tc, prior))


def waic(
    tc: TrajectoryCounts,
    prior: DirichletPrior | None = None,
    variant: int = 1,
) -> tuple[float, float]:
    """WAIC value and its effective-complexity term: -2 LPPD + 2 k_variant.

    Variant 1 penalizes with posterior-mean log probabilities; variant 2
    with posterior variances of the per-trajectory log likelihoods (always
    nonnegative).
    """
    prior = _prior_for(tc.alphabet, prior)
    v = _View(tc, prior)
    lppd_value = _lppd(v)
    if variant == 1:
        k = _k_waic1(v, lppd_value)
    elif variant == 2:
        k = _k_waic2(v)
    else:
        raise ValueError("WAIC variant must be 1 or 2")
    return -2.0 * lppd_value + 2.0 * k, k


def dic(
    tc: TrajectoryCounts,
    prior: DirichletPrior | None = None,
    variant: int = 1,
) -> tuple[float, float]:
    """DIC value and complexity term: deviance at the posterior mean + 2 k.

    k_DIC1 is twice the gap between the plug-in log likelihood and the
    posterior-mean log likelihood (nonnegative by Jensen); k_DIC2 is twice
    the posterior variance of the log likelihood.
    """
    prior = _prior_for(tc.alphabet, prior)
    v = _View(tc, prior)
    deviance = -2.0 * _plugin_loglik(v)
    if variant == 1:
        k = _k_dic1(v)
    elif variant == 2:
        k = _k_dic2(v)
    else:
        raise ValueError("DIC variant must be 1 or 2")
    return deviance + 2.0 * k, k


def loo(tc: TrajectoryCounts, prior: DirichletPrior | None = None) -> float:
    """Leave-one-out cross-validated predictive density (deviance scale).

    -2 sum_j sum_x log B(N_x + a) / B(N_x - N_x^(j) + a): each trajectory
    is scored against the posterior fitted to all the others. With a
    single trajectory this reduces to its prior predictive density.
    """
    prior = _prior_for(tc.alphabet, prior)
    return _loo(_View(tc, prior))


def lppd_cv2(tc: TrajectoryCounts, prior: DirichletPrior | None = None) -> float:
    """Two-fold cross-validated predictive density (deviance scale).

    The first floor(J/2) trajectories (input order) are scored against the
    posterior of the remaining ones and vice versa. Order-dependent by
    design; with J = 2 it coincides exactly with LOO.
    """
    j = tc.n_trajectories
    if j < 2:
        raise ValueError("two-fold cross validation needs at least two trajectories")
    prior = _prior_for(tc.alphabet, prior)
    half = j // 2
    tables = [t for _, t in tc.per_trajectory]
    first, second = tables[:half], tables[half:]
    meta = dict(h=tc.h, alphabet=tc.alphabet, boundary=tc.boundary)
    train_for_first = merge_counts(second, **meta)
    train_for_second = merge_counts(first, **meta)
    out = 0.0
    for tab in first:
        out += predictive_log_density(train_for_first, tab, prior)
    for tab in second:
        out += predictive_log_density(train_for_second, tab, prior)
    return -2.0 * out


# ---------------------------------------------------------------------------
# Reports and order selection


@dataclass(frozen=True)
class CriterionReport:
    """All criterion values and complexity terms for one fitted model.

    Every criterion field is on the deviance scale; in particular ``lpd``
    and ``lppd`` store -2 x the log predictive quantities. ``cv2`` is NaN
    when only one trajectory is available.
    """

    h: int
    label: str
    boundary: str
    n_trajectories: int
    n_transitions: int
    k_params: int
    aic: float
    dic1: float
    dic2: float
    lpd: float
    lppd: float
    waic1: float
    waic2: float
    loo: float
    cv2: float
    k_dic1: float
    k_dic2: float
    k_waic1: float
    k_waic2: float

    _FIELDS: ClassVar[dict[str, str]] = {
        "AIC": "aic", "DIC1": "dic1", "DIC2": "dic2", "LPD": "lpd",
        "LPPD": "lppd", "WAIC1": "waic1", "WAIC2": "waic2", "LOO": "loo",
        "CV2": "cv2",
    }

    def value(self, criterion: str) -> float:
        try:
            return getattr(self, self._FIELDS[criterion])
        except KeyError:
            raise ValueError(f"unknown criterion {criterion!r}") from None

    def as_dict(self) -> dict:
        return {
            "label": self.label,
            "h": self.h,
            "boundary": self.boundary,
            "J": self.n_trajectories,
            "transitions": self.n_transitions,
            "k_params": self.k_params,
            "AIC": self.aic,
            "DIC1": self.dic1,
            "DIC2": self.dic2,
            "LPD": self.lpd,
            "LPPD": self.lppd,
            "WAIC1": self.waic1,
            "WAIC2": self.waic2,
            "LOO": self.loo,
            "CV2": self.cv2,
            "k_DIC1": self.k_dic1,
            "k_DIC2": self.k_dic2,
            "k_WAIC1": self.k_waic1,
            "k_WAIC2": self.k_waic2,
        }


def _normalize_which(which) -> tuple[str, ...]:
    if which is None:
        return CRITERIA
    names = tuple(which)
    for name in names:
        if name not in CRITERIA:
            raise ValueError(f"unknown criterion {name!r}")
    return names


def criterion_values(
    tc: TrajectoryCounts,
    prior: DirichletPrior | None = None,
    which: Iterable[str] | None = None,
    k_params: int | None = None,
    aic_k: int | None = None,
) -> dict[str, float]:
    """Deviance-scale values of the requested criteria for one fitted table.

    Lighter-weight than ``evaluate``: only the requested criteria are
    computed, which matters inside simulation loops.
    """
    values, _ = _compute(tc, prior, _normalize_which(which), k_params, aic_k)
    return values


def _compute(tc, prior, which, k_params, aic_k):
    prior = _prior_for(tc.alphabet, prior)
    v = _View(tc, prior)
    m = tc.alphabet.size
    if k_params is None:
        k_params = param_count(m, tc.h, tc.boundary)
    values: dict[str, float] = {}
    ks: dict[str, float] = {}

    lppd_value = None
    if {"LPPD", "WAIC1", "WAIC2"} & set(which):
        lppd_value = _lppd(v)
    plugin = None
    if {"DIC1", "DIC2"} & set(which):
        plugin = _plugin_loglik(v)

    for name in which:
        if name == "AIC":
            values[name] = -2.0 * _ml_loglik(v.N, v.Ns) + 2.0 * float(aic_k if aic_k is not None else k_params)
        elif name == "LPD":
            values[name] = -2.0 * _lpd(v)
        elif name == "LPPD":
            values[name] = -2.0 * lppd_value
        elif name == "WAIC1":
            k = _k_waic1(v, lppd_value)
            ks["k_WAIC1"] = k
            values[name] = -2.0 * lppd_value + 2.0 * k
        elif name == "WAIC2":
            k = _k_waic2(v)
            ks["k_WAIC2"] = k
            values[name] = -2.0 * lppd_value + 2.0 * k
        elif name == "DIC1":
            k = _k_dic1(v)
            ks["k_DIC1"] = k
            values[name] = -2.0 * plugin + 2.0 * k
        elif name == "DIC2":
            k = _k_dic2(v)
            ks["k_DIC2"] = k
            values[name] = -2.0 * plugin + 2.0 * k
        elif name == "LOO":
            values[name] = _loo(v)
        elif name == "CV2":
            values[name] = lppd_cv2(tc, prior) if tc.n_trajectories >= 2 else math.nan
    return values, ks


def evaluate(
    tc: TrajectoryCounts,
    prior: DirichletPrior | None = None,
    k_params: int | None = None,
    label: str | None = None,
    aic_k: int | None = None,
) -> CriterionReport:
    """Full criterion report for one fitted memory depth.

    ``k_params`` defaults to the mode-aware free-parameter count of an
    untied depth-h model; pass it explicitly for tied models. ``aic_k``
    overrides the AIC penalty alone.
    """
    m = tc.alphabet.size
    if k_params is None:
        k_params = param_count(m, tc.h, tc.boundary)
    values, ks = _compute(tc, prior, CRITERIA, k_params, aic_k)
    return CriterionReport(
        h=tc.h,
        label=label if label is not None else f"h={tc.h}",
        boundary=tc.boundary.value,
        n_trajectories=tc.n_trajectories,
        n_transitions=tc.total.total_transitions(),
        k_params=int(aic_k if aic_k is not None else k_params),
        aic=values["AIC"],
        dic1=values["DIC1"],
        dic2=values["DIC2"],
        lpd=values["LPD"],
        lppd=values["LPPD"],
        waic1=values["WAIC1"],
        waic2=values["WAIC2"],
        loo=values["LOO"],
        cv2=values["CV2"],
        k_dic1=ks["k_DIC1"],
        k_dic2=ks["k_DIC2"],
        k_waic1=ks["k_WAIC1"],
        k_waic2=ks["k_WAIC2"],
    )


def select_order(
    trajectories: Sequence[Trajectory],
    alphabet: StateAlphabet,
    h_range: Iterable[int],
    prior: DirichletPrior | None = None,
    mode: BoundaryMode = BoundaryMode.PADDED,
    criterion: str = "LOO",
    aic_penalty: str = "params",
) -> tuple[int, list[CriterionReport]]:
    """Fit every depth in ``h_range`` and pick the argmin of ``criterion``.

    Ties break toward the smaller h. ``aic_penalty`` is either "params"
    (free-parameter count) or "full" (M^(h+1), the blunter alternative).
    """
    hs = sorted({int(h) for h in h_range})
    if not hs:
        raise ValueError("h_range must be non-empty")
    if hs[0] < 0:
        raise ValueError("memory depths must be >= 0")
    if criterion not in CRITERIA:
        raise ValueError(f"unknown criterion {criterion!r}")
    if aic_penalty not in ("params", "full"):
        raise ValueError("aic_penalty must be 'params' or 'full'")
    trajs = list(trajectories)
    reports: list[CriterionReport] = []
    for h in hs:
        tc = count_transitions(trajs, h, alphabet, mode)
        aic_k = alphabet.size ** (h + 1) if aic_penalty == "full" else None
        reports.append(evaluate(tc, prior, aic_k=aic_k))
    best_h = None
    best_val = math.inf
    for rep in reports:
        val = rep.value(criterion)
        if math.isnan(val):
            raise ValueError(
                f"criterion {criterion} is unavailable for this dataset "
                f"(needs at least two trajectories)"
            )
        if val < best_val:
            best_h, best_val = rep.h, val
    return best_h, reports
