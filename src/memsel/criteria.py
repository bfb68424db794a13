"""Closed-form model selection criteria for Dirichlet-multinomial chain models.

With a Dirichlet(alpha) prior on every context's transition vector, the
posterior given counts N_x is Dirichlet(alpha + N_x), and every criterion
below reduces to log-beta ratios log B(x + t) - log B(x) with integer
increments t, scored by ``specfun.log_beta_ratio``, plus digamma and
trigamma terms over the observed count rows. All values are reported on
the deviance scale (-2 x log predictive quantity), so lower is better for
every criterion.

LPPD, LOO, CV2 and k_WAIC2 sum over (trajectory, context) rows, one term
per trajectory. One scorer, ``_score``, serves ``evaluate`` (one model),
``evaluate_depths`` (every depth plus a tied model) and the power study
(every model of a chunk of replicates). It reads count tables as
counted, stacked set after set (``chain.CountStack``), scores
consecutive models in batches within a size bound, running each kernel
once per batch with every sum taken in the order of one model scored
alone, so batching never changes a bit of the output, and returns one
array of values, a row per model.

Only the count cells that draw are scored: the Polya sums of LPPD, LOO,
CV2 and LPD run over the cells with t > 0 (``specfun._log_beta_cells``),
each reading x at those cells and one x total per row. A row total is
read where the row equals a row already summed: LPPD and LPD read the
row sums of N + a, summed once per batch over its total rows, and CV2
those of its two fold tables. LOO's row g - t + a is summed in its
columns, since (g + a) - t, LPPD's total less the row's draws, is not
the same float when a is not dyadic (a = 0.3). k_WAIC2 scatters its cell
terms into a zeroed block before the row sum: numpy sums a row of 8 or
more values as a tree, so a row with three or more terms must keep its
columns. psi and psi' of every table come from one shared pass
(``_psi_tables``) over each table's arguments, one per count value
(``_count_args``).

Criterion names used throughout: AIC, DIC1, DIC2, LPD, LPPD, WAIC1,
WAIC2, LOO, CV2.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .chain import (
    BoundaryMode,
    CountStack,
    CountTable,
    StateAlphabet,
    Trajectory,
    TrajectoryCounts,
    _count_depths,
)
from .specfun import _log_beta_cells, _polygamma, log_beta_ratio
from .tying import TieMap, tie_counts, tied_param_count

__all__ = [
    "CRITERIA",
    "K_TERMS",
    "DirichletPrior",
    "CriterionReport",
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


def param_count(m: int, h: int, boundary: BoundaryMode) -> int:
    """Free parameters of a depth-h model over M states, the AIC penalty.

    Truncated counting models the M^h full contexts, M^h (M - 1)
    parameters. Padded counting also models the START-prefixed ones,
    (M^(h+1) - 1) / (M - 1) contexts in all, so M^(h+1) - 1 parameters.
    """
    if m < 2:
        raise ValueError("alphabet size must be >= 2")
    if h < 0:
        raise ValueError("memory depth h must be >= 0")
    if BoundaryMode(boundary) is BoundaryMode.PADDED:
        return m ** (h + 1) - 1
    return m**h * (m - 1)


# ---------------------------------------------------------------------------
# Internal kernels


def _count_args(n: np.ndarray, a) -> tuple[np.ndarray, np.ndarray]:
    """The arguments ``args`` and read positions ``at`` of an elementwise
    function at ``n + a``, for integer counts ``n >= 0`` and a prior ``a``, a
    scalar or one value per column of ``n``: ``fn(args)[at]`` has the bits
    of ``fn(n + a)``.

    Counts repeat, so ``args`` holds one argument per value 0 .. max(n)
    (per column) and ``at`` each cell's entry. A table with more entries
    than ``n`` has cells, as when a long series counts 1e8 transitions in a
    few rows, is not built; ``args`` is then ``n + a`` itself.
    """
    values = np.arange(int(n.max(initial=0)) + 1)
    width = n.shape[-1] if np.ndim(a) else 1
    if values.size * width > n.size:
        return (n + a).ravel(), np.arange(n.size).reshape(n.shape)
    if np.ndim(a):  # column c of value v is entry v * width + c
        return (values[:, None] + a).ravel(), n * width + np.arange(width)
    return values + a, n


def _ml_terms(N: np.ndarray, Ns: np.ndarray) -> np.ndarray:
    # N log(N / N_row) per cell, with 0 log 0 = 0: the maximum log likelihood's terms
    return N * np.log(np.where(N > 0, N / Ns[:, None], 1.0))


def _trigamma_rows(sq: np.ndarray, s: np.ndarray, tri_s: np.ndarray) -> np.ndarray:
    # sum_k n_k^2 tri_k - (sum_k n_k)^2 tri_s per row of counts n, from the
    # terms n_k^2 tri_k in their columns (``sq``) and the count totals ``s``:
    # k_WAIC2's per-row term and k_DIC2's
    s = s.astype(float)
    return sq.sum(axis=1) - s * s * tri_s


# ---------------------------------------------------------------------------
# Count-table forms


def aic(total: CountTable, k_params: int) -> float:
    """-2 max log likelihood + 2 k, with 0 log 0 = 0 and empty rows skipped."""
    if k_params < 1:
        raise ValueError("k_params must be >= 1")
    n = total.counts
    return -2.0 * float(np.sum(_ml_terms(n, n.sum(axis=1)))) + 2.0 * float(k_params)


def lpd(total: CountTable, prior: DirichletPrior | None = None) -> float:
    """Log predictive density: sum_x log B(2 N_x + a) / B(N_x + a).

    This is the log of the posterior-averaged likelihood of the whole
    dataset (the Bayes-factor numerator). Reports store -2 x this value.
    """
    prior = _prior_for(total.alphabet, prior)
    n = total.counts
    return float(log_beta_ratio(n + prior.alpha, n)[0])


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
    if test.counts.size == 0:
        return 0.0
    g = np.stack([train.get(k) for k in test.keys])
    return float(log_beta_ratio(g + prior.alpha, test.counts)[0])


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
    """``which`` as a tuple of criterion names (None: all of CRITERIA); an
    unknown or repeated name raises ValueError. Every criterion list that
    the library or the CLI takes is checked here."""
    if which is None:
        return CRITERIA
    names = tuple(which)
    for i, name in enumerate(names):
        if name not in CRITERIA:
            raise ValueError(f"unknown criterion {name!r}")
        if name in names[:i]:
            raise ValueError(f"criterion {name!r} is named twice")
    return names


# Consecutive models are scored together while their sizes add up to at most
# this many; a larger model is scored alone. A model's size is its
# (trajectory, context) rows plus its transitions, one Polya draw each in
# ``_log_beta_cells``: the two lengths of the batch's temporaries. The
# LPPD, LOO and CV2 call holds five draw-sized arrays (three weights, the
# k/i index and a row-total buffer) and, per table, one value per drawing
# cell (never more than the draws) and one total per row; LOO's row totals
# and k_WAIC2's block are rows x M. The power study scores a chunk of
# replicates in one call, counted a few replicates at a time (while their
# steps fit ``simulate._JOIN_STEPS``), so a batch may hold several counting
# passes' stacks. On the paper grid (M=8, h 1..5) a batch then averages 80
# models (the whole chunk) at J=4, 40 at J=16, 10 at J=64, 5 at J=128 and 2
# at J=256; on the ``power_grid`` benchmark the whole chunk of 15 models is
# one batch. 2**13 to 2**16 timed alike at J = 16, 64 and 256.
_BATCH_CELLS = 2**14

# which criteria use each per-trajectory term
_TERM_USERS = {"LPPD": {"LPPD", "WAIC1", "WAIC2"}, "LOO": {"LOO"}, "CV2": {"CV2"},
               "k_WAIC2": {"WAIC2"}}

# the criteria reported with a complexity term k_<name>
_PENALIZED = ("WAIC1", "WAIC2", "DIC1", "DIC2")


def _columns(which: tuple[str, ...]) -> tuple[str, ...]:
    """The columns of ``_score``'s values: ``which`` in turn, then the
    complexity terms of the criteria in it that have one, in the same order."""
    return tuple(which) + tuple("k_" + name for name in which if name in _PENALIZED)


def _concat(arrays: list[np.ndarray]) -> np.ndarray:
    # a single piece is used as it is, without a copy
    return arrays[0] if len(arrays) == 1 else np.concatenate(arrays)


def _psi_tables(N: np.ndarray, Ns: np.ndarray, prior: DirichletPrior, psi: bool,
                psi1: bool) -> dict:
    """From one ``_polygamma`` pass, psi (when ``psi``) and psi' (when
    ``psi1``) at N + a per cell and at Ns + a0 per row: "psi" and "psi_s",
    "tri" and "tri_s". The pass runs over both tables' ``_count_args``,
    the cells' first.
    """
    if not (psi or psi1):
        return {}
    (args_n, at_n), (args_s, at_s) = _count_args(N, prior.alpha), _count_args(Ns, prior.total)
    at_s = at_s + args_n.size
    out = {}
    for name, r in zip(("psi", "tri"), _polygamma(np.concatenate([args_n, args_s]), psi, psi1)):
        if r is not None:
            out[name], out[name + "_s"] = r[at_n], r[at_s]
    return out


def _ratio_tables(names, N, NA, NAs, idx, in_first, a, cells):
    """For each of ``names`` (LPPD, LOO, CV2), the x of log B(x + t) - log B(x)
    at each drawing cell and each row's x total, as two lists.

    The terms are those of ``_score_batch``. ``cells`` holds each drawing
    cell's flat index in the stacked rows, its cell in the total rows, its
    column, its count and its row; ``in_first`` marks the stacked rows of
    each model's first CV2 fold. A row total is read where the row equals a
    row already summed: LPPD's g + a is a row of N + a (``NA``, row sums
    ``NAs``), and CV2's other fold is a row of (N - first) + a or of
    first + a, each summed once per total row. LOO's g - t + a is summed
    row by row: (g + a) - t, its total less t, is not the same float when
    a is not dyadic.
    """
    flat, at, col, reps, row = cells
    xc, xr = [], []
    for name in names:
        if name == "LPPD":
            xc.append(NA.ravel()[at])
            xr.append(NAs[idx])
        elif name == "LOO":
            xc.append((N.ravel()[at] - reps) + a[col])  # exact difference: integer counts
            # g - t + a is g + a where t = 0; summed per row in its columns
            dense = NA.take(idx, axis=0)
            dense.ravel()[flat] = xc[-1]
            xr.append(dense.sum(axis=1))
            del dense  # freed before CV2's fold tables are built
        else:
            first_cell = in_first[row]
            # the first fold's counts per total row cell, summed exactly: integer counts
            # (as floats; np.bincount gives int zeros when the fold has no cell)
            first = np.bincount(at[first_cell], reps[first_cell], N.size).astype(float, copy=False)
            c = first[at]  # each cell's other fold: the first fold's count, or the rest
            np.subtract(N.ravel()[at], c, out=c, where=first_cell)
            c += a[col]
            xc.append(c)
            first = first.reshape(N.shape)
            rest = N - first
            rest += a
            first += a
            xr.append(np.where(in_first, rest.sum(axis=1)[idx], first.sum(axis=1)[idx]))
    return xc, xr


def _left_sums(xs: np.ndarray, js: np.ndarray) -> np.ndarray:
    """For each row of ``xs`` and each model, ``reduce(add, terms, 0.0)``
    over the model's ``js`` consecutive terms in the row: added left to
    right from 0.0, as Python adds them (not ``sum()``, which compensates
    from Python 3.12, nor numpy's pairwise sum). Each model's terms follow
    a 0.0 in a zero-padded row of one ``np.add.accumulate``; the padding
    adds 0.0 to a sum that is never -0.0.
    """
    block = np.zeros((len(xs), len(js), 1 + int(js.max(initial=0))))
    model = np.repeat(np.arange(len(js)), js)
    block[:, model, np.arange(model.size) - (np.cumsum(js) - js)[model] + 1] = xs
    return np.add.accumulate(block, axis=2)[:, :, -1]


def _score(stacks: Sequence[CountStack], prior: DirichletPrior, which: tuple[str, ...],
           ks: Sequence[int]) -> np.ndarray:
    """Criterion values for every model, one row each in the columns
    ``_columns(which)``: the models are the sets of each stack in turn, and
    ``ks`` holds each stack's AIC parameter count.

    Consecutive models are scored in batches (``_BATCH_CELLS``), each batch
    reading its slices of the stacks as counted. The stacks' total rows are
    joined once, with their row sums, and the psi and psi' terms that
    ``which`` needs are evaluated once, over every model's count cells and
    row sums (by ``_psi_tables``): a batch reads its own slice of each.
    """
    need = set(which)
    N = _concat([st.counts for st in stacks])
    Ns = N.sum(axis=1)
    tot = {"N": N, "Ns": Ns}
    tot.update(_psi_tables(N, Ns, prior, bool(need & {"WAIC1", "DIC1"}),
                           bool(need & {"WAIC2", "DIC2"})))
    # per model: its total rows (rows[i]:rows[i+1]), trajectories, pair rows and k
    offsets = np.cumsum([0] + [len(st.counts) for st in stacks])
    rows = np.concatenate([st.rows[:-1] + off for st, off in zip(stacks, offsets.tolist())]
                          + [offsets[-1:]])
    js = _concat([np.diff(st.sets) for st in stacks])
    pairs = _concat([np.diff(st.bounds[st.sets]) for st in stacks])
    # as floats, each k converted alone: a count past int64 (M^(h+1) at a deep h) still scores
    kk = np.repeat(np.array([float(k) for k in ks]), [st.n_sets for st in stacks])
    transitions = np.diff(np.concatenate([[0], np.cumsum(Ns)])[rows])
    out = np.empty((len(js), len(_columns(which))))
    first_model = np.cumsum([0] + [st.n_sets for st in stacks]).tolist()

    def batch(lo, hi):
        r0, r1 = rows[lo], rows[hi]
        idx, t, traj_sizes = [], [], []
        for i in range(bisect_right(first_model, lo) - 1, len(stacks)):
            if first_model[i] >= hi:
                break
            st = stacks[i]
            s0, s1 = max(lo - first_model[i], 0), min(hi - first_model[i], st.n_sets)
            g0, g1 = st.sets[s0], st.sets[s1]
            p0, p1 = st.bounds[g0], st.bounds[g1]
            shift = offsets[i] - r0
            idx.append(st.idx[p0:p1] + shift if shift else st.idx[p0:p1])
            t.append(st.t[p0:p1])
            traj_sizes.append(np.diff(st.bounds[g0:g1 + 1]))
        out[lo:hi] = _score_batch(kk[lo:hi], js[lo:hi], rows[lo:hi + 1] - r0,
                                  {name: x[r0:r1] for name, x in tot.items()}, _concat(idx),
                                  _concat(t), _concat(traj_sizes), prior, which)

    lo, batch_size = 0, 0
    for hi, size in enumerate((pairs + transitions).tolist()):
        if hi > lo and batch_size + size > _BATCH_CELLS:
            batch(lo, hi)
            lo, batch_size = hi, 0
        batch_size += size
    batch(lo, len(js))
    return out


def _score_batch(ks, js, rows, tot, idx, t, traj_sizes, prior, which) -> np.ndarray:
    """Score models together: their rows are stacked, model after model.

    Model i owns the total rows ``rows[i]:rows[i+1]`` of ``tot["N"]`` and
    ``js[i]`` consecutive trajectories, trajectory g the next
    ``traj_sizes[g]`` (trajectory, context) rows, with counts ``t`` and
    total rows ``idx``. ``tot`` also holds arrays over the total rows: the
    row sums ``Ns`` and those of ``psi``, ``psi_s``, ``tri`` and ``tri_s``
    that ``which`` needs (``_psi_tables``). Every kernel runs once per
    batch: one ``_log_beta_cells`` call for LPPD, LOO and CV2 together,
    with one group per (model, trajectory), one for LPD, with one group
    per model, and elementwise terms whose per-model sums run over each
    model's own contiguous slice. Trajectory j's log terms sum, over its
    count rows t with total rows g and rows c of the other CV2 fold (the
    first floor(J/2) trajectories against the rest and vice versa):
    log B(g + t + a) - log B(g + a) for LPPD, log B(g + a) - log B(g - t + a)
    for LOO, log B(c + t + a) - log B(c + a) for CV2, and
    t^2 psi'(g + a) - (sum t)^2 psi'(sum g + a0) for k_WAIC2. Only the
    cells with t > 0 are read; a row's t total comes from them. Every sum
    adds a model's own terms in the order one model scored alone would,
    so each value is bit-identical to scoring the models one at a time.
    Returns one row of values per model, in the columns ``_columns(which)``.
    """
    need = set(which)
    a, a0 = prior.alpha, prior.total
    N, Ns = tot["N"], tot["Ns"]
    n_models, m = len(js), N.shape[1]
    spans = list(zip(rows[:-1].tolist(), rows[1:].tolist()))
    # LPPD and LPD read the row sums of N + a, summed once here
    NA = N + a
    NAs = NA.sum(axis=1)

    # terms over the total rows first, each summed over its model's own rows:
    # their temporaries are gone before the per-trajectory arrays are built
    def per_model(x):
        return np.array([x[r0:r1].sum() for r0, r1 in spans], dtype=float)

    sums = {}
    if "AIC" in need:
        sums["ml"] = per_model(_ml_terms(N, Ns))
    if need & {"DIC1", "DIC2"}:
        # log-likelihood at the posterior mean: sum N log((N + a) / (N_row + a0))
        sums["plugin"] = per_model(N * (np.log(NA) - np.log(Ns + a0)[:, None]))
    if need & {"WAIC1", "DIC1"}:
        # posterior mean of the log likelihood: sum N (psi(N + a) - psi(N_row + a0))
        sums["post"] = per_model(N * (tot["psi"] - tot["psi_s"][:, None]))
    if "DIC2" in need:
        sq = N.astype(float)
        sq *= sq
        sq *= tot["tri"]
        sums["k_DIC2"] = per_model(_trigamma_rows(sq, Ns, tot["tri_s"]))
        del sq
    if "LPD" in need:
        # LPD draws every total row's counts again: x = N + a, read at the cells that draw
        nz = np.flatnonzero(N != 0)
        sums["LPD"] = _log_beta_cells(
            [NA.ravel()[nz]], [NAs], nz // m, N.ravel()[nz], Ns,
            np.repeat(np.arange(n_models), np.diff(rows)), n_models)[0]

    n_groups = len(traj_sizes)  # one group per (model, trajectory)
    grp = np.repeat(np.arange(n_groups), traj_sizes)

    # per-trajectory terms, summed per model
    terms = {term for term, used_by in _TERM_USERS.items() if need & used_by}
    if js.max() < 2:
        terms.discard("CV2")
    pointwise = {}
    if terms:
        flat = np.flatnonzero(t != 0)
        reps = t.ravel()[flat]
        row, col = np.divmod(flat, m)
        totals = np.bincount(row, reps, len(idx)).astype(np.int64)  # exact: integer counts
        at = idx[row] * m + col  # each cell's cell in the total rows
    # LPPD, LOO and CV2 share the increments t: one kernel call scores them all
    ratios = [name for name in ("LPPD", "LOO", "CV2") if name in terms]
    if ratios:
        in_first = None
        if "CV2" in terms:  # each model's first floor(J/2) trajectories, per stacked row
            model = np.repeat(np.arange(n_models), js)
            in_first = ((np.arange(n_groups) - (np.cumsum(js) - js)[model]) < (js // 2)[model])[grp]
        xc, xr = _ratio_tables(ratios, N, NA, NAs, idx, in_first, a, (flat, at, col, reps, row))
        # each of these is freed once read, as is k_WAIC2's block: a batch may
        # hold a whole chunk of replicates, and its peak memory is what is alive at once
        del NA
        pointwise.update(zip(ratios, _log_beta_cells(xc, xr, row, reps, totals, grp, n_groups)))
        del xc, xr
    if "k_WAIC2" in terms:
        # each cell's t^2 psi' in its column, zeros elsewhere: numpy sums a
        # row of 8 or more as a tree, so the row keeps its columns
        sq = np.zeros((len(idx), m))
        term = reps.astype(float)
        term *= term
        term *= tot["tri"].ravel()[at]
        sq.ravel()[flat] = term
        pointwise["k_WAIC2"] = np.bincount(
            grp, weights=_trigamma_rows(sq, totals, tot["tri_s"][idx]), minlength=n_groups)
        del sq
    if pointwise:
        sums.update(zip(pointwise, _left_sums(np.array(list(pointwise.values())), js)))

    lppd, plugin, post = sums.get("LPPD"), sums.get("plugin"), sums.get("post")
    values, complexity = [], []
    for name in which:
        if name == "AIC":
            values.append(-2.0 * sums["ml"] + 2.0 * ks)
        elif name in ("LPD", "LPPD", "LOO"):
            values.append(-2.0 * sums[name])
        elif name == "CV2":
            values.append(np.where(js >= 2, -2.0 * sums["CV2"], math.nan) if "CV2" in sums
                          else np.full(n_models, math.nan))
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
                fit, k = plugin, 2.0 * sums["k_DIC2"]
            complexity.append(k)
            values.append(-2.0 * fit + 2.0 * k)
    return np.stack(values + complexity, axis=1) if values else np.empty((n_models, 0))


def _reports(stacks, ks, labels, which, values: np.ndarray) -> list[CriterionReport]:
    """The reports of one-set stacks from their rows of ``_score`` values."""
    columns = _columns(which)
    return [CriterionReport(
        h=st.h,
        label=label if label is not None else f"h={st.h}",
        boundary=st.boundary.value,
        n_trajectories=len(st.ids),
        n_transitions=int(st.counts.sum()),
        k_params=int(k),
        values=dict(zip(columns, row)),
    ) for st, k, label, row in zip(stacks, ks, labels, values.tolist(), strict=True)]


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
    prior = _prior_for(tc.alphabet, prior)
    if k_params is None:
        k_params = param_count(tc.alphabet.size, tc.h, tc.boundary)
    stacks = [CountStack.of(tc)]
    return _reports(stacks, [k_params], [label], which,
                    _score(stacks, prior, which, [k_params]))[0]


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
    ``tie_map.h`` when that depth is in ``h_range``. Every depth is
    counted in one shared pass and every model scored in batches.
    """
    which = _normalize_which(which)
    prior = _prior_for(alphabet, prior)
    stacks, ks = _depth_models([list(trajectories)], alphabet, h_range, mode, aic_penalty,
                               tie_map)
    labels: list[str | None] = [None] * len(stacks)
    if tie_map is not None:
        labels[-1] = tie_label if tie_label is not None else f"tied(h={tie_map.h})"
    return _reports(stacks, ks, labels, which, _score(stacks, prior, which, ks))


def _depth_models(sets, alphabet, h_range, mode=BoundaryMode.PADDED, aic_penalty="params",
                  tie_map=None):
    """What ``evaluate_depths`` scores, for every set of trajectories in
    ``sets`` at once: one stack per depth in ``h_range``, in increasing
    order, holding every set (counted in one ``_count_depths`` pass), then
    with ``tie_map`` one one-set stack per set holding its tied model; and
    each stack's AIC parameter count. Scored in this order, the models run
    depth by depth over every set, then the tied model of every set
    (``_set_values`` regroups them set by set)."""
    hs = sorted({int(h) for h in h_range})
    if not hs:
        raise ValueError("h_range must be non-empty")
    if hs[0] < 0:
        raise ValueError("memory depths must be >= 0")
    if aic_penalty not in ("params", "full"):
        raise ValueError("aic_penalty must be 'params' or 'full'")
    extra = [] if tie_map is None else [tie_map.h]
    counts = _count_depths(sets, hs + extra, alphabet, mode)
    stacks = [counts[h] for h in hs]
    m = alphabet.size
    ks = [m ** (h + 1) if aic_penalty == "full" else param_count(m, h, mode) for h in hs]
    if tie_map is not None:
        tied = counts[tie_map.h]
        stacks += [CountStack.of(tie_counts(tied.view(s), tie_map)) for s in range(tied.n_sets)]
        ks += [tied_param_count(tie_map, m)] * tied.n_sets
    return stacks, ks


def _set_values(joins, alphabet, h_range, prior, which, mode=BoundaryMode.PADDED,
                tie_map=None) -> np.ndarray:
    """The values of ``_depth_models``' models for every set of every join
    (a list of sets counted in one pass), all scored in one ``_score``
    call: one (set, model, column) array, the sets in order, each set's
    models its depths in increasing order and then its tied model."""
    stacks, ks, n_sets = [], [], []
    for sets in joins:
        join_stacks, join_ks = _depth_models(sets, alphabet, h_range, mode, tie_map=tie_map)
        stacks += join_stacks
        ks += join_ks
        n_sets.append(len(sets))
    values = _score(stacks, prior, which, ks)
    # each join's rows run model by model over its sets: regrouped set by set
    n_models = len(values) // sum(n_sets)
    ends = np.cumsum([0] + n_sets).tolist()
    return _concat([values[n_models * lo:n_models * hi].reshape(n_models, hi - lo, -1)
                    .swapaxes(0, 1) for lo, hi in zip(ends[:-1], ends[1:])])


def _unavailable(criterion: str) -> ValueError:
    return ValueError(f"criterion {criterion} is unavailable for this dataset "
                      f"(needs at least two trajectories)")


def argmin(reports: Iterable[CriterionReport], criterion: str) -> CriterionReport:
    """The report with the least ``criterion`` value.

    Ties break toward the smaller h, then toward the earlier report. A NaN
    value (CV2 on a single trajectory) raises ValueError.
    """
    reports = list(reports)
    for rep in reports:
        if math.isnan(rep.value(criterion)):
            raise _unavailable(criterion)
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
    _normalize_which((criterion,))
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
