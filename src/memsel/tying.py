"""Parameter tying: pooling contexts into shared classes.

Tying is a pure count-table reduction. Summing the count rows of the
contexts in a class preserves the Dirichlet-multinomial structure
class-wise, so every closed-form criterion applies verbatim to the
reduced table, with C (M - 1) free parameters for C classes.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Mapping

import numpy as np

from .chain import (
    START,
    BoundaryMode,
    StateAlphabet,
    TrajectoryCounts,
    _first_occurrence,
)

__all__ = ["TieMap", "TieMapError", "tie_counts", "jagged_free_throw_map", "tied_param_count"]


class TieMapError(ValueError):
    """A tie map that does not fit the counts it ties."""


def _check_context(ctx, h: int) -> None:
    """Reject a key that is not a length-h token tuple with START only as a prefix."""
    if not isinstance(ctx, tuple) or len(ctx) != h:
        raise ValueError(f"tie map key {ctx!r} is not a length-{h} context")
    k = ctx.count(START)
    if ctx[:k] != (START,) * k:
        raise ValueError("START tokens may only form a contiguous context prefix")
    for t in ctx[k:]:
        if not isinstance(t, (int, np.integer)) or t < 0:
            raise ValueError(f"invalid context token {t!r}")


@dataclass(frozen=True)
class TieMap:
    """Assignment of length-h contexts to shared parameter classes.

    ``assignments`` maps contexts (tuples of h state ids, START only as a
    prefix) to class ids 0..C-1; contexts not listed fall into
    ``default_class`` when one is set, otherwise looking them up is an error.
    Every class other than the default must hold at least one context.
    """

    h: int
    n_classes: int
    assignments: Mapping[tuple, int]
    default_class: int | None = None

    def __post_init__(self):
        if self.h < 0:
            raise ValueError("memory depth h must be >= 0")
        if self.n_classes < 1:
            raise ValueError("a tie map needs at least one class")
        assignments = dict(self.assignments)
        for ctx, cls in assignments.items():
            _check_context(ctx, self.h)
            if not 0 <= cls < self.n_classes:
                raise ValueError(f"class id {cls} outside 0..{self.n_classes - 1}")
        if self.default_class is not None and not 0 <= self.default_class < self.n_classes:
            raise ValueError("default class id out of range")
        # an empty class would still add M - 1 free parameters to the model
        named = set(assignments.values()) | {self.default_class}
        if empty := [cls for cls in range(self.n_classes) if cls not in named]:
            raise ValueError(f"class {empty[0]} has no context and is not the default")
        object.__setattr__(self, "assignments", assignments)

    def class_of(self, ctx: tuple) -> int:
        cls = self.assignments.get(ctx, self.default_class)
        if cls is None:
            raise TieMapError(f"context {ctx!r} has no tie class and the map has no default")
        return cls


def tie_counts(tc: TrajectoryCounts, tie_map: TieMap) -> TrajectoryCounts:
    """Reduce counts so rows are keyed by class id instead of context.

    Counts are summed within each class, per trajectory and in total, set by
    set, so the reduced total still equals the reduced per-trajectory sum
    exactly. ``tc`` may hold several sets: (set, class) is ranked with the
    set outermost, as counting ranks contexts, so each set's classes appear
    in order of first occurrence, with the bits of the set tied alone. A
    map that does not fit the counts raises TieMapError: one for another
    depth, one that names a state token >= M, one that names a START
    context for truncated counts, which never hold one (its class would
    add M - 1 parameters with no count behind them), and one with no
    default that misses a counted context.
    """
    if tie_map.h != tc.h:
        raise TieMapError(f"tie map is for h={tie_map.h} but the counts have h={tc.h}")
    m = tc.alphabet.size
    truncated = tc.boundary is BoundaryMode.TRUNCATED
    for ctx in tie_map.assignments:
        if truncated and START in ctx:
            shown = tuple("START" if tok == START else tok for tok in ctx)
            raise TieMapError(f"tie map context {shown!r} holds START, which truncated "
                              "counting never sees")
        if max(ctx, default=START) >= m:
            raise TieMapError(f"tie map context {ctx!r} has state token {max(ctx)}, "
                              f"outside the M={m} states 0..{m - 1}")
    c = tie_map.n_classes
    classes = np.array([tie_map.class_of(ctx) for ctx in tc._decode(0, len(tc.counts))],
                       dtype=np.int64)
    owner = np.repeat(np.arange(tc.n_sets), np.diff(tc.rows))  # each total row's set
    row, first = _first_occurrence(owner * c + classes, tc.n_sets * c)
    tied = np.zeros((first.size, m), dtype=np.int64)
    np.add.at(tied, row, tc.counts)
    rows = np.bincount(owner[first] + 1, minlength=tc.n_sets + 1).cumsum()
    # group the stacked rows by (trajectory, class), in order of first occurrence
    n_traj = tc.n_trajectories
    traj = np.repeat(np.arange(n_traj), np.diff(tc.bounds))
    prow, pfirst = _first_occurrence(traj * c + classes[tc.idx], n_traj * c)
    tidx = row[tc.idx[pfirst]]
    bounds = np.bincount(traj[pfirst] + 1, minlength=n_traj + 1).cumsum()
    tied_t = np.zeros((tidx.size, m), dtype=np.int64)
    np.add.at(tied_t, prow, tc.t)
    return TrajectoryCounts(tc.h, tc.alphabet, tc.boundary, tc.ids, tied, rows, tidx, tied_t,
                            bounds, tc.sets, partial(_class_ids, classes[first]))


def _class_ids(keys: np.ndarray, r0: int, r1: int) -> list:
    """The class ids of tied rows r0:r1."""
    return keys[r0:r1].tolist()


def tied_param_count(tie_map: TieMap, m: int) -> int:
    """Free parameters of a tied model: C (M - 1)."""
    return tie_map.n_classes * (m - 1)


def jagged_free_throw_map(alphabet: StateAlphabet) -> TieMap:
    """Two-class h=1 map: outcomes are independent except right after a miss.

    Outcomes are 0 (miss) and 1 (hit). Class 0 holds the after-miss
    context; the default class 1 holds every other context (after a hit,
    and under padded counting a game's first shot), which is exactly the
    "not after a miss" condition.
    """
    if alphabet.size != 2:
        raise ValueError("the jagged free-throw model needs a binary alphabet")
    return TieMap(h=1, n_classes=2, assignments={(0,): 0}, default_class=1)
