"""State alphabets, trajectories, history contexts and transition counting.

A model of memory depth h predicts each step of a trajectory from the
h-tuple of states preceding it (its context). The first h steps of a
trajectory have incomplete histories; ``BoundaryMode`` decides whether
they are counted against START-padded contexts or skipped entirely.

A context is a plain tuple of h tokens, oldest first: state ids, with
START only as a prefix. Counting runs over integer context codes, with
rows in order of first occurrence; the tuple key is made once per
distinct row, never once per step. Several depths of one dataset are
counted in one pass over one step array: each depth's code is the rank
of the previous depth's context times M+1 plus one more token digit
(START a digit of its own), ranked again in order of first occurrence
through a dense table, without sorting, so no code exceeds M+1 times the
number of steps.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from enum import Enum
from typing import Hashable, Iterable, Mapping

import numpy as np

__all__ = [
    "START",
    "BoundaryMode",
    "StateAlphabet",
    "Trajectory",
    "CountTable",
    "TrajectoryCounts",
    "count_transitions",
    "merge_counts",
]

# Reserved boundary token. It may appear only as a contiguous context
# prefix and can never be a transition destination.
START: int = -1


class BoundaryMode(str, Enum):
    """How the first h steps of a trajectory enter the count table.

    PADDED: every step contributes, with missing history filled by START
    tokens, so the number of modeled events is the same for every h.
    TRUNCATED: only steps with a full h-step history contribute.
    """

    PADDED = "padded"
    TRUNCATED = "truncated"


@dataclass(frozen=True)
class StateAlphabet:
    """The finite state set; internal ids are positions in ``labels``."""

    labels: tuple[str, ...]
    _index: dict = field(init=False, repr=False, compare=False, default=None)

    def __post_init__(self):
        labels = tuple(str(lab) for lab in self.labels)
        object.__setattr__(self, "labels", labels)
        if len(labels) < 2:
            raise ValueError("alphabet needs at least two states")
        if len(set(labels)) != len(labels):
            raise ValueError("state labels must be unique")
        object.__setattr__(self, "_index", {lab: i for i, lab in enumerate(labels)})

    @property
    def size(self) -> int:
        return len(self.labels)

    def index(self, label: str) -> int:
        try:
            return self._index[label]
        except KeyError:
            raise ValueError(f"unknown state label {label!r}") from None

    def indices(self, labels: Iterable) -> tuple[int, ...]:
        """State ids of ``labels``, each converted by ``str``, mapped in one pass."""
        try:
            return tuple(map(self._index.__getitem__, map(str, labels)))
        except KeyError as exc:
            raise ValueError(f"unknown state label {exc.args[0]!r}") from None

    def label(self, state: int) -> str:
        return self.labels[state]

    @classmethod
    def of_size(cls, m: int) -> "StateAlphabet":
        return cls(tuple(str(i) for i in range(m)))


@dataclass(frozen=True)
class Trajectory:
    """One observed path: an id and an ordered sequence of state ids."""

    id: str
    steps: tuple[int, ...]
    truncated: bool = False  # set by the sampler when a length cap cut the walk

    def __post_init__(self):
        steps = tuple(map(int, self.steps))
        object.__setattr__(self, "steps", steps)
        if not steps:
            raise ValueError(f"trajectory {self.id!r} has no steps")
        if min(steps) < 0:
            raise ValueError(f"trajectory {self.id!r} contains a negative state id")

    def __len__(self) -> int:
        return len(self.steps)


@dataclass(frozen=True, eq=False)
class CountTable:
    """Sparse transition counts: context -> length-M vector of destination counts.

    Rows are stored only when nonzero; an absent context means an all-zero
    row. Instances are immutable after construction (row arrays are
    read-only), so they can be shared freely across workers.
    """

    h: int
    alphabet: StateAlphabet
    rows: Mapping[Hashable, np.ndarray]
    boundary: BoundaryMode = BoundaryMode.PADDED

    def __post_init__(self):
        if self.h < 0:
            raise ValueError("memory depth h must be >= 0")
        m = self.alphabet.size
        norm: dict[Hashable, np.ndarray] = {}
        for key, vec in self.rows.items():
            arr = np.asarray(vec, dtype=np.int64)
            if arr.shape != (m,):
                raise ValueError(f"count row for {key!r} must have length {m}")
            if arr.min(initial=0) < 0:
                raise ValueError(f"negative transition count in row {key!r}")
            if arr.any():
                norm[key] = arr
        keys = tuple(norm)
        self._set_rows(keys, np.stack([norm[k] for k in keys]) if keys
                       else np.zeros((0, m), dtype=np.int64))

    @classmethod
    def _counted(cls, h, alphabet, boundary, keys, matrix) -> "CountTable":
        """A table over rows made by counting: nonzero int64 by construction, so unchecked."""
        table = object.__new__(cls)
        table.__dict__.update(h=h, alphabet=alphabet, boundary=boundary)
        table._set_rows(tuple(keys), matrix)
        return table

    def _set_rows(self, keys: tuple, matrix: np.ndarray) -> None:
        # rows are read-only views into one stacked matrix
        matrix.flags.writeable = False
        zero = np.zeros(self.alphabet.size, dtype=np.int64)
        zero.flags.writeable = False
        self.__dict__.update(boundary=BoundaryMode(self.boundary), _zero=zero,
                             rows=dict(zip(keys, matrix)), _matrix=(keys, matrix))

    @property
    def n_contexts(self) -> int:
        return len(self.rows)

    def total_transitions(self) -> int:
        return int(self._matrix[1].sum())

    def get(self, ctx) -> np.ndarray:
        """Count vector for ``ctx``; all zeros when the context was never seen."""
        vec = self.rows.get(ctx)
        return self._zero if vec is None else vec

    def matrix(self) -> tuple[tuple, np.ndarray]:
        """Row keys (insertion order) and the stacked count matrix."""
        return self._matrix

    def __eq__(self, other):
        if not isinstance(other, CountTable):
            return NotImplemented
        if (self.h, self.alphabet, self.boundary) != (other.h, other.alphabet, other.boundary):
            return False
        if self.rows.keys() != other.rows.keys():
            return False
        return all(np.array_equal(v, other.rows[k]) for k, v in self.rows.items())


class TrajectoryCounts:
    """Every trajectory's count rows, stacked, plus their element-wise total.

    ``idx`` gives each stacked row's row in ``total``, ``counts`` its
    destination counts, and trajectory j owns rows ``bounds[j]:bounds[j+1]``.
    The ``per_trajectory`` tables are built from them on first access.
    """

    def __init__(self, ids, total: CountTable, idx: np.ndarray, counts: np.ndarray,
                 bounds: np.ndarray):
        counts.flags.writeable = False
        self.ids, self.total, self._stack, self._per = tuple(ids), total, (idx, counts, bounds), None

    @property
    def per_trajectory(self) -> tuple[tuple[str, CountTable], ...]:
        if self._per is None:
            keys = self.total.matrix()[0]
            idx, counts, bounds = self._stack
            b = bounds.tolist()
            self._per = tuple(
                (tid, CountTable._counted(self.h, self.alphabet, self.boundary,
                                          [keys[i] for i in idx[s:e].tolist()], counts[s:e]))
                for tid, s, e in zip(self.ids, b, b[1:]))
        return self._per

    def stacked(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Every trajectory's rows in turn: their total-table rows, counts and bounds."""
        return self._stack

    @property
    def n_trajectories(self) -> int:
        return len(self.ids)

    @property
    def h(self) -> int:
        return self.total.h

    @property
    def alphabet(self) -> StateAlphabet:
        return self.total.alphabet

    @property
    def boundary(self) -> BoundaryMode:
        return self.total.boundary


# A dense ranking table may hold at most this many entries per key; keys
# spread wider than that (very large M, or tie classes x trajectories) are
# ranked by sorting instead. Counting's codes span at most M + 1 entries per
# step ranked at the previous lag, so up to 15 states never sort in PADDED
# mode.
_DENSE_SPAN_PER_KEY = 16


def _first_occurrence(keys: np.ndarray, span: int) -> tuple[np.ndarray, np.ndarray]:
    """Ids of ``keys`` (each in 0..span-1) numbered in order of first occurrence,
    and each id's first position.

    A table of ``span`` entries takes each key's first position
    (``np.minimum.at``); the keys found at their own first position are
    then numbered in the same table. That is O(n + span) with no sort; a
    span wider than ``_DENSE_SPAN_PER_KEY`` entries per key sorts with
    np.unique.
    """
    n = keys.size
    if span > _DENSE_SPAN_PER_KEY * n:
        _, first, inverse = np.unique(keys, return_index=True, return_inverse=True)
        order = np.argsort(first, kind="stable")
        rank = np.empty_like(order)
        rank[order] = np.arange(order.size)
        return rank[inverse], first[order]
    at = np.arange(n)
    table = np.full(span, n)
    np.minimum.at(table, keys, at)
    first = np.flatnonzero(table[keys] == at)
    table[keys[first]] = np.arange(first.size)
    return table[keys], first


def _digit(steps: np.ndarray, pos: np.ndarray, at: np.ndarray, lag: int) -> np.ndarray:
    """Code digit of the token ``lag`` steps before each step in ``at``: START 0, state s s+1."""
    return np.where(pos[at] >= lag, steps.take(at - lag, mode="clip") + 1, 0)


def count_transitions(
    trajectories: Iterable[Trajectory],
    h: int,
    alphabet: StateAlphabet,
    mode: BoundaryMode = BoundaryMode.PADDED,
) -> TrajectoryCounts:
    """Count context -> destination transitions at memory depth h.

    In PADDED mode every step contributes one count, with the first steps
    assigned START-padded contexts; in TRUNCATED mode only steps preceded
    by h real states contribute, so a trajectory of length L yields
    max(L - h, 0) counts. Rows appear in order of first occurrence, in the
    total table and in every trajectory's table.
    """
    if h < 0:
        raise ValueError("memory depth h must be >= 0")
    return _count_depths(trajectories, [h], alphabet, mode)[h]


def _count_depths(
    trajectories: Iterable[Trajectory],
    hs: Iterable[int],
    alphabet: StateAlphabet,
    mode: BoundaryMode = BoundaryMode.PADDED,
) -> dict[int, TrajectoryCounts]:
    """``count_transitions`` at every depth in ``hs`` (each >= 0), sharing the work.

    The concatenated steps and their trajectory and position indices are
    built once. Depth h's contexts are depth h-1's with the lag-h token on
    top: the code rank * (M+1) + digit, where rank numbers depth h-1's
    contexts, is ranked again, so one pass over the lags reaches the
    deepest context, counting each wanted depth on the way, and no code
    exceeds (M+1) times the number of steps. The (trajectory, context)
    pairs are ranked by the same recursion, started from the trajectory
    index. In TRUNCATED mode each lag drops the steps with too short a
    history, which no deeper depth counts either.
    """
    mode = BoundaryMode(mode)
    trajs = list(trajectories)
    if not trajs:
        raise ValueError("no trajectories to count")
    hs = sorted(set(hs))
    m = alphabet.size
    lengths = np.array([len(tr.steps) for tr in trajs])
    steps = np.fromiter(itertools.chain.from_iterable(tr.steps for tr in trajs), np.int64,
                        int(lengths.sum()))
    if steps.max() >= m:
        tr = next(tr for tr in trajs if max(tr.steps) >= m)
        raise ValueError(f"trajectory {tr.id!r} contains state id {max(tr.steps)} "
                         f"outside alphabet of size {m}")
    n_traj = len(trajs)
    traj = np.repeat(np.arange(n_traj), lengths)
    pos = np.arange(steps.size) - np.repeat(np.cumsum(lengths) - lengths, lengths)
    ids = [tr.id for tr in trajs]
    # at: the counted steps; row/prow: their depth-h context and (trajectory,
    # context) ranks; depth 0 has one context, and one pair per trajectory
    at = np.arange(steps.size)
    code, span, pcode, pspan = np.zeros_like(at), 1, traj, n_traj
    out = {}
    for h in range(hs[-1] + 1):
        if h:
            if mode is BoundaryMode.TRUNCATED:
                keep = pos[at] >= h
                at, row, prow = at[keep], row[keep], prow[keep]
            digit = _digit(steps, pos, at, h)
            code, span = row * (m + 1) + digit, first.size * (m + 1)
            pcode, pspan = prow * (m + 1) + digit, pfirst.size * (m + 1)
        row, first = _first_occurrence(code, span)
        prow, pfirst = _first_occurrence(pcode, pspan)
        if h not in hs:
            continue
        dest = steps[at]
        n = np.bincount(row * m + dest, minlength=first.size * m).reshape(-1, m)
        t = np.bincount(prow * m + dest, minlength=pfirst.size * m).reshape(-1, m)
        bounds = np.bincount(traj[at[pfirst]] + 1, minlength=n_traj + 1).cumsum()
        # one token tuple per distinct row, decoded from the step where it first occurs
        toks = np.empty((first.size, h), dtype=np.int64)
        for j in range(h):
            toks[:, j] = _digit(steps, pos, at[first], h - j) - 1
        total = CountTable._counted(h, alphabet, mode, map(tuple, toks.tolist()), n)
        out[h] = TrajectoryCounts(ids, total, row[pfirst], t, bounds)
    return out


def merge_counts(
    tables: Iterable[CountTable],
    *,
    h: int | None = None,
    alphabet: StateAlphabet | None = None,
    boundary: BoundaryMode | None = None,
) -> CountTable:
    """Element-wise sum of count tables (exact integer arithmetic).

    Metadata is taken from the first table; the keyword arguments are
    required only when merging an empty collection.
    """
    tables = list(tables)
    if tables:
        first = tables[0]
        h = first.h if h is None else h
        alphabet = first.alphabet if alphabet is None else alphabet
        boundary = first.boundary if boundary is None else boundary
        for t in tables:
            if t.h != h or t.alphabet != alphabet or t.boundary != boundary:
                raise ValueError("cannot merge count tables with differing h, alphabet or boundary")
    elif h is None or alphabet is None or boundary is None:
        raise ValueError("merging an empty collection requires h, alphabet and boundary")
    rows: dict[Hashable, np.ndarray] = {}
    for t in tables:
        for ctx, vec in t.rows.items():
            rows[ctx] = rows[ctx] + vec if ctx in rows else vec
    return CountTable(h, alphabet, rows, boundary)
