"""State alphabets, trajectories, history contexts and transition counting.

A model of memory depth h predicts each step of a trajectory from the
h-tuple of states preceding it (its context). The first h steps of a
trajectory have incomplete histories; ``BoundaryMode`` decides whether
they are counted against START-padded contexts or skipped entirely.

A context is a plain tuple of h tokens, oldest first: state ids, with
START only as a prefix. Counting runs over integer context codes, with
rows in order of first occurrence; a row's tuple key is decoded only
when a caller reads the keys, never once per step. Several depths of
one dataset are counted in one pass over one step array: each depth's
code is the rank of the previous depth's context times M+1 plus one more
token digit (START a digit of its own), ranked again in order of first
occurrence through a dense table, without sorting, so no code exceeds
M+1 times the number of steps. Several sets of trajectories (the
replicates of a power study) can share the pass: the set is the
outermost key, and each set's rows come out contiguous, with the bits
they have when the set is counted alone: one ``TrajectoryCounts`` holds
them all, and its ``view(s)`` is set s.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from enum import Enum
from functools import cached_property, partial
from typing import Hashable, Iterable, Mapping, Sequence

import numpy as np

__all__ = [
    "START",
    "BoundaryMode",
    "StateAlphabet",
    "Trajectory",
    "CountTable",
    "TrajectoryCounts",
    "count_transitions",
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

    def indices(self, labels: Sequence) -> tuple[int, ...]:
        """State ids of ``labels``, mapped in one pass. Labels are looked up
        as given; only when one misses (say, the int 1 of a JSON ``seq``)
        is every label looked up again as its ``str``."""
        try:
            return tuple(map(self._index.__getitem__, labels))
        except (KeyError, TypeError):
            pass
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

    @classmethod
    def _unchecked(cls, id: str, steps: tuple[int, ...], truncated: bool = False) -> "Trajectory":
        """A trajectory from a non-empty tuple of state ids >= 0 (Python ints)
        that the caller made itself, such as a sampled walk or the ids that
        ``StateAlphabet.indices`` returned, stored without checking them again."""
        traj = object.__new__(cls)
        traj.__dict__.update(id=id, steps=steps, truncated=truncated)
        return traj

    def __len__(self) -> int:
        return len(self.steps)


@dataclass(frozen=True, eq=False, init=False)
class CountTable:
    """Transition counts: one read-only row of M destination counts per context.

    ``counts`` holds the nonzero rows, in order of first occurrence; an
    absent context means an all-zero row. The context of each row is
    decoded only when ``keys`` or ``rows`` is first read, since scoring
    needs the counts alone. Instances are immutable, so they can be shared
    freely. Tables have no ``==`` of their own: compare their ``rows``.
    """

    h: int
    alphabet: StateAlphabet
    counts: np.ndarray
    boundary: BoundaryMode

    def __init__(self, h: int, alphabet: StateAlphabet, rows: Mapping[Hashable, np.ndarray],
                 boundary: BoundaryMode = BoundaryMode.PADDED):
        if h < 0:
            raise ValueError("memory depth h must be >= 0")
        m = alphabet.size
        norm: dict[Hashable, np.ndarray] = {}
        for key, vec in rows.items():
            arr = np.asarray(vec, dtype=np.int64)
            if arr.shape != (m,):
                raise ValueError(f"count row for {key!r} must have length {m}")
            if arr.min(initial=0) < 0:
                raise ValueError(f"negative transition count in row {key!r}")
            if arr.any():
                norm[key] = arr
        keys = tuple(norm)
        counts = np.stack(list(norm.values())) if keys else np.zeros((0, m), dtype=np.int64)
        self._store(h, alphabet, boundary, counts, partial(tuple, keys))

    @classmethod
    def _counted(cls, h, alphabet, boundary, counts, decode) -> "CountTable":
        """A table over rows made by counting: nonzero int64 by construction, so
        unchecked. ``decode()`` returns the row keys when they are first read."""
        table = object.__new__(cls)
        table._store(h, alphabet, boundary, counts, decode)
        return table

    def _store(self, h, alphabet, boundary, counts, decode) -> None:
        counts.flags.writeable = False
        self.__dict__.update(h=h, alphabet=alphabet, boundary=BoundaryMode(boundary),
                             counts=counts, _decode=decode)

    @cached_property
    def keys(self) -> tuple:
        """Each row's context (a token tuple, or a class id once tied), in row order."""
        return tuple(self._decode())

    @cached_property
    def rows(self) -> dict[Hashable, np.ndarray]:
        """Context -> its count row, a read-only view into ``counts``."""
        return dict(zip(self.keys, self.counts))

    @property
    def n_contexts(self) -> int:
        return len(self.counts)

    def total_transitions(self) -> int:
        return int(self.counts.sum())

    def get(self, ctx) -> np.ndarray:
        """Count vector for ``ctx``; all zeros when the context was never seen."""
        return self.rows.get(ctx, np.zeros(self.alphabet.size, dtype=np.int64))


class TrajectoryCounts:
    """Counted trajectories at one depth: one or more sets of them (the
    replicates of a power study), counted in one pass and stacked set after
    set.

    Set s owns the total rows ``rows[s]:rows[s+1]`` of ``counts`` and the
    trajectories ``sets[s]:sets[s+1]``. Trajectory g owns the (trajectory,
    context) rows ``bounds[g]:bounds[g+1]`` of ``t``, and ``idx`` gives each
    of those rows its row in ``counts``. ``decode(r0, r1)`` returns the keys
    of total rows r0:r1. ``view(s)`` is set s alone, with the bits it has
    when counted alone. One set also reads as its ``total`` table and its
    ``per_trajectory`` tables, built on first access; several sets have no
    one total table, since their keys repeat, so ``total`` raises ValueError.
    """

    def __init__(self, h, alphabet, boundary, ids, counts, rows, idx, t, bounds, sets, decode):
        counts.flags.writeable = False
        t.flags.writeable = False
        self.h, self.alphabet, self.boundary, self.ids = h, alphabet, boundary, ids
        self.counts, self.rows, self.idx, self.t = counts, rows, idx, t
        self.bounds, self.sets, self._decode = bounds, sets, decode

    @property
    def n_sets(self) -> int:
        return len(self.sets) - 1

    @property
    def n_trajectories(self) -> int:
        return len(self.ids)

    @cached_property
    def total(self) -> CountTable:
        """The one set's total table, its rows those of ``counts``."""
        if self.n_sets != 1:
            raise ValueError(f"{self.n_sets} sets of counts have no one total table; "
                             "view(s) has set s's")
        return CountTable._counted(self.h, self.alphabet, self.boundary, self.counts,
                                   partial(self._decode, 0, len(self.counts)))

    @cached_property
    def per_trajectory(self) -> tuple[tuple[str, CountTable], ...]:
        total, b = self.total, self.bounds.tolist()
        return tuple(
            (tid, CountTable._counted(self.h, self.alphabet, self.boundary, self.t[s:e],
                                      partial(_keys_at, total, self.idx[s:e])))
            for tid, s, e in zip(self.ids, b, b[1:]))

    def view(self, s: int) -> "TrajectoryCounts":
        """Set s alone, over views of the stack's arrays."""
        r0, r1 = self.rows[s:s + 2].tolist()
        g0, g1 = self.sets[s:s + 2].tolist()
        p0, p1 = self.bounds[[g0, g1]].tolist()
        idx, bounds = self.idx[p0:p1], self.bounds[g0:g1 + 1]
        return TrajectoryCounts(
            self.h, self.alphabet, self.boundary, self.ids[g0:g1], self.counts[r0:r1],
            np.array([0, r1 - r0]), idx - r0 if r0 else idx, self.t[p0:p1],
            bounds - p0 if p0 else bounds, np.array([0, g1 - g0]),
            partial(_decode_from, self._decode, r0) if r0 else self._decode)


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


def _row_contexts(steps, pos, first: np.ndarray, h: int, r0: int, r1: int) -> list[tuple]:
    """The depth-h contexts of total rows r0:r1, as token tuples, from each
    row's first counted step ``first``."""
    at = first[r0:r1]
    toks = np.empty((at.size, h), dtype=np.int64)
    for j in range(h):
        toks[:, j] = _digit(steps, pos, at, h - j) - 1
    return list(map(tuple, toks.tolist()))


def _keys_at(table: CountTable, idx: np.ndarray) -> list:
    """The keys of ``table``'s rows ``idx``."""
    keys = table.keys
    return [keys[i] for i in idx.tolist()]


def _decode_from(decode, r0: int, a: int, b: int) -> list:
    """The keys of rows a:b of a stack whose row 0 is row r0 of ``decode``'s."""
    return decode(r0 + a, r0 + b)


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
    return _count_depths([list(trajectories)], [h], alphabet, mode)[h]


def _count_depths(
    sets: Iterable[list[Trajectory]],
    hs: Iterable[int],
    alphabet: StateAlphabet,
    mode: BoundaryMode = BoundaryMode.PADDED,
) -> dict[int, TrajectoryCounts]:
    """Every set of trajectories in ``sets`` counted at every depth in ``hs``
    (each >= 0), in one pass: per depth, a TrajectoryCounts of the sets in turn.

    The concatenated steps and their trajectory and position indices are
    built once. The set is the outermost key: depth 0 has one context per
    set, its code the set's index, and one (trajectory, context) pair per
    trajectory, its code the trajectory's index over all sets. Depth h's
    contexts are depth h-1's with the lag-h token on top: the code
    rank * (M+1) + digit, where rank numbers depth h-1's contexts, is
    ranked again in order of first occurrence, so one pass over the lags
    reaches the deepest context, counting each wanted depth on the way, and
    no code exceeds (M+1) times the number of steps. The pairs are ranked
    by the same recursion. Each set's rows then come out contiguous, in
    their own order of first occurrence, with the counts of the set counted
    alone. In TRUNCATED mode each lag drops the steps with too short a
    history, which no deeper depth counts either.
    """
    mode = BoundaryMode(mode)
    sets = list(sets)
    sizes = [len(s) for s in sets]
    trajs = list(itertools.chain.from_iterable(sets))
    if not sizes or not all(sizes):
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
    n_sets, n_traj = len(sizes), len(trajs)
    traj = np.repeat(np.arange(n_traj), lengths)
    owner = np.repeat(np.repeat(np.arange(n_sets), sizes), lengths)  # each step's set
    pos = np.arange(steps.size) - np.repeat(np.cumsum(lengths) - lengths, lengths)
    ids = tuple(tr.id for tr in trajs)
    set_bounds = np.cumsum([0] + sizes)
    # at: the counted steps; row/prow: their depth-h context and (trajectory,
    # context) ranks
    at = np.arange(steps.size)
    code, span, pcode, pspan = owner, n_sets, traj, n_traj
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
        rows = np.bincount(owner[at[first]] + 1, minlength=n_sets + 1).cumsum()
        bounds = np.bincount(traj[at[pfirst]] + 1, minlength=n_traj + 1).cumsum()
        out[h] = TrajectoryCounts(h, alphabet, mode, ids, n, rows, row[pfirst], t, bounds,
                                  set_bounds, partial(_row_contexts, steps, pos, at[first], h))
    return out
