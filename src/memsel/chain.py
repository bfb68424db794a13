"""State alphabets, trajectories, history contexts and transition counting.

A model of memory depth h predicts each step of a trajectory from the
h-tuple of states preceding it (its context). The first h steps of a
trajectory have incomplete histories; ``BoundaryMode`` decides whether
they are counted against START-padded contexts or skipped entirely.

A context is a plain tuple of h tokens, oldest first: state ids, with
START only as a prefix. Counting runs over integer context codes (base
M+1, START a digit of its own), with rows in order of first occurrence;
the tuple key is made once per distinct row, never once per step. Several
depths of one dataset are counted in one pass: each depth's code is the
previous depth's code with one more digit on top, and the step array is
built once.
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
        steps = tuple(int(s) for s in self.steps)
        object.__setattr__(self, "steps", steps)
        if not steps:
            raise ValueError(f"trajectory {self.id!r} has no steps")
        if any(s < 0 for s in steps):
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


def _first_occurrence(keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Ids of ``keys`` numbered in order of first occurrence, and each id's first position."""
    _, first, inverse = np.unique(keys, return_index=True, return_inverse=True)
    order = np.argsort(first, kind="stable")  # np.unique's sort: no more numpy code paged in
    rank = np.empty_like(order)
    rank[order] = np.arange(order.size)
    return rank[inverse], first[order]


def _stack(traj: np.ndarray, row: np.ndarray, n_rows: int, n_traj: int):
    """Group elements by (trajectory, total row), in order of first occurrence.

    ``traj`` must be nondecreasing. Returns each element's stacked row,
    the total row of every stacked row and each trajectory's row bounds.
    """
    prow, first = _first_occurrence(traj * n_rows + row)
    return prow, row[first], np.bincount(traj[first] + 1, minlength=n_traj + 1).cumsum()


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
    built once. Depth h's context code is depth h-1's code with the lag-h
    digit on top, so one pass over the lags reaches the deepest context,
    counting each wanted depth on the way; the codes are re-ranked
    whenever the next digit would overflow int64.
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
    traj = np.repeat(np.arange(len(trajs)), lengths)
    pos = np.arange(steps.size) - np.repeat(np.cumsum(lengths) - lengths, lengths)
    ids = [tr.id for tr in trajs]
    every = np.arange(steps.size)
    code, span, out = np.zeros(steps.size, dtype=np.int64), 1, {}
    for h in range(hs[-1] + 1):
        if h:
            if span * (m + 1) > 2**63:
                uniq, code = np.unique(code, return_inverse=True)
                span = uniq.size
            code += _digit(steps, pos, every, h) * span
            span *= m + 1
        if h not in hs:
            continue
        at = np.flatnonzero(pos >= (h if mode is BoundaryMode.TRUNCATED else 0))
        row, first = _first_occurrence(code[at])
        prow, idx, bounds = _stack(traj[at], row, first.size, len(trajs))
        dest = steps[at]
        n = np.bincount(row * m + dest, minlength=first.size * m).reshape(-1, m)
        t = np.bincount(prow * m + dest, minlength=idx.size * m).reshape(-1, m)
        # one token tuple per distinct row, decoded from the step where it first occurs
        toks = np.empty((first.size, h), dtype=np.int64)
        for j in range(h):
            toks[:, j] = _digit(steps, pos, at[first], h - j) - 1
        total = CountTable._counted(h, alphabet, mode, map(tuple, toks.tolist()), n)
        out[h] = TrajectoryCounts(ids, total, idx, t, bounds)
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
