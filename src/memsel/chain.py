"""State alphabets, trajectories, history contexts and transition counting.

A model of memory depth h predicts each step of a trajectory from the
h-tuple of states preceding it (its context). The first h steps of a
trajectory have incomplete histories; ``BoundaryMode`` decides whether
they are counted against START-padded contexts or skipped entirely.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Hashable, Iterable, Mapping

import numpy as np

__all__ = [
    "START",
    "BoundaryMode",
    "StateAlphabet",
    "Trajectory",
    "Context",
    "CountTable",
    "TrajectoryCounts",
    "count_transitions",
    "merge_counts",
]

# Reserved boundary token. It may appear only as a contiguous context
# prefix and can never be a transition destination.
START: int = -1

# Display glyph for START in human-readable context strings.
START_GLYPH = "·"


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


@dataclass(frozen=True)
class Context:
    """An ordered history tuple; START tokens only as a contiguous prefix."""

    tokens: tuple[int, ...]

    def __post_init__(self):
        tokens = tuple(int(t) for t in self.tokens)
        object.__setattr__(self, "tokens", tokens)
        seen_state = False
        for t in tokens:
            if t == START:
                if seen_state:
                    raise ValueError("START tokens may only form a contiguous context prefix")
            elif t < 0:
                raise ValueError(f"invalid context token {t}")
            else:
                seen_state = True

    def __len__(self) -> int:
        return len(self.tokens)

    def display(self, alphabet: StateAlphabet) -> str:
        parts = [START_GLYPH if t == START else alphabet.label(t) for t in self.tokens]
        sep = "" if all(len(p) == 1 for p in parts) else ","
        return sep.join(parts) if parts else "()"


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
        object.__setattr__(self, "boundary", BoundaryMode(self.boundary))
        m = self.alphabet.size
        norm: dict[Hashable, np.ndarray] = {}
        for key, vec in self.rows.items():
            arr = np.asarray(vec, dtype=np.int64)
            if arr.shape != (m,):
                raise ValueError(f"count row for {key!r} must have length {m}")
            if arr.min(initial=0) < 0:
                raise ValueError(f"negative transition count in row {key!r}")
            if arr.any():
                arr = arr.copy()
                arr.flags.writeable = False
                norm[key] = arr
        object.__setattr__(self, "rows", norm)
        zero = np.zeros(m, dtype=np.int64)
        zero.flags.writeable = False
        object.__setattr__(self, "_zero", zero)
        object.__setattr__(self, "_matrix", None)

    @property
    def n_contexts(self) -> int:
        return len(self.rows)

    def total_transitions(self) -> int:
        return int(sum(int(v.sum()) for v in self.rows.values()))

    def get(self, ctx) -> np.ndarray:
        """Count vector for ``ctx``; all zeros when the context was never seen."""
        vec = self.rows.get(ctx)
        return self._zero if vec is None else vec

    def matrix(self) -> tuple[tuple, np.ndarray]:
        """Row keys (insertion order) and the stacked count matrix."""
        cached = self._matrix
        if cached is None:
            keys = tuple(self.rows)
            if keys:
                mat = np.stack([self.rows[k] for k in keys])
            else:
                mat = np.zeros((0, self.alphabet.size), dtype=np.int64)
            mat.flags.writeable = False
            cached = (keys, mat)
            object.__setattr__(self, "_matrix", cached)
        return cached

    def __eq__(self, other):
        if not isinstance(other, CountTable):
            return NotImplemented
        if (self.h, self.alphabet, self.boundary) != (other.h, other.alphabet, other.boundary):
            return False
        if self.rows.keys() != other.rows.keys():
            return False
        return all(np.array_equal(v, other.rows[k]) for k, v in self.rows.items())


@dataclass(frozen=True)
class TrajectoryCounts:
    """Per-trajectory count tables plus their element-wise total."""

    per_trajectory: tuple[tuple[str, CountTable], ...]
    total: CountTable

    @property
    def n_trajectories(self) -> int:
        return len(self.per_trajectory)

    @property
    def h(self) -> int:
        return self.total.h

    @property
    def alphabet(self) -> StateAlphabet:
        return self.total.alphabet

    @property
    def boundary(self) -> BoundaryMode:
        return self.total.boundary


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
    max(L - h, 0) counts.
    """
    mode = BoundaryMode(mode)
    if h < 0:
        raise ValueError("memory depth h must be >= 0")
    trajs = list(trajectories)
    if not trajs:
        raise ValueError("no trajectories to count")
    m = alphabet.size
    per: list[tuple[str, CountTable]] = []
    total_rows: dict[Hashable, np.ndarray] = {}
    for tr in trajs:
        if max(tr.steps) >= m:
            raise ValueError(
                f"trajectory {tr.id!r} contains state id {max(tr.steps)} "
                f"outside alphabet of size {m}"
            )
        rows: dict[Hashable, np.ndarray] = {}
        steps = tr.steps
        first = 0 if mode is BoundaryMode.PADDED else h
        for l in range(first, len(steps)):
            if l >= h:
                toks = steps[l - h:l]
            else:
                toks = (START,) * (h - l) + steps[:l]
            ctx = Context(toks)
            row = rows.get(ctx)
            if row is None:
                row = np.zeros(m, dtype=np.int64)
                rows[ctx] = row
            row[steps[l]] += 1
        per.append((tr.id, CountTable(h, alphabet, rows, mode)))
        for ctx, vec in rows.items():
            acc = total_rows.get(ctx)
            if acc is None:
                total_rows[ctx] = vec.copy()
            else:
                acc += vec
    total = CountTable(h, alphabet, total_rows, mode)
    return TrajectoryCounts(tuple(per), total)


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
            acc = rows.get(ctx)
            if acc is None:
                rows[ctx] = vec.copy()
            else:
                acc += vec
    return CountTable(h, alphabet, rows, boundary)
