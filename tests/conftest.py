"""Shared generators for randomized small test instances, and psi and psi'."""

import numpy as np

from memsel.chain import BoundaryMode, StateAlphabet, Trajectory, count_transitions
from memsel.specfun import _polygamma


def digamma(z):
    """psi(z) elementwise, at least 1-D, from ``_polygamma``, the kernel the scorer calls."""
    return _polygamma(np.asarray(z, dtype=float))[0]


def trigamma(z):
    """psi'(z) elementwise, at least 1-D, from ``_polygamma``."""
    return _polygamma(np.asarray(z, dtype=float))[1]


def random_instance(rng, m=None, j=None, h=None, max_len=6,
                    mode=BoundaryMode.PADDED):
    """A small random dataset: (alphabet, trajectories, counts).

    Sizes follow the oracle-suite envelope: M <= 3, J <= 4, short
    trajectories so row counts stay small.
    """
    m = int(rng.integers(2, 4)) if m is None else m
    j = int(rng.integers(2, 5)) if j is None else j
    h = int(rng.integers(0, 2)) if h is None else h
    alphabet = StateAlphabet.of_size(m)
    trajs = [
        Trajectory(f"t{i}", tuple(rng.integers(0, m, int(rng.integers(1, max_len + 1))).tolist()))
        for i in range(j)
    ]
    tc = count_transitions(trajs, h, alphabet, mode)
    return alphabet, trajs, tc


def keyed_sum(tables, h, alphabet, boundary):
    """The element-wise sum of count tables, matched row by row on their keys."""
    from memsel.chain import CountTable

    rows = {}
    for table in tables:
        for ctx, vec in table.rows.items():
            rows[ctx] = rows[ctx] + vec if ctx in rows else vec
    return CountTable(h, alphabet, rows, boundary)


def rows_of(table):
    """A count table's rows as plain lists, keyed by context: tables compare through these."""
    return {k: v.tolist() for k, v in table.rows.items()}


def find_record(records, **match):
    """The one record whose fields equal ``match``, or None when none does."""
    hits = [r for r in records if all(r[k] == v for k, v in match.items())]
    assert len(hits) <= 1, f"{len(hits)} records match {match}"
    return hits[0] if hits else None


def random_count_table(rng, m=2, max_count=6):
    """A single-context count table with random nonzero counts."""
    from memsel.chain import CountTable

    counts = rng.integers(0, max_count + 1, m)
    if not counts.any():
        counts[int(rng.integers(0, m))] = 1
    alphabet = StateAlphabet.of_size(m)
    return CountTable(0, alphabet, {(): counts}, BoundaryMode.PADDED)
