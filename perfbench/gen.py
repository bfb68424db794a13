"""Benchmark-owned input generators (plain numpy, no memsel code).

Every input the program reads is made here from an integer seed, so a
change to memsel's own sampler cannot change what the benchmark feeds
it. The same seed always gives byte-identical files.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

# Stream tags keep the generators' random streams disjoint.
_TAG_LONG = 11
_TAG_SEASON = 12
_TAG_BATCH = 13

LONG_STATES = 4
LONG_TRAJECTORIES = 20
LONG_STEPS = 600
# Transition rows ~ Dirichlet(3, 3, 3, 3): skewed enough for real order-2
# structure, even enough that every entry visits about as many
# (trajectory, context) rows, so entries cost about the same.
LONG_CONCENTRATION = 3.0
TIE_CLASSES = 6

SEASON_GAMES = 91
SEASON_LAMBDA = 7.615
P_AFTER_MISS = 0.82
P_OTHERWISE = 0.66

BATCH_STATES = 8
BATCH_J = 64
BATCH_LENGTH_CAP = 10_000


def _rng(tag: int, seed: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence([tag, int(seed)]))


def _write_jsonl(path: Path, labels, sequences) -> None:
    with path.open("w", encoding="utf-8", newline="\n") as fh:
        fh.write(json.dumps({"states": list(labels)}) + "\n")
        for i, seq in enumerate(sequences):
            fh.write(json.dumps({"id": f"t{i}", "seq": [labels[s] for s in seq]}) + "\n")


def long_series_sequences(seed: int) -> np.ndarray:
    """20 x 600 states from a random order-2 chain on 4 states."""
    rng = _rng(_TAG_LONG, seed)
    m = LONG_STATES
    alpha = np.full(m, LONG_CONCENTRATION)
    first = rng.dirichlet(alpha, size=m).cumsum(axis=1)
    second = rng.dirichlet(alpha, size=(m, m)).cumsum(axis=2)
    seqs = np.empty((LONG_TRAJECTORIES, LONG_STEPS), dtype=np.int64)
    seqs[:, 0] = rng.integers(0, m, size=LONG_TRAJECTORIES)
    u = rng.random((LONG_TRAJECTORIES, LONG_STEPS))
    seqs[:, 1] = (u[:, 1, None] > first[seqs[:, 0]]).sum(axis=1)
    for t in range(2, LONG_STEPS):
        cum = second[seqs[:, t - 2], seqs[:, t - 1]]
        seqs[:, t] = (u[:, t, None] > cum).sum(axis=1)
    return np.minimum(seqs, m - 1)


def long_series(seed: int, out_dir: Path) -> tuple[Path, Path]:
    """Write the long-series trajectory file and its h=2 tie map."""
    out_dir.mkdir(parents=True, exist_ok=True)
    labels = tuple(str(s) for s in range(LONG_STATES))
    data = out_dir / "series.jsonl"
    _write_jsonl(data, labels, long_series_sequences(seed))
    # Each of the 16 real h=2 contexts joins one of TIE_CLASSES classes
    # (every class non-empty); START-padded contexts fall to the default.
    rng = _rng(_TAG_LONG + 100, seed)
    contexts = [(a, b) for a in labels for b in labels]
    cls = np.concatenate([np.arange(TIE_CLASSES),
                          rng.integers(0, TIE_CLASSES, len(contexts) - TIE_CLASSES)])
    rng.shuffle(cls)
    classes = [{"contexts": [list(c) for c, k in zip(contexts, cls) if k == i]}
               for i in range(TIE_CLASSES)]
    classes.append({"default": True})
    tie = out_dir / "tie_h2.json"
    with tie.open("w", encoding="utf-8", newline="\n") as fh:
        json.dump({"h": 2, "classes": classes}, fh, indent=1)
        fh.write("\n")
    return data, tie


def season_sequences(seed: int) -> list[list[int]]:
    """91 games of free throws (0 miss, 1 hit) from the jagged truth."""
    rng = _rng(_TAG_SEASON, seed)
    games = []
    for n in rng.poisson(SEASON_LAMBDA, size=SEASON_GAMES):
        if n == 0:
            continue
        shots, p = [], P_OTHERWISE
        for u in rng.random(int(n)):
            hit = int(u < p)
            shots.append(hit)
            p = P_OTHERWISE if hit else P_AFTER_MISS
        games.append(shots)
    return games


def season(seed: int, out_dir: Path) -> tuple[Path, list[list[int]]]:
    out_dir.mkdir(parents=True, exist_ok=True)
    games = season_sequences(seed)
    path = out_dir / "season.jsonl"
    _write_jsonl(path, ("0", "1"), games)
    return path, games


def oracle_cells(games: list[list[int]]) -> int:
    """Monte-Carlo cells `memsel oracle --h 1` (padded) integrates.

    LPD and k_DIC2 draw once per context of the total table; LPPD, LOO,
    CV2 and k_WAIC2 once per (game, context) row.
    """
    def contexts(seq):
        return {("START",)} | {(s,) for s in seq[:-1]}

    total = set().union(*(contexts(g) for g in games))
    rows = sum(len(contexts(g)) for g in games)
    per_row = 4 if len(games) >= 2 else 3
    return 2 * len(total) + per_row * rows


def absorbing_batch(seed: int) -> list[list[int]]:
    """J=64 walks of an M=8, h=1 random network, absorbed in state 7.

    The power_grid shape: rows from a flat Dirichlet, walks start after
    state 0 and stop at the absorbing state or the length cap.
    """
    rng = _rng(_TAG_BATCH, seed)
    m = BATCH_STATES
    cum = rng.dirichlet(np.ones(m), size=m).cumsum(axis=1)
    walks = []
    for _ in range(BATCH_J):
        prev, steps = 0, []
        while len(steps) < BATCH_LENGTH_CAP:
            prev = min(int(np.searchsorted(cum[prev], rng.random(), side="right")), m - 1)
            steps.append(prev)
            if prev == m - 1:
                break
        walks.append(steps)
    return walks
