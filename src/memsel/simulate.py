"""Random networks, trajectory sampling and selection power studies.

A study draws a network with known memory depth, samples batches of J
trajectories from it, runs order selection on every batch, and tabulates
how often each depth wins under each criterion. Determinism contract:
every replicate gets its own RNG stream derived from the root seed and
the replicate's grid position, so results are independent of worker
count and execution order.
"""

from __future__ import annotations

import itertools
import math
import os
import pickle
import sys
from bisect import bisect_right
from dataclasses import dataclass
from functools import cache, partial

import numpy as np

from .chain import (
    START,
    BoundaryMode,
    StateAlphabet,
    Trajectory,
)
from .criteria import (
    CRITERIA,
    DirichletPrior,
    _depth_models,
    _normalize_which,
    _score,
    _unavailable,
)
from .tying import jagged_free_throw_map

__all__ = [
    "RandomNetwork",
    "SimConfig",
    "FreeThrowModel",
    "FreeThrowSimConfig",
    "PowerStudyResult",
    "generate_network",
    "sample_trajectory",
    "run_power_study",
    "sample_free_throw_trajectories",
    "free_throw_power",
    "worker_count",
]

# Stream tags keep the seed derivations for different purposes disjoint.
_TAG_NETWORK = 1
_TAG_TRAJECTORIES = 2
_TAG_FREE_THROW = 3

_MAX_NETWORK_CONTEXTS = 2_000_000

# A replicate's walks take their uniforms from its stream this many at a time.
_UNIFORM_BLOCK = 1024

# A study counts this many consecutive (cell, replicate) jobs in one
# ``_count_depths`` pass and scores them in one ``_score`` call, serially or
# as one pool task; a chunk may span cells. It does not depend on the worker
# count, and neither counting nor scoring changes a bit with the sets or
# models alongside, so results do not depend on it either.
_CHUNK = 16


# glibc's mallopt parameters (malloc.h) and the values the CLI sets. With its
# default, dynamic thresholds glibc hands the freed top of the heap back to
# the kernel and unmaps freed arrays above a threshold that it raises as it
# goes, so each batch of scoring or counting faults its temporaries' pages
# back in. Setting either threshold turns the dynamic one off, so both are
# set: arrays up to 32 MiB (glibc's 64-bit maximum) come from the heap, and
# the heap is trimmed only when more than 2 GiB at its top is free (the
# largest value mallopt takes).
_M_TRIM_THRESHOLD = -1
_M_MMAP_THRESHOLD = -3
_MMAP_THRESHOLD = 32 * 1024 * 1024
_TRIM_THRESHOLD = 2**31 - 1


def _glibc() -> bool:
    """Whether the running C library is glibc. Others may define the name
    too (musl does) or refuse it, so its value is read."""
    try:
        return (os.confstr("CS_GNU_LIBC_VERSION") or "").startswith("glibc")
    except (ValueError, OSError):
        return False


@cache
def _keep_heap_mapped() -> None:
    """Keep freed memory mapped for the rest of this process: glibc on Linux
    only, once per process; elsewhere, or without ``mallopt``, nothing.

    The settings are process-wide, so only the CLI and the pool workers it
    starts apply them; a library call keeps the default allocator.
    """
    if sys.platform != "linux" or not _glibc():
        return  # not glibc: another allocator, with parameters of its own
    import ctypes

    mallopt = getattr(ctypes.CDLL(None), "mallopt", None)
    if mallopt is None:
        return
    mallopt(_M_MMAP_THRESHOLD, _MMAP_THRESHOLD)
    mallopt(_M_TRIM_THRESHOLD, _TRIM_THRESHOLD)


def _rng(seed: int, *key: int) -> np.random.Generator:
    entropy = (int(seed) & 0xFFFFFFFFFFFFFFFF,) + tuple(int(k) for k in key)
    return np.random.default_rng(np.random.SeedSequence(entropy))


def worker_count(workers: int = 1) -> int:
    """The worker count ``workers``, 1 (serial) by default. A count below 1
    raises ValueError."""
    if workers < 1:
        raise ValueError(f"the worker count must be >= 1, got {workers}")
    return int(workers)


@dataclass(frozen=True, eq=False)
class RandomNetwork:
    """True transition probabilities for every depth-h context.

    ``rows`` maps each context tuple (START-padded, as in counting) to a
    probability vector over destinations. State 0 is the designated start
    state and state M-1 the absorbing state.
    """

    alphabet: StateAlphabet
    h_true: int
    rows: dict

    def __post_init__(self):
        object.__setattr__(self, "_walk_table", _walk_table(self))

    def __reduce__(self):
        # pickled without the walk table, which is derived from rows and is
        # about half the pickle: unpickling rebuilds it
        return RandomNetwork, (self.alphabet, self.h_true, self.rows)

    @property
    def m(self) -> int:
        return self.alphabet.size


def _walk_table(net: RandomNetwork) -> tuple[list, list, int]:
    """What a walk reads at each step. Context i (numbered in the order of
    ``net.rows``) owns the M entries from offset i x M of two flat lists:
    its cumulative row, and for each next state the offset of the context
    that state leads to. Returns both lists and the start context's offset.

    Counting's integer codes find the successors: START is digit 0 and
    state s digit s+1, oldest token first, so the context after state s
    has code (code x (M+1) + s + 1) mod (M+1)^h.
    """
    m, h = net.m, net.h_true
    contexts = list(net.rows)
    base = m + 1
    digits = np.array(contexts, dtype=np.int64).reshape(len(contexts), h) + 1
    code = digits @ base ** np.arange(h - 1, -1, -1, dtype=np.int64)
    successor = (code[:, None] * base + np.arange(1, m + 1)) % base**h
    order = np.argsort(code)
    ids = order[np.searchsorted(code, successor, sorter=order).clip(max=len(code) - 1)]
    if not np.array_equal(code[ids], successor):
        raise ValueError("the network has no row for some context that a walk can reach")
    cum = np.cumsum(np.array(list(net.rows.values()), dtype=float), axis=1)
    cum[:, -1] = 1.0  # a uniform in [0, 1) never reads past the row
    start = ((START,) * h + (0,))[1:]  # START..START, start state 0
    return cum.ravel().tolist(), (ids * m).ravel().tolist(), contexts.index(start) * m


def _padded_contexts(m: int, h: int):
    """All contexts of length h whose START tokens form a contiguous prefix."""
    for n_start in range(h, -1, -1):
        prefix = (START,) * n_start
        for suffix in itertools.product(range(m), repeat=h - n_start):
            yield prefix + suffix


def generate_network(m: int, h_true: int, seed: int) -> RandomNetwork:
    """Draw one row per depth-h context from a flat Dirichlet, deterministically."""
    return _draw_network(m, h_true, seed, _TAG_NETWORK, h_true)


def _draw_network(m: int, h_true: int, seed: int, *key: int) -> RandomNetwork:
    if m < 2:
        raise ValueError("alphabet size must be >= 2")
    if h_true < 0:
        raise ValueError("true memory depth must be >= 0")
    n_contexts = (m ** (h_true + 1) - 1) // (m - 1)
    if n_contexts > _MAX_NETWORK_CONTEXTS:
        raise ValueError(
            f"enumerating {n_contexts} contexts for M={m}, h={h_true} is not "
            "supported; this would need sparse on-demand row generation"
        )
    alphabet = StateAlphabet.of_size(m)
    # one call draws the rows in turn, the same stream as one call per row
    rng = _rng(seed, *key)  # after the checks: a negative key fails with numpy's message
    rows = dict(zip(_padded_contexts(m, h_true), rng.dirichlet(np.ones(m), size=n_contexts)))
    return RandomNetwork(alphabet, h_true, rows)


def sample_trajectory(
    net: RandomNetwork,
    length_cap: int,
    rng: np.random.Generator,
    traj_id: str = "traj",
) -> Trajectory:
    """Walk from the start state until absorption or the length cap.

    The recorded steps are the states visited after the (fixed) start
    state; histories shorter than h are padded with START and then the
    start state itself, matching the contexts the network carries. Each
    step draws one uniform from ``rng``.
    """
    if length_cap < 1:
        raise ValueError("length cap must be >= 1")
    return _walk(net, length_cap, iter(rng.random, None), traj_id)


def _walk(net: RandomNetwork, length_cap: int, uniforms, traj_id: str) -> Trajectory:
    """One walk, taking the next uniform from the iterator ``uniforms`` at
    each step and no more: the next state is the first whose cumulative
    probability exceeds it, where each row's last entry is 1.0, so M-1
    when a row sums to less than that."""
    cum, successor, row = net._walk_table
    m, absorbing = net.m, net.m - 1
    steps: list[int] = []
    for u in uniforms:
        nxt = bisect_right(cum, u, row, row + m) - row
        steps.append(nxt)
        if nxt == absorbing or len(steps) == length_cap:
            break
        row = successor[row + nxt]
    return Trajectory._unchecked(traj_id, tuple(steps), truncated=steps[-1] != absorbing)


def _uniform_blocks(rng: np.random.Generator):
    """The uniforms of ``rng`` in stream order, drawn _UNIFORM_BLOCK at a time."""
    while True:
        yield from rng.random(_UNIFORM_BLOCK).tolist()


def _sample_walks(net: RandomNetwork, length_cap: int, rng: np.random.Generator,
                  ids: list[str]) -> list[Trajectory]:
    """One walk per id, in turn, on the uniforms of ``rng``: the walks that
    repeated ``sample_trajectory`` calls on ``rng`` make. The uniforms of the
    last block that no walk used are dropped, so ``rng`` must serve these
    walks alone."""
    uniforms = _uniform_blocks(rng)
    return [_walk(net, length_cap, uniforms, tid) for tid in ids]


# ---------------------------------------------------------------------------
# Grid study over (J, replicate)


@dataclass(frozen=True)
class SimConfig:
    """Configuration of a power study over one true memory depth."""

    m: int = 8
    h_true: int = 1
    h_range: tuple[int, ...] = (1, 2, 3, 4, 5)
    J_values: tuple[int, ...] = (4,)
    replicates: int = 200
    length_cap: int = 10_000
    seed: int = 0
    criteria: tuple[str, ...] = CRITERIA
    boundary: BoundaryMode = BoundaryMode.PADDED
    network_per_replicate: bool = False

    tie_map = None  # not a field: a grid study scores the depths alone

    def __post_init__(self):
        object.__setattr__(self, "h_range", tuple(sorted({int(h) for h in self.h_range})))
        object.__setattr__(self, "J_values", tuple(int(j) for j in self.J_values))
        if self.h_true < 0:
            raise ValueError("true memory depth must be >= 0")
        if self.length_cap < 1:
            raise ValueError("length cap must be >= 1")
        if not self.h_range:
            raise ValueError("h_range must be non-empty")
        if self.h_range[0] < 0:
            raise ValueError("memory depths must be >= 0")
        if not self.J_values or min(self.J_values) < 1:
            raise ValueError("J values must be positive")
        if repeated := [j for i, j in enumerate(self.J_values) if j in self.J_values[:i]]:
            raise ValueError(f"J value {repeated[0]} is named twice")
        _normalize_study(self, min(self.J_values), "J")

    @property
    def alphabet(self) -> StateAlphabet:
        return StateAlphabet.of_size(self.m)


def _normalize_study(cfg, min_batch: int, batch_name: str) -> None:
    """Normalise and check the fields both study configs share.

    ``min_batch`` is the smallest number of trajectories one replicate
    scores (the least J, or the number of games), which CV2 needs >= 2.
    """
    object.__setattr__(cfg, "criteria", _normalize_which(cfg.criteria))
    object.__setattr__(cfg, "boundary", BoundaryMode(cfg.boundary))
    if cfg.replicates < 1:
        raise ValueError("replicates must be >= 1")
    if "CV2" in cfg.criteria and min_batch < 2:
        raise ValueError(f"the CV2 criterion needs {batch_name} >= 2")


@dataclass(frozen=True)
class PowerStudyResult:
    """What a power study found, as the records its output files hold.

    ``selection`` has one record per (J, criterion, candidate h) with keys
    h_true, J, criterion, h_chosen and frequency (the share of kept
    replicates in which that criterion chose that depth). ``deltas`` has
    one record per (J, criterion, h) with keys h_true, J, criterion, h,
    min, max, mean and frac_below_zero, summarising each criterion's gap
    to its value at ``h_true``; it is empty when ``h_true`` is not a
    candidate depth. Both run cell by cell, criterion by criterion, h by h.
    """

    selection: tuple[dict, ...]
    deltas: tuple[dict, ...]
    truncated_walks: int = 0  # sampled walks that the length cap cut before absorption
    # per criterion, the fraction of kept replicates in which the tied model
    # was strictly below every depth up to its own; None when none was scored
    jagged_win_rate: dict | None = None


def _replicate_values(cfg: SimConfig, j_index: int, rep: int, net: RandomNetwork | None = None):
    """One freshly sampled batch of trajectories, walked on ``net``, or on a
    network drawn for this replicate alone when ``net`` is None."""
    if net is None:
        net = _draw_network(cfg.m, cfg.h_true, cfg.seed, _TAG_NETWORK, j_index, rep)
    rng = _rng(cfg.seed, _TAG_TRAJECTORIES, j_index, rep)
    ids = [f"r{rep}t{i}" for i in range(cfg.J_values[j_index])]
    return _sample_walks(net, cfg.length_cap, rng, ids)


def _run_chunk(cfg, replicate, jobs):
    """``replicate(cfg, cell, rep)`` for each (cell, rep) of ``jobs``: one
    entry per job, that replicate's criterion values or None when it had no
    data (a job returns its trajectories, or None), and how many of the kept
    jobs' walks the length cap cut.

    The kept jobs are counted in one ``criteria._depth_models`` pass and
    every model scored in one ``_score`` call. A job's values form one
    (model, criterion) array: each depth in ``cfg.h_range`` and then the
    tied model of ``cfg.tie_map``, each in the order of ``cfg.criteria``.
    """
    results = [replicate(cfg, cell, rep) for cell, rep in jobs]
    kept = [trajs for trajs in results if trajs is not None]
    truncated = sum(tr.truncated for trajs in kept for tr in trajs)
    if not kept:
        return [None] * len(jobs), truncated
    alphabet = cfg.alphabet
    stacks, ks = _depth_models(kept, alphabet, cfg.h_range, cfg.boundary, tie_map=cfg.tie_map)
    values = _score(stacks, DirichletPrior.symmetric(alphabet.size), tuple(cfg.criteria), ks)
    # the rows run model by model over the kept jobs: their criterion columns, job by job
    rows = iter(values[:, :len(cfg.criteria)].reshape(len(stacks), len(kept), -1).swapaxes(0, 1))
    return [None if trajs is None else next(rows) for trajs in results], truncated


# A pool worker's (cfg, replicate), set once by _init_worker when it starts.
_WORKER_STUDY = None


def _init_worker(cfg, replicate):
    global _WORKER_STUDY
    _keep_heap_mapped()
    _WORKER_STUDY = (cfg, replicate)


def _run_worker_chunk(jobs):
    """``_run_chunk`` in a pool worker, on the study it was started with: a
    task carries only its job list."""
    return _run_chunk(*_WORKER_STUDY, jobs)


def _gap_summary(values, ref: int) -> list:
    """Per criterion and depth, the min, max, mean and share below zero of
    each kept replicate's gap to the depth at index ``ref``; ``values`` holds
    for each kept replicate one row of criterion values per depth.

    The gaps form one C-ordered (criterion, depth, kept) array, reduced
    along its last axis, so each statistic has the bits of the same
    reduction over that criterion and depth's gaps alone.
    """
    vals = np.asarray(values).transpose(2, 1, 0).copy()
    gaps = vals - vals[:, ref:ref + 1]
    stats = (gaps.min(axis=2), gaps.max(axis=2), gaps.mean(axis=2), (gaps < 0.0).mean(axis=2))
    return np.stack(stats, axis=2).tolist()


def _tally_cell(cfg, h_true, label, values: np.ndarray, selection: list, deltas: list):
    """Append one cell's selection and delta records from the values of its
    kept replicates (their ``_run_chunk`` entries, stacked), and return the
    tied model's win rate per criterion, or None without a tied model.

    A criterion chooses the first depth of least value, so a tie goes to
    the smaller h; the tied model wins when it is strictly below every
    depth up to its own. The rate is the cell's own: a ``SimConfig``'s
    ``tie_map`` is None, and the free-throw study has the one cell.
    """
    criteria, n_depths = tuple(cfg.criteria), len(cfg.h_range)
    depths = values[:, :n_depths]
    chosen = depths.argmin(axis=1)
    for i, c in enumerate(criteria):
        counts = np.bincount(chosen[:, i], minlength=n_depths).tolist()
        for h, count in zip(cfg.h_range, counts):
            selection.append({"h_true": h_true, "J": label, "criterion": c, "h_chosen": h,
                              "frequency": count / len(values)})
    if h_true in cfg.h_range:
        summary = _gap_summary(depths, cfg.h_range.index(h_true))
        for i, c in enumerate(criteria):
            for h, (lo, hi, mean, below) in zip(cfg.h_range, summary[i]):
                deltas.append({"h_true": h_true, "J": label, "criterion": c, "h": h,
                               "min": lo, "max": hi, "mean": mean, "frac_below_zero": below})
    if cfg.tie_map is None:
        return None
    rivals = [i for i, h in enumerate(cfg.h_range) if h <= cfg.tie_map.h]
    wins = (values[:, n_depths, None] < depths[:, rivals]).all(axis=1).sum(axis=0)
    return {c: w / len(values) for c, w in zip(criteria, wins.tolist())}


def _run_study(cfg, replicate, cells: tuple, h_true, workers: int = 1):
    """Run ``replicate(cfg, cell_index, rep)`` over every (cell, replicate)
    and tally the results into a PowerStudyResult.

    Jobs run cell by cell, in chunks of _CHUNK (``_run_chunk``), serially
    or in a process pool whose workers each get ``(cfg, replicate)`` once,
    when they start (``_init_worker``); a job returns its trajectories, or
    None for a replicate with no data, which is skipped. A chunk's entries
    are read beside its jobs, and a NaN value raises as its chunk arrives.
    Each cell appends its selection and delta records (labelled with
    ``h_true`` and the cell's entry in ``cells`` as J) once its last
    replicate's entry is in (``_tally_cell``): selection frequencies over
    the cell's kept replicates, and gaps to ``h_true`` when it is a
    candidate depth. A pool starts all its workers at once, so it has at
    most one per chunk.
    """
    n_reps = cfg.replicates
    jobs = [(cell, rep) for cell in range(len(cells)) for rep in range(n_reps)]
    chunks = [jobs[i:i + _CHUNK] for i in range(0, len(jobs), _CHUNK)]
    workers = min(worker_count(workers), len(chunks))
    if workers > 1:
        # a pool that cannot pickle a job never shuts down: fail before starting one
        pickle.dumps((cfg, replicate))
    criteria = tuple(cfg.criteria)
    selection: list[dict] = []
    deltas: list[dict] = []
    jagged, truncated = None, 0
    rows = []  # the kept values of the cell not yet tallied
    # results are tallied as they arrive, so no more than one cell's values
    # (plus the pool's unread results) are held at a time
    pool = None
    if workers > 1:
        from concurrent.futures import ProcessPoolExecutor  # only a pool needs it

        pool = ProcessPoolExecutor(workers, initializer=_init_worker,
                                   initargs=(cfg, replicate))
    try:
        results = ((_run_chunk(cfg, replicate, chunk) for chunk in chunks)
                   if pool is None else pool.map(_run_worker_chunk, chunks))
        for chunk, (entries, n_truncated) in zip(chunks, results):
            truncated += n_truncated
            for (cell, rep), values in zip(chunk, entries, strict=True):
                if values is not None:
                    nan = np.isnan(values).any(axis=0)
                    if nan.any():
                        raise _unavailable(criteria[int(nan.argmax())])
                    rows.append(values)
                if rep == n_reps - 1:  # the cell is complete
                    if not rows:  # only a free-throw season can come back empty
                        raise ValueError("every replicate drew zero games; increase lam or games")
                    jagged = _tally_cell(cfg, h_true, cells[cell], np.stack(rows),
                                         selection, deltas)
                    rows = []
    finally:
        if pool is not None:
            # an error in the tally drops the pending replicates instead of running them
            pool.shutdown(cancel_futures=True)
    return PowerStudyResult(tuple(selection), tuple(deltas), truncated_walks=truncated,
                            jagged_win_rate=jagged)


def run_power_study(cfg: SimConfig, workers: int = 1) -> PowerStudyResult:
    """Selection frequencies and criterion gaps over the (J, replicate) grid.

    By default one network per true depth is drawn from the seed and
    reused for every batch; ``network_per_replicate`` draws a fresh one
    per replicate instead. Results are byte-stable for a fixed config and
    any worker count. ``truncated_walks`` counts the walks that hit
    ``length_cap`` before absorption, over the whole grid.
    """
    net = None if cfg.network_per_replicate else generate_network(cfg.m, cfg.h_true, cfg.seed)
    return _run_study(cfg, partial(_replicate_values, net=net), cfg.J_values, cfg.h_true, workers)


# ---------------------------------------------------------------------------
# Free-throw experiment


FT_MISS, FT_HIT = 0, 1
FT_ALPHABET = StateAlphabet(("0", "1"))  # 0 = miss, 1 = hit


@dataclass(frozen=True)
class FreeThrowModel:
    """Hit probabilities for a game's first shot and by previous outcome."""

    p_first: float
    p_after_hit: float
    p_after_miss: float
    name: str = "h1"

    def __post_init__(self):
        for p in (self.p_first, self.p_after_hit, self.p_after_miss):
            if not 0.0 < p < 1.0:
                raise ValueError("hit probabilities must lie strictly inside (0, 1)")

    @classmethod
    def independent(cls, p: float) -> "FreeThrowModel":
        return cls(p, p, p, name="h0")

    @classmethod
    def jagged(cls, p_after_miss: float, p_otherwise: float) -> "FreeThrowModel":
        """Outcomes independent except immediately after a miss."""
        return cls(p_otherwise, p_otherwise, p_after_miss, name="jagged")


# The largest rate numpy's Poisson sampler takes, computed as numpy does.
_POISSON_LAM_MAX = float(np.iinfo(np.int64).max - np.sqrt(np.iinfo(np.int64).max) * 10)


@dataclass(frozen=True)
class FreeThrowSimConfig:
    """Configuration of the per-game free-throw power experiment: the
    depths ``h_range`` and the two-class jagged model are always scored."""

    h_range = (0, 1, 2, 3)  # not a field: no run scores other depths
    alphabet = FT_ALPHABET  # not a field
    tie_map = jagged_free_throw_map(FT_ALPHABET)  # not a field: scored after the depths

    model: FreeThrowModel = FreeThrowModel.jagged(0.82, 0.66)
    games: int = 91
    lam: float = 7.615
    replicates: int = 200
    seed: int = 0
    criteria: tuple[str, ...] = ("AIC", "WAIC1", "WAIC2", "LOO")
    boundary: BoundaryMode = BoundaryMode.PADDED

    def __post_init__(self):
        if not 0.0 < self.lam < math.inf:  # also false for NaN
            raise ValueError(f"the shots-per-game rate must be finite and > 0, got {self.lam}")
        if self.lam > _POISSON_LAM_MAX:
            raise ValueError(f"the shots-per-game rate must be at most {_POISSON_LAM_MAX!r}, "
                             f"numpy's Poisson limit, got {self.lam}")
        if self.games < 1:
            raise ValueError("games must be >= 1")
        _normalize_study(self, self.games, "games")


def sample_free_throw_trajectories(
    model: FreeThrowModel,
    games: int,
    lam: float,
    rng: np.random.Generator,
) -> list[Trajectory]:
    """Per-game outcome sequences with Poisson(lam) lengths; zero-shot games
    dropped. After the lengths, each shot reads the next uniform of ``rng``:
    one call draws the season's, the values that one call per shot draws,
    and leaves the stream where those calls would."""
    counts = rng.poisson(lam, size=games)
    uniforms = rng.random(int(counts.sum()))
    trajs: list[Trajectory] = []
    start = 0
    for g, n in enumerate(counts.tolist()):
        if n == 0:
            continue
        outcomes = []
        p = model.p_first
        for u in uniforms[start:start + n].tolist():
            hit = u < p
            outcomes.append(FT_HIT if hit else FT_MISS)
            p = model.p_after_hit if hit else model.p_after_miss
        start += n
        trajs.append(Trajectory._unchecked(f"g{g}", tuple(outcomes)))
    return trajs


def _free_throw_replicate(cfg: FreeThrowSimConfig, cell: int, rep: int):
    """The games of one replicated season, or None when it drew no game."""
    rng = _rng(cfg.seed, _TAG_FREE_THROW, rep)
    return sample_free_throw_trajectories(cfg.model, cfg.games, cfg.lam, rng) or None


def free_throw_power(cfg: FreeThrowSimConfig, workers: int = 1) -> PowerStudyResult:
    """Selection frequencies over replicated seasons drawn from a known model.

    Each replicate draws per-game shot counts from Poisson(lam), samples
    outcomes from the true model, and runs order selection over
    ``h_range``; a replicate that draws no game is skipped. The two-class
    jagged model is also scored per replicate, and ``jagged_win_rate``
    gives the fraction of kept replicates in which it beat both the h=0
    and the full h=1 model. The selection rows carry the model name as
    ``h_true`` and 0 as ``J``.
    """
    return _run_study(cfg, _free_throw_replicate, (0,), cfg.model.name, workers)
