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
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

import numpy as np

from .chain import (
    START,
    BoundaryMode,
    StateAlphabet,
    Trajectory,
)
from .criteria import CRITERIA, argmin, evaluate_depths
from .tying import jagged_free_throw_map

__all__ = [
    "RandomNetwork",
    "SimConfig",
    "FreeThrowModel",
    "FreeThrowSimConfig",
    "SelectionRow",
    "SelectionFrequencyTable",
    "DeltaRow",
    "DeltaTable",
    "PowerStudyResult",
    "FreeThrowPowerResult",
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


def _rng(seed: int, *key: int) -> np.random.Generator:
    entropy = (int(seed) & 0xFFFFFFFFFFFFFFFF,) + tuple(int(k) for k in key)
    return np.random.default_rng(np.random.SeedSequence(entropy))


def worker_count() -> int:
    """Worker cap from MEMSEL_THREADS (default 1, i.e. serial)."""
    raw = os.environ.get("MEMSEL_THREADS", "")
    try:
        return max(1, int(raw))
    except ValueError:
        return 1


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
    start_state: int
    absorbing_state: int

    def __post_init__(self):
        cum = np.cumsum(np.array(list(self.rows.values()), dtype=float), axis=1)
        object.__setattr__(self, "_cum", dict(zip(self.rows, cum)))

    @property
    def m(self) -> int:
        return self.alphabet.size


def _padded_contexts(m: int, h: int):
    """All contexts of length h whose START tokens form a contiguous prefix."""
    for n_start in range(h, -1, -1):
        prefix = (START,) * n_start
        for suffix in itertools.product(range(m), repeat=h - n_start):
            yield prefix + suffix


def generate_network(m: int, h_true: int, seed: int) -> RandomNetwork:
    """Draw one row per depth-h context from a flat Dirichlet, deterministically."""
    return _draw_network(m, h_true, _rng(seed, _TAG_NETWORK, h_true))


def _draw_network(m: int, h_true: int, rng: np.random.Generator) -> RandomNetwork:
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
    ones = np.ones(m)
    rows = {ctx: rng.dirichlet(ones) for ctx in _padded_contexts(m, h_true)}
    return RandomNetwork(alphabet, h_true, rows, start_state=0, absorbing_state=m - 1)


def sample_trajectory(
    net: RandomNetwork,
    length_cap: int,
    rng: np.random.Generator,
    traj_id: str = "traj",
) -> Trajectory:
    """Walk from the start state until absorption or the length cap.

    The recorded steps are the states visited after the (fixed) start
    state; histories shorter than h are padded with START and then the
    start state itself, matching the contexts the network carries.
    """
    if length_cap < 1:
        raise ValueError("length cap must be >= 1")
    ctx = ((START,) * net.h_true + (net.start_state,))[1:]  # START..START, start state
    steps: list[int] = []
    cum = net._cum
    while len(steps) < length_cap:
        nxt = int(np.searchsorted(cum[ctx], rng.random(), side="right"))
        nxt = min(nxt, net.m - 1)
        steps.append(nxt)
        ctx = (ctx + (nxt,))[1:]
        if nxt == net.absorbing_state:
            break
    truncated = steps[-1] != net.absorbing_state
    return Trajectory(traj_id, tuple(steps), truncated=truncated)


# ---------------------------------------------------------------------------
# Grid study over (J, replicate)


@dataclass(frozen=True)
class SimConfig:
    """Configuration of a power study over one true memory depth."""

    m: int = 8
    h_true: int = 1
    h_range: tuple[int, ...] = (1, 2, 3, 4, 5)
    J_values: tuple[int, ...] = (4,)
    replicates: int = 100
    length_cap: int = 10_000
    seed: int = 0
    criteria: tuple[str, ...] = CRITERIA
    boundary: BoundaryMode = BoundaryMode.PADDED
    network_per_replicate: bool = False

    def __post_init__(self):
        object.__setattr__(self, "h_range", tuple(sorted({int(h) for h in self.h_range})))
        object.__setattr__(self, "J_values", tuple(int(j) for j in self.J_values))
        object.__setattr__(self, "criteria", tuple(self.criteria))
        object.__setattr__(self, "boundary", BoundaryMode(self.boundary))
        if self.replicates < 1:
            raise ValueError("replicates must be >= 1")
        if self.length_cap < 1:
            raise ValueError("length cap must be >= 1")
        if not self.h_range:
            raise ValueError("h_range must be non-empty")
        if not self.J_values or min(self.J_values) < 1:
            raise ValueError("J values must be positive")
        for name in self.criteria:
            if name not in CRITERIA:
                raise ValueError(f"unknown criterion {name!r}")
        if "CV2" in self.criteria and min(self.J_values) < 2:
            raise ValueError("the CV2 criterion needs J >= 2")


@dataclass(frozen=True)
class SelectionRow:
    h_true: object
    J: int
    criterion: str
    h_chosen: int
    frequency: float


@dataclass(frozen=True)
class SelectionFrequencyTable:
    rows: tuple[SelectionRow, ...]

    def frequency(self, J: int, criterion: str, h: int) -> float:
        for r in self.rows:
            if r.J == J and r.criterion == criterion and r.h_chosen == h:
                return r.frequency
        raise KeyError((J, criterion, h))

    def to_records(self) -> list[dict]:
        return [
            {"h_true": r.h_true, "J": r.J, "criterion": r.criterion,
             "h_chosen": r.h_chosen, "frequency": r.frequency}
            for r in self.rows
        ]


@dataclass(frozen=True)
class DeltaRow:
    h_true: int
    J: int
    criterion: str
    h: int
    min: float
    max: float
    mean: float
    frac_below_zero: float


@dataclass(frozen=True)
class DeltaTable:
    rows: tuple[DeltaRow, ...]

    def row(self, J: int, criterion: str, h: int) -> DeltaRow:
        for r in self.rows:
            if r.J == J and r.criterion == criterion and r.h == h:
                return r
        raise KeyError((J, criterion, h))

    def to_records(self) -> list[dict]:
        return [
            {"h_true": r.h_true, "J": r.J, "criterion": r.criterion, "h": r.h,
             "min": r.min, "max": r.max, "mean": r.mean,
             "frac_below_zero": r.frac_below_zero}
            for r in self.rows
        ]


@dataclass(frozen=True)
class PowerStudyResult:
    config: SimConfig
    selection: SelectionFrequencyTable
    deltas: DeltaTable
    truncated_walks: int = 0  # sampled walks that the length cap cut before absorption


def _replicate_values(cfg: SimConfig, net: RandomNetwork, j_index: int, rep: int):
    """Criterion reports per h for one freshly sampled batch of trajectories,
    and how many of its walks the length cap cut."""
    if net is None:
        net = _draw_network(cfg.m, cfg.h_true, _rng(cfg.seed, _TAG_NETWORK, j_index, rep))
    rng = _rng(cfg.seed, _TAG_TRAJECTORIES, j_index, rep)
    j = cfg.J_values[j_index]
    trajs = [
        sample_trajectory(net, cfg.length_cap, rng, traj_id=f"r{rep}t{i}")
        for i in range(j)
    ]
    reports = evaluate_depths(trajs, net.alphabet, cfg.h_range, mode=cfg.boundary,
                              which=cfg.criteria)
    return reports, sum(tr.truncated for tr in trajs)


def _replicate_job(args):
    cfg, net, j_index, rep = args
    return _replicate_values(cfg, net, j_index, rep)


def run_power_study(cfg: SimConfig, workers: int | None = None) -> PowerStudyResult:
    """Selection frequencies and criterion gaps over the (J, replicate) grid.

    By default one network per true depth is drawn from the seed and
    reused for every batch; ``network_per_replicate`` draws a fresh one
    per replicate instead. Results are byte-stable for a fixed config.
    ``truncated_walks`` counts the walks that hit ``length_cap`` before
    absorption, over the whole grid.
    """
    workers = worker_count() if workers is None else max(1, int(workers))
    shared_net = None
    if not cfg.network_per_replicate:
        shared_net = generate_network(cfg.m, cfg.h_true, cfg.seed)

    jobs = [
        (cfg, shared_net, j_index, rep)
        for j_index in range(len(cfg.J_values))
        for rep in range(cfg.replicates)
    ]
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(_replicate_job, jobs, chunksize=8))
    else:
        results = [_replicate_job(job) for job in jobs]

    sel_rows: list[SelectionRow] = []
    delta_rows: list[DeltaRow] = []
    track_delta = cfg.h_true in cfg.h_range
    for j_index, j in enumerate(cfg.J_values):
        block = results[j_index * cfg.replicates:(j_index + 1) * cfg.replicates]
        chosen_counts = {c: {h: 0 for h in cfg.h_range} for c in cfg.criteria}
        deltas = {(c, h): [] for c in cfg.criteria for h in cfg.h_range}
        for reports, _ in block:
            for c in cfg.criteria:
                chosen_counts[c][argmin(reports, c).h] += 1
                if track_delta:
                    ref = reports[cfg.h_range.index(cfg.h_true)].value(c)
                    for r in reports:
                        deltas[(c, r.h)].append(r.value(c) - ref)
        for c in cfg.criteria:
            for h in cfg.h_range:
                sel_rows.append(SelectionRow(
                    cfg.h_true, j, c, h, chosen_counts[c][h] / cfg.replicates))
            if track_delta:
                for h in cfg.h_range:
                    arr = np.asarray(deltas[(c, h)])
                    delta_rows.append(DeltaRow(
                        cfg.h_true, j, c, h,
                        float(arr.min()), float(arr.max()), float(arr.mean()),
                        float(np.mean(arr < 0.0)),
                    ))
    return PowerStudyResult(cfg, SelectionFrequencyTable(tuple(sel_rows)),
                            DeltaTable(tuple(delta_rows)),
                            truncated_walks=sum(n for _, n in results))


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


@dataclass(frozen=True)
class FreeThrowSimConfig:
    """Configuration of the per-game free-throw power experiment."""

    model: FreeThrowModel
    games: int = 91
    lam: float = 7.615
    replicates: int = 300
    seed: int = 0
    h_range: tuple[int, ...] = (0, 1, 2, 3)
    criteria: tuple[str, ...] = ("AIC", "WAIC1", "WAIC2", "LOO")
    boundary: BoundaryMode = BoundaryMode.PADDED
    include_jagged: bool = True

    def __post_init__(self):
        object.__setattr__(self, "h_range", tuple(sorted({int(h) for h in self.h_range})))
        object.__setattr__(self, "criteria", tuple(self.criteria))
        object.__setattr__(self, "boundary", BoundaryMode(self.boundary))
        if self.lam <= 0.0:
            raise ValueError("the shots-per-game rate must be > 0")
        if self.games < 1 or self.replicates < 1:
            raise ValueError("games and replicates must be >= 1")
        for name in self.criteria:
            if name not in CRITERIA:
                raise ValueError(f"unknown criterion {name!r}")
        if "CV2" in self.criteria and self.games < 2:
            raise ValueError("the CV2 criterion needs games >= 2")
        if self.include_jagged and not {0, 1} <= set(self.h_range):
            raise ValueError("the jagged comparison needs h=0 and h=1 in h_range")


@dataclass(frozen=True)
class FreeThrowPowerResult:
    config: FreeThrowSimConfig
    selection: SelectionFrequencyTable
    # fraction of replicates where the jagged model beat both h=0 and the
    # full h=1 model, per criterion; None when include_jagged was off
    jagged_win_rate: dict | None


def sample_free_throw_trajectories(
    model: FreeThrowModel,
    games: int,
    lam: float,
    rng: np.random.Generator,
    id_prefix: str = "g",
) -> list[Trajectory]:
    """Per-game outcome sequences with Poisson(lam) lengths; zero-shot games dropped."""
    counts = rng.poisson(lam, size=games)
    trajs: list[Trajectory] = []
    for g, n in enumerate(counts):
        n = int(n)
        if n == 0:
            continue
        outcomes = []
        p = model.p_first
        for _ in range(n):
            hit = rng.random() < p
            outcomes.append(FT_HIT if hit else FT_MISS)
            p = model.p_after_hit if hit else model.p_after_miss
        trajs.append(Trajectory(f"{id_prefix}{g}", tuple(outcomes)))
    return trajs


def free_throw_power(cfg: FreeThrowSimConfig) -> FreeThrowPowerResult:
    """Selection frequencies over replicated seasons drawn from a known model.

    Each replicate draws per-game shot counts from Poisson(lam), samples
    outcomes from the true model, and runs order selection over
    ``h_range``. When ``include_jagged`` is on, the two-class jagged model
    is also scored per replicate and its wins against both the h=0 and
    full h=1 models are tabulated.
    """
    jagged_map = jagged_free_throw_map(FT_ALPHABET, cfg.boundary) if cfg.include_jagged else None
    chosen_counts = {c: {h: 0 for h in cfg.h_range} for c in cfg.criteria}
    jagged_wins = {c: 0 for c in cfg.criteria}
    effective = 0
    for rep in range(cfg.replicates):
        rng = _rng(cfg.seed, _TAG_FREE_THROW, rep)
        trajs = sample_free_throw_trajectories(cfg.model, cfg.games, cfg.lam, rng)
        if not trajs:
            continue
        effective += 1
        reports = evaluate_depths(trajs, FT_ALPHABET, cfg.h_range, mode=cfg.boundary,
                                  which=cfg.criteria, tie_map=jagged_map)
        depths = reports[:len(cfg.h_range)]
        for c in cfg.criteria:
            chosen_counts[c][argmin(depths, c).h] += 1
        if jagged_map is not None:
            # the jagged model wins only when strictly below both h=0 and
            # h=1: it sorts after them on ties
            h0, h1, jagged = depths[0], depths[1], reports[-1]
            for c in cfg.criteria:
                if argmin((h0, h1, jagged), c) is jagged:
                    jagged_wins[c] += 1
    if effective == 0:
        raise ValueError("every replicate drew zero games; increase lam or games")
    rows = tuple(
        SelectionRow(cfg.model.name, 0, c, h, chosen_counts[c][h] / effective)
        for c in cfg.criteria
        for h in cfg.h_range
    )
    win_rate = None
    if cfg.include_jagged:
        win_rate = {c: jagged_wins[c] / effective for c in cfg.criteria}
    return FreeThrowPowerResult(cfg, SelectionFrequencyTable(rows), win_rate)
