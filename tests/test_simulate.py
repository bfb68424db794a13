"""Network generation, trajectory sampling and power-study machinery."""

import concurrent.futures
import functools
import math
import os
import pickle
import signal
import subprocess
import sys
import time
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from conftest import find_record
from memsel import simulate
from memsel.chain import START, BoundaryMode, StateAlphabet, Trajectory, count_transitions
from memsel.criteria import evaluate_depths
from memsel.simulate import (
    FreeThrowModel,
    FreeThrowSimConfig,
    RandomNetwork,
    SimConfig,
    free_throw_power,
    generate_network,
    run_power_study,
    sample_free_throw_trajectories,
    sample_trajectory,
    worker_count,
)


class TestNetwork:
    def test_deterministic_given_seed(self):
        a = generate_network(2, 1, seed=5)
        b = generate_network(2, 1, seed=5)
        assert set(a.rows) == set(b.rows)
        for ctx in a.rows:
            assert np.array_equal(a.rows[ctx], b.rows[ctx])
        c = generate_network(2, 1, seed=6)
        assert any(not np.array_equal(a.rows[k], c.rows[k]) for k in a.rows)

    def test_rows_match_one_draw_per_context(self):
        for m, h in ((2, 4), (8, 2)):
            net = generate_network(m, h, seed=3)
            rng = np.random.default_rng(np.random.SeedSequence((3, simulate._TAG_NETWORK, h)))
            for ctx, row in net.rows.items():
                assert np.array_equal(row, rng.dirichlet(np.ones(m))), ctx

    def test_rows_normalized(self):
        net = generate_network(8, 2, seed=0)
        # all padded contexts enumerated: 64 + 8 + 1
        assert len(net.rows) == 73
        for vec in net.rows.values():
            assert abs(vec.sum() - 1.0) < 1e-12
            assert np.all(vec >= 0.0)

    def test_flat_dirichlet_rows_are_uniform_on_average(self):
        rng = np.random.default_rng(0)
        draws = rng.dirichlet(np.ones(2), size=10_000)[:, 0]
        assert abs(draws.mean() - 0.5) < 0.015  # CLT bound for Uniform(0,1)

    def test_context_explosion_rejected(self):
        with pytest.raises(ValueError):
            generate_network(10, 9, seed=0)

    def test_pickle_rebuilds_the_walk_table(self):
        net = generate_network(8, 5, seed=0)
        data = pickle.dumps(net)
        # the instance dict, walk table included, was the whole pickle (8.15 MB
        # at M=8, h_true=5); without the table it is 4.02 MB
        assert len(data) < 0.6 * len(pickle.dumps(vars(net)))
        back = pickle.loads(data)
        assert back._walk_table == net._walk_table

        def walks(n):
            ids = [f"t{i}" for i in range(64)]
            return [tr.steps for tr in simulate._sample_walks(n, 10_000, np.random.default_rng(3), ids)]

        assert walks(back) == walks(net)


class TestSampling:
    def test_immediate_absorption_gives_length_one(self):
        ab = StateAlphabet.of_size(3)
        row = np.array([0.0, 0.0, 1.0])  # always jump to the absorbing state
        rows = {(s,): row for s in range(3)}
        rows[(-1,)] = row
        net = RandomNetwork(ab, 1, rows)
        tr = sample_trajectory(net, 100, np.random.default_rng(0))
        assert tr.steps == (2,)
        assert not tr.truncated

    def test_cycle_hits_cap_and_flags(self):
        ab = StateAlphabet.of_size(3)
        to_one = np.array([0.0, 1.0, 0.0])  # never absorb
        rows = {(s,): to_one for s in range(3)}
        rows[(-1,)] = to_one
        net = RandomNetwork(ab, 1, rows)
        tr = sample_trajectory(net, 50, np.random.default_rng(0))
        assert len(tr) == 50
        assert tr.truncated

    def test_step_frequencies_match_rows(self):
        net = generate_network(4, 1, seed=3)
        rng = np.random.default_rng(9)
        trajs = []
        total = 0
        while total < 100_000:
            tr = sample_trajectory(net, 10_000, rng, traj_id=f"t{len(trajs)}")
            trajs.append(tr)
            total += len(tr)
        tc = count_transitions(trajs, 1, net.alphabet, BoundaryMode.TRUNCATED)
        for ctx, counts in tc.total.rows.items():
            n = counts.sum()
            if n < 2_000:
                continue
            p = net.rows[ctx]
            sigma = np.sqrt(n * p * (1 - p))
            assert np.all(np.abs(counts - n * p) <= 3 * sigma + 1e-9)

    def test_cap_validation(self):
        net = generate_network(2, 1, seed=0)
        with pytest.raises(ValueError):
            sample_trajectory(net, 0, np.random.default_rng(0))

    @pytest.mark.parametrize("h", [0, 1])
    def test_uniform_past_a_short_row_steps_to_the_last_state(self, h):
        # a row summing below 1.0: a uniform at or above its sum steps to M-1
        row = np.array([0.25, 0.25, 0.375])
        assert row.sum() == 0.875
        net = RandomNetwork(StateAlphabet.of_size(3), h, dict.fromkeys(
            simulate._padded_contexts(3, h), row))
        for u in (0.875, 0.9, 1.0 - 2.0**-53):
            walk = simulate._walk(net, 10, iter([0.1, 0.3, u, 0.0]), "t")
            assert (walk.steps, walk.truncated) == ((0, 1, 2), False)

    def test_unreachable_row_rejected(self):
        row = np.array([0.5, 0.25, 0.25])
        rows = {(-1,): row, (0,): row, (1,): row}  # no row after state 2
        with pytest.raises(ValueError, match="no row"):
            RandomNetwork(StateAlphabet.of_size(3), 1, rows)

    @pytest.mark.parametrize("m, h_true, j, cap", [
        (2, 0, 1, 10_000), (2, 3, 40, 10_000), (3, 1, 17, 10_000), (4, 2, 64, 3),
        (5, 0, 100, 2), (8, 3, 256, 10_000), (8, 1, 256, 4),
    ])
    def test_walks_match_the_searchsorted_sampler(self, m, h_true, j, cap):
        net = generate_network(m, h_true, seed=m + 10 * h_true)
        ids = [f"t{i}" for i in range(j)]
        # the walks of one replicate, on uniforms drawn in blocks ...
        batch = simulate._sample_walks(net, cap, np.random.default_rng([m, h_true]), ids)
        # ... are those of repeated one-uniform-per-step calls on one stream
        rng = np.random.default_rng([m, h_true])
        assert batch == [sample_trajectory(net, cap, rng, traj_id=tid) for tid in ids]
        # ... and of the sampler as first written; both draw one uniform per step
        rng, ref_rng = np.random.default_rng(1), np.random.default_rng(1)
        for tid in ids:
            walk = sample_trajectory(net, cap, rng, traj_id=tid)
            steps = searchsorted_walk(net, cap, ref_rng)
            assert walk.steps == tuple(steps)
            assert walk.truncated == (steps[-1] != net.m - 1)
            assert rng.bit_generator.state == ref_rng.bit_generator.state
        if cap < 10:
            assert any(tr.truncated for tr in batch)
        else:  # the long batch runs across blocks
            assert j < 256 or sum(map(len, batch)) > 2 * simulate._UNIFORM_BLOCK


def searchsorted_walk(net, length_cap, rng):
    """The sampler as first written: one np.searchsorted over the context's
    cumulative row per step, on one scalar uniform, from state 0 until the
    absorbing state M-1."""
    cum = dict(zip(net.rows, np.cumsum(np.array(list(net.rows.values())), axis=1)))
    ctx = ((START,) * net.h_true + (0,))[1:]
    steps = []
    while len(steps) < length_cap:
        nxt = min(int(np.searchsorted(cum[ctx], rng.random(), side="right")), net.m - 1)
        steps.append(nxt)
        ctx = (ctx + (nxt,))[1:]
        if nxt == net.m - 1:
            break
    return steps


def test_worker_count_is_the_argument_or_one(monkeypatch):
    # no environment variable sets it: a run's count is in its argv
    monkeypatch.setenv("MEMSEL_THREADS", "3")
    assert worker_count() == 1
    assert worker_count(3) == 3
    with pytest.raises(ValueError, match="worker count must be >= 1, got 0"):
        worker_count(0)


def recording_replicate(cfg, cell, rep, directory):
    """A replicate that leaves one file per call in ``directory``; it has a
    single trajectory, so no CV2 value, and the tally rejects it."""
    (Path(directory) / f"{cell}-{rep}").touch()
    time.sleep(0.002)  # so a briefly stalled tally leaves the pool little to run
    return [Trajectory("t", (0, 1))]


def test_failed_tally_cancels_the_pending_replicates(tmp_path):
    cfg = SimpleNamespace(replicates=4000, h_range=(0,), criteria=("CV2",),
                          alphabet=StateAlphabet.of_size(2), boundary=BoundaryMode.PADDED,
                          tie_map=None)
    with pytest.raises(ValueError, match="needs at least two trajectories"):
        simulate._run_study(cfg, functools.partial(recording_replicate, directory=str(tmp_path)),
                            (0,), 0, workers=2)
    # the pool finishes the chunks of jobs it has already queued, and no more
    assert len(list(tmp_path.iterdir())) < 1000


def test_pool_tasks_carry_only_their_jobs(monkeypatch):
    # the study goes to each worker once, through the pool's initializer: a
    # task pickles its job list, never the shared network
    task_bytes = []

    class RecordingPool:
        """Runs in-process what a pool would run, and pickles each task as a pool would."""

        def __init__(self, max_workers, initializer=None, initargs=()):
            if initializer is not None:
                initializer(*initargs)

        def map(self, fn, *iterables):
            for args in zip(*iterables):
                task_bytes.append(len(pickle.dumps((fn, args))))
                yield fn(*args)

        def shutdown(self, cancel_futures=False):
            pass

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
    monkeypatch.setattr(simulate, "_WORKER_STUDY", None)  # the initializer runs in-process
    cfg = SimConfig(m=8, h_true=3, h_range=(1, 3), J_values=(2,), replicates=40,
                    criteria=("LOO",), seed=5)
    network = generate_network(cfg.m, cfg.h_true, cfg.seed)
    assert len(pickle.dumps(network)) > 30_000
    pooled = run_power_study(cfg, workers=2)
    assert len(task_bytes) == 3  # 40 replicates in chunks of 16
    assert max(task_bytes) < 1_000
    assert repr(pooled) == repr(run_power_study(cfg, workers=1))


def heap_settings_applied() -> int:
    """How many times this process set its allocator: 0 or 1."""
    return simulate._keep_heap_mapped.cache_info().currsize


@pytest.mark.parametrize("method", ["fork", "spawn"])
def test_pool_workers_keep_the_heap_mapped(heap_unset, method):
    # a library caller's process keeps its allocator; each pool worker sets its own
    import multiprocessing

    if method not in multiprocessing.get_all_start_methods():
        pytest.skip(f"no {method} start method here")
    with concurrent.futures.ProcessPoolExecutor(
            1, mp_context=multiprocessing.get_context(method),
            initializer=simulate._init_worker, initargs=(None, None)) as pool:
        assert pool.submit(heap_settings_applied).result(timeout=120) == 1
    assert heap_settings_applied() == 0


UNPICKLABLE_STUDY = """
from types import SimpleNamespace
from memsel import simulate

def main():
    def replicate(cfg, cell, rep):  # a local function cannot be pickled
        return None
    cfg = SimpleNamespace(replicates=100, h_range=(0,), criteria=("LOO",))
    simulate._run_study(cfg, replicate, (0,), 0, workers=2)

main()
"""


def test_unpicklable_replicate_fails_promptly_on_a_pool():
    # run apart, in a session of its own: a hung pool is killed with its workers
    src = str(Path(simulate.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get(
        "PYTHONPATH")]))}
    proc = subprocess.Popen([sys.executable, "-c", UNPICKLABLE_STUDY], env=env, text=True,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            start_new_session=True)
    try:
        _, err = proc.communicate(timeout=60)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        pytest.fail("the study hung on a replicate it cannot pickle")
    assert proc.returncode != 0
    assert "pickle" in err.splitlines()[-1]
    with pytest.raises(ProcessLookupError):  # no worker process outlives the study
        os.killpg(proc.pid, 0)


class TestPowerStudy:
    CFG = SimConfig(m=4, h_true=1, h_range=(1, 2), J_values=(4,), replicates=30,
                    criteria=("WAIC1", "LOO"), seed=11)

    def test_deterministic(self):
        a = run_power_study(self.CFG)
        b = run_power_study(self.CFG)
        assert a.selection == b.selection
        assert a.deltas == b.deltas

    def test_worker_count_does_not_change_results(self):
        serial = run_power_study(self.CFG, workers=1)
        parallel = run_power_study(self.CFG, workers=2)
        assert serial.selection == parallel.selection
        assert serial.deltas == parallel.deltas

    def test_frequencies_sum_to_one(self):
        res = run_power_study(self.CFG)
        for crit in self.CFG.criteria:
            total = sum(find_record(res.selection, J=4, criterion=crit, h_chosen=h)["frequency"]
                        for h in self.CFG.h_range)
            assert total == pytest.approx(1.0, abs=1e-12)

    def test_delta_zero_at_true_depth(self):
        res = run_power_study(self.CFG)
        for crit in self.CFG.criteria:
            row = find_record(res.deltas, J=4, criterion=crit, h=self.CFG.h_true)
            assert row["min"] == 0.0 and row["max"] == 0.0 and row["mean"] == 0.0

    def test_delta_requires_h_true_in_range(self):
        cfg = SimConfig(m=4, h_true=3, h_range=(1, 2), J_values=(2,), replicates=2,
                        criteria=("LOO",), seed=0)
        res = run_power_study(cfg)
        assert res.deltas == ()
        assert find_record(res.deltas, J=2, criterion="LOO", h=1) is None

    def test_network_per_replicate_changes_results(self):
        cfg = SimConfig(m=4, h_true=1, h_range=(1, 2), J_values=(4,), replicates=30,
                        criteria=("LOO",), seed=11, network_per_replicate=True)
        fresh = run_power_study(cfg)
        shared = run_power_study(self.CFG)
        assert fresh.selection != shared.selection

    def test_fresh_networks_differ_across_grid_cells(self, monkeypatch):
        # cells (j, rep) and (j + 1, rep - 101) once shared a network seed; the
        # network's stream is keyed by the cell's index, not its J
        cfg = SimConfig(m=3, h_true=1, h_range=(1,), J_values=(2, 3), replicates=102,
                        criteria=("LOO",), seed=7, network_per_replicate=True)
        nets = []
        real = simulate._sample_walks

        def spy(net, *args, **kwargs):
            nets.append(net)
            return real(net, *args, **kwargs)

        monkeypatch.setattr(simulate, "_sample_walks", spy)
        simulate._replicate_values(cfg, 0, 101)
        simulate._replicate_values(cfg, 1, 0)
        a, b = nets[0], nets[-1]
        assert any(not np.array_equal(a.rows[k], b.rows[k]) for k in a.rows)

    def test_unknown_frequency_cell_has_no_record(self):
        res = run_power_study(self.CFG)
        assert find_record(res.selection, J=4, criterion="LOO", h_chosen=9) is None
        assert find_record(res.selection, J=8, criterion="LOO", h_chosen=1) is None
        assert find_record(res.selection, J=4, criterion="AIC", h_chosen=1) is None

    def test_delta_separation_grows_with_sample_size(self):
        cfg = SimConfig(m=8, h_true=2, h_range=(1, 2), J_values=(8, 64),
                        replicates=60, criteria=("LOO",), seed=4)
        res = run_power_study(cfg)
        small = find_record(res.deltas, J=8, criterion="LOO", h=1)
        large = find_record(res.deltas, J=64, criterion="LOO", h=1)
        assert large["mean"] > small["mean"]
        assert large["frac_below_zero"] <= small["frac_below_zero"]

    def test_config_validation(self):
        with pytest.raises(ValueError):
            SimConfig(replicates=0)
        with pytest.raises(ValueError):
            SimConfig(h_range=())
        with pytest.raises(ValueError, match="unknown criterion 'BOGUS'"):
            SimConfig(criteria=("BOGUS",))
        # a repeated name would be tallied twice
        with pytest.raises(ValueError, match="criterion 'LOO' is named twice"):
            SimConfig(criteria=("LOO", "AIC", "LOO"))
        with pytest.raises(ValueError):
            SimConfig(criteria=("CV2",), J_values=(1,))
        # a repeated J would run its cell twice under one label
        with pytest.raises(ValueError, match="J value 4 is named twice"):
            SimConfig(J_values=(4, 16, 4))
        with pytest.raises(ValueError, match="true memory depth must be >= 0"):
            SimConfig(h_true=-1)
        # no criterion would sample and count every replicate for no output
        with pytest.raises(ValueError, match="name at least one criterion"):
            SimConfig(m=3, h_range=(1, 2), J_values=(4,), replicates=2, criteria=())


class TestFreeThrow:
    def test_model_constructors(self):
        h0 = FreeThrowModel.independent(0.7)
        assert h0.p_first == h0.p_after_hit == h0.p_after_miss == 0.7
        jag = FreeThrowModel.jagged(0.82, 0.66)
        assert jag.p_after_miss == 0.82 and jag.p_first == jag.p_after_hit == 0.66
        with pytest.raises(ValueError):
            FreeThrowModel.independent(1.0)

    def test_zero_shot_games_dropped(self):
        rng = np.random.default_rng(0)
        trajs = sample_free_throw_trajectories(
            FreeThrowModel.independent(0.5), games=400, lam=0.5, rng=rng)
        assert 0 < len(trajs) < 400
        assert all(len(t) >= 1 for t in trajs)

    def test_hit_rate_matches_model(self):
        rng = np.random.default_rng(1)
        trajs = sample_free_throw_trajectories(
            FreeThrowModel.independent(0.68), games=2_000, lam=8.0, rng=rng)
        hits = sum(sum(t.steps) for t in trajs)
        shots = sum(len(t) for t in trajs)
        assert abs(hits / shots - 0.68) < 3 * np.sqrt(0.68 * 0.32 / shots)

    def test_memoryless_truth_selects_h0_majority(self):
        cfg = FreeThrowSimConfig(
            model=FreeThrowModel.independent(0.68), games=91, lam=7.615,
            replicates=100, seed=0, criteria=("LOO",))
        res = free_throw_power(cfg)
        assert find_record(res.selection, J=0, criterion="LOO", h_chosen=0)["frequency"] > 0.5
        assert 0.0 <= res.jagged_win_rate["LOO"] <= 1.0

    def test_markov_truth_underpowered_at_season_scale(self):
        # a plausibly sized after-miss bump is found only sometimes at ~700
        # shots: the chosen-h=1 rate sits below a coin flip but well above 0
        cfg = FreeThrowSimConfig(
            model=FreeThrowModel(0.66, 0.66, 0.73), games=91, lam=7.615,
            replicates=150, seed=0, criteria=("LOO",))
        res = free_throw_power(cfg)
        freq_h1 = find_record(res.selection, J=0, criterion="LOO", h_chosen=1)["frequency"]
        assert 0.30 <= freq_h1 <= 0.55

    def test_config_validation(self):
        model = FreeThrowModel.independent(0.5)
        for lam in (0.0, -1.0, math.nan, math.inf):
            with pytest.raises(ValueError, match="rate must be finite and > 0"):
                FreeThrowSimConfig(model=model, lam=lam)
        with pytest.raises(ValueError, match="unknown criterion 'NOPE'"):
            FreeThrowSimConfig(model=model, criteria=("NOPE",))
        with pytest.raises(ValueError, match="criterion 'AIC' is named twice"):
            FreeThrowSimConfig(model=model, criteria=("AIC", "AIC"))
        with pytest.raises(ValueError, match="CV2"):
            FreeThrowSimConfig(model=model, games=1, criteria=("LOO", "CV2"))
        with pytest.raises(ValueError, match="name at least one criterion"):
            FreeThrowSimConfig(model=model, criteria=())

    def test_rate_is_bounded_by_numpys_poisson_limit(self):
        limit = simulate._POISSON_LAM_MAX
        assert limit == 9.223372006484771e18
        rng = np.random.default_rng(0)
        rng.poisson(limit)  # numpy takes the limit itself
        FreeThrowSimConfig(lam=limit)
        above = float(np.nextafter(limit, np.inf))
        with pytest.raises(ValueError, match="lam value too large"):
            rng.poisson(above)
        for lam in (above, 1e300):
            with pytest.raises(ValueError, match="at most 9.223372006484771e\\+18"):
                FreeThrowSimConfig(lam=lam)

    def test_worker_count_does_not_change_results(self):
        # seed 2 draws 5 seasons with no game among its 24 replicates
        cfg = FreeThrowSimConfig(
            model=FreeThrowModel.jagged(0.82, 0.66), games=4, lam=0.6,
            replicates=24, seed=2, criteria=("AIC", "LOO"))
        serial = free_throw_power(cfg, workers=1)
        assert serial == free_throw_power(cfg, workers=2)
        assert serial.jagged_win_rate is not None

    def test_cv2_replicate_with_one_game_raises(self):
        # two games at a low shot rate: some replicates keep only one game
        cfg = FreeThrowSimConfig(
            model=FreeThrowModel.independent(0.7), games=2, lam=0.3,
            replicates=50, seed=0, criteria=("CV2",))
        with pytest.raises(ValueError, match="CV2.*at least two trajectories"):
            free_throw_power(cfg)

    def test_seasons_without_a_game_raise(self):
        # a rate this low draws no shot in any game of any season
        cfg = FreeThrowSimConfig(games=3, lam=1e-12, replicates=4, criteria=("LOO",))
        with pytest.raises(ValueError) as info:
            free_throw_power(cfg)
        assert str(info.value) == "every replicate drew zero games; increase lam or games"


class TestChunkedScoring:
    """Consecutive replicates are counted and scored together, _CHUNK at a
    time; every result equals scoring each replicate alone, on any worker
    count."""

    @pytest.mark.parametrize("cfg", [
        # 37 replicates: the last chunk is short
        SimConfig(m=4, h_true=1, h_range=(1, 2, 3), J_values=(4,), replicates=37, seed=3),
        # 10 replicates per J: the first chunk spans both cells
        SimConfig(m=3, h_true=1, h_range=(0, 1, 2), J_values=(3, 5), replicates=10, seed=4),
        # h = 0 next to deeper models, over two cells
        SimConfig(m=4, h_true=1, h_range=(0, 1, 2, 3), J_values=(2, 5), replicates=21, seed=6),
        # truncated counting
        SimConfig(m=3, h_true=2, h_range=(1, 2, 3), J_values=(4,), replicates=18, seed=2,
                  boundary="truncated"),
        # the free-throw study, with its tied model
        FreeThrowSimConfig(games=6, lam=3.0, replicates=20, seed=5),
        # the first chunk walks 32,250 steps: its counting ranks them in one pass
        SimConfig(m=8, h_true=1, h_range=(1, 2, 3), J_values=(256,), replicates=17, seed=4),
    ])
    def test_chunks_score_like_single_replicates(self, cfg, monkeypatch):
        assert cfg.replicates % simulate._CHUNK
        grid = isinstance(cfg, SimConfig)
        study = run_power_study if grid else free_throw_power
        chunked = repr(study(cfg))
        assert repr(study(cfg, workers=2)) == chunked
        passes = []
        real = simulate._depth_models

        def spy(sets, *args, **kwargs):
            passes.append(len(sets))
            return real(sets, *args, **kwargs)

        monkeypatch.setattr(simulate, "_depth_models", spy)  # serial runs only
        n_jobs = (len(cfg.J_values) if grid else 1) * cfg.replicates
        for chunk in (simulate._CHUNK, 1):
            monkeypatch.setattr(simulate, "_CHUNK", chunk)
            passes.clear()
            assert repr(study(cfg)) == chunked, chunk
            # every replicate is kept: one pass per chunk, holding all its jobs
            assert passes == [min(chunk, n_jobs - i) for i in range(0, n_jobs, chunk)], chunk

    def test_chunk_reports_equal_each_replicate_evaluated_alone(self):
        cfg = SimConfig(m=3, h_true=1, h_range=(0, 1, 2), J_values=(3, 5), replicates=3, seed=4)
        net = generate_network(cfg.m, cfg.h_true, cfg.seed)
        jobs = [(0, 1), (0, 2), (1, 0), (1, 1)]  # spans both cells
        replicate = functools.partial(simulate._replicate_values, net=net)
        flags, values, truncated = simulate._run_chunk(cfg, replicate, jobs)
        assert flags == [True] * len(jobs)
        assert values.shape[:2] == (len(jobs), len(cfg.h_range))
        want_truncated = 0
        for (cell, rep), rows in zip(jobs, values.tolist(), strict=True):
            rng = simulate._rng(cfg.seed, simulate._TAG_TRAJECTORIES, cell, rep)
            ids = [f"r{rep}t{i}" for i in range(cfg.J_values[cell])]
            trajs = simulate._sample_walks(net, cfg.length_cap, rng, ids)
            reports = evaluate_depths(trajs, net.alphabet, cfg.h_range, mode=cfg.boundary,
                                      which=cfg.criteria)
            assert [dict(zip(r.values, row)) for r, row in zip(reports, rows)] == \
                [r.values for r in reports]
            want_truncated += sum(tr.truncated for tr in trajs)
        assert truncated == want_truncated

    def test_free_throw_chunk_with_empty_seasons(self, monkeypatch):
        cfg = FreeThrowSimConfig(games=2, lam=0.3, replicates=40, seed=2)
        chunked = free_throw_power(cfg)
        assert repr(free_throw_power(cfg, workers=2)) == repr(chunked)
        empty = []
        real = simulate._free_throw_replicate

        def spy(*args):
            result = real(*args)
            empty.append(result is None)
            return result

        monkeypatch.setattr(simulate, "_free_throw_replicate", spy)  # serial runs only
        assert repr(free_throw_power(cfg)) == repr(chunked)
        # the first chunk holds both empty and kept seasons
        assert any(empty[:simulate._CHUNK]) and not all(empty[:simulate._CHUNK])
        monkeypatch.setattr(simulate, "_CHUNK", 1)
        assert repr(free_throw_power(cfg)) == repr(chunked)

    def test_chunk_of_empty_seasons_only(self):
        results = simulate._run_chunk(SimpleNamespace(criteria=("LOO",)),
                                      lambda cfg, cell, rep: None, [(0, 0), (0, 1)])
        assert results == ([False, False], None, 0)

    @pytest.mark.parametrize("kept", [1, 37, 200, 10_000])
    def test_gap_summary_equals_the_per_record_form(self, kept):
        # past 8 values numpy sums pairwise; each (criterion, depth) row must
        # sum like its gaps alone
        rng = np.random.default_rng(kept)
        values = (rng.normal(size=(kept, 3, 5)) * 100.0).tolist()
        ref = 1
        summary = simulate._gap_summary(values, ref)
        assert len(summary) == 3
        for c, per_depth in enumerate(summary):
            assert len(per_depth) == 5
            for h, stats in enumerate(per_depth):
                arr = np.asarray([v[c][h] - v[c][ref] for v in values])
                want = (arr.min(), arr.max(), arr.mean(), np.mean(arr < 0.0))
                assert [float.hex(x) for x in stats] == [float.hex(float(x)) for x in want], (c, h)
