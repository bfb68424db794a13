#!/usr/bin/env python3
"""memsel benchmark: whole commands timed against a frozen seed copy, layers traced.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload power_grid --seed 1 --seconds 30 --trace 0

Workloads are in ``workloads.py`` (why each exists: README.md). With
``--trace 0`` the run times each operation on the program (in this
process) and on the frozen copy of memsel in ``seed/`` (in a worker
process), back to back on one CPU, and reports the end-to-end metrics
as ratios to the seed copy, which cancels the host's speed drift
(README.md, "Host speed"). With ``--trace 1`` it runs the same
operations untraced and then traced, and reports the per-layer metrics.
Every operation's outputs are checked against the outputs recorded in
``reference/``. The last line of standard output is the result object;
the full record (environment, input digests, every operation) goes to
``.perfbench_work/results/``.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

import probe
import tracer
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SEED = HERE / "seed"
WORK = ROOT / ".perfbench_work"
SETUP_REPEATS = 10  # pairs
HASH_SEED = "0"
SETUP_CODE = "import memsel.cli; memsel.cli.build_parser()"
# Median set-up time of the seed copy on the host the benchmark was
# written on (README.md, "Baseline"); setup_s is the program's set-up
# time at that host speed (README.md, "Host speed").
SEED_SETUP_S = 0.25

SPECFUN = ("log_gamma", "log_multivariate_beta", "digamma", "trigamma")
CRITERIA_FNS = ("criterion_values", "evaluate", "lppd_cv2", "predictive_log_density")
ORACLE_FNS = ("mc_lpd", "mc_lppd", "mc_loo", "mc_cv2", "mc_variance_loglik")
DATAIO_FNS = ("read_trajectories_jsonl", "load_tie_map", "write_reports",
              "write_selection_csv", "write_delta_csv", "file_digest")


class BenchError(Exception):
    """The benchmark itself cannot run (as opposed to an operation failing)."""


def _import_program():
    if not (SRC / "memsel" / "__init__.py").is_file():
        raise BenchError(f"no memsel package under {SRC}")
    os.environ.pop("MEMSEL_THREADS", None)  # the program's default worker count
    sys.path.insert(0, str(SRC))
    import memsel

    if Path(memsel.__file__).resolve().parent != (SRC / "memsel").resolve():
        raise BenchError(f"memsel was imported from {memsel.__file__}, not {SRC}")
    from memsel import cli, simulate

    return cli, simulate


def _environment(worker_count: int) -> dict:
    cpu = None
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    commit = None
    if (ROOT / ".git").exists():
        with contextlib.suppress(OSError, subprocess.SubprocessError):
            commit = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                                    capture_output=True, text=True, timeout=30).stdout.strip()
    return {"nproc": os.cpu_count(), "cpu_model": cpu, "python": platform.python_version(),
            "numpy": np.__version__, "workers": worker_count, "git_commit": commit or None}


def _setup_once(src: Path) -> float:
    env = {k: v for k, v in os.environ.items() if k != "MEMSEL_THREADS"}
    env["PYTHONPATH"] = str(src)
    t0 = time.perf_counter()
    proc = subprocess.run([sys.executable, "-c", SETUP_CODE], cwd=ROOT, env=env,
                          capture_output=True, timeout=60)
    seconds = time.perf_counter() - t0
    if proc.returncode != 0:
        raise BenchError(f"set-up interpreter failed: {proc.stderr.decode()[-500:]}")
    return seconds


def measure_setup() -> tuple[list[float], list[float]]:
    """Fresh-interpreter set-up times (import memsel, build the parser), in pairs.

    Each pair times the program and the seed copy back to back, in
    alternating order; returns (program times, seed times).
    """
    prog, seed = [], []
    for k in range(SETUP_REPEATS):
        if k % 2:
            seed.append(_setup_once(SEED))
            prog.append(_setup_once(SRC))
        else:
            prog.append(_setup_once(SRC))
            seed.append(_setup_once(SEED))
    return prog, seed


def pin_to_one_cpu() -> None:
    """Keep this process and every process it starts on one CPU.

    The program and the seed copy then take turns on the same CPU, so
    a change in that CPU's speed (other tenants of a shared host) hits
    both sides of a pair alike and cancels in their ratio.
    """
    with contextlib.suppress(AttributeError, OSError):
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


class SeedWorker:
    """The frozen seed copy of memsel, running in a worker process (seed_worker.py)."""

    def __enter__(self):
        env = {k: v for k, v in os.environ.items() if k not in ("MEMSEL_THREADS", "PYTHONPATH")}
        self.proc = subprocess.Popen([sys.executable, str(HERE / "seed_worker.py")], cwd=ROOT,
                                     env=env, stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                                     text=True)
        return self

    def call(self, argv) -> tuple[int, float, str]:
        try:
            self.proc.stdin.write(json.dumps({"argv": [str(a) for a in argv]}) + "\n")
            self.proc.stdin.flush()
        except BrokenPipeError:
            pass  # the worker has ended; readline() below reports it
        line = self.proc.stdout.readline()
        if not line:
            raise BenchError(f"seed worker ended with exit code {self.proc.wait()}")
        reply = json.loads(line)
        return reply["rc"], reply["seconds"], reply["text"]

    def __exit__(self, *exc):
        with contextlib.suppress(BrokenPipeError):
            self.proc.stdin.close()
        try:
            self.proc.wait(timeout=60)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()


def _outputs(out_dir: Path) -> dict[str, bytes]:
    """Every output file except manifest.json, which carries a timestamp."""
    return {p.name: p.read_bytes() for p in sorted(out_dir.iterdir())
            if p.is_file() and p.name != "manifest.json"}


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


class Runner:
    def __init__(self, workload, seed: int, cli, work_dir: Path, reference: dict):
        self.wl = workload
        self.cli = cli
        self.work_dir = work_dir
        self.reference = reference
        self.order = [int(e) for e in np.random.default_rng(seed).permutation(len(reference))]
        self.inputs: dict[int, dict] = {}
        self.digests: dict[str, dict] = {}
        self.ops: list[dict] = []
        self.n_out = 0
        self.keep_outputs = False
        self.extra: dict = {}

    def entry(self, k: int) -> int:
        return self.order[k % len(self.order)]

    def inputs_for(self, entry: int) -> dict:
        if entry not in self.inputs:
            inputs = self.wl.prepare(entry, self.work_dir / f"in{entry}")
            self.digests[str(entry)] = {k: sha256(p) for k, p in inputs["files"].items()}
            self.inputs[entry] = inputs
        return self.inputs[entry]

    def _out_dir(self) -> Path:
        self.n_out += 1
        return self.work_dir / f"out{self.n_out}"

    def call(self, argv) -> tuple[int, float, str]:
        buf = io.StringIO()
        t0 = time.perf_counter()
        try:
            with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(buf):
                rc = self.cli.main(argv)
        except (Exception, SystemExit) as exc:  # an operation failure, counted below
            return -1, time.perf_counter() - t0, f"{type(exc).__name__}: {exc}"
        return rc, time.perf_counter() - t0, buf.getvalue()[-300:]

    def warmup(self, seed: SeedWorker | None = None) -> None:
        inputs = self.inputs_for(self.entry(0))
        for call in (self.call,) if seed is None else (self.call, seed.call):
            out = self._out_dir()
            rc, _, text = call(self.wl.warmup_argv(inputs, out))
            if rc != 0:
                raise BenchError(f"warm-up call failed ({rc}): {text}")
            shutil.rmtree(out, ignore_errors=True)

    def op(self, k: int, phase: str, spans=None) -> dict:
        entry = self.entry(k)
        inputs = self.inputs_for(entry)
        out = self._out_dir()
        if spans is not None:
            spans.op = len(self.ops)
        rc, seconds, text = self.call(self.wl.argv(entry, inputs, out))
        rec = {"phase": phase, "entry": entry, "seconds": seconds, "rc": rc, "error": None}
        if rc != 0:
            rec["error"] = f"exit code {rc}: {text}"
        else:
            try:
                rec["error"] = self.wl.check(out, self.reference[str(entry)])
                rec["work"] = self.wl.work(inputs, out)
                if self.keep_outputs:
                    rec["outputs"] = _outputs(out)
            except (OSError, ValueError, KeyError) as exc:
                rec["error"] = f"unreadable outputs: {type(exc).__name__}: {exc}"
        shutil.rmtree(out, ignore_errors=True)
        self.ops.append(rec)
        return rec

    def seed_op(self, k: int, seed: SeedWorker) -> float:
        """Time the seed copy on operation k's entry; its outputs must match too."""
        entry = self.entry(k)
        inputs = self.inputs_for(entry)
        out = self._out_dir()
        rc, seconds, text = seed.call(self.wl.argv(entry, inputs, out))
        try:
            why = (f"exit code {rc}: {text}" if rc != 0
                   else self.wl.check(out, self.reference[str(entry)]))
        except (OSError, ValueError, KeyError) as exc:
            why = f"unreadable outputs: {type(exc).__name__}: {exc}"
        shutil.rmtree(out, ignore_errors=True)
        if why:
            raise BenchError(f"seed copy failed on entry {entry}: {why}")
        return seconds

    def pair(self, k: int, seed: SeedWorker) -> dict:
        """Operation k on the program and on the seed copy, back to back.

        The order alternates, so a steady drift in host speed favours
        neither side.
        """
        if k % 2:
            seed_seconds = self.seed_op(k, seed)
            rec = self.op(k, "untraced")
        else:
            rec = self.op(k, "untraced")
            seed_seconds = self.seed_op(k, seed)
        rec["seed_seconds"] = seed_seconds
        return rec

    def loop(self, budget: float, step, limit: int | None = None) -> list[dict]:
        """Run ``step(k)`` until the next one would end after ``budget`` seconds (>= 1 step)."""
        done: list[dict] = []
        took: list[float] = []
        t0 = time.perf_counter()
        while limit is None or len(done) < limit:
            if took and time.perf_counter() - t0 + statistics.median(took) > budget:
                break
            t1 = time.perf_counter()
            done.append(step(len(done)))
            took.append(time.perf_counter() - t1)
        return done


def _rate(ops: list[dict], key: str = "seconds") -> float:
    rates = [r["work"] / r[key] for r in ops if r["error"] is None]
    return statistics.median(rates) if rates else 0.0


def end_to_end(runner: Runner, seconds: float) -> dict:
    """Program against the seed copy, in pairs; the host's speed cancels in each ratio."""
    with SeedWorker() as seed:
        setup_prog, setup_seed = measure_setup()
        runner.warmup(seed)
        ops = runner.loop(seconds, lambda k: runner.pair(k, seed))
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    ratios = [r["seed_seconds"] / r["seconds"] for r in ops if r["error"] is None]
    setup_ratio = statistics.median(p / s for p, s in zip(setup_prog, setup_seed))
    # Raw rates and times, for the record only: they drift with the host.
    runner.extra = {
        "work_per_s": _rate(ops), "seed_work_per_s": _rate(ops, "seed_seconds"),
        "setup_raw_s": statistics.median(setup_prog),
        "seed_setup_raw_s": statistics.median(setup_seed),
    }
    return {
        "speed_vs_seed": {"value": statistics.median(ratios) if ratios else 0.0, "unit": "x"},
        "setup_s": {"value": SEED_SETUP_S * setup_ratio, "unit": "s"},
        "peak_rss_mb": {"value": peak, "unit": "MB"},
    }


def per_layer(runner: Runner, seconds: float, seed: int, spans_path: Path) -> dict:
    runner.keep_outputs = True
    runner.warmup()
    plain = runner.loop(seconds / 2, lambda k: runner.op(k, "untraced"))
    spans = tracer.Tracer()
    spans.install()
    cpu0 = os.times()
    try:
        traced = runner.loop(seconds / 2, lambda k: runner.op(k, "traced", spans),
                             limit=len(plain))
    finally:
        spans.uninstall()
    cpu1 = os.times()
    spans.write(spans_path)
    for a, b in zip(plain, traced):
        if a["error"] is None and b["error"] is None and a["outputs"] != b["outputs"]:
            differ = sorted(k for k in a["outputs"] if a["outputs"][k] != b["outputs"].get(k))
            b["error"] = f"traced outputs differ from untraced: {differ}"
    n = len(traced)
    stats = spans.stats

    def stat(name, key="self_s"):
        return stats.get(name, {}).get(key, 0) / n

    def ratio(num, den, scale=1e9):
        return num / den * scale if den else 0.0

    m: dict[str, tuple[float, str]] = {}
    for fn in SPECFUN:
        m[f"specfun.{fn}.calls"] = (stat(f"specfun.{fn}", "calls"), "count")
        m[f"specfun.{fn}.self_s"] = (stat(f"specfun.{fn}"), "s")
    m["specfun.log_gamma.elements"] = (stat("specfun.log_gamma", "elements"), "count")
    m["specfun.log_gamma.ns_per_element"] = (
        ratio(stat("specfun.log_gamma"), stat("specfun.log_gamma", "elements")), "ns")
    for fn in ("count_transitions", "merge_counts"):
        m[f"chain.{fn}.calls"] = (stat(f"chain.{fn}", "calls"), "count")
        m[f"chain.{fn}.self_s"] = (stat(f"chain.{fn}"), "s")
    m["chain.count_transitions.steps"] = (stat("chain.count_transitions", "steps"), "count")
    m["chain.count_transitions.ns_per_step"] = (
        ratio(stat("chain.count_transitions"), stat("chain.count_transitions", "steps")), "ns")
    m["tying.tie_counts.calls"] = (stat("tying.tie_counts", "calls"), "count")
    m["tying.tie_counts.rows"] = (stat("tying.tie_counts", "rows"), "count")
    m["tying.tie_counts.self_s"] = (stat("tying.tie_counts"), "s")
    for fn in CRITERIA_FNS:
        m[f"criteria.{fn}.calls"] = (stat(f"criteria.{fn}", "calls"), "count")
        m[f"criteria.{fn}.self_s"] = (stat(f"criteria.{fn}"), "s")
    m["criteria.rows"] = (stat("criteria.criterion_values", "rows")
                          + stat("criteria.evaluate", "rows"), "count")
    for fn in ("generate_network", "sample_trajectory"):
        m[f"simulate.{fn}.calls"] = (stat(f"simulate.{fn}", "calls"), "count")
        m[f"simulate.{fn}.self_s"] = (stat(f"simulate.{fn}"), "s")
    m["simulate.sample_trajectory.steps"] = (stat("simulate.sample_trajectory", "steps"), "count")
    m["simulate.sample_trajectory.ns_per_step"] = (
        ratio(stat("simulate.sample_trajectory"), stat("simulate.sample_trajectory", "steps")),
        "ns")
    m["simulate.truncated_walks"] = (stat("simulate.sample_trajectory", "truncated"), "count")
    m["simulate.run_power_study.self_s"] = (stat("simulate.run_power_study"), "s")
    m["simulate.replicate_s"] = (ratio(stat("simulate._replicate_values", "incl_s"),
                                       stat("simulate._replicate_values", "calls"), 1.0), "s")
    for fn in ORACLE_FNS:
        m[f"oracle.{fn}.calls"] = (stat(f"oracle.{fn}", "calls"), "count")
        m[f"oracle.{fn}.self_s"] = (stat(f"oracle.{fn}"), "s")
    cells = sum(stat(f"oracle.{fn}", "cells") for fn in ORACLE_FNS)
    draws = sum(stat(f"oracle.{fn}", "draws") for fn in ORACLE_FNS)
    m["oracle.cells"] = (cells, "count")
    m["oracle.draws"] = (draws, "count")
    m["oracle.ns_per_draw"] = (ratio(sum(stat(f"oracle.{fn}") for fn in ORACLE_FNS), draws), "ns")
    for fn in DATAIO_FNS:
        m[f"dataio.{fn}.self_s"] = (stat(f"dataio.{fn}"), "s")
    m["dataio.read_trajectories_jsonl.bytes"] = (
        stat("dataio.read_trajectories_jsonl", "bytes"), "B")
    m["cli.main.self_s"] = (stat("cli.main"), "s")

    wall = sum(r["seconds"] for r in traced) / n
    layer_self = {layer: sum(v["self_s"] for k, v in stats.items()
                             if k.split(".")[0] == layer) / n for layer in tracer.LAYERS}
    for layer, s in layer_self.items():
        m[f"{layer}.self_s"] = (s, "s")
    m["trace.wall_s"] = (wall, "s")
    m["trace.unattributed_s"] = (wall - sum(layer_self.values()), "s")
    plain_s = sum(r["seconds"] for r in plain[:n])
    m["trace.overhead_frac"] = (sum(r["seconds"] for r in traced) / plain_s - 1.0, "ratio")
    m["process.cpu_s"] = ((cpu1.user + cpu1.system - cpu0.user - cpu0.system) / n, "s")
    for name, value in probe.run(seed).items():
        m[name] = (value, "ns")
    return {k: {"value": float(v), "unit": u} for k, (v, u) in m.items()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload not in workloads.WORKLOADS:
        print(f"unknown workload {args.workload!r}; one of {sorted(workloads.WORKLOADS)}",
              file=sys.stderr)
        return 2
    wl = workloads.WORKLOADS[args.workload]
    tag = f"{wl.name}-seed{args.seed}-trace{args.trace}"
    work_dir = WORK / f"{tag}-{os.getpid()}"
    try:
        cli, simulate = _import_program()
        pin_to_one_cpu()
        ref_path = HERE / "reference" / f"{wl.name}.json"
        if not ref_path.is_file():
            raise BenchError(f"missing reference outputs {ref_path}")
        reference = json.loads(ref_path.read_text(encoding="utf-8"))["entries"]
        load_before = os.getloadavg()
        env = _environment(simulate.worker_count())
        runner = Runner(wl, args.seed, cli, work_dir, reference)
        if args.trace:
            metrics = per_layer(runner, args.seconds, args.seed,
                                WORK / "spans" / f"{tag}.tsv.gz")
        else:
            metrics = end_to_end(runner, args.seconds)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    failed = [r for r in runner.ops if r["error"] is not None]
    result = {"correct": not failed, "attempted": len(runner.ops), "failed": len(failed),
              "metrics": metrics}
    record = {
        "workload": wl.name, "work_unit": wl.work_unit, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace, "environment": env,
        "load_average": {"before": load_before, "after": os.getloadavg()},
        "inputs": runner.digests,
        "extra": runner.extra,
        "operations": [{k: v for k, v in r.items() if k != "outputs"} for r in runner.ops],
        "result": result,
    }
    (WORK / "results").mkdir(parents=True, exist_ok=True)
    (WORK / "results" / f"{tag}.json").write_text(json.dumps(record, indent=1) + "\n")
    for r in failed:
        print(f"FAILED op on entry {r['entry']} ({r['phase']}): {r['error']}", file=sys.stderr)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    if os.environ.get("PYTHONHASHSEED") != HASH_SEED:
        # String hashing shapes dict and set layouts; a fixed seed keeps
        # it the same in every run and in the seed worker, so neither
        # side of a pair gets a lucky or unlucky layout for a whole run.
        os.execve(sys.executable, [sys.executable, *sys.argv],
                  {**os.environ, "PYTHONHASHSEED": HASH_SEED})
    sys.exit(main())
