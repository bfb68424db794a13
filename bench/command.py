#!/usr/bin/env python3
"""Time whole commands in-process at a base commit and in this checkout; write BENCH_command.json.

Usage, from the root of a git checkout:

    python3 bench/command.py --base <commit> [--rounds 4] [--out BENCH_command.json]

The base side is the ``src/`` of ``<commit>`` and the change side this
checkout's ``src/``, paired call by call as ``bench/harness.py`` describes,
alternating which side goes first.

Calls timed, each one ``memsel.cli.main(argv)`` in the worker: the
operation of each perfbench workload (``perfbench/workloads.py``) on the
inputs that ``perfbench/gen.py`` makes for panel entries 0..15:

- ``power_grid``: ``simulate --M 8 --h-true 1 --h-range 1..5 --J 4 --J 16
  --J 64 --replicates 1 --seed <entry>``;
- ``long_series``: ``criteria --h-range 0..5 --tie <h=2 map>`` on
  20 x 600 steps;
- ``oracle_audit``: ``oracle --h 1 --draws 5000`` on a 91-game season.

Each call is split into three phases, timed by wrappers that the worker
puts around the program from outside: parse (``cli.build_parser`` plus
``argparse.ArgumentParser.parse_args``), write (the ``dataio`` writers
that ``cli`` calls, by their names in ``cli``) and compute (the rest).
Every output except manifest.json is hashed (sha256). Round 0 warms up
and is not timed. Then, once per side: ``memsel simulate --profile ci
--seed 1`` (wall time and the sha256 of each output).
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import inspect
import io
import json
import os
import sys
import tempfile
import time
from pathlib import Path

import harness
from harness import ROOT, open_sides, quartiles

WORKLOADS = ("power_grid", "long_series", "oracle_audit")
ENTRIES = 16
PHASES = ("parse", "compute", "write")


# ---------------------------------------------------------------------------
# Worker side: one interpreter per source tree


def _phase_timers(cli) -> dict:
    """Wrap the parse and write steps of ``cli.main``; returns the running totals."""
    spent = {"parse": 0.0, "write": 0.0}

    def timed(phase, fn):
        def wrapper(*args, **kwargs):
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                spent[phase] += time.perf_counter() - t0
        return wrapper

    cli.build_parser = timed("parse", cli.build_parser)
    argparse.ArgumentParser.parse_args = timed("parse", argparse.ArgumentParser.parse_args)
    for name, fn in list(vars(cli).items()):
        if (inspect.isfunction(fn) and fn.__module__ == "memsel.dataio"
                and name.startswith("write_")):
            setattr(cli, name, timed("write", fn))
    return spent


def worker() -> int:
    """Answer one JSON request per line with one JSON reply per line."""
    from memsel import cli

    spent = _phase_timers(cli)
    for line in sys.stdin:
        req = json.loads(line)
        out = Path(req["out"])
        spent.update(parse=0.0, write=0.0)
        buf = io.StringIO()
        t0 = time.perf_counter()
        with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(buf):
            rc = cli.main(req["argv"] + ["--out", str(out)])
        seconds = time.perf_counter() - t0
        reply = {"rc": rc, "seconds": seconds, "parse": spent["parse"], "write": spent["write"],
                 "compute": seconds - spent["parse"] - spent["write"],
                 "sha256": {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
                            for p in sorted(out.iterdir()) if p.name != "manifest.json"}}
        sys.stdout.write(json.dumps(reply) + "\n")
        sys.stdout.flush()
    return 0


# ---------------------------------------------------------------------------
# Scheduling side: runs the calls in turn and writes the result


def _operations(work: Path) -> dict[str, list[list[str]]]:
    """Each workload's argv per panel entry, without ``--out``."""
    import workloads  # the benchmark's workload definitions and input generators

    ops = {}
    for name in WORKLOADS:
        wl = workloads.WORKLOADS[name]
        ops[name] = []
        for entry in range(ENTRIES):
            inputs = wl.prepare(entry, work / "in" / name / str(entry))
            argv = wl.argv(entry, inputs, work / "unused")
            ops[name].append(argv[:argv.index("--out")])
    return ops


def _summary(calls: dict, entries: int) -> dict:
    """Per-side timings, paired speed-ups and output digests of one workload."""
    ratios = [b["seconds"] / c["seconds"] for b, c in zip(calls["base"], calls["change"])]
    # every round of every side must write the same bytes as the base's first round
    first = {k % entries: r["sha256"] for k, r in enumerate(calls["base"][:entries])}
    identical = all(r["sha256"] == first[k % entries]
                    for side in calls.values() for k, r in enumerate(side))
    return {
        "per_call_s": {name: quartiles([r["seconds"] for r in rs]) for name, rs in calls.items()},
        "phase_median_s": {name: {p: quartiles([r[p] for r in rs])["median"] for p in PHASES}
                           for name, rs in calls.items()},
        "paired_speedup": quartiles(ratios),
        "change_ahead_in_pairs": f"{sum(x > 1.0 for x in ratios)}/{len(ratios)}",
        "exit_codes": {name: sorted({str(r["rc"]) for r in rs}) for name, rs in calls.items()},
        "outputs_identical": identical,
        "output_sha256": {str(e): first[e] for e in range(entries)},
    }


def compare(args) -> int:
    cpu = min(os.sched_getaffinity(0))
    sys.path.insert(0, str(ROOT / "perfbench"))
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        srcs = {"base": harness.export_src(args.base, work / "base"), "change": ROOT / "src"}
        result = harness.provenance("command", __file__, args.base, srcs, cpu)
        ops = _operations(work)
        # entry 0's call, its input paths relative to the temporary directory
        shown = {wl: "memsel " + " ".join(ops[wl][0]).replace(tmp, "$TMP") for wl in WORKLOADS}
        calls = {wl: {"base": [], "change": []} for wl in WORKLOADS}
        n_out = 0
        with contextlib.ExitStack() as stack:
            sides = open_sides(stack, __file__, srcs, cpu)
            order = list(sides)
            for r in range(args.rounds + 1):  # round 0 warms up (imports, first-call costs)
                for wl in WORKLOADS:
                    for argv in ops[wl]:
                        for name in order:
                            n_out += 1
                            reply = sides[name].run({"argv": argv, "out": str(work / f"o{n_out}")})
                            if r:
                                calls[wl][name].append(reply)
                        order.reverse()
                if r:
                    speedups = {wl: _summary(calls[wl], ENTRIES)["paired_speedup"]["median"]
                                for wl in WORKLOADS}
                    print(f"round {r}/{args.rounds}: median paired speed-up "
                          + ", ".join(f"{wl} {x:.2f}x" for wl, x in speedups.items()),
                          file=sys.stderr)
            ci = {name: side.run({"argv": ["simulate", "--profile", "ci", "--seed", "1"],
                                  "out": str(work / f"ci-{name}")})
                  for name, side in sides.items()}

    for wl in WORKLOADS:
        result[wl] = {"call": shown[wl], "entries": ENTRIES,
                      "rounds": args.rounds, **_summary(calls[wl], ENTRIES)}
    result["simulate_profile_ci_seed1"] = {
        "call": "memsel simulate --profile ci --seed 1",
        "wall_s": {name: r["seconds"] for name, r in ci.items()},
        "exit_codes": {name: r["rc"] for name, r in ci.items()},
        "output_sha256": {name: r["sha256"] for name, r in ci.items()},
        "outputs_identical": ci["base"]["sha256"] == ci["change"]["sha256"],
    }
    Path(args.out).write_text(json.dumps(result, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    print(json.dumps({wl: result[wl]["paired_speedup"] for wl in WORKLOADS}))
    return 0


if __name__ == "__main__":
    sys.exit(harness.main(__doc__, 4, "timed passes over each workload's panel entries",
                          "BENCH_command.json", worker, compare))
