#!/usr/bin/env python3
"""Time ``memsel oracle`` at a base commit and in this checkout; write BENCH_oracle.json.

Usage, from the root of a git checkout:

    python3 bench/oracle.py --base <commit> [--rounds 3] [--out BENCH_oracle.json]

The base side is the ``src/`` of ``<commit>`` and the change side this
checkout's ``src/``, paired call by call as ``bench/harness.py`` describes,
alternating which side goes first.

Calls timed (``--rounds`` times each):

- the 16 ``oracle_audit`` panel entries: a 91-game free-throw season from
  ``perfbench/gen.py`` (plain numpy; entry i from seed i), run as
  ``oracle --h 1 --draws 5000 --seed i``;
- once more per side, ``oracle --h 1 --seed 0`` on
  ``tests/data/season.jsonl`` at the default 100,000 draws.

After the timed rounds, one traced call per panel entry and side splits
the time into Dirichlet sampling (``oracle._loglik_draws``), the rest of
the per-cell loop (``oracle._sum_cells``: stream spawning and the
estimators) and everything else (reading, counting, closed forms,
writing). The output records the machine, the command, both sides'
source digests, per-call quartiles, the split, each run's exit code and
``oracle.json`` sha256, and which ``oracle.json`` fields the two sides
share byte for byte.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import itertools
import json
import os
import statistics
import sys
import tempfile
import time
from pathlib import Path

import harness
from harness import ROOT, open_sides, quartiles

PANEL = 16
PANEL_DRAWS = 5000
QUANTITIES = ("LPD", "LPPD", "LOO", "CV2", "k_WAIC2", "k_DIC2")
FIELDS = ("closed", "mc", "std_error", "z")


# ---------------------------------------------------------------------------
# Worker side: one interpreter per source tree


def _timed(fn, slot: dict, key: str):
    def wrapper(*args, **kwargs):
        t0 = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            slot[key] += time.perf_counter() - t0
    return wrapper


def worker() -> int:
    """Answer ``{"argv", "out", "split"}`` lines with ``{"rc", "seconds", ...}`` lines."""
    from memsel import cli, oracle

    for line in sys.stdin:
        req = json.loads(line)
        slot = {"sampling_s": 0.0, "sum_cells_s": 0.0}
        saved = oracle._loglik_draws, oracle._sum_cells
        if req["split"]:
            oracle._loglik_draws = _timed(oracle._loglik_draws, slot, "sampling_s")
            oracle._sum_cells = _timed(oracle._sum_cells, slot, "sum_cells_s")
        buf = io.StringIO()
        t0 = time.perf_counter()
        try:
            with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(buf):
                rc = cli.main(req["argv"] + ["--out", req["out"]])
        except (Exception, SystemExit) as exc:
            rc = f"{type(exc).__name__}: {exc}"
        seconds = time.perf_counter() - t0
        oracle._loglik_draws, oracle._sum_cells = saved
        reply = {"rc": rc, "seconds": seconds}
        out = Path(req["out"]) / "oracle.json"
        if out.is_file():
            reply["sha256"] = hashlib.sha256(out.read_bytes()).hexdigest()
            reply["rows"] = json.loads(out.read_text(encoding="utf-8"))
        if req["split"]:
            reply["split"] = {"sampling_s": slot["sampling_s"],
                              "estimators_s": slot["sum_cells_s"] - slot["sampling_s"],
                              "other_s": seconds - slot["sum_cells_s"]}
        sys.stdout.write(json.dumps(reply) + "\n")
        sys.stdout.flush()
    return 0


# ---------------------------------------------------------------------------
# Scheduling side: runs the calls in turn and writes the result


def _shared_fields(base_rows: list[dict], change_rows: list[dict]) -> dict:
    """Per quantity, the oracle.json fields the two sides wrote identically."""
    by_name = {r["quantity"]: r for r in change_rows}
    return {r["quantity"]: [f for f in FIELDS if by_name[r["quantity"]][f] == r[f]]
            for r in base_rows}


def compare(args) -> int:
    cpu = min(os.sched_getaffinity(0))
    sys.path.insert(0, str(ROOT / "perfbench"))
    import gen  # the benchmark's plain-numpy input generators

    with contextlib.ExitStack() as stack:
        work = Path(stack.enter_context(tempfile.TemporaryDirectory()))
        seasons = [gen.season(i, work / "inputs" / str(i))[0] for i in range(PANEL)]
        srcs = {"base": harness.export_src(args.base, work / "base"), "change": ROOT / "src"}
        result = harness.provenance("oracle", __file__, args.base, srcs, cpu)
        sides = open_sides(stack, __file__, srcs, cpu)
        call_ids = itertools.count()

        def run(side: harness.Side, argv: list[str], split: bool = False) -> dict:
            out = work / f"{side.name}-{next(call_ids)}"  # a fresh output directory per call
            return side.run({"argv": argv, "out": str(out), "split": split})

        def panel_argv(i: int) -> list[str]:
            return ["oracle", "--input", str(seasons[i]), "--h", "1",
                    "--draws", str(PANEL_DRAWS), "--seed", str(i)]

        for side in sides.values():  # warm-up: imports and first-call costs
            run(side, ["oracle", "--input", str(seasons[0]), "--h", "1", "--draws", "1000"])

        calls = {name: [] for name in sides}
        entries = {name: {} for name in sides}
        order = list(sides)
        for r in range(args.rounds):
            for i in range(PANEL):
                for name in order:
                    reply = run(sides[name], panel_argv(i))
                    calls[name].append(reply["seconds"])
                    rec = entries[name].setdefault(i, {"rc": reply["rc"], "sha256": reply.get("sha256"),
                                                       "rows": reply.get("rows", [])})
                    if (reply["rc"], reply.get("sha256")) != (rec["rc"], rec["sha256"]):
                        raise SystemExit(f"{name} entry {i}: round {r} output differs from round 0")
                order.reverse()
            print(f"round {r + 1}/{args.rounds}: base {statistics.median(calls['base']):.4f} s, "
                  f"change {statistics.median(calls['change']):.4f} s per call (median so far)",
                  file=sys.stderr)

        split = {name: {"sampling_s": [], "estimators_s": [], "other_s": []} for name in sides}
        for i in range(PANEL):
            for name, side in sides.items():
                for key, value in run(side, panel_argv(i), split=True)["split"].items():
                    split[name][key].append(value)

        default_argv = ["oracle", "--input", str(ROOT / "tests" / "data" / "season.jsonl"),
                        "--h", "1", "--seed", "0"]
        default = {}
        for name, side in sides.items():
            reply = run(side, default_argv)
            default[name] = {"seconds": reply["seconds"], "rc": reply["rc"],
                             "sha256": reply.get("sha256"), "rows": reply.get("rows", [])}

    ratios = [b / c for b, c in zip(calls["base"], calls["change"])]
    shared = [_shared_fields(entries["base"][i]["rows"], entries["change"][i]["rows"])
              for i in range(PANEL)]
    result.update({
        "panel": {
            "call": f"memsel oracle --input <91-game season i> --h 1 --draws {PANEL_DRAWS} --seed i",
            "entries": PANEL, "rounds": args.rounds,
            "per_call_s": {name: quartiles(xs) for name, xs in calls.items()},
            "paired_speedup": quartiles(ratios),
            "split_median_s": {name: {k: statistics.median(v) for k, v in parts.items()}
                               for name, parts in split.items()},
            "exit_codes": {name: sorted({str(e["rc"]) for e in ent.values()})
                           for name, ent in entries.items()},
            "max_abs_z": {name: max(abs(r["z"]) for e in ent.values() for r in e["rows"])
                          for name, ent in entries.items()},
            "fields_identical_in_every_entry": {
                q: [f for f in FIELDS if all(f in s.get(q, ()) for s in shared)]
                for q in QUANTITIES},
            "oracle_json_sha256": {name: [ent[i]["sha256"] for i in range(PANEL)]
                                   for name, ent in entries.items()},
        },
        "default_draws": {
            "call": "memsel oracle --input tests/data/season.jsonl --h 1 --seed 0 (100,000 draws)",
            **{name: {k: v for k, v in d.items() if k != "rows"} for name, d in default.items()},
            "fields_identical": _shared_fields(default["base"]["rows"], default["change"]["rows"]),
        },
    })
    Path(args.out).write_text(json.dumps(result, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    print(json.dumps({"per_call_s": result["panel"]["per_call_s"],
                      "paired_speedup": result["panel"]["paired_speedup"]}))
    return 0


if __name__ == "__main__":
    sys.exit(harness.main(__doc__, 3, "timed passes over the panel", "BENCH_oracle.json",
                          worker, compare))
