#!/usr/bin/env python3
"""Time counting plus scoring at a base commit and in this checkout; write BENCH_evaluate.json.

Usage, from the root of a git checkout:

    python3 bench/evaluate.py --base <commit> [--rounds 5] [--out BENCH_evaluate.json]

The base side is the ``src/`` of ``<commit>`` and the change side this
checkout's ``src/``, paired call by call as ``bench/harness.py`` describes,
alternating which side goes first.

Calls timed, each one ``criteria.evaluate_depths`` on inputs made by
``perfbench/gen.py`` (plain numpy, so both sides score the same data):

- ``power_grid``-shaped: the first J of an M=8, h=1 absorbing batch
  (``gen.absorbing_batch``, entries 0..7) at J = 4, 16 and 64, scored at
  h = 1..5 under all nine criteria, as one power-study replicate does;
- ``j256``-shaped: the same at J = 256 (the batch drawn with 256 walks,
  entries 0..3), the largest J of ``simulate --profile paper``, where a
  batch of ``criteria._score`` holds one or two models; with it, a whole
  J=256 cell of 32 replicates (``memsel simulate --M 8 --J 256
  --replicates 32 --h-range 1..5 --seed 1 --workers 1`` at h_true = 1 and
  5), each run alone in a fresh worker, for its peak RSS and wall time;
- ``long_series``-shaped: 20 x 600 steps of an order-2 chain on 4 states
  with its h=2 tie map (``gen.long_series``, entries 0..3), scored at
  h = 0..5 plus the tied model.

Each shape runs in a fresh worker per side, so the worker's peak RSS
(``ru_maxrss``) belongs to that shape; one call per entry is also
measured under ``tracemalloc``. Then, once per side and round:
``memsel simulate --profile ci --seed 1`` (wall time and the sha256 of
``selection.csv``, ``delta.csv`` and ``summary.json``). ``bench/paper.py``
times the paper run itself.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import resource
import sys
import tempfile
import time
import tracemalloc
from pathlib import Path

import harness
from harness import ROOT, open_sides, quartiles

GRID_J = (4, 16, 64)
GRID_ENTRIES = 8
J256_ENTRIES = 4
J256_CELL = ["simulate", "--M", "8", "--J", "256", "--replicates", "32", "--h-range", "1..5",
             "--seed", "1", "--workers", "1"]
LONG_ENTRIES = 4
SHAPES = ("power_grid_shape", "j256_shape", "long_series_shape")


# ---------------------------------------------------------------------------
# Worker side: one interpreter per source tree and shape


def _digest(reports) -> str:
    h = hashlib.sha256()
    for rep in reports:
        h.update(repr((rep.label, sorted((k, float.hex(v)) for k, v in rep.values.items())))
                 .encode())
    return h.hexdigest()


def worker() -> int:
    """Answer one JSON request per line with one JSON reply per line."""
    from memsel import cli, criteria, dataio
    from memsel.chain import StateAlphabet, Trajectory

    inputs = {}

    def load(req):
        key = json.dumps(req["input"], sort_keys=True)
        if key not in inputs:
            spec = req["input"]
            if spec["kind"] == "walks":
                alphabet = StateAlphabet.of_size(spec["m"])
                trajs = [Trajectory(f"t{i}", tuple(w)) for i, w in enumerate(spec["walks"])]
                inputs[key] = (trajs, alphabet, spec["hs"], {})
            else:
                alphabet, trajs = dataio.read_trajectories_jsonl(Path(spec["series"]))
                tie = dataio.load_tie_map(Path(spec["tie_map"]), alphabet)
                inputs[key] = (trajs, alphabet, spec["hs"], {"tie_map": tie})
        return inputs[key]

    for line in sys.stdin:
        req = json.loads(line)
        reply = {}
        if req["op"] == "depths":
            trajs, alphabet, hs, kw = load(req)
            t0 = time.perf_counter()
            for _ in range(req["repeat"]):
                reports = criteria.evaluate_depths(trajs, alphabet, hs, **kw)
            reply["seconds"] = (time.perf_counter() - t0) / req["repeat"]
            reply["digest"] = _digest(reports)
        elif req["op"] == "traced":
            trajs, alphabet, hs, kw = load(req)
            tracemalloc.start()
            criteria.evaluate_depths(trajs, alphabet, hs, **kw)
            reply["peak_kb"] = tracemalloc.get_traced_memory()[1] / 1024
            tracemalloc.stop()
        elif req["op"] == "cli":
            buf = io.StringIO()
            t0 = time.perf_counter()
            with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(buf):
                reply["rc"] = cli.main(req["argv"] + ["--out", req["out"]])
            reply["seconds"] = time.perf_counter() - t0
            reply["sha256"] = {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
                               for p in sorted(Path(req["out"]).iterdir())
                               if p.name != "manifest.json"}
        reply["maxrss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        sys.stdout.write(json.dumps(reply) + "\n")
        sys.stdout.flush()
    return 0


# ---------------------------------------------------------------------------
# Scheduling side: runs the calls in turn and writes the result


def _shape_inputs(work: Path) -> dict[str, list[dict]]:
    import gen  # the benchmark's plain-numpy input generators

    grid = []
    for entry in range(GRID_ENTRIES):
        walks = gen.absorbing_batch(entry)
        grid += [{"kind": "walks", "m": gen.BATCH_STATES, "hs": [1, 2, 3, 4, 5],
                  "walks": walks[:j], "label": f"entry {entry}, J={j}"} for j in GRID_J]
    j256 = []
    saved, gen.BATCH_J = gen.BATCH_J, 256  # the same generator, drawing 256 walks
    try:
        for entry in range(J256_ENTRIES):
            j256.append({"kind": "walks", "m": gen.BATCH_STATES, "hs": [1, 2, 3, 4, 5],
                         "walks": gen.absorbing_batch(entry), "label": f"entry {entry}, J=256"})
    finally:
        gen.BATCH_J = saved
    long = []
    for entry in range(LONG_ENTRIES):
        series, tie = gen.long_series(entry, work / "long" / str(entry))
        long.append({"kind": "series", "series": str(series), "tie_map": str(tie),
                     "hs": [0, 1, 2, 3, 4, 5], "label": f"entry {entry}"})
    return {"power_grid": grid, "j256": j256, "long_series": long}


def _time_shape(srcs: dict, cpu: int, inputs: list[dict], rounds: int, repeat: int) -> dict:
    """Paired per-call timings of one shape, in fresh workers per side."""
    with contextlib.ExitStack() as stack:
        sides = open_sides(stack, __file__, srcs, cpu)
        calls = {name: [] for name in sides}
        digests = {name: [] for name in sides}
        order = list(sides)
        for r in range(rounds + 1):  # round 0 warms up (imports, first-call costs)
            for spec in inputs:
                for name in order:
                    reply = sides[name].run({"op": "depths", "input": spec, "repeat": repeat})
                    if r:
                        calls[name].append(reply["seconds"])
                    else:
                        digests[name].append(reply["digest"])
                order.reverse()
        traced = {name: [side.run({"op": "traced", "input": spec})["peak_kb"] for spec in inputs]
                  for name, side in sides.items()}
        rss = {name: side.run({"op": "depths", "input": inputs[0], "repeat": 1})["maxrss_mb"]
               for name, side in sides.items()}
    ratios = [b / c for b, c in zip(calls["base"], calls["change"])]
    return {
        "entries": [spec["label"] for spec in inputs], "rounds": rounds, "calls_per_timing": repeat,
        "per_call_s": {name: quartiles(xs) for name, xs in calls.items()},
        "paired_speedup": quartiles(ratios),
        "change_ahead_in_pairs": f"{sum(x > 1.0 for x in ratios)}/{len(ratios)}",
        "peak_rss_mb": rss,
        "tracemalloc_peak_kb_max": {name: max(v) for name, v in traced.items()},
        "reports_identical_in_every_entry": digests["base"] == digests["change"],
    }


def _j256_cells(srcs: dict, cpu: int, rounds: int, work: Path) -> dict:
    """Each J=256 cell run alone, ``rounds`` times per side, each run in a
    fresh worker, so that its peak RSS is the cell's; sides alternate."""
    cells = {}
    for h_true in (1, 5):
        runs = {name: [] for name in srcs}
        order = list(srcs)
        for r in range(rounds):
            for name in order:
                with contextlib.ExitStack() as stack:
                    side = open_sides(stack, __file__, {name: srcs[name]}, cpu)[name]
                    runs[name].append(side.run({
                        "op": "cli", "out": str(work / f"j256-{h_true}-{name}-{r}"),
                        "argv": J256_CELL + ["--h-true", str(h_true)]}))
            order.reverse()
        cells[f"h_true={h_true}"] = {
            "call": "memsel " + " ".join(J256_CELL + ["--h-true", str(h_true)]),
            "peak_rss_mb": {name: quartiles([x["maxrss_mb"] for x in xs])
                            for name, xs in runs.items()},
            "wall_s": {name: quartiles([x["seconds"] for x in xs]) for name, xs in runs.items()},
            "outputs_identical": all(x["rc"] == 0 and x["sha256"] == runs["base"][0]["sha256"]
                                     for xs in runs.values() for x in xs),
        }
        print(f"j256 cell h_true={h_true}: peak RSS "
              + ", ".join(f"{name} {cells[f'h_true={h_true}']['peak_rss_mb'][name]['median']:.1f} MB"
                          for name in srcs), file=sys.stderr)
    return cells


def compare(args) -> int:
    cpu = min(os.sched_getaffinity(0))
    sys.path.insert(0, str(ROOT / "perfbench"))
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        srcs = {"base": harness.export_src(args.base, work / "base"), "change": ROOT / "src"}
        result = harness.provenance("evaluate", __file__, args.base, srcs, cpu)
        shapes = _shape_inputs(work)
        result["power_grid_shape"] = _time_shape(srcs, cpu, shapes["power_grid"], args.rounds, 20)
        result["j256_shape"] = _time_shape(srcs, cpu, shapes["j256"], args.rounds, 3)
        result["j256_shape"]["simulate_cell"] = _j256_cells(srcs, cpu, args.rounds, work)
        result["long_series_shape"] = _time_shape(srcs, cpu, shapes["long_series"], args.rounds, 3)
        for key in SHAPES:
            print(f"{key}: {json.dumps(result[key]['paired_speedup'])}", file=sys.stderr)

        with contextlib.ExitStack() as stack:
            sides = open_sides(stack, __file__, srcs, cpu)
            ci = {name: [] for name in sides}
            order = list(sides)
            for r in range(args.rounds):
                for name in order:
                    reply = sides[name].run({"op": "cli", "out": str(work / f"ci-{name}-{r}"),
                                             "argv": ["simulate", "--profile", "ci", "--seed", "1"]})
                    ci[name].append(reply)
                order.reverse()
                print(f"round {r + 1}/{args.rounds}: simulate --profile ci "
                      f"base {ci['base'][-1]['seconds']:.2f} s, "
                      f"change {ci['change'][-1]['seconds']:.2f} s", file=sys.stderr)

    result["simulate_profile_ci_seed1"] = {
        "call": "memsel simulate --profile ci --seed 1",
        "wall_s": {name: quartiles([x["seconds"] for x in xs]) for name, xs in ci.items()},
        "exit_codes": {name: sorted({str(x["rc"]) for x in xs}) for name, xs in ci.items()},
        "output_sha256": {name: xs[0]["sha256"] for name, xs in ci.items()},
        "outputs_identical": all(x["sha256"] == ci["base"][0]["sha256"]
                                 for xs in ci.values() for x in xs),
    }
    Path(args.out).write_text(json.dumps(result, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    print(json.dumps({k: result[k]["paired_speedup"] for k in SHAPES}))
    return 0


if __name__ == "__main__":
    sys.exit(harness.main(__doc__, 5, "timed passes over each shape's inputs",
                          "BENCH_evaluate.json", worker, compare))
