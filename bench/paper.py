#!/usr/bin/env python3
"""Time the full paper power study at a base commit and in this checkout; write BENCH_paper.json.

Usage, from the root of a git checkout:

    python3 bench/paper.py --base <commit> [--rounds 2] [--out BENCH_paper.json]

Each side runs ``memsel simulate --profile paper --h-true H --seed 1
--workers W`` (M=8, h = 1..5, all nine criteria, one shared network, J =
4, 8, ..., 256, 10^4 replicates per J) for every (H, W) in ``CELLS``, in
its own worker interpreter, as ``bench/harness.py`` describes. A
``--workers 1`` run stays pinned to the worker's one CPU; for a larger
count the worker widens its affinity to every CPU the script may use
while the run lasts, so that the pool's processes, which inherit it when
they start, can spread. Each round runs every (H, W) once per side; each
(H, W) alternates, round by round, which side goes first. A run records
its wall time, its minor page faults (``ru_minflt`` of the worker and of
its pool's processes, which ``RUSAGE_CHILDREN`` counts once they have
exited) and the sha256 of ``selection.csv``, ``delta.csv`` and
``summary.json``; the file keeps every run and says, per H, whether both
sides and every worker count wrote the same bytes. The speed-up and the
target check read each side's median run: runs of one commit spread by
about 10% on a shared host, so one run, or the fastest of a few, says
little. One run lasts minutes.

The target is the whole grid, h_true = 1..5, in under ``TARGET_S`` at each
worker count: the file gives each side's total of its median runs per
worker count and whether the change's meets it.

Then, per side, a split of the time of one ``run_power_study`` of 20
replicates at each paper J at h_true = 1 (so each J weighs as much as in
the full run), serially on one CPU, over its layers: sampling the walks
(``simulate._sample_walks``, or ``sample_trajectory`` in checkouts before
it), counting (``chain._count_depths``, which ``criteria._depth_models``
calls once per chunk of replicates; in older checkouts once per pass of a
few replicates, or once per replicate), scoring (``criteria._score``,
which the study calls once per chunk of replicates, from ``simulate`` or,
in some older checkouts, from ``criteria``) and the rest.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import resource
import statistics
import sys
import tempfile
import time
from pathlib import Path

import harness
from harness import ROOT, open_sides

ARGV = ["simulate", "--profile", "paper", "--seed", "1"]
OUTPUTS = ("selection.csv", "delta.csv", "summary.json")
SPLIT_REPLICATES = 20
TARGET_S = 600  # the roadmap's aim for the whole grid at each worker count
# (h_true, workers) of each recorded run; the file is rewritten as a whole,
# so this lists the whole grid that it holds
CELLS = [(h, w) for h in (1, 2, 3, 4, 5) for w in (1, 2)]


def _argv(h_true: int, workers: int) -> list[str]:
    return ARGV + ["--h-true", str(h_true), "--workers", str(workers)]


def _faults() -> int:
    """Minor page faults so far of this process and of its waited-for children."""
    return sum(resource.getrusage(who).ru_minflt
               for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN))


def worker() -> int:
    """Answer one JSON request per line with one JSON reply per line."""
    from memsel import cli, criteria, simulate

    for line in sys.stdin:
        req = json.loads(line)
        reply = {}
        if req["op"] == "paper":
            pinned = os.sched_getaffinity(0)
            if req["workers"] > 1:
                os.sched_setaffinity(0, req["cpus"])
            faults = _faults()
            t0 = time.perf_counter()
            try:
                with contextlib.redirect_stdout(io.StringIO()):
                    reply["rc"] = cli.main(_argv(req["h_true"], req["workers"])
                                           + ["--out", req["out"]])
            finally:
                os.sched_setaffinity(0, pinned)
            reply["wall_s"] = time.perf_counter() - t0
            reply["minor_faults"] = _faults() - faults
            reply["sha256"] = {name: hashlib.sha256((Path(req["out"]) / name).read_bytes())
                               .hexdigest() for name in OUTPUTS}
        elif req["op"] == "split":
            sampler = "_sample_walks" if hasattr(simulate, "_sample_walks") else "sample_trajectory"
            # the study counts through criteria._depth_models, which calls
            # _count_depths by criteria's name for it, and scores through
            # simulate's name for _score (in some older checkouts, criteria's),
            # each once per chunk; neither layer calls the other, so no time is
            # counted twice
            layers = {"sampling": [(simulate, sampler)], "counting": [(criteria, "_count_depths")],
                      "scoring": [(criteria, "_score"), (simulate, "_score")]}
            spent = dict.fromkeys(layers, 0.0)

            def timed(name, fn):
                def call(*args, **kwargs):
                    t = time.perf_counter()
                    try:
                        return fn(*args, **kwargs)
                    finally:
                        spent[name] += time.perf_counter() - t
                return call

            for name, targets in layers.items():
                for module, attr in targets:
                    if hasattr(module, attr):
                        setattr(module, attr, timed(name, getattr(module, attr)))
            cfg = simulate.SimConfig(**{**cli._PROFILES["paper"], "replicates": SPLIT_REPLICATES,
                                        "h_true": 1, "seed": 1})
            t0 = time.perf_counter()
            simulate.run_power_study(cfg, workers=1)
            total = time.perf_counter() - t0
            spent["rest"] = total - sum(spent.values())
            reply["share"] = {name: s / total for name, s in spent.items()}
            reply["s_per_replicate_set"] = total / SPLIT_REPLICATES
        sys.stdout.write(json.dumps(reply) + "\n")
        sys.stdout.flush()
    return 0


def _cell(runs: dict, h_true: int, workers: int) -> dict:
    """One (h_true, workers) cell's runs per side, their medians and digests."""
    wall = {name: [x["wall_s"] for x in xs] for name, xs in runs.items()}
    median = {name: statistics.median(xs) for name, xs in wall.items()}
    return {
        "call": "memsel " + " ".join(_argv(h_true, workers)),
        "wall_s": wall,
        "median_wall_s": median,
        "speedup": median["base"] / median["change"],
        "change_ahead_in_rounds": f"{sum(b > c for b, c in zip(wall['base'], wall['change']))}"
                                  f"/{len(wall['base'])}",
        "minor_faults": {name: [x["minor_faults"] for x in xs] for name, xs in runs.items()},
        "exit_codes": {name: sorted({x["rc"] for x in xs}) for name, xs in runs.items()},
        "output_sha256": {name: xs[0]["sha256"] for name, xs in runs.items()},
        "outputs_identical": all(x["sha256"] == runs["base"][0]["sha256"]
                                 for xs in runs.values() for x in xs),
    }


def compare(args) -> int:
    cpus = sorted(os.sched_getaffinity(0))
    cpu = cpus[0]
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        srcs = {"base": harness.export_src(args.base, work / "base"), "change": ROOT / "src"}
        result = harness.provenance("paper", __file__, args.base, srcs, cpu)
        runs = {cell: {name: [] for name in srcs} for cell in CELLS}
        with contextlib.ExitStack() as stack:
            sides = open_sides(stack, __file__, srcs, cpu)
            for r in range(args.rounds):
                for i, (h, w) in enumerate(CELLS):
                    # each cell alternates which side goes first, round by round
                    order = list(sides) if (r + i) % 2 == 0 else list(sides)[::-1]
                    for name in order:
                        out = str(work / f"{name}-{r}-h{h}-w{w}")
                        reply = sides[name].run({"op": "paper", "h_true": h, "workers": w,
                                                 "cpus": cpus, "out": out})
                        runs[h, w][name].append(reply)
                        print(f"round {r + 1}/{args.rounds}: h_true={h} workers={w} {name} "
                              f"{reply['wall_s']:.1f} s", file=sys.stderr)
            split = {name: side.run({"op": "split"}) for name, side in sides.items()}
    result["cells"] = {f"h_true={h} workers={w}": _cell(runs[h, w], h, w) for h, w in CELLS}
    # per h_true and side, every worker count must write the same bytes
    digests = {}
    for (h, _), cell in runs.items():
        digests.setdefault(h, []).extend(xs[0]["sha256"] for xs in cell.values())
    result["worker_counts_agree"] = {f"h_true={h}": all(d == ds[0] for d in ds)
                                     for h, ds in digests.items()}
    result["layer_split"] = {
        "model": f"share of the time of {SPLIT_REPLICATES} replicates at each paper J",
        **split,
    }
    share = split["change"]["share"]
    totals = {}  # per worker count and side, the sum of the median runs over h_true
    for (_, w), c in zip(CELLS, result["cells"].values()):
        side_totals = totals.setdefault(f"workers={w}", dict.fromkeys(srcs, 0.0))
        for name, median in c["median_wall_s"].items():
            side_totals[name] += median
    result["target"] = {"wall_s": TARGET_S, "total_median_wall_s": totals,
                        "met": {key: t["change"] < TARGET_S for key, t in totals.items()},
                        "largest_layer": max(share, key=share.get)}
    Path(args.out).write_text(json.dumps(result, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    print(json.dumps({key: c["median_wall_s"] for key, c in result["cells"].items()}))
    return 0


if __name__ == "__main__":
    sys.exit(harness.main(__doc__, 2, "full runs per side of each (h_true, workers)",
                          "BENCH_paper.json", worker, compare))
