#!/usr/bin/env python3
"""Time the full paper power study at a base commit and in this checkout; write BENCH_paper.json.

Usage, from the root of a git checkout:

    python3 bench/paper.py --base <commit> [--rounds 1] [--out BENCH_paper.json]

Each side runs ``memsel simulate --profile paper --h-true 1 --seed 1
--workers 1`` (M=8, h = 1..5, all nine criteria, one shared network,
J = 4, 8, ..., 256, 10^4 replicates per J) in its own worker interpreter
pinned to one CPU, as ``bench/harness.py`` describes; the sides take
turns, base first. A run records its wall time and the sha256 of
``selection.csv``, ``delta.csv`` and ``summary.json``; the file says
whether both sides wrote the same bytes. One run lasts several minutes.

Then, per side, a split of the time of one ``run_power_study`` of 20
replicates at each paper J (so each J weighs as much as in the full run)
over its layers: sampling the walks (``simulate._sample_walks``, or
``sample_trajectory`` in checkouts before it), counting
(``chain._count_depths``, which ``criteria._depth_models`` calls once per
pass: since the study counts several replicates of a chunk in one pass,
once per pass, before that once per replicate), scoring
(``criteria._score``, which the study calls once per chunk of
replicates, through ``criteria._set_values`` or, in checkouts before it,
from ``simulate``) and the rest.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import sys
import tempfile
import time
from pathlib import Path

import harness
from harness import ROOT, open_sides

ARGV = ["simulate", "--profile", "paper", "--h-true", "1", "--seed", "1", "--workers", "1"]
OUTPUTS = ("selection.csv", "delta.csv", "summary.json")
SPLIT_REPLICATES = 20
TARGET_S = 300  # the roadmap's aim for one h_true of the paper profile


def worker() -> int:
    """Answer one JSON request per line with one JSON reply per line."""
    from memsel import cli, criteria, simulate

    for line in sys.stdin:
        req = json.loads(line)
        reply = {}
        if req["op"] == "paper":
            t0 = time.perf_counter()
            with contextlib.redirect_stdout(io.StringIO()):
                reply["rc"] = cli.main(ARGV + ["--out", req["out"]])
            reply["wall_s"] = time.perf_counter() - t0
            reply["sha256"] = {name: hashlib.sha256((Path(req["out"]) / name).read_bytes())
                               .hexdigest() for name in OUTPUTS}
        elif req["op"] == "split":
            sampler = "_sample_walks" if hasattr(simulate, "_sample_walks") else "sample_trajectory"
            # the study counts through criteria._depth_models, which calls
            # _count_depths by criteria's name for it, once per pass over one or
            # several replicates, and scores through criteria._set_values (or,
            # before it, simulate's name for _score), once per chunk; neither
            # layer calls the other, so no time is counted twice
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


def compare(args) -> int:
    cpu = min(os.sched_getaffinity(0))
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        srcs = {"base": harness.export_src(args.base, work / "base"), "change": ROOT / "src"}
        result = harness.provenance("paper", __file__, args.base, srcs, cpu)
        runs = {name: [] for name in srcs}
        with contextlib.ExitStack() as stack:
            sides = open_sides(stack, __file__, srcs, cpu)
            for r in range(args.rounds):
                for name, side in sides.items():
                    reply = side.run({"op": "paper", "out": str(work / f"{name}-{r}")})
                    runs[name].append(reply)
                    print(f"round {r + 1}/{args.rounds}: {name} {reply['wall_s']:.1f} s",
                          file=sys.stderr)
            split = {name: side.run({"op": "split"}) for name, side in sides.items()}
    wall = {name: [x["wall_s"] for x in xs] for name, xs in runs.items()}
    result["call"] = "memsel " + " ".join(ARGV)
    result["workers"] = 1
    result["wall_s"] = wall
    result["speedup"] = min(wall["base"]) / min(wall["change"])
    result["exit_codes"] = {name: sorted({x["rc"] for x in xs}) for name, xs in runs.items()}
    result["output_sha256"] = {name: xs[0]["sha256"] for name, xs in runs.items()}
    result["outputs_identical"] = all(x["sha256"] == runs["base"][0]["sha256"]
                                      for xs in runs.values() for x in xs)
    result["layer_split"] = {
        "model": f"share of the time of {SPLIT_REPLICATES} replicates at each paper J",
        **split,
    }
    share = split["change"]["share"]
    result["target"] = {"wall_s": TARGET_S, "met": min(wall["change"]) < TARGET_S,
                        "largest_layer": max(share, key=share.get)}
    Path(args.out).write_text(json.dumps(result, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    print(json.dumps({"wall_s": wall, "outputs_identical": result["outputs_identical"]}))
    return 0


if __name__ == "__main__":
    sys.exit(harness.main(__doc__, 1, "full runs per side", "BENCH_paper.json", worker, compare))
