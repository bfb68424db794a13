#!/usr/bin/env python3
"""Time ``memsel oracle`` at a base commit and in this checkout; write BENCH_oracle.json.

Usage, from the root of a git checkout:

    python3 bench/oracle.py --base <commit> [--rounds 3] [--out BENCH_oracle.json]

The base side is the ``src/`` of ``<commit>``, exported with ``git
archive``; the change side is this checkout's ``src/``. Each side runs in
its own worker interpreter, both pinned to the same CPU, and the two take
turns call by call (never at once), alternating which goes first, so
host-speed drift lands on both sides alike.

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

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import statistics
import subprocess
import sys
import tarfile
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
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


def worker(src: str, cpu: int) -> int:
    """Answer ``{"argv", "out", "split"}`` lines with ``{"rc", "seconds", ...}`` lines."""
    os.sched_setaffinity(0, {cpu})
    os.environ.pop("MEMSEL_THREADS", None)
    sys.path.insert(0, src)
    from memsel import cli, oracle

    if not Path(cli.__file__).resolve().is_relative_to(Path(src).resolve()):
        raise SystemExit(f"memsel was imported from {cli.__file__}, not {src}")
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


class Side:
    def __init__(self, name: str, src: Path, cpu: int, work: Path):
        self.name, self.work = name, work
        env = {k: v for k, v in os.environ.items() if k != "MEMSEL_THREADS"}
        env["PYTHONHASHSEED"] = "0"
        self.proc = subprocess.Popen(
            [sys.executable, __file__, "--worker", str(src), "--cpu", str(cpu)],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True, env=env, cwd=ROOT)
        self.calls = 0

    def run(self, argv: list[str], split: bool = False) -> dict:
        self.calls += 1
        out = self.work / f"{self.name}-{self.calls}"
        self.proc.stdin.write(json.dumps({"argv": argv, "out": str(out), "split": split}) + "\n")
        self.proc.stdin.flush()
        line = self.proc.stdout.readline()
        if not line:
            raise SystemExit(f"{self.name} worker exited")
        return json.loads(line)

    def close(self) -> None:
        self.proc.stdin.close()
        self.proc.wait(timeout=60)


def _git(*args: str) -> str:
    return subprocess.run(["git", "-C", str(ROOT), *args], check=True,
                          capture_output=True, text=True).stdout.strip()


def _export_src(commit: str, dest: Path) -> Path:
    data = subprocess.run(["git", "-C", str(ROOT), "archive", commit, "src"],
                          check=True, capture_output=True).stdout
    with tarfile.open(fileobj=io.BytesIO(data)) as tar:
        tar.extractall(dest, filter="data")
    return dest / "src"


def _src_digest(src: Path) -> str:
    h = hashlib.sha256()
    for path in sorted((src / "memsel").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def _quartiles(xs: list[float]) -> dict:
    q1, med, q3 = statistics.quantiles(xs, n=4, method="inclusive")
    return {"median": med, "q1": q1, "q3": q3, "n": len(xs)}


def _machine(cpu: int) -> dict:
    model = None
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                model = line.split(":", 1)[1].strip()
                break
    import numpy

    return {"cpu_model": model, "nproc": os.cpu_count(), "pinned_cpu": cpu,
            "platform": platform.platform(), "python": platform.python_version(),
            "numpy": numpy.__version__}


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
        srcs = {"base": _export_src(args.base, work / "base"), "change": ROOT / "src"}
        digests = {name: _src_digest(src) for name, src in srcs.items()}
        sides = {name: Side(name, src, cpu, work) for name, src in srcs.items()}
        for side in sides.values():
            stack.callback(side.close)

        def panel_argv(i: int) -> list[str]:
            return ["oracle", "--input", str(seasons[i]), "--h", "1",
                    "--draws", str(PANEL_DRAWS), "--seed", str(i)]

        for side in sides.values():  # warm-up: imports and first-call costs
            side.run(["oracle", "--input", str(seasons[0]), "--h", "1", "--draws", "1000"])

        calls = {name: [] for name in sides}
        entries = {name: {} for name in sides}
        order = list(sides)
        for r in range(args.rounds):
            for i in range(PANEL):
                for name in order:
                    reply = sides[name].run(panel_argv(i))
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
                for key, value in side.run(panel_argv(i), split=True)["split"].items():
                    split[name][key].append(value)

        default_argv = ["oracle", "--input", str(ROOT / "tests" / "data" / "season.jsonl"),
                        "--h", "1", "--seed", "0"]
        default = {}
        for name, side in sides.items():
            reply = side.run(default_argv)
            default[name] = {"seconds": reply["seconds"], "rc": reply["rc"],
                             "sha256": reply.get("sha256"), "rows": reply.get("rows", [])}

    ratios = [b / c for b, c in zip(calls["base"], calls["change"])]
    shared = [_shared_fields(entries["base"][i]["rows"], entries["change"][i]["rows"])
              for i in range(PANEL)]
    result = {
        "topic": "oracle",
        "command": " ".join(["python3", "bench/oracle.py"] + sys.argv[1:]),
        "machine": _machine(cpu),
        "base": {"commit": _git("rev-parse", args.base), "src_sha256": digests["base"]},
        "change": {"checkout_head": _git("rev-parse", "HEAD"), "src_sha256": digests["change"]},
        "panel": {
            "call": f"memsel oracle --input <91-game season i> --h 1 --draws {PANEL_DRAWS} --seed i",
            "entries": PANEL, "rounds": args.rounds,
            "per_call_s": {name: _quartiles(xs) for name, xs in calls.items()},
            "paired_speedup": _quartiles(ratios),
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
    }
    Path(args.out).write_text(json.dumps(result, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    print(json.dumps({"per_call_s": result["panel"]["per_call_s"],
                      "paired_speedup": result["panel"]["paired_speedup"]}))
    return 0


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--base", help="commit to compare against (its src/ is exported with git archive)")
    ap.add_argument("--rounds", type=int, default=3, help="timed passes over the panel")
    ap.add_argument("--out", default=str(ROOT / "BENCH_oracle.json"))
    ap.add_argument("--worker", help=argparse.SUPPRESS)
    ap.add_argument("--cpu", type=int, help=argparse.SUPPRESS)
    args = ap.parse_args()
    if args.worker:
        return worker(args.worker, args.cpu)
    if not args.base:
        ap.error("--base is required")
    return compare(args)


if __name__ == "__main__":
    sys.exit(main())
