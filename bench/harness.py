"""Paired-run harness shared by the scripts under ``bench/``.

Each script compares the ``src/`` of a base commit (exported with ``git
archive``) with this checkout's ``src/``. Each side runs in its own worker
interpreters, all pinned to the same CPU; the scheduler sends one JSON
request per line to a worker and reads one JSON reply per line, so the
sides take turns call by call (never at once) and host-speed drift lands
on both alike. A script supplies its worker loop and its comparison, and
calls ``main`` from its ``__main__`` block.
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
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


# ---------------------------------------------------------------------------
# Worker side


def start_worker(src: str, cpu: int) -> None:
    """Pin this worker to ``cpu``, run serially, and import memsel from ``src``."""
    os.sched_setaffinity(0, {cpu})
    sys.path.insert(0, src)
    from memsel import cli

    if not Path(cli.__file__).resolve().is_relative_to(Path(src).resolve()):
        raise SystemExit(f"memsel was imported from {cli.__file__}, not {src}")


# ---------------------------------------------------------------------------
# Scheduling side


class Side:
    """One worker interpreter running ``script --worker src --cpu cpu``."""

    def __init__(self, name: str, script: str, src: Path, cpu: int):
        self.name = name
        env = {**os.environ, "PYTHONHASHSEED": "0"}
        self.proc = subprocess.Popen(
            [sys.executable, script, "--worker", str(src), "--cpu", str(cpu)],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True, env=env, cwd=ROOT)

    def run(self, req: dict) -> dict:
        self.proc.stdin.write(json.dumps(req) + "\n")
        self.proc.stdin.flush()
        line = self.proc.stdout.readline()
        if not line:
            raise SystemExit(f"{self.name} worker exited")
        return json.loads(line)

    def close(self) -> None:
        self.proc.stdin.close()
        self.proc.wait(timeout=60)


def open_sides(stack: contextlib.ExitStack, script: str, srcs: dict, cpu: int) -> dict:
    """One ``Side`` per source tree, closed when ``stack`` unwinds."""
    sides = {name: Side(name, script, src, cpu) for name, src in srcs.items()}
    for side in sides.values():
        stack.callback(side.close)
    return sides


def git(*args: str) -> str:
    return subprocess.run(["git", "-C", str(ROOT), *args], check=True,
                          capture_output=True, text=True).stdout.strip()


def export_src(commit: str, dest: Path) -> Path:
    data = subprocess.run(["git", "-C", str(ROOT), "archive", commit, "src"],
                          check=True, capture_output=True).stdout
    with tarfile.open(fileobj=io.BytesIO(data)) as tar:
        tar.extractall(dest, filter="data")
    return dest / "src"


def src_digest(src: Path) -> str:
    h = hashlib.sha256()
    for path in sorted((src / "memsel").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def quartiles(xs: list[float]) -> dict:
    """Median and quartiles; a single value is its own quartiles."""
    if len(xs) == 1:
        return {"median": xs[0], "q1": xs[0], "q3": xs[0], "n": 1}
    q1, med, q3 = statistics.quantiles(xs, n=4, method="inclusive")
    return {"median": med, "q1": q1, "q3": q3, "n": len(xs)}


def machine(cpu: int) -> dict:
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


def provenance(topic: str, script: str, base: str, srcs: dict, cpu: int) -> dict:
    """The keys every BENCH file opens with: topic, command, machine, both sides' sources."""
    return {
        "topic": topic,
        "command": " ".join(["python3", f"bench/{Path(script).name}"] + sys.argv[1:]),
        "machine": machine(cpu),
        "base": {"commit": git("rev-parse", base), "src_sha256": src_digest(srcs["base"])},
        "change": {"checkout_head": git("rev-parse", "HEAD"),
                   "src_sha256": src_digest(srcs["change"])},
    }


def main(doc: str, rounds: int, rounds_help: str, out_name: str, worker, compare) -> int:
    """Parse ``--base/--rounds/--out`` (or the hidden ``--worker/--cpu``) and dispatch."""
    ap = argparse.ArgumentParser(description=doc.splitlines()[0])
    ap.add_argument("--base", help="commit to compare against (its src/ is exported with git archive)")
    ap.add_argument("--rounds", type=int, default=rounds, help=rounds_help)
    ap.add_argument("--out", default=str(ROOT / out_name))
    ap.add_argument("--worker", help=argparse.SUPPRESS)
    ap.add_argument("--cpu", type=int, help=argparse.SUPPRESS)
    args = ap.parse_args()
    if args.worker:
        start_worker(args.worker, args.cpu)
        return worker()
    if not args.base:
        ap.error("--base is required")
    return compare(args)
