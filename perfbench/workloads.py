"""The benchmark's workloads: what each operation runs and how it is checked.

Each workload owns a panel of input entries. An entry is one complete
input (generated from its entry number by ``gen``) whose outputs were
recorded in ``reference/<workload>.json``; a run picks a seed-dependent
order of entries, so every timed operation can be checked against the
recorded outputs.
"""

from __future__ import annotations

import csv
import io
import json
import math
from pathlib import Path

import gen

# Outputs agree with the reference when byte-identical, or when every row
# has the same cells except float cells that moved by at most
# REL_TOL x (the largest magnitude in the reference row). The row scale,
# not the cell's own size, bounds the error because columns such as
# k_WAIC1 are small differences of row-sized sums (ROADMAP aim 2).
# Integer and text cells must be equal.
REL_TOL = 1e-9

PANEL_SIZE = 16


def _float(cell: str) -> float | None:
    try:
        return float(cell)
    except ValueError:
        return None


def _is_int(cell: str) -> bool:
    try:
        int(cell)
    except ValueError:
        return False
    return True


def _row_matches(new: list[str], ref: list[str]) -> bool:
    if len(new) != len(ref):
        return False
    values = [abs(v) for v in map(_float, ref) if v is not None and math.isfinite(v)]
    tol = REL_TOL * max(values, default=0.0)
    for a, b in zip(new, ref):
        if a == b:
            continue
        x, y = _float(a), _float(b)
        if x is None or y is None or _is_int(a) or _is_int(b) or not abs(x - y) <= tol:
            return False
    return True


def compare_csv(new: str, ref: str) -> str | None:
    """None when ``new`` matches ``ref`` under the tolerance rule, else why not."""
    if new == ref:
        return None
    rows_new = list(csv.reader(io.StringIO(new)))
    rows_ref = list(csv.reader(io.StringIO(ref)))
    if len(rows_new) != len(rows_ref):
        return f"{len(rows_new)} rows, expected {len(rows_ref)}"
    for i, (rn, rr) in enumerate(zip(rows_new, rows_ref)):
        if not _row_matches(rn, rr):
            return f"row {i}: {rn} vs {rr}"
    return None


class Workload:
    """One kind of operation; subclasses fill in the command and checks."""

    name = ""
    work_unit = ""  # what one unit of the end-to-end rate counts

    def prepare(self, entry: int, in_dir: Path) -> dict:
        """Generate the entry's inputs: {"files": {name: path}, ...} plus what argv needs."""
        raise NotImplementedError

    def argv(self, entry: int, inputs: dict, out_dir: Path) -> list[str]:
        raise NotImplementedError

    def work(self, inputs: dict, out_dir: Path) -> float:
        """Units of work one operation completed."""
        raise NotImplementedError

    def record(self, out_dir: Path) -> dict:
        """The outputs kept in the reference file."""
        raise NotImplementedError

    def check(self, out_dir: Path, ref: dict) -> str | None:
        """None when the outputs match the recorded ones, else the reason."""
        got = self.record(out_dir)
        for key, ref_text in ref.items():
            why = compare_csv(got[key], ref_text)
            if why:
                return f"{key}: {why}"
        return None

    def warmup_argv(self, inputs: dict, out_dir: Path) -> list[str]:
        """A cheap call through the same command, run once before timing."""
        raise NotImplementedError


class PowerGrid(Workload):
    """`memsel simulate` on the ci grid, one replicate per J."""

    name = "power_grid"
    work_unit = "replicate batches (J cell x replicate)"
    REPLICATES = 1
    J_VALUES = (4, 16, 64)

    def prepare(self, entry, in_dir):
        return {"files": {}, "seed": entry}

    def _argv(self, seed, replicates, j_values, out_dir):
        argv = ["simulate", "--M", "8", "--h-true", "1", "--h-range", "1..5"]
        for j in j_values:
            argv += ["--J", str(j)]
        return argv + ["--replicates", str(replicates), "--seed", str(seed),
                       "--out", str(out_dir)]

    def argv(self, entry, inputs, out_dir):
        return self._argv(inputs["seed"], self.REPLICATES, self.J_VALUES, out_dir)

    def warmup_argv(self, inputs, out_dir):
        return self._argv(inputs["seed"], 1, (4,), out_dir)

    def work(self, inputs, out_dir):
        return float(self.REPLICATES * len(self.J_VALUES))

    def record(self, out_dir):
        return {name: (out_dir / name).read_text(encoding="utf-8")
                for name in ("selection.csv", "delta.csv")}


class LongSeries(Workload):
    """`memsel criteria --h-range 0..5 --tie <h=2 map>` on 20 x 600 steps."""

    name = "long_series"
    work_unit = "transitions (sum of the criteria.csv transitions column)"

    def prepare(self, entry, in_dir):
        data, tie = gen.long_series(entry, in_dir)
        warm = in_dir / "warmup.jsonl"
        warm.write_text("".join(data.read_text(encoding="utf-8").splitlines(True)[:3]),
                        encoding="utf-8")
        return {"files": {"series": data, "tie_map": tie}, "warmup": warm}

    def argv(self, entry, inputs, out_dir):
        f = inputs["files"]
        return ["criteria", "--input", str(f["series"]), "--h-range", "0..5",
                "--tie", str(f["tie_map"]), "--out", str(out_dir)]

    def warmup_argv(self, inputs, out_dir):
        return ["criteria", "--input", str(inputs["warmup"]), "--h-range", "0..2",
                "--tie", str(inputs["files"]["tie_map"]), "--out", str(out_dir)]

    def work(self, inputs, out_dir):
        with (out_dir / "criteria.csv").open(encoding="utf-8") as fh:
            return float(sum(int(row["transitions"]) for row in csv.DictReader(fh)))

    def record(self, out_dir):
        return {"criteria.csv": (out_dir / "criteria.csv").read_text(encoding="utf-8")}


class OracleAudit(Workload):
    """`memsel oracle --h 1 --draws 5000` on a 91-game free-throw season."""

    name = "oracle_audit"
    work_unit = "Monte-Carlo cell draws (cells x draws)"
    DRAWS = 5_000

    def prepare(self, entry, in_dir):
        path, games = gen.season(entry, in_dir)
        return {"files": {"season": path}, "seed": entry, "cells": gen.oracle_cells(games)}

    def argv(self, entry, inputs, out_dir):
        return ["oracle", "--input", str(inputs["files"]["season"]), "--h", "1",
                "--draws", str(self.DRAWS), "--seed", str(inputs["seed"]),
                "--out", str(out_dir)]

    def warmup_argv(self, inputs, out_dir):
        return ["oracle", "--input", str(inputs["files"]["season"]), "--h", "1",
                "--draws", "1000", "--seed", str(inputs["seed"]), "--out", str(out_dir)]

    def work(self, inputs, out_dir):
        return float(inputs["cells"] * self.DRAWS)

    def record(self, out_dir):
        rows = json.loads((out_dir / "oracle.json").read_text(encoding="utf-8"))
        lines = ["quantity,closed"] + [f"{r['quantity']},{r['closed']!r}" for r in rows]
        return {"oracle.json:closed": "\n".join(lines) + "\n"}


WORKLOADS = {w.name: w for w in (PowerGrid(), LongSeries(), OracleAudit())}
