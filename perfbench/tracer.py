"""Spans around memsel's layers, recorded from outside the program.

``Tracer.install`` wraps the public functions of each memsel module and
rebinds every ``memsel.*`` module attribute that refers to one of them,
so by-name imports (``from .specfun import log_gamma``) and calls
through module globals both go through the wrapper. Each call records
a span (op id, span id, parent id, name, start, end) in memory; self
time is the span's duration minus the time its child spans cover.
"""

from __future__ import annotations

import gzip
import importlib
import inspect
import sys
import time
from pathlib import Path

LAYERS = ("specfun", "chain", "tying", "criteria", "simulate", "oracle", "dataio", "cli")

# One private function is wrapped as well: the body of one power-study
# replicate (sample J walks, count and score every depth), the
# "one replicate" layer of ROADMAP aim 1.
EXTRA = {"simulate": ("_replicate_values",)}


def _rows(tc) -> int:
    return sum(t.n_contexts for _, t in tc.per_trajectory)


def _first(args, kwargs, key):
    return args[0] if args else kwargs[key]


def _elements(fn, args, kwargs, result):
    return {"elements": getattr(_first(args, kwargs, "z"), "size", 1)}


def _mc_cells(fn, args, kwargs, result):
    bound = inspect.signature(fn).bind(*args, **kwargs)
    bound.apply_defaults()
    a = bound.arguments
    cells = a["total"].n_contexts if "total" in a else _rows(a["tc"])
    return {"cells": cells, "draws": cells * int(a["draws"])}


# Work counts per call, taken from a call's arguments and result.
COUNTERS = {
    "specfun.log_gamma": _elements,
    "specfun.digamma": _elements,
    "specfun.trigamma": _elements,
    "chain.count_transitions": lambda fn, a, kw, r: {"steps": r.total.total_transitions()},
    "tying.tie_counts": lambda fn, a, kw, r: {
        "rows": _rows(_first(a, kw, "tc")) + _first(a, kw, "tc").total.n_contexts},
    "criteria.criterion_values": lambda fn, a, kw, r: {"rows": _rows(_first(a, kw, "tc"))},
    "criteria.evaluate": lambda fn, a, kw, r: {"rows": _rows(_first(a, kw, "tc"))},
    "simulate.sample_trajectory": lambda fn, a, kw, r: {
        "steps": len(r.steps), "truncated": int(r.truncated)},
    "dataio.read_trajectories_jsonl": lambda fn, a, kw, r: {
        "bytes": Path(_first(a, kw, "path")).stat().st_size},
}
COUNTERS.update({f"oracle.{fn}": _mc_cells for fn in (
    "mc_lpd", "mc_lppd", "mc_loo", "mc_cv2", "mc_variance_loglik")})


def _public_functions(mod, layer):
    names = getattr(mod, "__all__", None)
    if names is None:
        names = [n for n in vars(mod) if not n.startswith("_")]
    names = list(names) + list(EXTRA.get(layer, ()))
    for n in names:
        obj = getattr(mod, n)
        if inspect.isfunction(obj) and obj.__module__ == mod.__name__:
            yield n, obj


class Tracer:
    """Span recorder; install() before the traced calls, uninstall() after."""

    def __init__(self):
        self.spans: list[tuple] = []  # (op, id, parent, name, start, end)
        self.stats: dict[str, dict] = {}  # name -> calls, self_s, incl_s, counts
        self.op = 0
        self._stack: list[list] = []  # [span id, child time]
        self._next_id = 0
        self._patched: list[tuple] = []

    def _wrap(self, name: str, fn):
        stats = self.stats.setdefault(name, {"calls": 0, "self_s": 0.0, "incl_s": 0.0})
        stack, spans, clock = self._stack, self.spans, time.perf_counter
        counter = COUNTERS.get(name)

        def traced(*args, **kwargs):
            sid = self._next_id
            self._next_id += 1
            parent = stack[-1][0] if stack else -1
            frame = [sid, 0.0]
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                dur = t1 - t0
                if stack:
                    stack[-1][1] += dur
                spans.append((self.op, sid, parent, name, t0, t1))
                stats["calls"] += 1
                stats["self_s"] += dur - frame[1]
                stats["incl_s"] += dur
            if counter is not None:
                for key, n in counter(fn, args, kwargs, result).items():
                    stats[key] = stats.get(key, 0) + n
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        modules = [m for k, m in sys.modules.items() if k == "memsel" or k.startswith("memsel.")]
        for layer in LAYERS:
            mod = importlib.import_module(f"memsel.{layer}")
            for fname, fn in _public_functions(mod, layer):
                wrapper = self._wrap(f"{layer}.{fname}", fn)
                for m in modules:
                    for attr, val in list(vars(m).items()):
                        if val is fn:
                            self._patched.append((m, attr, fn))
                            setattr(m, attr, wrapper)

    def uninstall(self) -> None:
        for m, attr, fn in reversed(self._patched):
            setattr(m, attr, fn)
        self._patched.clear()

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            fh.write("op\tid\tparent\tname\tstart\tend\n")
            for s in sorted(self.spans, key=lambda s: s[1]):
                fh.write(f"{s[0]}\t{s[1]}\t{s[2]}\t{s[3]}\t{s[4]!r}\t{s[5]!r}\n")
