#!/usr/bin/env python3
"""Record the reference outputs every benchmark operation is checked against.

Runs each workload's panel entries once through ``memsel.cli.main`` and
writes ``perfbench/reference/<workload>.json``. Run it only at a commit
whose outputs define "correct" (the outputs were recorded at the commit
that introduced the benchmark); a later change that alters outputs must
match these within the tolerance in ``workloads.py``.

    python3 perfbench/record_reference.py [workload ...]
"""

from __future__ import annotations

import json
import shutil
import sys

import run
import workloads


def record(wl, cli, simulate) -> dict:
    work_dir = run.WORK / f"record-{wl.name}"
    runner = run.Runner(wl, 0, cli, work_dir, {str(e): None for e in range(workloads.PANEL_SIZE)})
    entries = {}
    try:
        for entry in range(workloads.PANEL_SIZE):
            inputs = runner.inputs_for(entry)
            out = work_dir / f"out{entry}"
            rc, seconds, text = runner.call(wl.argv(entry, inputs, out))
            if rc != 0:
                raise SystemExit(f"{wl.name} entry {entry}: exit code {rc}: {text}")
            entries[str(entry)] = wl.record(out)
            print(f"{wl.name} entry {entry}: {seconds:.2f} s", file=sys.stderr)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    return {"workload": wl.name, "environment": run._environment(simulate.worker_count()),
            "inputs": runner.digests, "entries": entries}


def main(names) -> None:
    cli, simulate = run._import_program()
    for name in names or list(workloads.WORKLOADS):
        path = run.HERE / "reference" / f"{name}.json"
        path.parent.mkdir(exist_ok=True)
        path.write_text(json.dumps(record(workloads.WORKLOADS[name], cli, simulate),
                                   indent=1, sort_keys=True) + "\n", encoding="utf-8")


if __name__ == "__main__":
    main(sys.argv[1:])
