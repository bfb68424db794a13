#!/usr/bin/env python3
"""Runs memsel commands on the pinned seed copy in ``seed/``, one per request.

The benchmark starts one of these next to the program under test and
alternates operations between the two (never at the same time), so the
seed copy's timings track the host's speed at the moment the program
was timed. Protocol: one JSON object per line on standard input,
``{"argv": [...]}``, answered by one line ``{"rc": .., "seconds": ..,
"text": ..}`` on standard output; end of input stops the worker.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import sys
import time
from pathlib import Path

SEED = Path(__file__).resolve().parent / "seed"


def main() -> int:
    os.environ.pop("MEMSEL_THREADS", None)
    sys.path.insert(0, str(SEED))
    from memsel import cli

    if Path(cli.__file__).resolve().parent != (SEED / "memsel").resolve():
        raise SystemExit(f"memsel was imported from {cli.__file__}, not {SEED}")
    reply = sys.stdout
    for line in sys.stdin:
        argv = json.loads(line)["argv"]
        buf = io.StringIO()
        t0 = time.perf_counter()
        try:
            with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(buf):
                rc = cli.main(argv)
            text = buf.getvalue()[-300:]
        except (Exception, SystemExit) as exc:
            rc, text = -1, f"{type(exc).__name__}: {exc}"
        seconds = time.perf_counter() - t0
        reply.write(json.dumps({"rc": rc, "seconds": seconds, "text": text}) + "\n")
        reply.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
