"""Data files byte-identical to outputs recorded from fixed inputs.

``tests/data/expected`` holds ``criteria.csv`` for a 15-game season with
``--tie jagged``, ``criteria.csv`` and ``criteria.json`` for a 4-walk
series with an h=2 tie-map file, ``selection.csv``, ``delta.csv`` and
``summary.json`` for a fixed-seed M=4 grid, and ``oracle.json`` for a
fixed-seed h=1 audit of the season. A change that
moves any byte of them changes the program's results.
"""

from pathlib import Path

import pytest

from memsel.cli import main

DATA = Path(__file__).parent / "data"

RUNS = {
    "season_jagged": (["criteria", "--input", str(DATA / "season.jsonl"), "--h-range", "0..2",
                       "--tie", "jagged"], {"criteria.csv": "season_jagged_criteria.csv"}),
    "series_tie": (["criteria", "--input", str(DATA / "series.jsonl"), "--h-range", "0..3",
                    "--tie", str(DATA / "series_tie.json")],
                   {"criteria.csv": "series_tie_criteria.csv",
                    "criteria.json": "series_tie_criteria.json"}),
    "grid": (["simulate", "--M", "4", "--h-true", "1", "--h-range", "1..3", "--J", "3",
              "--J", "6", "--replicates", "2", "--length-cap", "60", "--seed", "7"],
             {"selection.csv": "grid_selection.csv", "delta.csv": "grid_delta.csv",
              "summary.json": "grid_summary.json"}),
    "season_oracle": (["oracle", "--input", str(DATA / "season.jsonl"), "--h", "1",
                       "--draws", "1000", "--seed", "0"], {"oracle.json": "season_oracle.json"}),
}


@pytest.mark.parametrize("name", list(RUNS))
def test_outputs_match_recorded_bytes(name, tmp_path):
    argv, files = RUNS[name]
    assert main(argv + ["--out", str(tmp_path)]) == 0
    for produced, expected in files.items():
        assert (tmp_path / produced).read_bytes() == (DATA / "expected" / expected).read_bytes()
