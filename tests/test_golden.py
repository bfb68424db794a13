"""Data files byte-identical to outputs recorded from fixed inputs.

``tests/data/expected`` holds ``criteria.csv`` for a 15-game season with
``--tie jagged``, ``criteria.csv`` and ``criteria.json`` for a 4-walk
series with an h=2 tie-map file (and ``criteria.csv`` for the same run
under the prior 0.3, 1.7, 0.9), ``selection.csv``, ``delta.csv`` and
``summary.json`` for a fixed-seed M=4 grid, ``selection.csv`` and
``summary.json`` (with its ``jagged_win_rate``) for two fixed-seed
free-throw studies, and ``oracle.json`` for a fixed-seed h=1 audit of the
season. In the second free-throw study 6 of 40 replicates draw no game,
so its frequencies are over the 34 that do. A change that moves any byte
of them changes the program's results.
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
    # a non-dyadic prior: row totals of counts plus 0.3 are not exact integers
    "series_tie_alpha": (["criteria", "--input", str(DATA / "series.jsonl"), "--h-range", "0..3",
                          "--prior-alpha", "0.3,1.7,0.9", "--tie", str(DATA / "series_tie.json")],
                         {"criteria.csv": "series_tie_alpha_criteria.csv"}),
    "grid": (["simulate", "--M", "4", "--h-true", "1", "--h-range", "1..3", "--J", "3",
              "--J", "6", "--replicates", "2", "--length-cap", "60", "--seed", "7"],
             {"selection.csv": "grid_selection.csv", "delta.csv": "grid_delta.csv",
              "summary.json": "grid_summary.json"}),
    "ft_jagged": (["simulate", "--free-throw", "--ft-model", "jagged:0.82,0.66", "--games", "91",
                   "--replicates", "60", "--seed", "3", "--criteria", "AIC,WAIC1,WAIC2,LOO,CV2"],
                  {"selection.csv": "ft_jagged_selection.csv",
                   "summary.json": "ft_jagged_summary.json"}),
    "ft_h0": (["simulate", "--free-throw", "--ft-model", "h0:0.7", "--games", "5", "--lambda", "0.4",
               "--replicates", "40", "--seed", "1", "--criteria", "LOO,AIC"],
              {"selection.csv": "ft_h0_selection.csv", "summary.json": "ft_h0_summary.json"}),
    "season_oracle": (["oracle", "--input", str(DATA / "season.jsonl"), "--h", "1",
                       "--draws", "1000", "--seed", "0"], {"oracle.json": "season_oracle.json"}),
}


@pytest.mark.parametrize("name", list(RUNS))
def test_outputs_match_recorded_bytes(name, tmp_path):
    argv, files = RUNS[name]
    assert main(argv + ["--out", str(tmp_path)]) == 0
    for produced, expected in files.items():
        assert (tmp_path / produced).read_bytes() == (DATA / "expected" / expected).read_bytes()
