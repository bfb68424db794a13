"""Command-line interface behavior, file outputs and exit codes."""

import argparse
import concurrent.futures
import csv
import ctypes
import dataclasses
import gc
import json
import math
import os
import subprocess
import sys
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

import numpy as np
import pytest

import memsel.criteria
from memsel import cli
from memsel.cli import build_parser, main
from memsel.dataio import (
    EmptyInputError,
    TrajectoryFormatError,
    file_digest,
    import_outcome_csv,
    load_tie_map,
    read_trajectories_jsonl,
    write_trajectories_jsonl,
)
from memsel.chain import START, BoundaryMode, StateAlphabet, Trajectory
from memsel.simulate import (
    _TAG_TRAJECTORIES,
    FreeThrowModel,
    FreeThrowSimConfig,
    SimConfig,
    _glibc,
    _rng,
    generate_network,
    sample_trajectory,
)


@pytest.fixture
def season(tmp_path):
    """A small synthetic free-throw season as JSONL."""
    rng = np.random.default_rng(5)
    path = tmp_path / "season.jsonl"
    lines = [json.dumps({"states": ["0", "1"]})]
    for g in range(40):
        n = max(1, int(rng.poisson(7.6)))
        seq, p = [], 0.66
        for _ in range(n):
            hit = rng.random() < p
            seq.append("1" if hit else "0")
            p = 0.66 if hit else 0.78
        lines.append(json.dumps({"id": f"g{g}", "seq": seq}))
    path.write_text("\n".join(lines) + "\n")
    return path


def read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


class TestCriteriaCommand:
    def test_report_shape_and_argmin_output(self, season, tmp_path, capsys):
        out = tmp_path / "out"
        code = main(["criteria", "--input", str(season), "--h-range", "0..3",
                     "--out", str(out)])
        assert code == 0
        rows = read_csv(out / "criteria.csv")
        assert [r["h"] for r in rows] == ["0", "1", "2", "3"]
        for r in rows:
            for col in ("AIC", "DIC1", "DIC2", "LPD", "LPPD", "WAIC1", "WAIC2", "LOO", "CV2"):
                float(r[col])  # parses
        report = json.loads((out / "criteria.json").read_text())
        assert len(report) == 4
        printed = capsys.readouterr().out
        assert "LOO: best" in printed
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["command"] == "criteria"
        assert str(season) in manifest["inputs"]

    def test_manifest_records_the_parsed_argv(self, season, tmp_path, monkeypatch):
        # main(argv) records its own argv, not the host process's arguments
        monkeypatch.setattr(sys, "argv", ["host", "extra_host_arg", "--zzz"])
        argv = ["criteria", "--input", str(season), "--h-range", "1", "--out", str(tmp_path / "a")]
        assert main(argv) == 0
        assert json.loads((tmp_path / "a" / "manifest.json").read_text())["argv"] == argv
        argv = ["criteria", "--input", str(season), "--h-range", "1", "--out", str(tmp_path / "b")]
        monkeypatch.setattr(sys, "argv", ["memsel"] + argv)
        assert main() == 0
        assert json.loads((tmp_path / "b" / "manifest.json").read_text())["argv"] == argv

    def test_jagged_tie_row(self, season, tmp_path):
        out = tmp_path / "out"
        assert main(["criteria", "--input", str(season), "--h-range", "0..1",
                     "--tie", "jagged", "--out", str(out)]) == 0
        rows = read_csv(out / "criteria.csv")
        assert rows[-1]["label"] == "jagged(h=1)"
        assert rows[-1]["k_params"] == "2"
        # padded full h=1 carries three parameters, one more than jagged
        assert rows[1]["k_params"] == "3"

    def test_prior_changes_bayesian_criteria_only(self, season, tmp_path):
        out1, out2 = tmp_path / "a", tmp_path / "b"
        main(["criteria", "--input", str(season), "--h-range", "1", "--out", str(out1)])
        main(["criteria", "--input", str(season), "--h-range", "1",
              "--prior-alpha", "0.5", "--out", str(out2)])
        r1, r2 = read_csv(out1 / "criteria.csv"), read_csv(out2 / "criteria.csv")
        assert r1[0]["AIC"] == r2[0]["AIC"]
        assert r1[0]["LOO"] != r2[0]["LOO"]

    def test_cv2_unavailable_on_one_trajectory(self, one_game, tmp_path, capsys):
        out = tmp_path / "out"
        assert main(["criteria", "--input", str(one_game), "--h-range", "1",
                     "--out", str(out)]) == 0
        printed = capsys.readouterr().out
        assert "CV2: unavailable (needs at least two trajectories)" in printed
        assert "LOO: best h=" in printed
        assert all(r["CV2"] == "nan" for r in read_csv(out / "criteria.csv"))

    def test_cv2_special_value_spelled_per_format(self, one_game, tmp_path):
        # the same NaN cell: repr in criteria.csv, JSON's NaN in criteria.json
        out = tmp_path / "out"
        assert main(["criteria", "--input", str(one_game), "--h-range", "1",
                     "--out", str(out)]) == 0
        assert [line.split(",")[14] for line in
                (out / "criteria.csv").read_text().splitlines()] == ["CV2", "nan", "nan"]
        text = (out / "criteria.json").read_text()
        assert text.count('"CV2": NaN,') == 2
        assert all(np.isnan(r["CV2"]) for r in json.loads(text))

    def test_missing_range_is_config_error(self, season, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["criteria", "--input", str(season), "--out", str(tmp_path / "o")])
        assert exc.value.code == 2
        assert "the following arguments are required: --h-range" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_manifest_config_records_the_model_options(self, season, tmp_path):
        out = tmp_path / "o"
        assert main(["criteria", "--input", str(season), "--h-range", "0..2", "--tie", "jagged",
                     "--aic-penalty", "full", "--out", str(out)]) == 0
        config = json.loads((out / "manifest.json").read_text())["config"]
        assert set(config) == {"input", "h_values", "labels", "prior_alpha", "boundary", "tie",
                               "aic_penalty", "states"}
        assert (config["tie"], config["aic_penalty"]) == ("jagged", "full")
        assert config["labels"] == ["h=0", "h=1", "h=2", "jagged(h=1)"]

    def test_manifest_digests_a_tie_map_file(self, season, tmp_path):
        # the builtin jagged map is no file; a --tie file is an input of the run
        data = Path(__file__).parent / "data"
        series, tie_file = data / "series.jsonl", data / "series_tie.json"
        for tie, inputs in (("jagged", [season]), (str(tie_file), [series, tie_file])):
            out = tmp_path / Path(tie).stem
            assert main(["criteria", "--input", str(inputs[0]), "--h-range", "0..2",
                         "--tie", tie, "--out", str(out)]) == 0
            manifest = json.loads((out / "manifest.json").read_text())
            assert manifest["inputs"] == {str(p): file_digest(p) for p in inputs}

    def test_select_command_is_gone(self, season, tmp_path, capsys):
        # criteria prints the argmin of every criterion; select only repeated one of them
        out = tmp_path / "o"
        with pytest.raises(SystemExit) as exc:
            main(["select", "--input", str(season), "--h-range", "0..2", "--criterion", "LOO",
                  "--out", str(out)])
        assert exc.value.code == 2
        assert "invalid choice: 'select'" in capsys.readouterr().err
        assert not out.exists()


@pytest.fixture
def one_game(tmp_path):
    path = tmp_path / "one.jsonl"
    path.write_text('{"id": "g0", "seq": ["1", "0", "1", "1", "0"]}\n')
    return path


class TestErrorPaths:
    def test_malformed_jsonl_line_numbered(self, tmp_path, capsys):
        bad = tmp_path / "bad.jsonl"
        bad.write_text('{"id": "a", "seq": ["0"]}\nnot json\n')
        code = main(["criteria", "--input", str(bad), "--h-range", "1",
                     "--out", str(tmp_path / "o")])
        assert code == 2
        assert "line 2" in capsys.readouterr().err

    def test_unknown_state_label(self, tmp_path, capsys):
        data = tmp_path / "d.jsonl"
        data.write_text('{"id": "a", "seq": ["0", "7"]}\n')
        assert main(["criteria", "--input", data.as_posix(), "--h-range", "1",
                     "--states", "0,1", "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert "line 1: unknown state label '7'" in err

    def test_one_label_without_states_names_the_fix(self, tmp_path, capsys):
        hits = tmp_path / "hits.jsonl"
        hits.write_text('{"id": "g0", "seq": ["1", "1"]}\n{"id": "g1", "seq": ["1"]}\n')
        out = tmp_path / "o"
        argv = ["criteria", "--input", str(hits), "--h-range", "1", "--out", str(out)]
        assert main(argv) == 2
        assert (f"error: {hits}: line 1: every step is '1', so the states cannot be inferred; "
                'name them in a {"states": [...]} header line or with --states\n'
                == capsys.readouterr().err)
        assert not out.exists()
        assert main(argv + ["--states", "0,1"]) == 0

    def test_empty_input(self, tmp_path):
        empty = tmp_path / "empty.jsonl"
        empty.write_text("")
        assert main(["criteria", "--input", str(empty), "--h-range", "1",
                     "--out", str(tmp_path / "o")]) == 3

    def test_unmapped_tie_context_is_config_error(self, season, tmp_path, capsys):
        # an h=1 map over the padded contexts with no default misses "1"
        path = tmp_path / "tie.json"
        path.write_text(json.dumps({"h": 1, "classes": [
            {"contexts": [["0"]]}, {"contexts": [["START"]]}]}))
        out = tmp_path / "o"
        assert main(["criteria", "--input", str(season), "--h-range", "0..2",
                     "--tie", str(path), "--out", str(out)]) == 2
        assert capsys.readouterr().err.startswith(f"error: {path}: context (1,) has no tie class")
        assert not out.exists()

    def test_non_list_states_header_is_line_numbered(self, tmp_path, capsys):
        bad = tmp_path / "bad.jsonl"
        bad.write_text('{"states": 5}\n{"id": "a", "seq": ["0", "1"]}\n')
        assert main(["criteria", "--input", str(bad), "--h-range", "1",
                     "--out", str(tmp_path / "o")]) == 2
        assert "line 1" in capsys.readouterr().err

    def test_repeated_header_labels_are_line_numbered(self, tmp_path, capsys):
        bad = tmp_path / "bad.jsonl"
        bad.write_text('\n{"states": ["a", "a"]}\n{"id": "x", "seq": ["a"]}\n')
        assert main(["criteria", "--input", str(bad), "--h-range", "1",
                     "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert "line 2" in err and "unique" in err

    @pytest.mark.parametrize("h", [1.9, True, "1", -1])
    def test_tie_map_depth_must_be_an_integer(self, season, tmp_path, capsys, h):
        # int() would read 1.9, true and "1" as h=1
        path = tmp_path / "tie.json"
        path.write_text(json.dumps({"h": h, "classes": [{"default": True}]}))
        out = tmp_path / "o"
        assert main(["criteria", "--input", str(season), "--h-range", "0..1",
                     "--tie", str(path), "--out", str(out)]) == 2
        assert f'tie map "h" must be an integer >= 0, got {h!r}' in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("default", ["no", 1, None])
    def test_tie_default_must_be_a_boolean(self, season, tmp_path, capsys, default):
        # read as a flag, "no" made that class the catch-all
        path = tmp_path / "tie.json"
        path.write_text(json.dumps({"h": 1, "classes": [
            {"contexts": [["0"]]}, {"contexts": [["1"], ["START"]], "default": default}]}))
        out = tmp_path / "o"
        assert main(["criteria", "--input", str(season), "--h-range", "0..1",
                     "--tie", str(path), "--out", str(out)]) == 2
        assert f'class 1: "default" must be true or false, got {default!r}' \
            in capsys.readouterr().err
        assert not out.exists()

    def test_tie_class_without_context_is_config_error(self, season, tmp_path, capsys):
        # it would add M - 1 to k_params with no count behind them
        path = tmp_path / "tie.json"
        path.write_text(json.dumps({"h": 1, "classes": [
            {"contexts": [["0"]]}, {"contexts": [["1"], ["START"]]}, {"contexts": []}]}))
        out = tmp_path / "o"
        assert main(["criteria", "--input", str(season), "--h-range", "0..1",
                     "--tie", str(path), "--out", str(out)]) == 2
        assert "class 2 has no context and is not the default" in capsys.readouterr().err
        assert not out.exists()

    def test_start_context_refused_under_truncated_counting(self, tmp_path, capsys):
        # truncated counting never sees a START context; its class would add M - 1 to k_params
        path = tmp_path / "tie.json"
        path.write_text(json.dumps({"h": 1, "classes": [
            {"contexts": [["0"]]}, {"contexts": [["1"]]}, {"contexts": [["START"]]}]}))
        out = tmp_path / "o"
        season = Path(__file__).parent / "data" / "season.jsonl"
        argv = ["criteria", "--input", str(season), "--h-range", "0..1",
                "--tie", str(path), "--out", str(out)]
        assert main(argv + ["--boundary", "truncated"]) == 2
        assert capsys.readouterr().err.startswith(
            f"error: {path}: tie map context ('START',) holds START")
        assert not out.exists()
        assert main(argv) == 0  # padded counting does see it

    @pytest.mark.parametrize("contexts", [["01"], 5])
    def test_tie_contexts_must_be_lists(self, season, tmp_path, capsys, contexts):
        # a string context is not split into its characters
        path = tmp_path / "tie.json"
        path.write_text(json.dumps({"h": 2, "classes": [
            {"contexts": contexts}, {"default": True}]}))
        out = tmp_path / "o"
        assert main(["criteria", "--input", str(season), "--h-range", "0..2",
                     "--tie", str(path), "--out", str(out)]) == 2
        assert "list" in capsys.readouterr().err
        assert not out.exists()

    # the longest game of the season has 11 shots, so truncated h=11 counts
    # nothing: scored as 0 on every criterion, it would win every argmin
    @pytest.mark.parametrize("command", [
        ["criteria", "--h-range", "10..11"],
        ["oracle", "--h", "11", "--draws", "1000"],
    ], ids=["criteria", "oracle"])
    def test_depth_that_counts_no_transition_is_config_error(self, tmp_path, capsys, command):
        season = Path(__file__).parent / "data" / "season.jsonl"
        out = tmp_path / "o"
        argv = [command[0], "--input", str(season), *command[1:], "--out", str(out)]
        assert main(argv + ["--boundary", "truncated"]) == 2
        assert ("error: depth h=11 counts no transition under --boundary truncated: "
                "no trajectory is longer than 11 steps\n") == capsys.readouterr().err
        assert not out.exists()
        assert main(argv) == 0  # padded counting counts every step at every depth

    def test_negative_oracle_depth_is_config_error(self, season, tmp_path, capsys):
        assert main(["oracle", "--input", str(season), "--h", "-1",
                     "--out", str(tmp_path / "o")]) == 2
        assert "h must be >= 0" in capsys.readouterr().err

    def test_missing_file(self, tmp_path):
        assert main(["criteria", "--input", str(tmp_path / "nope.jsonl"),
                     "--h-range", "1", "--out", str(tmp_path / "o")]) == 2

    @pytest.mark.parametrize("command", [
        ["criteria", "--input", "{dir}", "--h-range", "1"],
        ["oracle", "--input", "{dir}", "--h", "1"],
        ["import", "--input", "{dir}", "--output", "{dir}/x.jsonl"],
        ["criteria", "--input", "{season}", "--h-range", "1", "--tie", "{dir}"],
    ])
    def test_directory_given_as_a_file_is_config_error(self, season, tmp_path, capsys, command):
        out = tmp_path / "o"
        argv = [a.format(dir=tmp_path, season=season) for a in command]
        assert main(argv + (["--out", str(out)] if command[0] != "import" else [])) == 2
        assert f"error: {tmp_path}: Is a directory\n" == capsys.readouterr().err
        assert not out.exists()

    # an empty list is a list given, not an option left out: it exits 2, named
    @pytest.mark.parametrize("command", [
        ["criteria", "--input", "{season}", "--h-range", "0..1"],
        ["criteria", "--input", "{csv}", "--h-range", "0..1"],
        ["oracle", "--input", "{season}", "--h", "1"],
        ["oracle", "--input", "{csv}", "--h", "1"],
        ["import", "--input", "{csv}"],
    ], ids=["criteria-jsonl", "criteria-csv", "oracle-jsonl", "oracle-csv", "import"])
    def test_empty_label_list_is_config_error(self, season, tmp_path, capsys, command):
        games = tmp_path / "games.csv"
        games.write_text("g1,1\ng1,0\ng2,1\n")
        out = tmp_path / "o"
        argv = [a.format(season=season, csv=games) for a in command] + ["--states", ""]
        assert main(argv + (["--output", str(out)] if argv[0] == "import"
                            else ["--out", str(out)])) == 2
        assert "error: --states '': alphabet needs at least two states" in capsys.readouterr().err
        assert not out.exists()

    # --h-range H and --states are the one spelling of each: argparse knows no other
    @pytest.mark.parametrize("command", [
        ["criteria", "--input", "{season}", "--h-range", "1", "--h-max", "1"],
        ["simulate", "--M", "3", "--J", "4", "--replicates", "5", "--h-max", "2"],
        ["criteria", "--input", "{csv}", "--h-range", "1", "--labels", "0,1"],
        ["oracle", "--input", "{csv}", "--h", "1", "--labels", "0,1"],
        ["import", "--input", "{csv}", "--labels", "0,1"],
    ], ids=["criteria-h-max", "simulate-h-max", "criteria-labels",
            "oracle-labels", "import-labels"])
    def test_removed_option_is_refused_by_argparse(self, season, tmp_path, capsys, command):
        games = tmp_path / "games.csv"
        games.write_text("g1,1\ng1,0\ng2,1\n")
        out = tmp_path / "o"
        argv = [a.format(season=season, csv=games) for a in command]
        with pytest.raises(SystemExit) as exc:
            main(argv + (["--output", str(out)] if argv[0] == "import" else ["--out", str(out)]))
        assert exc.value.code == 2
        assert f"unrecognized arguments: {command[-2]}" in capsys.readouterr().err
        assert not out.exists()

    # branches of the option parsers: each exits 2 with its message
    @pytest.mark.parametrize("options, message", [
        (["--h-range", "x..2"], "cannot parse --h-range 'x..2'; use e.g. 0..3"),
        (["--h-range", "0:2"], "cannot parse --h-range '0:2'; use e.g. 0..3"),
        (["--h-range", "2..1"], "invalid depth range 2..1"),
        (["--h-range", "0..1", "--prior-alpha", "one"], "cannot parse --prior-alpha 'one'"),
        (["--h-range", "0..1", "--prior-alpha", "1,2,3"],
         "--prior-alpha needs 1 or 2 components, got 3"),
        (["--h-range", "0..1", "--prior-alpha", "0"], "prior components must be finite and > 0"),
        (["--h-range", "0..1", "--prior-alpha", "-1"], "prior components must be finite and > 0"),
        (["--h-range", "0..1", "--prior-alpha", "nan"],
         "prior components must be finite and > 0"),
        (["--h-range", "0..1", "--prior-alpha", "inf"],
         "prior components must be finite and > 0"),
    ], ids=["h-range-text", "h-range-colon", "h-range-reversed", "prior-text",
            "prior-components", "prior-zero", "prior-negative", "prior-nan", "prior-inf"])
    def test_option_error_table(self, season, tmp_path, capsys, options, message):
        out = tmp_path / "o"
        assert main(["criteria", "--input", str(season), *options, "--out", str(out)]) == 2
        assert f"error: {message}\n" == capsys.readouterr().err
        assert not out.exists()

    # M^(h+1) - 1 parameters past the float range: AIC is inf, the other criteria score
    @pytest.mark.parametrize("command", [
        ["criteria", "--input", "{season}", "--h-range", "1100..1100"],
        ["oracle", "--input", "{season}", "--h", "1100", "--draws", "1000"],
        ["simulate", "--M", "3", "--h-range", "700..700", "--J", "2", "--replicates", "1"],
    ], ids=["criteria", "oracle", "simulate"])
    def test_depth_past_the_float_range_scores_aic_inf(self, tmp_path, command):
        season = Path(__file__).parent / "data" / "season.jsonl"
        out = tmp_path / "o"
        assert main([a.format(season=season) for a in command] + ["--out", str(out)]) == 0
        if command[0] == "criteria":
            [row] = read_csv(out / "criteria.csv")
            assert row["AIC"] == "inf" and float(row["LOO"]) < math.inf
            assert row["k_params"] == str(2**1101 - 1)
        elif command[0] == "simulate":
            assert {r["criterion"]: r["frequency"] for r in read_csv(out / "selection.csv")
                    }["AIC"] == "1.0"

    def test_bare_h_range_is_a_maximum(self, season, tmp_path):
        out = tmp_path / "o"
        assert main(["criteria", "--input", str(season), "--h-range", "3", "--out", str(out)]) == 0
        assert [r["h"] for r in read_csv(out / "criteria.csv")] == ["0", "1", "2", "3"]

    def test_missing_tie_map_file(self, season, tmp_path, capsys):
        out = tmp_path / "o"
        assert main(["criteria", "--input", str(season), "--h-range", "0..1",
                     "--tie", str(tmp_path / "nope.json"), "--out", str(out)]) == 2
        assert (f"error: {tmp_path / 'nope.json'}: No such file or directory\n"
                == capsys.readouterr().err)
        assert not out.exists()

    # a file where an output directory would go is refused before any input is
    # read or any study is run: every work function here raises if it is called
    @pytest.mark.parametrize("command", [
        ["criteria", "--input", "{season}", "--h-range", "0..1", "--out", "{afile}"],
        ["oracle", "--input", "{season}", "--h", "1", "--out", "{afile}/sub"],
        ["simulate", "--profile", "ci", "--seed", "1", "--out", "{afile}/sub"],
        ["simulate", "--free-throw", "--out", "{afile}/sub/deeper"],
        ["import", "--input", "{season}", "--output", "{afile}/x.jsonl"],
    ], ids=["criteria", "oracle", "simulate", "simulate-free-throw", "import"])
    def test_unusable_output_path_is_refused_first(self, season, tmp_path, capsys,
                                                   monkeypatch, command):
        def work(*args, **kwargs):
            raise AssertionError("the command ran before refusing its output path")

        for name in ("_load_input", "import_outcome_csv", "run_power_study",
                     "free_throw_power"):
            monkeypatch.setattr(cli, name, work)
        afile = tmp_path / "afile"
        afile.write_text("")
        assert main([a.format(season=season, afile=afile) for a in command]) == 2
        assert f"error: {afile}: Not a directory\n" == capsys.readouterr().err
        assert afile.read_text() == "" and sorted(tmp_path.iterdir()) == [afile, season]

    def test_failed_write_is_config_error(self, season, tmp_path, capsys):
        # the output directory passes, then the first file cannot be opened
        out = tmp_path / "o"
        (out / "criteria.json").mkdir(parents=True)
        assert main(["criteria", "--input", str(season), "--h-range", "0..1",
                     "--out", str(out)]) == 2
        assert (f"error: {out / 'criteria.json'}: Is a directory\n"
                == capsys.readouterr().err)


class TestImportCommand:
    def test_roundtrip(self, tmp_path):
        csv_path = tmp_path / "games.csv"
        csv_path.write_text(
            "game_id,outcome\ng1,1\ng1,0\ng1,1\ng2,0\ng2,0\n")
        out = tmp_path / "t.jsonl"
        assert main(["import", "--input", str(csv_path), "--output", str(out)]) == 0
        alphabet, trajs = read_trajectories_jsonl(out)
        assert [t.id for t in trajs] == ["g1", "g2"]
        assert trajs[0].steps == (1, 0, 1)
        assert trajs[1].steps == (0, 0)

    def test_labels_override(self, tmp_path):
        csv_path = tmp_path / "games.csv"
        csv_path.write_text("g1,make\ng1,miss\n")
        out = tmp_path / "t.jsonl"
        assert main(["import", "--input", str(csv_path), "--output", str(out),
                     "--states", "miss,make"]) == 0
        alphabet, trajs = read_trajectories_jsonl(out)
        assert alphabet.labels == ("miss", "make")
        assert trajs[0].steps == (1, 0)

    def test_states_are_stripped_as_cells_are(self, tmp_path):
        # an unstripped " make" would match no cell, so line 1 would read as a header
        csv_path = tmp_path / "games.csv"
        csv_path.write_text("g1,make\ng1, miss\ng2,make \n")
        out = tmp_path / "t.jsonl"
        assert main(["import", "--input", str(csv_path), "--output", str(out),
                     "--states", "miss, make"]) == 0
        alphabet, trajs = read_trajectories_jsonl(out)
        assert alphabet.labels == ("miss", "make")
        assert [t.steps for t in trajs] == [(1, 0), (1,)]

    def test_missing_input_is_config_error(self, tmp_path, capsys):
        out = tmp_path / "t.jsonl"
        assert main(["import", "--input", str(tmp_path / "nope.csv"),
                     "--output", str(out)]) == 2
        assert (f"error: {tmp_path / 'nope.csv'}: No such file or directory\n"
                == capsys.readouterr().err)
        assert not out.exists()

    @pytest.mark.parametrize("text, code, message", [
        ("", 3, "games.csv: no outcome rows in input"),
        ("game,outcome\n", 3, "games.csv: no outcome rows in input"),
        ("g1,1\ng2,0\ng1,0\n", 2, "line 3: group 'g1' resumes after another group"),
        # an integer outcome on line 1 is a mistyped row, not a header to skip
        ("g1,2\ng1,0\ng2,1\n", 2, "line 1: unknown state label '2'"),
        ("g1,-1\ng1,0\n", 2, "line 1: unknown state label '-1'"),
        # so is one on the first non-blank row
        ("\n,\ng1,2\ng1,0\n", 2, "line 3: unknown state label '2'"),
    ], ids=["empty", "header-only", "resumed-group", "integer-first-row",
            "negative-first-row", "integer-first-row-after-blank"])
    def test_bad_csv_is_refused(self, tmp_path, capsys, text, code, message):
        csv_path, out = tmp_path / "games.csv", tmp_path / "t.jsonl"
        csv_path.write_text(text)
        assert main(["import", "--input", str(csv_path), "--output", str(out)]) == code
        assert message in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command, name", [
        (["criteria", "--h-range", "0..2", "--tie", "jagged"], "criteria.csv"),
        (["oracle", "--h", "1", "--draws", "1000"], "oracle.json"),
    ])
    def test_csv_input_scores_as_its_import(self, season, tmp_path, command, name):
        # a CSV --input reads as the JSONL that import makes of it, with the
        # default outcomes 0,1 or with miss,make named by --states
        _, trajs = read_trajectories_jsonl(season)
        results = []
        for states in ([], ["--states", "miss,make"]):
            labels = states[1].split(",") if states else ["0", "1"]
            games = tmp_path / f"{labels[1]}.csv"
            games.write_text("game,outcome\n" + "".join(
                f"{t.id},{labels[s]}\n" for t in trajs for s in t.steps))
            imported = games.with_suffix(".jsonl")
            assert main(["import", "--input", str(games), *states,
                         "--output", str(imported)]) == 0
            assert read_trajectories_jsonl(imported)[0].labels == tuple(labels)
            for path, extra in ((games, states), (imported, [])):
                out = tmp_path / f"{path.name}.out"
                assert main([command[0], "--input", str(path), *command[1:], *extra,
                             "--out", str(out)]) == 0
                results.append((out / name).read_bytes())
        assert len(set(results)) == 1

    # an Excel export starts with a byte-order mark; a header may follow blank rows
    @pytest.mark.parametrize("prefix", ["\ufeff", "\n \n,\ngame,result\n"],
                             ids=["bom", "header-after-blank-rows"])
    def test_csv_scores_as_its_plain_twin(self, tmp_path, prefix):
        rows = "g1,1\ng1,0\ng1,1\ng2,1\ng2,1\n"
        results = []
        for name, text in (("plain", rows), ("variant", prefix + rows)):
            path = tmp_path / f"{name}.csv"
            path.write_text(text, encoding="utf-8")
            out = tmp_path / name
            assert main(["criteria", "--input", str(path), "--h-range", "0..1",
                         "--out", str(out)]) == 0
            results.append((out / "criteria.csv").read_bytes())
        assert results[0] == results[1]
        assert [r["J"] for r in read_csv(tmp_path / "variant" / "criteria.csv")] == ["2", "2"]

    def test_output_directory_is_made(self, tmp_path):
        csv_path = tmp_path / "games.csv"
        csv_path.write_text("g1,1\ng1,0\ng2,1\n")
        out = tmp_path / "missing" / "dir" / "t.jsonl"
        assert main(["import", "--input", str(csv_path), "--output", str(out)]) == 0
        _, trajs = read_trajectories_jsonl(out)
        assert [t.steps for t in trajs] == [(1, 0), (1,)]


class TestSimulateCommand:
    def test_deterministic_outputs(self, tmp_path):
        args = ["simulate", "--M", "4", "--h-true", "1", "--h-range", "1..2",
                "--J", "4", "--replicates", "20", "--criteria", "LOO",
                "--seed", "3"]
        assert main(args + ["--out", str(tmp_path / "a")]) == 0
        assert main(args + ["--out", str(tmp_path / "b")]) == 0
        a = (tmp_path / "a" / "selection.csv").read_bytes()
        b = (tmp_path / "b" / "selection.csv").read_bytes()
        assert a == b

    def test_length_cap_truncation_is_counted(self, tmp_path, capsys):
        m, j_values, replicates, seed = 3, (2, 5), 4, 7
        args = ["simulate", "--M", str(m), "--h-true", "1", "--h-range", "1..2",
                "--J", "2", "--J", "5", "--replicates", str(replicates),
                "--length-cap", "1", "--seed", str(seed)]
        # recount: a one-step walk is cut unless that step is the absorbing state
        net = generate_network(m, 1, seed)
        expected = 0
        for j_index, j in enumerate(j_values):
            for rep in range(replicates):
                rng = _rng(seed, _TAG_TRAJECTORIES, j_index, rep)
                for _ in range(j):
                    walk = sample_trajectory(net, 1, rng)
                    expected += walk.steps[-1] != m - 1
        assert 0 < expected < replicates * sum(j_values)
        outputs = {}
        for workers in ("1", "2"):
            out = tmp_path / workers
            assert main(args + ["--workers", workers, "--out", str(out)]) == 0
            manifest = json.loads((out / "manifest.json").read_text())
            assert manifest["telemetry"] == {"truncated_walks": expected}
            assert f"warning: {expected} of {replicates * sum(j_values)} walks" \
                in capsys.readouterr().err
            outputs[workers] = [(out / f).read_bytes() for f in ("selection.csv", "delta.csv")]
        assert outputs["1"] == outputs["2"]
        assert main(args[:-4] + ["--seed", str(seed), "--out", str(tmp_path / "uncapped")]) == 0
        manifest = json.loads((tmp_path / "uncapped" / "manifest.json").read_text())
        assert manifest["telemetry"] == {"truncated_walks": 0}
        assert "warning" not in capsys.readouterr().err

    def test_selection_schema(self, tmp_path):
        main(["simulate", "--M", "4", "--h-true", "1", "--h-range", "1..2",
              "--J", "4", "--replicates", "10", "--criteria", "LOO,WAIC1",
              "--seed", "1", "--out", str(tmp_path / "o")])
        rows = read_csv(tmp_path / "o" / "selection.csv")
        assert {r["criterion"] for r in rows} == {"LOO", "WAIC1"}
        assert set(rows[0]) == {"h_true", "J", "criterion", "h_chosen", "frequency"}
        assert (tmp_path / "o" / "delta.csv").exists()
        summary = json.loads((tmp_path / "o" / "summary.json").read_text())
        assert summary["config"]["h_true"] == 1

    @pytest.mark.parametrize("rerun", [["--h-true", "3"], ["--free-throw", "--games", "3"]])
    def test_run_without_deltas_removes_an_earlier_delta_csv(self, tmp_path, rerun):
        grid = ["simulate", "--M", "3", "--h-range", "1..2", "--J", "4"]
        common = ["--replicates", "3", "--seed", "1", "--out", str(tmp_path / "o")]
        assert main(grid + ["--h-true", "1"] + common) == 0
        assert (tmp_path / "o" / "delta.csv").exists()
        assert main((grid if rerun[0] == "--h-true" else ["simulate"]) + rerun + common) == 0
        assert not (tmp_path / "o" / "delta.csv").exists()
        summary = json.loads((tmp_path / "o" / "summary.json").read_text())
        assert summary.get("deltas", []) == []

    @pytest.mark.parametrize("cap, recorded", [(["--length-cap", "60"], 60), ([], 10_000)])
    def test_grid_manifest_records_the_length_cap(self, tmp_path, cap, recorded):
        out = tmp_path / "o"
        assert main(["simulate", "--M", "4", "--h-range", "1..2", "--J", "3", "--replicates",
                     "2", "--criteria", "LOO", *cap, "--out", str(out)]) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        summary = json.loads((out / "summary.json").read_text())
        assert "length_cap" not in summary["config"]
        assert manifest["config"] == {**summary["config"], "length_cap": recorded}

    def test_free_throw_mode(self, tmp_path):
        assert main(["simulate", "--free-throw", "--ft-model", "jagged:0.82,0.66",
                     "--games", "30", "--replicates", "10", "--criteria", "LOO",
                     "--seed", "2", "--out", str(tmp_path / "o")]) == 0
        summary = json.loads((tmp_path / "o" / "summary.json").read_text())
        assert "LOO" in summary["jagged_win_rate"]

    def test_free_throw_workers_use_the_pool_and_keep_bytes(self, tmp_path, monkeypatch):
        pools = []

        class CountingPool(ProcessPoolExecutor):
            def __init__(self, max_workers=None, **kwargs):
                pools.append(max_workers)
                super().__init__(max_workers, **kwargs)

        # the study imports the pool class when it starts a pool
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", CountingPool)
        args = ["simulate", "--free-throw", "--games", "30", "--replicates", "20", "--seed", "4"]
        outputs = {}
        for workers in ("1", "2"):
            out = tmp_path / workers
            assert main(args + ["--workers", workers, "--out", str(out)]) == 0
            outputs[workers] = [(out / f).read_bytes() for f in ("selection.csv", "summary.json")]
        assert outputs["1"] == outputs["2"]
        assert pools == [2]

    @pytest.mark.parametrize("workers", ["0", "-3"])
    @pytest.mark.parametrize("mode", [[], ["--free-throw"]])
    def test_worker_count_below_one_is_config_error(self, tmp_path, capsys, mode, workers):
        out = tmp_path / "o"
        assert main(["simulate", *mode, "--replicates", "2", "--workers", workers,
                     "--out", str(out)]) == 2
        assert f"worker count must be >= 1, got {workers}" in capsys.readouterr().err
        assert not (out / "selection.csv").exists()

    def test_free_throw_cv2_needs_two_games(self, tmp_path, capsys):
        base = ["simulate", "--free-throw", "--criteria", "LOO,CV2", "--replicates", "20",
                "--out", str(tmp_path / "o")]
        assert main(base + ["--games", "1"]) == 2
        # two games at a low shot rate: some replicates keep only one game
        assert main(base + ["--games", "2", "--lambda", "0.3"]) == 2
        assert "needs at least two trajectories" in capsys.readouterr().err

    def test_bad_ft_model_is_config_error(self, tmp_path):
        assert main(["simulate", "--free-throw", "--ft-model", "nope",
                     "--out", str(tmp_path / "o")]) == 2

    @pytest.mark.parametrize("args", [
        ["--workers", "0", "--replicates", "2"],
        ["--free-throw", "--ft-model", "nope"],
        ["--replicates", "0"],
        ["--free-throw", "--games", "0"],
        # the arguments pass; the study then fails (a season keeps one game)
        ["--free-throw", "--games", "2", "--lambda", "0.3", "--criteria", "CV2",
         "--replicates", "20"],
        # a profile sets its own grid, so the options it would ignore are refused
        ["--profile", "ci", "--replicates", "3", "--J", "4"],
        ["--profile", "ci", "--M", "4"],
        ["--profile", "ci", "--length-cap", "50"],
        ["--profile", "ci", "--criteria", "LOO"],
        ["--profile", "ci", "--h-range", "1..2"],
        ["--profile", "ci", "--h-range", "0"],
        ["--profile", "ci", "--free-throw"],
        # a grid study reads no free-throw option, so it refuses them
        ["--games", "5"],
        ["--lambda", "3"],
        ["--ft-model", "h0:0.5"],
        ["--profile", "ci", "--games", "5"],
        # a free-throw run reads no grid option, so it refuses them
        ["--free-throw", "--M", "3"],
        ["--free-throw", "--J", "4"],
        ["--free-throw", "--length-cap", "50"],
        ["--free-throw", "--h-range", "0..1"],
        ["--free-throw", "--h-range", "1"],
        ["--free-throw", "--network-per-replicate"],
        ["--free-throw", "--h-true", "0"],
        # a repeated J would run its cell twice under one label
        ["--M", "3", "--h-range", "1..2", "--J", "4", "--J", "4", "--replicates", "5",
         "--criteria", "LOO,AIC"],
    ])
    def test_rejected_run_leaves_no_output_directory(self, tmp_path, args):
        out = tmp_path / "d"
        assert main(["simulate", *args, "--out", str(out)]) == 2
        assert not out.exists()

    @pytest.mark.parametrize("args, message", [
        (["--M", "3", "--h-range", "1..2", "--J", "4", "--replicates", "5", "--criteria",
          "LOO,LOO"], "criterion 'LOO' is named twice"),
        (["--free-throw", "--criteria", "AIC,AIC"], "criterion 'AIC' is named twice"),
        (["--criteria", "LOO,XYZ"], "unknown criterion 'XYZ'"),
        (["--free-throw", "--ft-model", "jagged:1,0.5"],
         "hit probabilities must lie strictly inside (0, 1)"),
        (["--free-throw", "--ft-model", "h1:0.5,nan,0.5"],
         "hit probabilities must lie strictly inside (0, 1)"),
        (["--free-throw", "--ft-model", "jagged:0.5"], "cannot parse --ft-model"),
        (["--free-throw", "--ft-model", "h0:x"], "cannot parse --ft-model"),
        (["--free-throw", "--lambda", "nan"], "rate must be finite and > 0, got nan"),
        (["--free-throw", "--lambda", "inf"], "rate must be finite and > 0, got inf"),
        # numpy's Poisson sampler refuses a rate above its limit
        (["--free-throw", "--lambda", "1e300"], "numpy's Poisson limit, got 1e+300"),
        # the shared network is drawn from a stream keyed by h_true
        (["--M", "3", "--h-range", "1..2", "--h-true", "-1"], "true memory depth must be >= 0"),
        (["--M", "3", "--h-range", "1..2", "--J", "4", "--J", "4", "--replicates", "5",
          "--criteria", "LOO,AIC"], "J value 4 is named twice"),
        (["--M", "1"], "alphabet size must be >= 2"),
        (["--J", "0"], "J values must be positive"),
        (["--length-cap", "0"], "length cap must be >= 1"),
    ], ids=["repeated", "ft-repeated", "unknown", "ft-p-range", "ft-p-nan", "ft-arity",
            "ft-text", "ft-lambda-nan", "ft-lambda-inf", "ft-lambda-huge", "h-true-negative",
            "J-repeated", "M-one", "J-zero", "length-cap-zero"])
    def test_config_error_names_its_cause(self, tmp_path, capsys, args, message):
        out = tmp_path / "d"
        assert main(["simulate", *args, "--out", str(out)]) == 2
        assert message in capsys.readouterr().err
        assert not out.exists()

    def test_profile_names_the_options_it_refuses(self, tmp_path, capsys):
        assert main(["simulate", "--profile", "ci", "--replicates", "3", "--J", "4",
                     "--free-throw", "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert "--profile ci" in err
        assert "--J, --replicates, --free-throw" in err

    def test_grid_study_names_the_free_throw_options_it_refuses(self, tmp_path, capsys):
        assert main(["simulate", "--M", "3", "--J", "4", "--replicates", "2", "--h-range",
                     "1..2", "--games", "5", "--ft-model", "nonsense",
                     "--out", str(tmp_path / "o")]) == 2
        assert "--games, --ft-model apply only with --free-throw" in capsys.readouterr().err

    def test_free_throw_names_the_grid_options_it_refuses(self, tmp_path, capsys):
        assert main(["simulate", "--free-throw", "--games", "5", "--h-true", "0", "--M", "3",
                     "--h-range", "1", "--out", str(tmp_path / "o")]) == 2
        assert "--M, --h-range, --h-true do not apply with --free-throw" in capsys.readouterr().err

    @pytest.mark.parametrize("mode, config", [([], SimConfig),
                                              (["--free-throw"], FreeThrowSimConfig)])
    def test_every_config_field_is_set_by_an_option_of_its_run(self, mode, config):
        parser = build_parser()
        sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
        actions = {a.dest: a for a in sub.choices["simulate"]._actions}
        for field in dataclasses.fields(config):
            assert field.name in actions, f"no simulate option sets {field.name}"
            value = not field.default if isinstance(field.default, bool) else field.default
            args = parser.parse_args(["simulate", *mode,
                                      *option_words(actions[field.name], value)])
            assert getattr(cli._study_config(args), field.name) == value, field.name


def option_words(action, value):
    """The command-line words that set ``action``'s config field to ``value``."""
    flag = action.option_strings[0]
    if isinstance(value, bool):
        return [flag]
    if isinstance(value, BoundaryMode):
        return [flag, value.value]
    if isinstance(value, FreeThrowModel):
        assert value.name == "jagged"
        return [flag, f"jagged:{value.p_after_miss},{value.p_after_hit}"]
    if isinstance(action, argparse._AppendAction):
        return [word for v in value for word in (flag, str(v))]
    if isinstance(value, tuple) and isinstance(value[0], int):  # a depth range
        assert value == tuple(range(value[0], value[-1] + 1))
        return [flag, f"{value[0]}..{value[-1]}"]
    if isinstance(value, tuple):
        return [flag, ",".join(value)]
    return [flag, str(value)]


class TestOracleCommand:
    def test_audit_passes_on_clean_build(self, season, tmp_path, capsys):
        assert main(["oracle", "--input", str(season), "--h", "1",
                     "--draws", "20000", "--seed", "0",
                     "--out", str(tmp_path / "o")]) == 0
        out = capsys.readouterr().out
        assert "LPPD" in out and "k_DIC2" in out
        rows = json.loads((tmp_path / "o" / "oracle.json").read_text())
        assert all(abs(r["z"]) <= 4.0 for r in rows)

    def test_too_few_draws_rejected(self, season, tmp_path, capsys):
        assert main(["oracle", "--input", str(season), "--h", "1",
                     "--draws", "10", "--out", str(tmp_path / "o")]) == 2
        # refused before the table header is printed
        assert capsys.readouterr() == ("", "error: at least 1000 draws are required, got 10\n")

    def test_corrupted_closed_form_fails_audit(self, season, tmp_path, monkeypatch):
        real = memsel.criteria._score_batch

        def corrupted(*args):
            values = real(*args)
            which = args[-1]
            if "LOO" in which:
                values[:, memsel.criteria._columns(which).index("LOO")] += 50.0
            return values

        monkeypatch.setattr(memsel.criteria, "_score_batch", corrupted)
        assert main(["oracle", "--input", str(season), "--h", "1",
                     "--draws", "20000", "--seed", "0",
                     "--out", str(tmp_path / "o")]) == 1


class TestDataIo:
    def test_jsonl_header_and_inference(self, tmp_path):
        path = tmp_path / "d.jsonl"
        path.write_text('{"id": "a", "seq": ["x", "y", "x"]}\n')
        alphabet, trajs = read_trajectories_jsonl(path)
        assert alphabet.labels == ("x", "y")  # inferred, sorted
        path2 = tmp_path / "e.jsonl"
        path2.write_text('{"states": ["y", "x"]}\n{"id": "a", "seq": ["x"]}\n')
        alphabet2, _ = read_trajectories_jsonl(path2)
        assert alphabet2.labels == ("y", "x")

    def test_json_numbers_read_as_labels(self, tmp_path):
        # labels are matched by their str(): the number 1 is the label "1",
        # before or after a string label in the same trajectory
        numbers, strings = tmp_path / "n.jsonl", tmp_path / "s.jsonl"
        numbers.write_text('{"states": ["0", "1"]}\n{"id": "a", "seq": [0, 1, 1]}\n'
                           '{"id": "b", "seq": [1, "0"]}\n{"id": "c", "seq": ["1", "0", 0]}\n')
        strings.write_text('{"states": ["0", "1"]}\n{"id": "a", "seq": ["0", "1", "1"]}\n'
                           '{"id": "b", "seq": ["1", "0"]}\n{"id": "c", "seq": ["1", "0", "0"]}\n')
        got, want = read_trajectories_jsonl(numbers), read_trajectories_jsonl(strings)
        assert got[0] == want[0]
        steps = [("a", (0, 1, 1)), ("b", (1, 0)), ("c", (1, 0, 0))]
        assert [(t.id, t.steps) for t in got[1]] == steps
        assert [(t.id, t.steps) for t in want[1]] == steps
        inferred = tmp_path / "i.jsonl"
        inferred.write_text('{"id": "a", "seq": [1, 0, 1]}\n')
        alphabet, trajs = read_trajectories_jsonl(inferred)
        assert alphabet.labels == ("0", "1") and trajs[0].steps == (1, 0, 1)

    def test_unknown_label_is_line_numbered(self, tmp_path):
        path = tmp_path / "d.jsonl"
        path.write_text('{"states": ["0", "1"]}\n{"id": "a", "seq": [0, 1]}\n'
                        '{"id": "b", "seq": [1, 7, 0]}\n')
        with pytest.raises(TrajectoryFormatError) as info:
            read_trajectories_jsonl(path)
        assert str(info.value) == f"{path}: line 3: unknown state label '7'"

    def test_jsonl_roundtrip(self, tmp_path):
        ab = StateAlphabet(("a", "b", "c"))
        trajs = [Trajectory("t1", (0, 2, 1)), Trajectory("t2", (1,))]
        path = tmp_path / "r.jsonl"
        write_trajectories_jsonl(path, ab, trajs)
        ab2, trajs2 = read_trajectories_jsonl(path)
        assert ab2 == ab
        assert [(t.id, t.steps) for t in trajs2] == [(t.id, t.steps) for t in trajs]
        # read without re-validation, they equal trajectories built and checked
        assert trajs2 == [Trajectory(t.id, t.steps) for t in trajs]

    def test_tie_map_file(self, tmp_path):
        spec = {
            "h": 1,
            "classes": [
                {"contexts": [["0"]]},
                {"contexts": [["1"], ["START"]]},
            ],
        }
        path = tmp_path / "tie.json"
        path.write_text(json.dumps(spec))
        tm = load_tie_map(path, StateAlphabet(("0", "1")))
        assert tm.n_classes == 2
        assert tm.class_of((0,)) == 0
        assert tm.class_of((START,)) == 1

    def test_tie_map_default_class(self, tmp_path):
        spec = {"h": 1, "classes": [{"contexts": [["0"]]}, {"default": True}]}
        path = tmp_path / "tie.json"
        path.write_text(json.dumps(spec))
        tm = load_tie_map(path, StateAlphabet(("0", "1")))
        assert tm.class_of((1,)) == 1

    # each reader's refusals: the exception type and its message
    @pytest.mark.parametrize("read, text, error, message", [
        ("jsonl", '[1, 2]\n', TrajectoryFormatError, "line 1: expected a JSON object"),
        ("jsonl", '{"seq": ["0"]}\n{"states": ["0", "1"]}\n', TrajectoryFormatError,
         "line 2: header line must come first"),
        ("jsonl", '{"id": "a"}\n', TrajectoryFormatError, 'line 1: missing "seq" field'),
        ("jsonl", '{"states": ["0", "1"]}\n{"id": "a", "seq": []}\n', TrajectoryFormatError,
         'line 2: "seq" must be a non-empty list'),
        # with no header, before the labels seen are read as the alphabet
        ("jsonl", '{"id": "a", "seq": 5}\n', TrajectoryFormatError,
         'line 1: "seq" must be a non-empty list'),
        ("jsonl", '{"id": "a", "seq": []}\n{"id": "b", "seq": ["x", "y"]}\n',
         TrajectoryFormatError, 'line 1: "seq" must be a non-empty list'),
        ("jsonl", '\n{"id": "a", "seq": ["x"]}\n{"id": "b", "seq": ["x", "x"]}\n',
         TrajectoryFormatError, "line 2: every step is 'x', so the states cannot be inferred; "
                                'name them in a {"states": [...]} header line or with --states'),
        # a label that is unknown as given and as its str(), whatever its JSON type
        ("jsonl", '{"states": ["0", "1"]}\n{"id": "a", "seq": ["0", "y"]}\n',
         TrajectoryFormatError, "line 2: unknown state label 'y'"),
        ("jsonl", '{"states": ["0", "1"]}\n{"id": "a", "seq": [0, "1", "y"]}\n',
         TrajectoryFormatError, "line 2: unknown state label 'y'"),
        ("jsonl", '{"states": ["0", "1"]}\n{"id": "a", "seq": ["1", [0]]}\n',
         TrajectoryFormatError, "line 2: unknown state label '[0]'"),
        ("csv", "g1\n", TrajectoryFormatError, "line 1: expected two columns: group id, outcome"),
        ("csv", "g1,1\ng1,7\n", TrajectoryFormatError, "line 2: unknown state label '7'"),
        # a record is numbered by the line it ends on, past a quoted cell's newline
        ("csv", 'g1,1\n"g\n1",0\ng1,7\n', TrajectoryFormatError,
         "line 4: unknown state label '7'"),
        ("csv", "", EmptyInputError, "no outcome rows in input"),
        ("jsonl", "\n", EmptyInputError, "no trajectories in input"),
        # a byte that is not UTF-8 names its line
        ("jsonl", b'{"id": "a", "seq": ["0", "1"]}\n{"id": "b", "seq": ["\xff"]}\n',
         TrajectoryFormatError, "line 2: not UTF-8 text (invalid start byte)"),
        ("csv", b"\xef\xbb\xbfg1,1\ng1,0\ng\xff,1\n", TrajectoryFormatError,
         "line 3: not UTF-8 text (invalid start byte)"),
        # g1 would be spliced across g2, with a 1 -> 0 transition the data never had
        ("csv", "game,outcome\ng1,1\ng2,0\ng1,0\n", TrajectoryFormatError,
         "line 4: group 'g1' resumes after another group"),
        ("tie", '{"classes": [{"default": true}]}', ValueError,
         'tie map file must define "h" and "classes"'),
        ("tie", '{"h": 1}', ValueError, 'tie map file must define "h" and "classes"'),
        ("tie", '{"h": 1, "classes": []}', ValueError, "tie map needs a non-empty class list"),
        ("tie", '{"h": 1, "classes": [5]}', ValueError, "class 0 must be an object"),
        ("tie", '{"h": 1, "classes": [{"default": true}, {"default": true}]}', ValueError,
         "only one class may be the default"),
        ("tie", '{"h": 1, "classes": [{"contexts": [["0"]]}, {"contexts": [["0"]]}]}',
         ValueError, "context ['0'] listed in two classes"),
        # each of these once ended in a traceback and exit 1
        ("csv", "g1,1\ng1,0\ng1," + "1" * (csv.field_size_limit() + 1) + "\ng1,0\n",
         TrajectoryFormatError,
         f"line 3: field larger than field limit ({csv.field_size_limit()})"),
        ("jsonl", '{"states": ["0", "1"]}\n' + "[" * 100_000 + "]" * 100_000 + "\n",
         TrajectoryFormatError, "line 2: invalid JSON (nested too deeply)"),
        ("tie", '{"h": 1, "classes": ' + "[" * 100_000 + "]" * 100_000 + "}",
         TrajectoryFormatError, "line 1: invalid JSON (nested too deeply)"),
        ("tie", '{"h": 1, "classes": [', TrajectoryFormatError,
         "line 1: invalid JSON (Expecting value)"),
    ], ids=["jsonl-not-object", "jsonl-late-header", "jsonl-no-seq", "jsonl-empty-seq",
            "jsonl-seq-not-list", "jsonl-empty-seq-no-header", "jsonl-one-label",
            "jsonl-unknown-str-label", "jsonl-unknown-after-int", "jsonl-unhashable-label",
            "csv-one-column", "csv-unknown-label", "csv-quoted-newline", "csv-no-rows",
            "jsonl-no-trajectories", "jsonl-not-utf8", "csv-not-utf8", "csv-resumed-group",
            "tie-no-h", "tie-no-classes", "tie-no-class", "tie-class-not-object",
            "tie-two-defaults", "tie-context-twice", "csv-oversized-cell", "jsonl-nested-deep",
            "tie-nested-deep", "tie-truncated"])
    def test_reader_error_table(self, tmp_path, read, text, error, message):
        path = tmp_path / "input"
        path.write_bytes(text) if isinstance(text, bytes) else path.write_text(text)
        reader = {"jsonl": read_trajectories_jsonl, "csv": import_outcome_csv,
                  "tie": lambda p: load_tie_map(p, StateAlphabet(("0", "1")))}[read]
        with pytest.raises(error) as info:
            reader(path)
        assert str(info.value) == f"{path}: {message}"

    def test_byte_order_mark_is_skipped(self, tmp_path):
        bom = "\ufeff"
        jsonl = tmp_path / "bom.jsonl"
        jsonl.write_text(bom + '{"states": ["0", "1"]}\n{"id": "g1", "seq": ["1", "0"]}\n',
                         encoding="utf-8")
        alphabet, trajs = read_trajectories_jsonl(jsonl)
        assert alphabet.labels == ("0", "1")
        assert [(t.id, t.steps) for t in trajs] == [("g1", (1, 0))]
        tie = tmp_path / "bom.json"
        tie.write_text(bom + json.dumps({"h": 1, "classes": [{"default": True}]}),
                       encoding="utf-8")
        assert load_tie_map(tie, alphabet).default_class == 0

    def test_csv_import_header_optional(self, tmp_path):
        p = tmp_path / "no_header.csv"
        p.write_text("g1,0\ng1,1\n")
        _, trajs = import_outcome_csv(p)
        assert trajs[0].steps == (0, 1)


def outputs(out: Path) -> dict:
    """Every output file's bytes, and the manifest without its timestamp and --out."""
    files = {p.name: p.read_bytes() for p in sorted(out.iterdir()) if p.name != "manifest.json"}
    manifest = json.loads((out / "manifest.json").read_text())
    del manifest["timestamp"]
    assert manifest["argv"][-2:] == ["--out", str(out)]
    manifest["argv"] = manifest["argv"][:-2]
    return {**files, "manifest.json": manifest}


class TestRepeatedMainCalls:
    """``main`` keeps one parser per process; no call may change the next."""

    SIMULATE = ["simulate", "--M", "4", "--h-true", "1", "--h-range", "1..2", "--J", "4",
                "--J", "16", "--replicates", "3", "--seed", "5"]

    def test_outputs_equal_those_of_a_first_call(self, season, tmp_path, monkeypatch, capsys):
        criteria = ["criteria", "--input", str(season), "--h-range", "0..2", "--tie", "jagged"]
        oracle = ["oracle", "--input", str(season), "--h", "1", "--draws", "1000"]
        first = {}
        for name, argv in (("simulate", self.SIMULATE), ("criteria", criteria),
                           ("oracle", oracle)):
            monkeypatch.setattr(cli, "_parser", None)  # as in a new process
            assert main(argv + ["--out", str(tmp_path / f"first-{name}")]) == 0
            first[name] = outputs(tmp_path / f"first-{name}")
        parser = cli._parser

        assert main(self.SIMULATE + ["--out", str(tmp_path / "s1")]) == 0
        with pytest.raises(SystemExit) as exc:  # argparse refuses the value
            main(self.SIMULATE + ["--J", "many", "--out", str(tmp_path / "bad1")])
        assert exc.value.code == 2
        assert main(self.SIMULATE + ["--free-throw", "--out", str(tmp_path / "bad2")]) == 2
        assert main(self.SIMULATE + ["--out", str(tmp_path / "s2")]) == 0
        assert main(criteria + ["--out", str(tmp_path / "c")]) == 0
        assert main(oracle + ["--out", str(tmp_path / "o")]) == 0
        capsys.readouterr()

        assert cli._parser is parser
        assert outputs(tmp_path / "s1") == outputs(tmp_path / "s2") == first["simulate"]
        assert outputs(tmp_path / "c") == first["criteria"]
        assert outputs(tmp_path / "o") == first["oracle"]
        manifest = json.loads((tmp_path / "s2" / "manifest.json").read_text())
        assert manifest["config"]["J_values"] == [4, 16]
        assert not (tmp_path / "bad1").exists() and not (tmp_path / "bad2").exists()

    def test_build_parser_returns_a_new_parser(self, tmp_path):
        assert main(self.SIMULATE + ["--out", str(tmp_path / "s")]) == 0
        assert build_parser() is not cli._parser
        assert build_parser() is not build_parser()

    def test_commands_are_looked_up_per_call(self, season, tmp_path, monkeypatch):
        # a command rebound after the parser was built (as a tracer does) is the one run
        assert main(self.SIMULATE + ["--out", str(tmp_path / "s")]) == 0
        seen = []
        monkeypatch.setattr(cli, "cmd_criteria", lambda args: seen.append(args.command) or 7)
        assert main(["criteria", "--input", str(season), "--h-range", "1"]) == 7
        assert seen == ["criteria"]


GLIBC = sys.platform == "linux" and _glibc()


class FakeLibc:
    """A C library whose ``mallopt`` records its calls, or that has none."""

    def __init__(self, with_mallopt=True):
        self.calls = []
        if with_mallopt:
            self.mallopt = lambda param, value: self.calls.append((param, value)) or 1


@pytest.mark.usefixtures("heap_unset")  # each test starts as a new process would
class TestHeapSettings:
    """``main`` keeps freed memory mapped on glibc, once per process."""

    def criteria(self, season, out):
        return main(["criteria", "--input", str(season), "--h-range", "0..1", "--out", str(out)])

    @pytest.mark.skipif(not GLIBC, reason="mallopt is set on glibc only")
    def test_main_sets_both_thresholds_once_per_process(self, season, tmp_path, monkeypatch):
        libc = FakeLibc()
        monkeypatch.setattr(ctypes, "CDLL", lambda name: libc)
        assert self.criteria(season, tmp_path / "a") == 0
        assert self.criteria(season, tmp_path / "b") == 0
        # glibc's M_MMAP_THRESHOLD at its 64-bit maximum, then M_TRIM_THRESHOLD
        assert libc.calls == [(-3, 32 * 1024 * 1024), (-1, 2**31 - 1)]

    @pytest.mark.parametrize("platform", ["linux", "darwin", "win32"])
    def test_no_mallopt_or_another_platform_runs_the_command(self, season, tmp_path,
                                                            monkeypatch, capsys, platform):
        opened = []
        monkeypatch.setattr(sys, "platform", platform)
        monkeypatch.setattr(ctypes, "CDLL",
                            lambda name: opened.append(name) or FakeLibc(with_mallopt=False))
        assert self.criteria(season, tmp_path / "o") == 0
        assert capsys.readouterr().err == ""
        assert (tmp_path / "o" / "criteria.csv").exists()
        # only glibc on Linux looks for mallopt
        assert opened == ([None] if GLIBC and platform == "linux" else [])

    @pytest.mark.parametrize("answer", [None, "", "musl", OSError(22, "Invalid argument"),
                                        ValueError("unrecognized configuration name")])
    def test_another_linux_libc_is_left_alone(self, season, tmp_path, monkeypatch, answer):
        # musl defines the name too, so the value, not the name, tells glibc apart
        def confstr(name):
            if isinstance(answer, Exception):
                raise answer
            return answer

        opened = []
        monkeypatch.setattr(sys, "platform", "linux")
        monkeypatch.setattr(os, "confstr", confstr)
        monkeypatch.setattr(ctypes, "CDLL", lambda name: opened.append(name) or FakeLibc())
        assert self.criteria(season, tmp_path / "o") == 0
        assert opened == []

    @pytest.mark.skipif(not GLIBC, reason="mallopt is set on glibc only")
    def test_repeated_calls_stop_faulting_freed_memory_back_in(self, tmp_path, capsys):
        import resource

        rng = np.random.default_rng(3)
        series = tmp_path / "series.jsonl"
        lines = [json.dumps({"states": list("abcd")})]
        lines += [json.dumps({"id": f"t{j}", "seq": ["abcd"[s] for s in rng.integers(0, 4, 600)]})
                  for j in range(20)]
        series.write_text("\n".join(lines) + "\n")

        def calls(first, n):
            for i in range(first, first + n):
                assert main(["criteria", "--input", str(series), "--h-range", "0..5",
                             "--out", str(tmp_path / f"o{i}")]) == 0

        calls(0, 3)  # warm-up: imports, first-call caches, the heap's high-water mark
        # a full collection writes every tracked object's header, and pages still
        # shared copy-on-write with a child that an earlier test forked fault
        # once on that write: take those before counting
        gc.collect()
        before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        calls(3, 20)
        faults = (resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before) / 20
        capsys.readouterr()
        # with glibc's dynamic thresholds each call faults in hundreds of pages
        assert faults < 10


def test_import_leaves_the_process_pool_out():
    # a serial run never starts a pool, so importing the CLI does not import one
    src = str(Path(cli.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get(
        "PYTHONPATH")]))}
    code = ("import sys, memsel.cli; memsel.cli.build_parser(); "
            "print(sorted(m for m in sys.modules if m.startswith('concurrent')))")
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                          timeout=60, check=True)
    assert proc.stdout.strip() == "[]"


def test_module_entry_point_exits_with_mains_codes(tmp_path):
    # `python -m memsel.cli` runs main_entry, the console script's target
    src = str(Path(cli.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get(
        "PYTHONPATH")]))}

    def run(*args):
        return subprocess.run([sys.executable, "-m", "memsel.cli", *args], env=env,
                              capture_output=True, text=True, timeout=60, cwd=tmp_path)

    assert run("--version").returncode == 0
    (tmp_path / "empty.csv").write_text("")
    season = str(Path(__file__).parent / "data" / "season.jsonl")
    for args, code in ((["criteria", "--input", season, "--h-range", "3..1"], 2),
                       (["import", "--input", "empty.csv", "--output", "e.jsonl"], 3)):
        proc = run(*args)
        assert proc.returncode == code, args
        assert len(proc.stderr.splitlines()) == 1 and proc.stderr.startswith("error: "), args
