"""Command-line interface behavior, file outputs and exit codes."""

import argparse
import concurrent.futures
import csv
import dataclasses
import json
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
        argv = ["criteria", "--input", str(season), "--h-max", "1", "--out", str(tmp_path / "a")]
        assert main(argv) == 0
        assert json.loads((tmp_path / "a" / "manifest.json").read_text())["argv"] == argv
        argv = ["criteria", "--input", str(season), "--h-max", "1", "--out", str(tmp_path / "b")]
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
        main(["criteria", "--input", str(season), "--h-max", "1", "--out", str(out1)])
        main(["criteria", "--input", str(season), "--h-max", "1",
              "--prior-alpha", "0.5", "--out", str(out2)])
        r1, r2 = read_csv(out1 / "criteria.csv"), read_csv(out2 / "criteria.csv")
        assert r1[0]["AIC"] == r2[0]["AIC"]
        assert r1[0]["LOO"] != r2[0]["LOO"]

    def test_h_range_colon_syntax(self, season, tmp_path):
        out = tmp_path / "out"
        assert main(["criteria", "--input", str(season), "--h-range", "0:2",
                     "--out", str(out)]) == 0
        assert len(read_csv(out / "criteria.csv")) == 3

    def test_cv2_unavailable_on_one_trajectory(self, one_game, tmp_path, capsys):
        out = tmp_path / "out"
        assert main(["criteria", "--input", str(one_game), "--h-max", "1",
                     "--out", str(out)]) == 0
        printed = capsys.readouterr().out
        assert "CV2: unavailable (needs at least two trajectories)" in printed
        assert "LOO: best h=" in printed
        assert all(r["CV2"] == "nan" for r in read_csv(out / "criteria.csv"))

    def test_cv2_special_value_spelled_per_format(self, one_game, tmp_path):
        # the same NaN cell: repr in criteria.csv, JSON's NaN in criteria.json
        out = tmp_path / "out"
        assert main(["criteria", "--input", str(one_game), "--h-max", "1",
                     "--out", str(out)]) == 0
        assert [line.split(",")[14] for line in
                (out / "criteria.csv").read_text().splitlines()] == ["CV2", "nan", "nan"]
        text = (out / "criteria.json").read_text()
        assert text.count('"CV2": NaN,') == 2
        assert all(np.isnan(r["CV2"]) for r in json.loads(text))

    def test_missing_range_is_config_error(self, season, tmp_path):
        assert main(["criteria", "--input", str(season),
                     "--out", str(tmp_path / "o")]) == 2


@pytest.fixture
def one_game(tmp_path):
    path = tmp_path / "one.jsonl"
    path.write_text('{"id": "g0", "seq": ["1", "0", "1", "1", "0"]}\n')
    return path


class TestSelectCommand:
    def test_prints_choice(self, season, tmp_path, capsys):
        assert main(["select", "--input", str(season), "--h-range", "0..2",
                     "--criterion", "LOO", "--out", str(tmp_path / "o")]) == 0
        assert "selected: h=" in capsys.readouterr().out

    def test_manifest_config_is_the_criteria_config_plus_criterion(self, season, tmp_path):
        common = ["--input", str(season), "--h-range", "0..2", "--tie", "jagged",
                  "--aic-penalty", "full"]
        assert main(["criteria", *common, "--out", str(tmp_path / "c")]) == 0
        assert main(["select", *common, "--criterion", "WAIC2", "--out", str(tmp_path / "s")]) == 0
        criteria, select = (json.loads((tmp_path / d / "manifest.json").read_text())["config"]
                            for d in ("c", "s"))
        assert select == {**criteria, "criterion": "WAIC2"}
        assert set(select) == {"input", "h_values", "labels", "prior_alpha", "boundary", "tie",
                               "aic_penalty", "states", "criterion"}
        assert (select["tie"], select["aic_penalty"]) == ("jagged", "full")

    def test_unknown_criterion(self, season, tmp_path, capsys):
        assert main(["select", "--input", str(season), "--h-max", "1",
                     "--criterion", "XYZ", "--out", str(tmp_path / "o")]) == 2
        assert "error: unknown criterion 'XYZ'" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_cv2_on_one_trajectory(self, one_game, tmp_path, capsys):
        assert main(["select", "--input", str(one_game), "--h-max", "1",
                     "--criterion", "CV2", "--out", str(tmp_path / "o")]) == 2
        assert "needs at least two trajectories" in capsys.readouterr().err


class TestErrorPaths:
    def test_malformed_jsonl_line_numbered(self, tmp_path, capsys):
        bad = tmp_path / "bad.jsonl"
        bad.write_text('{"id": "a", "seq": ["0"]}\nnot json\n')
        code = main(["criteria", "--input", str(bad), "--h-max", "1",
                     "--out", str(tmp_path / "o")])
        assert code == 2
        assert "line 2" in capsys.readouterr().err

    def test_unknown_state_label(self, tmp_path, capsys):
        data = tmp_path / "d.jsonl"
        data.write_text('{"id": "a", "seq": ["0", "7"]}\n')
        assert main(["criteria", "--input", data.as_posix(), "--h-max", "1",
                     "--states", "0,1", "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert "line 1: unknown state label '7'" in err

    def test_empty_input(self, tmp_path):
        empty = tmp_path / "empty.jsonl"
        empty.write_text("")
        assert main(["criteria", "--input", str(empty), "--h-max", "1",
                     "--out", str(tmp_path / "o")]) == 3

    def test_unmapped_tie_context_is_config_error(self, season, tmp_path, capsys):
        # an h=1 map over the padded contexts with no default misses "1"
        path = tmp_path / "tie.json"
        path.write_text(json.dumps({"h": 1, "classes": [
            {"contexts": [["0"]]}, {"contexts": [["START"]]}]}))
        for command in (["criteria"], ["select", "--criterion", "LOO"]):
            out = tmp_path / command[0]
            assert main(command + ["--input", str(season), "--h-range", "0..2",
                                   "--tie", str(path), "--out", str(out)]) == 2
            assert "no tie class" in capsys.readouterr().err
            assert not out.exists()

    def test_non_list_states_header_is_line_numbered(self, tmp_path, capsys):
        bad = tmp_path / "bad.jsonl"
        bad.write_text('{"states": 5}\n{"id": "a", "seq": ["0", "1"]}\n')
        assert main(["criteria", "--input", str(bad), "--h-max", "1",
                     "--out", str(tmp_path / "o")]) == 2
        assert "line 1" in capsys.readouterr().err

    def test_repeated_header_labels_are_line_numbered(self, tmp_path, capsys):
        bad = tmp_path / "bad.jsonl"
        bad.write_text('\n{"states": ["a", "a"]}\n{"id": "x", "seq": ["a"]}\n')
        assert main(["criteria", "--input", str(bad), "--h-max", "1",
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
        assert "tie map context ('START',) holds START" in capsys.readouterr().err
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

    def test_negative_oracle_depth_is_config_error(self, season, tmp_path, capsys):
        assert main(["oracle", "--input", str(season), "--h", "-1",
                     "--out", str(tmp_path / "o")]) == 2
        assert "h must be >= 0" in capsys.readouterr().err

    def test_missing_file(self, tmp_path):
        assert main(["criteria", "--input", str(tmp_path / "nope.jsonl"),
                     "--h-max", "1", "--out", str(tmp_path / "o")]) == 2

    @pytest.mark.parametrize("command", [
        ["criteria", "--input", "{dir}", "--h-max", "1"],
        ["oracle", "--input", "{dir}", "--h", "1"],
        ["import", "--input", "{dir}", "--output", "{dir}/x.jsonl"],
        ["criteria", "--input", "{season}", "--h-max", "1", "--tie", "{dir}"],
    ])
    def test_directory_given_as_a_file_is_config_error(self, season, tmp_path, capsys, command):
        out = tmp_path / "o"
        argv = [a.format(dir=tmp_path, season=season) for a in command]
        assert main(argv + (["--out", str(out)] if command[0] != "import" else [])) == 2
        assert f"{tmp_path} is not a file" in capsys.readouterr().err
        assert not out.exists()

    def test_missing_tie_map_file(self, season, tmp_path, capsys):
        out = tmp_path / "o"
        assert main(["criteria", "--input", str(season), "--h-range", "0..1",
                     "--tie", str(tmp_path / "nope.json"), "--out", str(out)]) == 2
        assert "tie map file" in capsys.readouterr().err
        assert not out.exists()


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
                     "--labels", "miss,make"]) == 0
        alphabet, trajs = read_trajectories_jsonl(out)
        assert alphabet.labels == ("miss", "make")
        assert trajs[0].steps == (1, 0)

    def test_missing_input_is_config_error(self, tmp_path, capsys):
        out = tmp_path / "t.jsonl"
        assert main(["import", "--input", str(tmp_path / "nope.csv"),
                     "--output", str(out)]) == 2
        assert "does not exist" in capsys.readouterr().err
        assert not out.exists()

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

    @pytest.mark.parametrize("value", ["abc", "-2", "0", "1.5"])
    @pytest.mark.parametrize("mode", [["--M", "3", "--h-range", "1..2"],
                                      ["--free-throw", "--games", "5"]])
    def test_bad_memsel_threads_is_config_error(self, tmp_path, capsys, monkeypatch, mode, value):
        monkeypatch.setenv("MEMSEL_THREADS", value)
        args = ["simulate", *mode, "--replicates", "2"]
        assert main(args + ["--out", str(tmp_path / "bad")]) == 2
        assert f"MEMSEL_THREADS must be an integer >= 1, got {value!r}" in capsys.readouterr().err
        monkeypatch.setenv("MEMSEL_THREADS", "")
        assert main(args + ["--out", str(tmp_path / "empty")]) == 0

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
        ["--profile", "ci", "--h-max", "0"],
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
        ["--free-throw", "--h-max", "1"],
        ["--free-throw", "--network-per-replicate"],
        ["--free-throw", "--h-true", "0"],
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
    ], ids=["repeated", "ft-repeated", "unknown", "ft-p-range", "ft-p-nan", "ft-arity",
            "ft-text", "ft-lambda-nan", "ft-lambda-inf", "ft-lambda-huge", "h-true-negative"])
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
                     "--h-max", "1", "--out", str(tmp_path / "o")]) == 2
        assert "--M, --h-max, --h-true do not apply with --free-throw" in capsys.readouterr().err

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

    def test_too_few_draws_rejected(self, season, tmp_path):
        assert main(["oracle", "--input", str(season), "--h", "1",
                     "--draws", "10", "--out", str(tmp_path / "o")]) == 2

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
        # labels are matched by their str(): the number 1 is the label "1"
        numbers, strings = tmp_path / "n.jsonl", tmp_path / "s.jsonl"
        numbers.write_text('{"states": ["0", "1"]}\n{"id": "a", "seq": [0, 1, 1]}\n'
                           '{"id": "b", "seq": [1, "0"]}\n')
        strings.write_text('{"states": ["0", "1"]}\n{"id": "a", "seq": ["0", "1", "1"]}\n'
                           '{"id": "b", "seq": ["1", "0"]}\n')
        got, want = read_trajectories_jsonl(numbers), read_trajectories_jsonl(strings)
        assert got[0] == want[0]
        assert [(t.id, t.steps) for t in got[1]] == [("a", (0, 1, 1)), ("b", (1, 0))]
        assert [(t.id, t.steps) for t in want[1]] == [("a", (0, 1, 1)), ("b", (1, 0))]
        inferred = tmp_path / "i.jsonl"
        inferred.write_text('{"id": "a", "seq": [1, 0, 1]}\n')
        alphabet, trajs = read_trajectories_jsonl(inferred)
        assert alphabet.labels == ("0", "1") and trajs[0].steps == (1, 0, 1)

    def test_unknown_label_is_line_numbered(self, tmp_path):
        path = tmp_path / "d.jsonl"
        path.write_text('{"states": ["0", "1"]}\n{"id": "a", "seq": [0, 1]}\n'
                        '{"id": "b", "seq": [1, 7, 0]}\n')
        with pytest.raises(ValueError, match=r"^line 3: unknown state label '7'$"):
            read_trajectories_jsonl(path)

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
        assert main(["criteria", "--input", str(season), "--h-max", "1"]) == 7
        assert seen == ["criteria"]


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
