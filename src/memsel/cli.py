"""Command-line front end.

Subcommands: criteria, simulate, oracle, import. Every command
that writes files also drops a manifest.json with the resolved
configuration, input digests and seed, which is enough to reproduce the
outputs byte-identically (timestamps aside).

``main`` alone maps a failure to its exit code, with one ``error:`` line
on stderr: 0 success; 1 oracle audit failure (some |z| > 4); 2 bad input
or configuration, that is a ``ValueError`` (a malformed record, a refused
option) or an ``OSError`` (a missing input, an unusable output path);
3 empty input (``EmptyInputError``).
"""

from __future__ import annotations

import argparse
import dataclasses
import datetime
import sys
from pathlib import Path

from . import __version__
from .chain import BoundaryMode, StateAlphabet, count_transitions
from .criteria import CRITERIA, DirichletPrior, argmin, evaluate, evaluate_depths
from .dataio import (
    EmptyInputError,
    Records,
    file_digest,
    import_outcome_csv,
    load_tie_map,
    read_trajectories_jsonl,
    write_json,
    write_reports,
    write_study,
    write_trajectories_jsonl,
)
from .oracle import audit
from .simulate import (
    FreeThrowModel,
    FreeThrowSimConfig,
    SimConfig,
    free_throw_power,
    run_power_study,
)
from .tying import jagged_free_throw_map

EXIT_OK = 0
EXIT_AUDIT = 1
EXIT_CONFIG = 2
EXIT_EMPTY = 3

_Z_LIMIT = 4.0


def _parse_h_range(text: str) -> list[int]:
    """The depths of --h-range: ``LO..HI``, or a bare ``H`` for 0..H."""
    lo, sep, hi = text.partition("..")
    try:
        lo, hi = (int(lo), int(hi)) if sep else (0, int(text))
    except ValueError:
        raise ValueError(f"cannot parse --h-range {text!r}; use e.g. 0..3") from None
    if lo < 0 or hi < lo:
        raise ValueError(f"invalid depth range {lo}..{hi}")
    return list(range(lo, hi + 1))


def _parse_prior(text: str | None, m: int) -> DirichletPrior:
    if text is None:
        return DirichletPrior.symmetric(m)
    try:
        parts = [float(p) for p in text.split(",")]
    except ValueError:
        raise ValueError(f"cannot parse --prior-alpha {text!r}") from None
    if len(parts) == 1:
        return DirichletPrior.symmetric(m, parts[0])
    if len(parts) != m:
        raise ValueError(f"--prior-alpha needs 1 or {m} components, got {len(parts)}")
    return DirichletPrior(parts)


def _parse_states(text: str | None):
    """--states as a tuple (None when it is not given); a list that makes no
    alphabet, an empty one too, exits 2 naming the option."""
    try:
        return None if text is None else StateAlphabet(tuple(text.split(","))).labels
    except ValueError as exc:
        raise ValueError(f"--states {text!r}: {exc}") from None


def _load_input(args):
    """The input's alphabet and trajectories: a .csv file reads as outcome CSV,
    any other as trajectory JSONL, each with --states as its labels."""
    csv_input = Path(args.input).suffix.lower() == ".csv"
    read = import_outcome_csv if csv_input else read_trajectories_jsonl
    return read(args.input, _parse_states(args.states))


def _refuse_unusable_dir(path) -> None:
    """Exit 2 unless the nearest existing of ``path`` and its parents is a directory."""
    path = Path(path)
    existing = next(p for p in (path, *path.parents) if p.exists())
    if not existing.is_dir():
        raise NotADirectoryError(f"{existing}: Not a directory")


def _write_manifest(out_dir: Path, args, config: dict, inputs: list[Path], seed,
                    telemetry: dict | None = None) -> None:
    manifest = {
        "command": args.command,
        "argv": args.argv,
        "config": config,
        "inputs": {str(p): file_digest(p) for p in inputs},
        "seed": seed,
        "version": __version__,
        "timestamp": datetime.datetime.now(datetime.timezone.utc).isoformat(),
    }
    if telemetry is not None:
        manifest["telemetry"] = telemetry
    write_json(manifest, out_dir / "manifest.json")


def _refuse_uncounted(reports) -> None:
    """A depth that counts no transition scores 0 and would win: exit 2, naming it."""
    for r in reports:
        if r.n_transitions == 0:
            raise ValueError(f"depth h={r.h} counts no transition under --boundary "
                             f"{r.boundary}: no trajectory is longer than {r.h} steps")


def cmd_criteria(args) -> int:
    _refuse_unusable_dir(args.out)
    alphabet, trajs = _load_input(args)
    h_values = _parse_h_range(args.h_range)
    prior = _parse_prior(args.prior_alpha, alphabet.size)
    boundary = BoundaryMode(args.boundary)
    tie_map = tie_label = None
    inputs = [Path(args.input)]
    if args.tie == "jagged":
        tie_map, tie_label = jagged_free_throw_map(alphabet), "jagged(h=1)"
    elif args.tie:
        tie_map = load_tie_map(args.tie, alphabet)
        inputs.append(Path(args.tie))
    reports = evaluate_depths(trajs, alphabet, h_values, prior, boundary,
                              aic_penalty=args.aic_penalty, tie_map=tie_map,
                              tie_label=tie_label)
    _refuse_uncounted(reports)
    config = {
        "input": str(args.input),
        "h_values": [r.h for r in reports],
        "labels": [r.label for r in reports],
        "prior_alpha": prior.alpha.tolist(),
        "boundary": boundary.value,
        "tie": args.tie,
        "aic_penalty": args.aic_penalty,
        "states": list(alphabet.labels),
    }
    out_dir = Path(args.out)
    write_reports(reports, out_dir)
    _write_manifest(out_dir, args, config, inputs, seed=None)
    for name in CRITERIA:
        try:
            best = argmin(reports, name)
        except ValueError:
            print(f"{name}: unavailable (needs at least two trajectories)")
        else:
            print(f"{name}: best {best.label} ({best.value(name):.4f})")
    return EXIT_OK


def _parse_ft_model(text: str) -> FreeThrowModel:
    """h0:p | jagged:p_after_miss,p_otherwise | h1:p_first,p_after_hit,p_after_miss"""
    kind, _, params = text.partition(":")
    try:
        values = [float(p) for p in params.split(",")] if params else []
    except ValueError:
        values = []  # fits no model below
    # a probability outside (0, 1) raises FreeThrowModel's own error, not "cannot parse"
    if kind == "h0" and len(values) == 1:
        return FreeThrowModel.independent(values[0])
    if kind == "jagged" and len(values) == 2:
        return FreeThrowModel.jagged(values[0], values[1])
    if kind == "h1" and len(values) == 3:
        return FreeThrowModel(values[0], values[1], values[2])
    raise ValueError(
        f"cannot parse --ft-model {text!r}; use h0:P, jagged:P_MISS,P_OTHER "
        "or h1:P_FIRST,P_HIT,P_MISS"
    )


# The preset grids, as SimConfig fields. A --profile run is a grid study that
# fixes these fields; --h-true, --seed, --boundary, --network-per-replicate and
# --workers still apply.
_GRID = {"m": 8, "h_range": (1, 2, 3, 4, 5), "length_cap": 10_000, "criteria": CRITERIA}
_PROFILES = {
    "paper": {**_GRID, "J_values": (4, 8, 16, 32, 64, 128, 256), "replicates": 10_000},
    "ci": {**_GRID, "J_values": (4, 16, 64), "replicates": 200},
}
# The options that shape a study, in the order a refusal names them. Each is
# stored under the config field it sets and defaults to None, so that a given
# option can be told from one left out.
_STUDY_FLAGS = {"m": "--M", "J_values": "--J", "replicates": "--replicates",
                "length_cap": "--length-cap", "criteria": "--criteria", "h_range": "--h-range",
                "free_throw": "--free-throw", "h_true": "--h-true",
                "network_per_replicate": "--network-per-replicate", "games": "--games",
                "lam": "--lambda", "model": "--ft-model"}


def _study_config(args) -> SimConfig | FreeThrowSimConfig:
    """The config of a simulate run, from the options given.

    A given option exits 2, named, when the --profile fixes its field (or
    it is --free-throw) or when the run's config has no such field. An
    option left out takes the config's default.
    """
    given = {field: value for field in _STUDY_FLAGS
             if (value := getattr(args, field)) is not None}

    def refuse(fields, message):
        if refused := [_STUDY_FLAGS[field] for field in given if field in fields]:
            raise ValueError(message.format(", ".join(refused)))

    if args.profile:
        refuse({*_PROFILES[args.profile], "free_throw"},
               f"--profile {args.profile} sets its own grid; drop {{}}")
    given.pop("free_throw", None)
    config = FreeThrowSimConfig if args.free_throw else SimConfig
    reads = {f.name for f in dataclasses.fields(config)}
    refuse(given.keys() - reads, "{} do not apply with --free-throw; drop them"
           if args.free_throw else "{} apply only with --free-throw; drop them")
    kwargs = {**_PROFILES.get(args.profile, {}), "seed": args.seed, "boundary": args.boundary,
              **given}
    if "h_range" in given:
        kwargs["h_range"] = tuple(_parse_h_range(args.h_range))
    if "model" in given:
        kwargs["model"] = _parse_ft_model(args.model)
    return config(**kwargs)


def cmd_simulate(args) -> int:
    # the first file written makes --out, so a run that a bad argument or a
    # failed study stops (a ValueError exits 2) leaves no directory
    _refuse_unusable_dir(args.out)
    cfg = _study_config(args)
    out_dir = Path(args.out)
    if args.free_throw:
        result = free_throw_power(cfg, workers=args.workers)
        config = {
            "model": dataclasses.asdict(cfg.model), "games": cfg.games, "lambda": cfg.lam,
            "replicates": cfg.replicates, "seed": cfg.seed, "boundary": cfg.boundary.value,
            "criteria": list(cfg.criteria),
        }
        summary = {**config, "jagged_win_rate": result.jagged_win_rate}
        deltas = None
        telemetry = None  # game lengths are Poisson draws: nothing is capped
    else:
        result = run_power_study(cfg, workers=args.workers)
        summary = {
            "config": {
                "M": cfg.m, "h_true": cfg.h_true, "h_range": list(cfg.h_range),
                "J_values": list(cfg.J_values), "replicates": cfg.replicates,
                "criteria": list(cfg.criteria), "boundary": cfg.boundary.value,
                "network_per_replicate": cfg.network_per_replicate,
            },
        }
        deltas = result.deltas
        config = {**summary["config"], "length_cap": cfg.length_cap}
        telemetry = {"truncated_walks": result.truncated_walks}
        if result.truncated_walks:
            walks = cfg.replicates * sum(cfg.J_values)
            print(f"warning: {result.truncated_walks} of {walks} walks hit the length cap "
                  f"({cfg.length_cap} steps) before absorption", file=sys.stderr)
    write_study(summary, result.selection, deltas, out_dir)
    _write_manifest(out_dir, args, config, [], seed=args.seed, telemetry=telemetry)
    print(f"wrote {out_dir / 'selection.csv'}")
    return EXIT_OK


def cmd_oracle(args) -> int:
    _refuse_unusable_dir(args.out)
    alphabet, trajs = _load_input(args)
    prior = _parse_prior(args.prior_alpha, alphabet.size)
    boundary = BoundaryMode(args.boundary)
    tc = count_transitions(trajs, args.h, alphabet, boundary)
    rep = evaluate(tc, prior)
    _refuse_uncounted([rep])

    # LPD and LPPD go back from the deviance scale to the log scale the
    # estimators work on; multiplying by -0.5 is exact.
    scale = {"LPD": -0.5, "LPPD": -0.5}
    estimates = audit(tc, prior, args.draws, args.seed)
    rows = []
    worst = 0.0
    print(f"{'quantity':>8} {'closed':>14} {'mc':>14} {'se':>10} {'z':>7}")
    for name, estimate in estimates.items():
        closed = scale.get(name, 1.0) * rep.value(name)
        z = estimate.z(closed)
        worst = max(worst, abs(z))
        print(f"{name:>8} {closed:14.6f} {estimate.estimate:14.6f} "
              f"{estimate.std_error:10.2e} {z:7.2f}")
        rows.append({"quantity": name, "closed": closed, "mc": estimate.estimate,
                     "std_error": estimate.std_error, "z": z})
    out_dir = Path(args.out)
    write_json(Records(rows), out_dir / "oracle.json")
    config = {"input": str(args.input), "h": args.h, "draws": args.draws,
              "boundary": boundary.value, "prior_alpha": prior.alpha.tolist()}
    _write_manifest(out_dir, args, config, [Path(args.input)], seed=args.seed)
    if worst > _Z_LIMIT:
        print(f"AUDIT FAILED: |z| = {worst:.2f} exceeds {_Z_LIMIT}")
        return EXIT_AUDIT
    return EXIT_OK


def cmd_import(args) -> int:
    _refuse_unusable_dir(Path(args.output).parent)
    alphabet, trajs = import_outcome_csv(args.input, _parse_states(args.states))
    write_trajectories_jsonl(args.output, alphabet, trajs)
    total = sum(len(t) for t in trajs)
    print(f"imported {len(trajs)} trajectories, {total} steps -> {args.output}")
    return EXIT_OK


def _add_data_options(p: argparse.ArgumentParser) -> None:
    p.add_argument("--input", required=True, help="trajectory JSONL, or outcome CSV (.csv)")
    p.add_argument("--states", help="comma-separated state labels in id order (overrides a "
                                    "JSONL header; CSV default 0,1)")
    p.add_argument("--prior-alpha", help="symmetric value or comma list (default 1)")
    p.add_argument("--boundary", choices=["padded", "truncated"], default="padded")
    p.add_argument("--out", default="memsel_out", help="output directory")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="memsel",
        description="Select the memory depth of a discrete-state process from data.",
    )
    parser.add_argument("--version", action="version", version=f"memsel {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("criteria", help="criterion report per memory depth, with each argmin")
    _add_data_options(p)
    p.add_argument("--h-range", required=True, help="inclusive range LO..HI, or H for 0..H")
    p.add_argument("--tie", help='tie map JSON file or the builtin "jagged"')
    p.add_argument("--aic-penalty", choices=["params", "full"], default="params")

    p = sub.add_parser("simulate", help="selection power studies")
    p.add_argument("--profile", choices=list(_PROFILES),
                   help="preset grids; 'paper' is the full 10^4-replicate study")
    # the options in _STUDY_FLAGS: each dest is the config field the option sets
    p.add_argument("--M", dest="m", type=int, help=f"alphabet size (default {SimConfig.m})")
    p.add_argument("--h-true", type=int, help=f"true memory depth (default {SimConfig.h_true})")
    p.add_argument("--h-range", help="inclusive range LO..HI, or H for 0..H (default "
                                     f"{SimConfig.h_range[0]}..{SimConfig.h_range[-1]})")
    p.add_argument("--J", dest="J_values", metavar="J", type=int, action="append",
                   help=f"sample size; repeat for a sweep (default {SimConfig.J_values[0]})")
    p.add_argument("--replicates", type=int,
                   help=f"replicate count (default {SimConfig.replicates})")
    p.add_argument("--length-cap", type=int,
                   help=f"steps per walk (default {SimConfig.length_cap})")
    p.add_argument("--criteria", type=lambda text: tuple(text.split(",")),
                   help="comma list (default: all; with --free-throw "
                        f"{','.join(FreeThrowSimConfig.criteria)})")
    p.add_argument("--boundary", choices=["padded", "truncated"], default="padded")
    p.add_argument("--network-per-replicate", action="store_true", default=None,
                   help="draw a fresh true network for every replicate")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--workers", type=int, default=1, help="process count, >= 1 (default 1)")
    p.add_argument("--free-throw", action="store_true", default=None,
                   help="per-game experiment with Poisson game lengths")
    p.add_argument("--lambda", dest="lam", metavar="LAMBDA", type=float,
                   help=f"mean shots per game for --free-throw (default {FreeThrowSimConfig.lam})")
    p.add_argument("--games", type=int, help="games per season for --free-throw "
                                             f"(default {FreeThrowSimConfig.games})")
    ft_model = FreeThrowSimConfig.model
    p.add_argument("--ft-model", dest="model", metavar="FT_MODEL",
                   help="true model for --free-throw: h0:P | jagged:P_MISS,P_OTHER | "
                        f"h1:P1,PH,PM (default jagged:{ft_model.p_after_miss},"
                        f"{ft_model.p_after_hit})")
    p.add_argument("--out", default="memsel_out")

    p = sub.add_parser("oracle", help="audit closed forms against Monte Carlo")
    _add_data_options(p)
    p.add_argument("--h", type=int, required=True, help="memory depth to audit")
    p.add_argument("--draws", type=int, default=100_000)
    p.add_argument("--seed", type=int, default=0)

    p = sub.add_parser("import", help="convert (group, outcome) CSV to JSONL")
    p.add_argument("--input", required=True)
    p.add_argument("--output", required=True)
    p.add_argument("--states", help="comma-separated outcome labels in id order (default 0,1)")

    return parser


_parser: argparse.ArgumentParser | None = None  # main's parser, built by its first call


def main(argv: list[str] | None = None) -> int:
    global _parser
    argv = sys.argv[1:] if argv is None else list(argv)
    if _parser is None:
        _parser = build_parser()
    args = _parser.parse_args(argv)
    args.argv = argv
    # looked up per call, so the cached parser holds no command function
    command = {"criteria": cmd_criteria, "simulate": cmd_simulate, "oracle": cmd_oracle,
               "import": cmd_import}[args.command]
    try:
        return command(args)
    except EmptyInputError as exc:
        code, error = EXIT_EMPTY, exc
    except OSError as exc:
        code, error = EXIT_CONFIG, f"{exc.filename}: {exc.strerror}" if exc.filename else exc
    except ValueError as exc:
        code, error = EXIT_CONFIG, exc
    print(f"error: {error}", file=sys.stderr)
    return code


def main_entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    main_entry()
