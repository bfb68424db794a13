"""File formats: trajectory JSONL, sports CSV import, tie-map JSON, reports.

See FORMATS.md at the repository root for the format reference. Inputs
are UTF-8, and a leading byte-order mark is skipped. Reading errors name
the file and the 1-based line of the offending record.
"""

from __future__ import annotations

import csv
import hashlib
import json
from json.encoder import encode_basestring_ascii
from pathlib import Path

from .chain import START, StateAlphabet, Trajectory
from .criteria import CRITERIA, K_TERMS, CriterionReport
from .tying import TieMap

__all__ = [
    "TrajectoryFormatError",
    "EmptyInputError",
    "read_trajectories_jsonl",
    "write_trajectories_jsonl",
    "import_outcome_csv",
    "load_tie_map",
    "write_json",
    "write_reports",
    "write_study",
    "Records",
    "file_digest",
]

START_TOKEN = "START"  # reserved token string for tie-map context files


class TrajectoryFormatError(ValueError):
    """A malformed record at 1-based ``line`` of the file ``path``."""

    def __init__(self, path, line: int, message: str):
        super().__init__(f"{path}: line {line}: {message}")


class EmptyInputError(ValueError):
    """An input file that holds no trajectory."""


def _lines(path):
    """The lines of UTF-8 file ``path`` as text mode splits them, endings kept, BOM skipped."""
    with Path(path).open("rb") as fh:
        raw_lines = (line for chunk in fh for line in chunk.splitlines(keepends=True))
        for lineno, raw in enumerate(raw_lines, start=1):
            try:
                yield raw.decode("utf-8-sig" if lineno == 1 else "utf-8")
            except UnicodeDecodeError as exc:
                raise TrajectoryFormatError(path, lineno,
                                            f"not UTF-8 text ({exc.reason})") from None


def _json(path, lineno: int, text: str):
    """``json.loads(text)`` for ``text`` from line ``lineno`` of ``path``: JSON
    that is malformed, or nested past Python's recursion limit, raises
    TrajectoryFormatError at its line."""
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise TrajectoryFormatError(path, lineno + exc.lineno - 1,
                                    f"invalid JSON ({exc.msg})") from None
    except RecursionError:
        raise TrajectoryFormatError(path, lineno, "invalid JSON (nested too deeply)") from None


def read_trajectories_jsonl(
    path,
    states: list[str] | None = None,
) -> tuple[StateAlphabet, list[Trajectory]]:
    """Read one-trajectory-per-line JSONL: {"id": ..., "seq": [label, ...]}.

    The alphabet comes from, in order of precedence: the ``states``
    argument, a header line {"states": [...]}, or the sorted set of labels
    seen in the file. A file that needs the last and holds one label only
    raises TrajectoryFormatError at its first trajectory.
    """
    raw: list[tuple[int, dict]] = []
    header_alphabet: StateAlphabet | None = None
    for lineno, line in enumerate(_lines(path), start=1):
        line = line.strip()
        if not line:
            continue
        obj = _json(path, lineno, line)
        if not isinstance(obj, dict):
            raise TrajectoryFormatError(path, lineno, "expected a JSON object")
        if "states" in obj and "seq" not in obj:
            if header_alphabet is not None or raw:
                raise TrajectoryFormatError(path, lineno, "header line must come first")
            if not isinstance(obj["states"], list):
                raise TrajectoryFormatError(path, lineno, '"states" must be a list of labels')
            try:
                header_alphabet = StateAlphabet(tuple(obj["states"]))
            except ValueError as exc:
                raise TrajectoryFormatError(path, lineno, str(exc)) from None
            continue
        if "seq" not in obj:
            raise TrajectoryFormatError(path, lineno, 'missing "seq" field')
        if not isinstance(obj["seq"], list) or not obj["seq"]:
            raise TrajectoryFormatError(path, lineno, '"seq" must be a non-empty list')
        raw.append((lineno, obj))
    if not raw:
        raise EmptyInputError(f"{path}: no trajectories in input")

    if states is not None:
        alphabet = StateAlphabet(tuple(states))
    elif header_alphabet is not None:
        alphabet = header_alphabet
    else:
        seen: set[str] = set()
        for _, obj in raw:
            seen.update(map(str, obj["seq"]))
        if len(seen) < 2:
            raise TrajectoryFormatError(
                path, raw[0][0], f"every step is {seen.pop()!r}, so the states cannot be "
                'inferred; name them in a {"states": [...]} header line or with --states')
        alphabet = StateAlphabet(tuple(sorted(seen)))

    trajs: list[Trajectory] = []
    for lineno, obj in raw:
        try:
            steps = alphabet.indices(obj["seq"])
        except ValueError as exc:
            raise TrajectoryFormatError(path, lineno, str(exc)) from None
        tid = str(obj.get("id", f"traj{len(trajs)}"))
        trajs.append(Trajectory._unchecked(tid, steps))
    return alphabet, trajs


def _create(path):
    """Open ``path`` for writing, making its directory: every writer opens here,
    so a command that fails before its first write leaves no directory."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    return path.open("w", encoding="utf-8", newline="\n")


def write_trajectories_jsonl(path, alphabet: StateAlphabet, trajectories) -> None:
    with _create(path) as fh:
        fh.write(json.dumps({"states": list(alphabet.labels)}) + "\n")
        for tr in trajectories:
            rec = {"id": tr.id, "seq": [alphabet.label(s) for s in tr.steps]}
            fh.write(json.dumps(rec) + "\n")


def _csv_records(path):
    """The records of CSV file ``path``, each with the file line it ends on. A
    malformed record, such as a cell past ``csv.field_size_limit()``, raises
    TrajectoryFormatError."""
    reader = csv.reader(_lines(path))
    try:
        for row in reader:
            yield reader.line_num, row
    except csv.Error as exc:
        raise TrajectoryFormatError(path, reader.line_num, str(exc)) from None


def import_outcome_csv(
    path,
    states: list[str] | None = None,
) -> tuple[StateAlphabet, list[Trajectory]]:
    """Import ordered (group_id, outcome) CSV rows as per-group trajectories.

    Consecutive rows sharing a group id form one trajectory in file order
    (an id that resumes after another group raises TrajectoryFormatError).
    ``states`` are the outcome labels in id order, stripped as the cells
    are; None means the miss=0 / hit=1 convention, ``0,1``. The first
    non-blank row, when its outcome is neither a label nor an integer, is a
    header and is skipped; any other unknown outcome raises
    TrajectoryFormatError.
    """
    alphabet = StateAlphabet(("0", "1") if states is None else tuple(s.strip() for s in states))
    order: list[str] = []
    seqs: dict[str, list[int]] = {}
    first = True  # the first non-blank row may be a header
    for lineno, row in _csv_records(path):
        if not row or all(not c.strip() for c in row):
            continue
        if len(row) < 2:
            raise TrajectoryFormatError(path, lineno, "expected two columns: group id, outcome")
        gid, outcome = row[0].strip(), row[1].strip()
        # a header names its column; an integer outcome is a mistyped state
        if first:
            first = False
            if outcome not in alphabet.labels and not outcome.lstrip("-").isdecimal():
                continue
        try:
            state = alphabet.index(outcome)
        except ValueError as exc:
            raise TrajectoryFormatError(path, lineno, str(exc)) from None
        if gid not in seqs:
            order.append(gid)
            seqs[gid] = []
        elif gid != order[-1]:
            raise TrajectoryFormatError(path, lineno, f"group {gid!r} resumes after another group")
        seqs[gid].append(state)
    if not order:
        raise EmptyInputError(f"{path}: no outcome rows in input")
    trajs = [Trajectory(gid, tuple(seqs[gid])) for gid in order]
    return alphabet, trajs


def load_tie_map(path, alphabet: StateAlphabet) -> TieMap:
    """Load a tie map: {"h": int >= 0, "classes": [{"contexts": [[token, ...], ...]}
    or {"default": true}, ...]}.

    Context tokens are state labels or the reserved string "START"; at
    most one class may be the default catch-all, and every other class
    must list a context. Every error names the file; malformed JSON also
    names its line, and JSON nested too deeply to parse line 1.
    """
    spec = _json(path, 1, "".join(_lines(path)))
    try:
        return _tie_map(spec, alphabet)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None


def _tie_map(spec, alphabet: StateAlphabet) -> TieMap:
    """The tie map that the parsed JSON ``spec`` describes."""
    if not isinstance(spec, dict) or "h" not in spec or "classes" not in spec:
        raise ValueError('tie map file must define "h" and "classes"')
    h = spec["h"]
    if not isinstance(h, int) or isinstance(h, bool) or h < 0:
        raise ValueError(f'tie map "h" must be an integer >= 0, got {h!r}')
    classes = spec["classes"]
    if not isinstance(classes, list) or not classes:
        raise ValueError("tie map needs a non-empty class list")
    assignments: dict[tuple, int] = {}
    default_class: int | None = None
    for cls_id, cls in enumerate(classes):
        if not isinstance(cls, dict):
            raise ValueError(f"class {cls_id} must be an object")
        default = cls.get("default", False)
        if not isinstance(default, bool):
            raise ValueError(f'class {cls_id}: "default" must be true or false, got {default!r}')
        if default:
            if default_class is not None:
                raise ValueError("only one class may be the default")
            default_class = cls_id
        contexts = cls.get("contexts", [])
        if not isinstance(contexts, list):
            raise ValueError(f'class {cls_id}: "contexts" must be a list of contexts')
        for tokens in contexts:
            if not isinstance(tokens, list) or len(tokens) != h:
                raise ValueError(f"context {tokens!r} is not a length-{h} list")
            ctx = tuple(START if str(t) == START_TOKEN else alphabet.index(str(t))
                        for t in tokens)
            if ctx in assignments:
                raise ValueError(f"context {tokens!r} listed in two classes")
            assignments[ctx] = cls_id
    return TieMap(h=h, n_classes=len(classes), assignments=assignments,
                  default_class=default_class)


# ---------------------------------------------------------------------------
# Report and table writers (deterministic byte output).


_REPORT_COLUMNS = ("label", "h", "boundary", "J", "transitions", "k_params") + CRITERIA + K_TERMS
_SELECTION_COLUMNS = ("h_true", "J", "criterion", "h_chosen", "frequency")
_DELTA_COLUMNS = ("h_true", "J", "criterion", "h", "min", "max", "mean", "frac_below_zero")
_NONFINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}  # repr -> JSON


def _texts(key: str, column: tuple) -> tuple[list[str], list[str]]:
    """Column ``key``'s cells as CSV text and as JSON text, in one pass.

    Floats and ints are written with ``repr`` (JSON spells the non-finite
    floats NaN, Infinity and -Infinity), strings as they are and
    JSON-quoted. A column holding any other type, or more than one type,
    raises ValueError.
    """
    kinds = set(map(type, column))
    if kinds == {float}:
        text = list(map(repr, column))
        if _NONFINITE.keys().isdisjoint(text):
            return text, text
        return text, [_NONFINITE.get(t, t) for t in text]
    if kinds == {int}:
        text = list(map(repr, column))
        return text, text
    if kinds == {str}:
        return list(column), list(map(encode_basestring_ascii, column))
    raise ValueError(f"column {key!r} must hold only floats, only ints or only strings, "
                     f"not {', '.join(sorted(k.__name__ for k in kinds))}")


class Records:
    """A list of flat records, each cell formatted once.

    Every record holds the same string keys in one order, and each column
    holds one type: float, int or str. The CSV rows (``csv``) and the JSON
    objects (``json_text``) are cut from the same cell texts, formatted
    column by column. Records with another key order, no key or a column
    of another type raise ValueError.
    """

    def __init__(self, records):
        records = list(records)
        keys = tuple(records[0]) if records else ()
        if records and not keys:
            raise ValueError("a record needs at least one column")
        for rec in records:
            if tuple(rec) != keys:
                raise ValueError(f"every record must hold the keys {keys} in that order, "
                                 f"got {tuple(rec)}")
        # key -> (CSV texts, JSON texts); empty when there are no records
        columns = zip(*(rec.values() for rec in records))
        self._cells = dict(zip(keys, map(_texts, keys, columns)))

    def csv(self, columns: tuple) -> str:
        """A header line and one line per record with its ``columns`` (each
        record must hold them)."""
        rows = map(",".join, zip(*(self._cells[c][0] for c in columns))) if self._cells else ()
        return "\n".join([",".join(columns), *rows]) + "\n"

    def json_text(self, indent: str = "") -> str:
        """``json.dumps(records, indent=2, sort_keys=True)``, nested ``indent`` deep."""
        if not self._cells:
            return "[]"
        keys = sorted(self._cells)
        # keys are JSON-quoted; a "%" in one is doubled for the template
        template = "{\n  " + ",\n  ".join(
            encode_basestring_ascii(k).replace("%", "%%") + ": %s" for k in keys) + "\n}"
        objects = [template % row for row in zip(*(self._cells[k][1] for k in keys))]
        # strings escape their newlines, so each newline here is one to indent
        inner = indent + "  "
        body = ",\n".join(objects).replace("\n", "\n" + inner)
        return f"[\n{inner}{body}\n{indent}]"


def _nested(value) -> bool:
    return isinstance(value, Records) or isinstance(value, (dict, list, tuple)) and bool(value)


def _json_text(obj, indent: str = "") -> str:
    """``json.dumps(obj, indent=2, sort_keys=True)`` nested ``indent`` deep,
    with each ``Records`` written as the list of its records.

    ``indent`` makes ``json`` use its pure-Python encoder. Here the C
    encoder writes each container that holds no non-empty container in
    one call, with an item separator that carries the newline and
    indentation; only the nesting is framed by hand.
    """
    if isinstance(obj, Records):
        return obj.json_text(indent)
    if not _nested(obj):
        return json.dumps(obj)
    inner = indent + "  "
    sep = ",\n" + inner
    is_dict = isinstance(obj, dict)
    if not any(map(_nested, obj.values() if is_dict else obj)):
        body = json.dumps(obj, sort_keys=True, separators=(sep, ": "))[1:-1]
    elif is_dict:
        # a key that is not a string is written as json writes it, then quoted
        body = sep.join(f"{json.dumps(k if isinstance(k, str) else json.dumps(k))}: "
                        f"{_json_text(v, inner)}" for k, v in sorted(obj.items()))
    else:
        body = sep.join(_json_text(v, inner) for v in obj)
    left, right = "{}" if is_dict else "[]"
    return f"{left}\n{inner}{body}\n{indent}{right}"


def _write(path, text: str) -> None:
    with _create(path) as fh:
        fh.write(text)


def write_json(obj, path) -> None:
    """Write ``obj`` as indented, key-sorted JSON plus a newline, in one write."""
    _write(path, _json_text(obj) + "\n")


def write_reports(reports: list[CriterionReport], out_dir) -> None:
    """Write criteria.json and criteria.csv."""
    out_dir = Path(out_dir)
    records = Records(r.as_dict() for r in reports)
    write_json(records, out_dir / "criteria.json")
    _write(out_dir / "criteria.csv", records.csv(_REPORT_COLUMNS))


def write_study(summary: dict, selection, deltas, out_dir) -> None:
    """Write a power study's selection.csv, delta.csv and summary.json.

    ``selection`` and ``deltas`` are the study's records
    (``PowerStudyResult``); ``deltas`` is None for a study that keeps
    none. summary.json is ``summary`` with the records added under
    "selection" and "deltas"; delta.csv is written when there are deltas.
    """
    out_dir = Path(out_dir)
    summary = {**summary, "selection": Records(selection)}
    _write(out_dir / "selection.csv", summary["selection"].csv(_SELECTION_COLUMNS))
    if deltas is not None:
        summary["deltas"] = Records(deltas)
        if deltas:
            _write(out_dir / "delta.csv", summary["deltas"].csv(_DELTA_COLUMNS))
    write_json(summary, out_dir / "summary.json")


def file_digest(path) -> str:
    digest = hashlib.sha256()
    with Path(path).open("rb") as fh:
        for chunk in iter(lambda: fh.read(65536), b""):
            digest.update(chunk)
    return digest.hexdigest()
