"""File formats: trajectory JSONL, sports CSV import, tie-map JSON, reports.

See FORMATS.md at the repository root for the format reference. Reading
errors carry the 1-based line number of the offending record.
"""

from __future__ import annotations

import csv
import hashlib
import json
from pathlib import Path

from .chain import START, StateAlphabet, Trajectory
from .criteria import CRITERIA, K_TERMS, CriterionReport
from .tying import TieMap

__all__ = [
    "TrajectoryFormatError",
    "read_trajectories_jsonl",
    "write_trajectories_jsonl",
    "import_outcome_csv",
    "load_tie_map",
    "write_json",
    "write_reports",
    "write_selection_csv",
    "write_delta_csv",
    "file_digest",
]

START_TOKEN = "START"  # reserved token string for tie-map context files


class TrajectoryFormatError(ValueError):
    """A malformed record; ``line`` is the 1-based line number."""

    def __init__(self, line: int, message: str):
        super().__init__(f"line {line}: {message}")
        self.line = line


def read_trajectories_jsonl(
    path,
    states: list[str] | None = None,
) -> tuple[StateAlphabet, list[Trajectory]]:
    """Read one-trajectory-per-line JSONL: {"id": ..., "seq": [label, ...]}.

    The alphabet comes from, in order of precedence: the ``states``
    argument, a header line {"states": [...]}, or the sorted set of labels
    seen in the file.
    """
    path = Path(path)
    raw: list[tuple[int, dict]] = []
    header_alphabet: StateAlphabet | None = None
    with path.open("r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                obj = json.loads(line)
            except json.JSONDecodeError as exc:
                raise TrajectoryFormatError(lineno, f"invalid JSON ({exc.msg})") from None
            if not isinstance(obj, dict):
                raise TrajectoryFormatError(lineno, "expected a JSON object")
            if "states" in obj and "seq" not in obj:
                if header_alphabet is not None or raw:
                    raise TrajectoryFormatError(lineno, "header line must come first")
                if not isinstance(obj["states"], list):
                    raise TrajectoryFormatError(lineno, '"states" must be a list of labels')
                try:
                    header_alphabet = StateAlphabet(tuple(obj["states"]))
                except ValueError as exc:
                    raise TrajectoryFormatError(lineno, str(exc)) from None
                continue
            if "seq" not in obj:
                raise TrajectoryFormatError(lineno, 'missing "seq" field')
            raw.append((lineno, obj))
    if not raw:
        raise TrajectoryFormatError(0, "no trajectories in input")

    if states is not None:
        alphabet = StateAlphabet(tuple(states))
    elif header_alphabet is not None:
        alphabet = header_alphabet
    else:
        seen: set[str] = set()
        for _, obj in raw:
            seen.update(map(str, obj["seq"]))
        alphabet = StateAlphabet(tuple(sorted(seen)))

    trajs: list[Trajectory] = []
    for lineno, obj in raw:
        seq = obj["seq"]
        if not isinstance(seq, list) or not seq:
            raise TrajectoryFormatError(lineno, '"seq" must be a non-empty list')
        try:
            steps = alphabet.indices(seq)
        except ValueError as exc:
            raise TrajectoryFormatError(lineno, str(exc)) from None
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


def import_outcome_csv(
    path,
    labels: tuple[str, str] = ("0", "1"),
) -> tuple[StateAlphabet, list[Trajectory]]:
    """Import ordered (group_id, outcome) CSV rows as per-group trajectories.

    Rows sharing a group id form one trajectory in file order; the default
    labels follow the miss=0 / hit=1 convention. A header row whose second
    column is not a known label is skipped.
    """
    path = Path(path)
    alphabet = StateAlphabet(tuple(labels))
    order: list[str] = []
    seqs: dict[str, list[int]] = {}
    with path.open("r", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        for lineno, row in enumerate(reader, start=1):
            if not row or all(not c.strip() for c in row):
                continue
            if len(row) < 2:
                raise TrajectoryFormatError(lineno, "expected two columns: group id, outcome")
            gid, outcome = row[0].strip(), row[1].strip()
            if lineno == 1 and outcome not in alphabet.labels:
                continue  # header row
            try:
                state = alphabet.index(outcome)
            except ValueError as exc:
                raise TrajectoryFormatError(lineno, str(exc)) from None
            if gid not in seqs:
                order.append(gid)
                seqs[gid] = []
            seqs[gid].append(state)
    if not order:
        raise TrajectoryFormatError(0, "no outcome rows in input")
    trajs = [Trajectory(gid, tuple(seqs[gid])) for gid in order]
    return alphabet, trajs


def load_tie_map(path, alphabet: StateAlphabet) -> TieMap:
    """Load a tie map: {"h": int >= 0, "classes": [{"contexts": [[token, ...], ...]}
    or {"default": true}, ...]}.

    Context tokens are state labels or the reserved string "START"; at
    most one class may be the default catch-all, and every other class
    must list a context.
    """
    path = Path(path)
    with path.open("r", encoding="utf-8") as fh:
        spec = json.load(fh)
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


def _cell(value) -> str:
    return repr(value) if isinstance(value, float) else str(value)


def _nested(value) -> bool:
    return isinstance(value, (dict, list, tuple)) and bool(value)


def _json_text(obj, indent: str = "") -> str:
    """``json.dumps(obj, indent=2, sort_keys=True)`` nested ``indent`` deep.

    ``indent`` makes ``json`` use its pure-Python encoder. Here the C
    encoder writes each container that holds no non-empty container, and
    each list of such dicts, in one call, with an item separator that
    carries the newline and indentation; only the nesting is framed by
    hand. Strings escape their newlines, so in a list of dicts "}", the
    separator and "{" in a row mark where one dict ends and the next
    begins: within a dict a separator is always followed by a key.
    """
    if not _nested(obj):
        return json.dumps(obj)
    inner = indent + "  "
    sep = ",\n" + inner
    is_dict = isinstance(obj, dict)
    if not any(map(_nested, obj.values() if is_dict else obj)):
        body = json.dumps(obj, sort_keys=True, separators=(sep, ": "))[1:-1]
    elif not is_dict and all(isinstance(v, dict) and _nested(v) and not any(map(_nested, v.values()))
                             for v in obj):
        row = sep + "  "
        text = json.dumps(obj, sort_keys=True, separators=(row, ": "))[2:-2]
        body = "{" + row[1:] + text.replace("}" + row + "{", "\n" + inner + "}" + sep + "{" + row[1:])
        body += "\n" + inner + "}"
    elif is_dict:
        # a key that is not a string is written as json writes it, then quoted
        body = sep.join(f"{json.dumps(k if isinstance(k, str) else json.dumps(k))}: "
                        f"{_json_text(v, inner)}" for k, v in sorted(obj.items()))
    else:
        body = sep.join(_json_text(v, inner) for v in obj)
    left, right = "{}" if is_dict else "[]"
    return f"{left}\n{inner}{body}\n{indent}{right}"


def write_json(obj, path) -> Path:
    """Write ``obj`` as indented, key-sorted JSON plus a newline, in one write."""
    path = Path(path)
    with _create(path) as fh:
        fh.write(_json_text(obj) + "\n")
    return path


def _write_csv(records, cols: tuple, path) -> Path:
    path = Path(path)
    with _create(path) as fh:
        fh.write(",".join(cols) + "\n")
        for rec in records:
            fh.write(",".join(_cell(rec[c]) for c in cols) + "\n")
    return path


def write_reports(reports: list[CriterionReport], out_dir) -> tuple[Path, Path]:
    """Write criteria.json and criteria.csv; returns the two paths."""
    out_dir = Path(out_dir)
    dicts = [r.as_dict() for r in reports]
    json_path = write_json(dicts, out_dir / "criteria.json")
    return json_path, _write_csv(dicts, _REPORT_COLUMNS, out_dir / "criteria.csv")


def write_selection_csv(records, path) -> Path:
    """Write a power study's selection records (``PowerStudyResult.selection``)
    as selection.csv, one row per record in the given order."""
    return _write_csv(records, _SELECTION_COLUMNS, path)


def write_delta_csv(records, path) -> Path:
    """Write a power study's delta records (``PowerStudyResult.deltas``) as
    delta.csv, one row per record in the given order."""
    return _write_csv(records, _DELTA_COLUMNS, path)


def file_digest(path) -> str:
    digest = hashlib.sha256()
    with Path(path).open("rb") as fh:
        for chunk in iter(lambda: fh.read(65536), b""):
            digest.update(chunk)
    return digest.hexdigest()
