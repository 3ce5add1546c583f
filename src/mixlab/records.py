"""Performance records: JSONL schema, score aggregation, and the bundled fixture.

A record captures one pilot training run: which datasets participated (as
1-based labels), the mixture weights when known, and per-benchmark scores in
[0, 1].  The bundled fixture ships the published results table this toolkit
is calibrated against; its seed rows carry uniform weights over their
digit-coded participating sets, while heuristic- and model-derived rows keep
``weights = null`` because their mixtures were never published.

Record files are streamed once, a line at a time, and each line is decoded
once: by one bound scanner (:func:`scan_line`) when it holds one JSON value
and its newline, else by :func:`decode_line`, which decodes padded and CRLF
lines and raises the decoder's own message for an invalid one.  ``_record``
then turns the value into a record or raises the line's first fault.  Its
type tests are exact (JSON decodes to no subclasses, so ``type(x) is int``
is ``isinstance(x, int)`` without bool), and the common case is checked in
bulk: all scores at once, and weights that are floats in [0, 1] with a
``math.fsum`` within ``SIMPLEX_ATOL`` of 1 wrap without :func:`validate`.
Scores or weights that fail a bulk check are checked again one value at a
time, so the fault raised is the first.

:func:`stream_records` yields each record as its line is read, and
:func:`read_records` is the list of them.  ``mixlab aggregate``, ``fit`` and
``propose`` stream: :func:`summarize` and ``surrogate.fitting_rows`` keep only
the columns they use, never the whole record list.  Each of ``summarize``'s
summaries carries its record's id, so ``aggregate`` prints from the one list
its single pass returns; ``fit`` and ``propose`` read the file once, in
``fitting_rows``.  A fault in the records' meaning (a missing group member, a
mixture of another length) is held until the stream has ended and raised then,
so a parse fault on any line, earlier or later, still wins.  The ``heuristic``
command reads the whole list.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from importlib import resources
from pathlib import Path
from typing import Callable, Iterable, Iterator, Mapping, Sequence

from .config import check_types
from .errors import (
    EmptyGroup,
    MalformedLine,
    MissingBenchmark,
    MixLabError,
    ScoreOutOfRange,
    UnknownBenchmark,
)
from .mixtures import SIMPLEX_ATOL, MixtureWeights, validate

GROUPS = ("in", "out")


@dataclass(frozen=True)
class BenchmarkSpec:
    """One evaluation benchmark: name, test-sample count, and in/out group."""

    name: str
    count: int
    group: str

    def __post_init__(self):
        check_types(self)
        if self.count <= 0:
            raise ValueError(f"benchmark {self.name!r} needs a positive sample count")
        if self.group not in GROUPS:
            raise ValueError(f"benchmark {self.name!r} group must be one of {GROUPS}")


@dataclass(frozen=True)
class PerformanceRecord:
    """One pilot run: participating datasets, optional weights, benchmark scores."""

    id: str
    datasets: tuple[int, ...]
    weights: MixtureWeights | None
    scores: dict[str, float]
    step: int | None = None


@dataclass(frozen=True, slots=True)
class ScoreSummary:
    id: str
    in_score: float
    out_score: float


def group_scorer(suite: Sequence[BenchmarkSpec], group: str) -> Callable[[Mapping[str, float]], float]:
    """The rule that scores one mapping on one benchmark group: the sample-count-weighted average.

    Every group member must be present in the mapping; a missing benchmark is
    a MissingBenchmark rather than a silent reweighting, because dropping it
    would change the score invisibly.  A group without members is an
    EmptyGroup, raised when the first mapping is scored.
    """
    members = [b for b in suite if b.group == group]
    total = sum(b.count for b in members)

    def score(scores: Mapping[str, float]) -> float:
        if not members:
            raise EmptyGroup(f"no benchmarks in group {group!r}")
        try:
            return math.fsum(b.count * scores[b.name] for b in members) / total
        except KeyError:
            missing = [b.name for b in members if b.name not in scores]
            raise MissingBenchmark(f"missing scores for {missing} in group {group!r}") from None

    return score


def weighted_aggregate(
    score_rows: Iterable[Mapping[str, float]],
    suite: Sequence[BenchmarkSpec],
    group: str,
) -> list[float]:
    """:func:`group_scorer`'s score of each mapping in order, consuming ``score_rows`` once.

    An empty batch is ``[]`` whatever the group.
    """
    return list(map(group_scorer(suite, group), score_rows))


def summarize(records: Iterable[PerformanceRecord], suite: Sequence[BenchmarkSpec]) -> list[ScoreSummary]:
    """Each record's id with its In- and Out-score, in order, in one pass over ``records``.

    A scoring fault is raised once ``records`` is spent, so a parse fault on
    any line of a streamed file (:func:`stream_records`) still comes first.
    An In-score fault comes before any Out-score fault, and each is the first
    of its group, as if each group were scored over the whole batch in turn.
    """
    scorers = [group_scorer(suite, group) for group in GROUPS]
    faults: list[MixLabError | None] = [None] * len(GROUPS)
    summaries = []
    for record in records:
        scores = []
        for index, score in enumerate(scorers):
            if faults[index] is None:
                try:
                    scores.append(score(record.scores))
                except MixLabError as exc:
                    faults[index] = exc
        if len(scores) == len(GROUPS):
            summaries.append(ScoreSummary(record.id, *scores))
    raise_first(faults)
    return summaries


def raise_first(faults: Iterable[MixLabError | None]) -> None:
    """Raise the first fault that is not None, if any: a fault met mid-stream, raised once it has ended."""
    for fault in faults:
        if fault is not None:
            raise fault


# --- JSONL record schema -----------------------------------------------------
# One object per line:
#   {"id": str, "datasets": [int...], "weights": [float...]|null,
#    "scores": {benchmark: float}, "step": int|null}
# Dataset entries are 1-based labels; label i maps to weight position i - 1.

_KEYS = frozenset(("id", "datasets", "weights", "scores"))
_FLOAT, _NUMBER = frozenset({float}), frozenset({int, float})
_scan_once = json.JSONDecoder().scan_once


def scan_line(line: str):
    """The JSON value a line starts with, when nothing but one ``"\\n"`` follows it; else None.

    The fast way to decode a JSONL line, with one bound scanner.  Never
    raises: invalid JSON, a value nested too deeply, and leading or other
    trailing whitespace are all None (as is ``null``), left for
    :func:`decode_line`.
    """
    try:
        value, end = _scan_once(line, 0)
    except (StopIteration, ValueError, TypeError, RecursionError):  # JSONDecodeError is a ValueError
        return None
    return value if end == len(line) or line[end:] == "\n" else None


def decode_line(line: str, line_number: int):
    """The JSON value on one line of a JSONL file; MalformedLine at ``line_number`` if it holds none."""
    try:
        return json.loads(line)
    except json.JSONDecodeError as exc:
        raise MalformedLine(line_number, f"invalid JSON: {exc.msg}") from exc
    except RecursionError as exc:
        raise MalformedLine(line_number, "invalid JSON: nested too deeply") from exc


def parse_records(
    lines: Iterable[str],
    suite: Sequence[BenchmarkSpec] | None = None,
) -> list[PerformanceRecord]:
    """Parse JSONL record lines, preserving order; blank lines are skipped.

    When ``suite`` is given, score keys must name benchmarks from it.  A line
    holding a character that UTF-8 cannot encode (a byte that was not UTF-8,
    under ``errors="surrogateescape"``) is a MalformedLine.
    """
    return list(_parsed(lines, suite))


def _parsed(lines: Iterable[str], suite: Sequence[BenchmarkSpec] | None) -> Iterator[PerformanceRecord]:
    """:func:`parse_records`, one record at a time as each line is read."""
    known = {b.name for b in suite} if suite is not None else None
    for line_number, line in enumerate(lines, start=1):
        if not line.isascii():
            try:
                line.encode("utf-8")
            except UnicodeEncodeError as exc:
                raise MalformedLine(line_number, "not UTF-8 text") from exc
        obj = scan_line(line)
        if obj is None:
            if not line.strip():
                continue
            obj = decode_line(line, line_number)
        yield _record(obj, line_number, known)
        del obj  # freed before the next decode, so its blocks are reused, not left between records


def _record(obj, line_number: int, known: set[str] | None) -> PerformanceRecord:
    """The record a decoded line holds, or its first fault raised (see the module docstring)."""
    if type(obj) is not dict:
        raise MalformedLine(line_number, "record must be a JSON object")
    if not obj.keys() >= _KEYS:
        missing = [k for k in ("id", "datasets", "weights", "scores") if k not in obj]
        raise MalformedLine(line_number, f"missing keys: {missing}")

    rid = obj["id"]
    if type(rid) is not str:
        raise MalformedLine(line_number, "id must be a string")

    raw_datasets = obj["datasets"]
    if type(raw_datasets) is not list:
        raise MalformedLine(line_number, "datasets must be a list of labels >= 1")
    for d in raw_datasets:  # a loop, not all(): no generator built on every line
        if type(d) is not int or d < 1:
            raise MalformedLine(line_number, "datasets must be a list of labels >= 1")
    if len(set(raw_datasets)) != len(raw_datasets):
        raise MalformedLine(line_number, "datasets must not repeat")

    scores = obj["scores"]
    if type(scores) is not dict:
        raise MalformedLine(line_number, "scores must be an object")
    score_types = set(map(type, scores.values()))
    if (not score_types <= _NUMBER or not all(0.0 <= v <= 1.0 for v in scores.values())  # False for NaN
            or (known is not None and not scores.keys() <= known)):
        for name, value in scores.items():  # raise the first fault, in order
            if type(value) not in _NUMBER:
                raise MalformedLine(line_number, f"score for {name!r} must be a number")
            if known is not None and name not in known:
                raise UnknownBenchmark(f"line {line_number}: unknown benchmark {name!r}")
            if not 0.0 <= value <= 1.0:
                raise ScoreOutOfRange(f"line {line_number}: score {name}={value} outside [0, 1]")
    if int in score_types:
        scores = {name: float(value) for name, value in scores.items()}

    raw_weights = obj["weights"]
    if raw_weights is None:
        weights, datasets = None, tuple(sorted(raw_datasets))
    else:
        weight_types = set(map(type, raw_weights)) if type(raw_weights) is list else None
        if weight_types is None or not weight_types <= _NUMBER:
            raise MalformedLine(line_number, "weights must be a list of numbers or null")
        # in [0, 1], so the fsum cannot overflow (min() and max() may skip a NaN, which makes it NaN)
        if (weight_types == _FLOAT and min(raw_weights) >= 0.0 and max(raw_weights) <= 1.0
                and abs(math.fsum(raw_weights) - 1.0) <= SIMPLEX_ATOL):
            weights = MixtureWeights.trusted(tuple(raw_weights))
        else:
            try:
                weights = validate(raw_weights)
            except Exception as exc:
                raise MalformedLine(line_number, f"invalid weights: {exc}") from exc
        # the support's labels ascend, so raw datasets equal to them need no sort
        support = [label for label, w in enumerate(weights.weights, start=1) if w]
        datasets = tuple(raw_datasets if support == raw_datasets else sorted(raw_datasets))
        if datasets != tuple(support):
            raise MalformedLine(line_number, f"weight support {tuple(support)} != datasets {datasets}")

    step = obj.get("step")
    if step is not None and type(step) is not int:
        raise MalformedLine(line_number, "step must be an integer or null")

    return PerformanceRecord(id=rid, datasets=datasets, weights=weights, scores=scores, step=step)


def serialize_record(record: PerformanceRecord) -> str:
    obj = {
        "id": record.id,
        "datasets": list(record.datasets),
        "weights": list(record.weights.weights) if record.weights is not None else None,
        "scores": record.scores,
        "step": record.step,
    }
    return json.dumps(obj)


def write_records(records: Sequence[PerformanceRecord], path: str | Path) -> None:
    Path(path).write_text("".join(serialize_record(r) + "\n" for r in records))


def stream_records(path: str | Path, suite: Sequence[BenchmarkSpec] | None = None) -> Iterator[PerformanceRecord]:
    """The records of a JSONL file, yielded as its lines are read; see :func:`parse_records`."""
    # a byte that is not UTF-8 reaches the parser as a lone surrogate on its own line,
    # so the error names that line, and faults on earlier lines still come first
    with open(path, encoding="utf-8", errors="surrogateescape") as fh:
        yield from _parsed(fh, suite)


def read_records(path: str | Path, suite: Sequence[BenchmarkSpec] | None = None) -> list[PerformanceRecord]:
    """Every record of a JSONL file, as a list."""
    return list(stream_records(path, suite))


# --- benchmark suite files ---------------------------------------------------

def parse_suite(obj: object) -> list[BenchmarkSpec]:
    """A suite from a JSON array of objects holding BenchmarkSpec's fields; MalformedLine on any fault."""
    if not isinstance(obj, list):
        raise MalformedLine(1, "suite file must be a JSON array")
    suite = []
    for index, entry in enumerate(obj):
        try:
            suite.append(BenchmarkSpec(**entry))
        except (TypeError, ValueError) as exc:  # a non-object entry is a TypeError too
            raise MalformedLine(1, f"suite entry {index}: {exc}") from exc
    names = [b.name for b in suite]
    if len(set(names)) != len(names):
        raise MalformedLine(1, "benchmark names must be unique within a suite")
    return suite


def read_suite(path: str | Path) -> list[BenchmarkSpec]:
    try:
        obj = json.loads(Path(path).read_text(encoding="utf-8"))
    except UnicodeDecodeError as exc:
        raise MalformedLine.not_utf8(exc) from exc
    except json.JSONDecodeError as exc:
        raise MalformedLine(exc.lineno, f"invalid JSON: {exc.msg}") from exc
    except RecursionError as exc:
        raise MalformedLine(1, "invalid JSON: nested too deeply") from exc
    return parse_suite(obj)


def bundled_suite() -> list[BenchmarkSpec]:
    """The benchmark suite the bundled fixture was scored on."""
    text = (resources.files("mixlab") / "data" / "benchmarks.json").read_text(encoding="utf-8")
    return parse_suite(json.loads(text))


# --- bundled results fixture -------------------------------------------------

def table2_fixture() -> list[PerformanceRecord]:
    """All 42 rows of the bundled results table, in publication order."""
    text = (resources.files("mixlab") / "data" / "table2.jsonl").read_text(encoding="utf-8")
    return parse_records(text.splitlines(), suite=bundled_suite())


def table2_printed_summary() -> dict[str, ScoreSummary]:
    """The In-Score / Out-Score columns exactly as published, keyed by row id.

    Useful for checking that :func:`weighted_aggregate` reproduces the table;
    inputs were published rounded to four decimals, so agreement is expected
    within about 1e-3.
    """
    text = (resources.files("mixlab") / "data" / "table2_summary.json").read_text(encoding="utf-8")
    raw = json.loads(text)
    return {rid: ScoreSummary(id=rid, in_score=v[0], out_score=v[1]) for rid, v in raw.items()}
