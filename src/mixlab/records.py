"""Performance records: JSONL schema, score aggregation, and the bundled fixture.

A record captures one pilot training run: which datasets participated (as
1-based labels), the mixture weights when known, and per-benchmark scores in
[0, 1].  The bundled fixture ships the published results table this toolkit
is calibrated against; its seed rows carry uniform weights over their
digit-coded participating sets, while heuristic- and model-derived rows keep
``weights = null`` because their mixtures were never published.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from importlib import resources
from pathlib import Path
from typing import Iterable, Mapping, Sequence

from .config import check_types
from .errors import (
    EmptyGroup,
    MalformedLine,
    MissingBenchmark,
    ScoreOutOfRange,
    UnknownBenchmark,
)
from .mixtures import MixtureWeights, validate

GROUPS = ("in", "out")
_WEIGHT_TYPES = frozenset({int, float})


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


@dataclass(frozen=True)
class ScoreSummary:
    in_score: float
    out_score: float


def weighted_aggregate(
    scores: Mapping[str, float],
    suite: Sequence[BenchmarkSpec],
    group: str,
) -> float:
    """Sample-count-weighted average score over one benchmark group.

    Every group member must be present in ``scores``; missing benchmarks are
    an error rather than a silent reweighting, because dropping a benchmark
    would change the aggregate invisibly.
    """
    members = [b for b in suite if b.group == group]
    if not members:
        raise EmptyGroup(f"no benchmarks in group {group!r}")
    missing = [b.name for b in members if b.name not in scores]
    if missing:
        raise MissingBenchmark(f"missing scores for {missing} in group {group!r}")
    total = sum(b.count for b in members)
    return math.fsum(b.count * scores[b.name] for b in members) / total


def summarize(record: PerformanceRecord, suite: Sequence[BenchmarkSpec]) -> ScoreSummary:
    return ScoreSummary(
        in_score=weighted_aggregate(record.scores, suite, "in"),
        out_score=weighted_aggregate(record.scores, suite, "out"),
    )


# --- JSONL record schema -----------------------------------------------------
# One object per line:
#   {"id": str, "datasets": [int...], "weights": [float...]|null,
#    "scores": {benchmark: float}, "step": int|null}
# Dataset entries are 1-based labels; label i maps to weight position i - 1.

def parse_records(
    lines: Iterable[str],
    suite: Sequence[BenchmarkSpec] | None = None,
) -> list[PerformanceRecord]:
    """Parse JSONL record lines, preserving order; blank lines are skipped.

    When ``suite`` is given, score keys must name benchmarks from it.
    """
    known = {b.name for b in suite} if suite is not None else None
    out: list[PerformanceRecord] = []
    for line_number, line in enumerate(lines, start=1):
        if not line.strip():
            continue
        out.append(_parse_record_line(line, line_number, known))
    return out


def _parse_record_line(line: str, line_number: int, known: set[str] | None) -> PerformanceRecord:
    try:
        obj = json.loads(line)
    except json.JSONDecodeError as exc:
        raise MalformedLine(line_number, f"invalid JSON: {exc.msg}") from exc
    if not isinstance(obj, dict):
        raise MalformedLine(line_number, "record must be a JSON object")

    missing = [k for k in ("id", "datasets", "weights", "scores") if k not in obj]
    if missing:
        raise MalformedLine(line_number, f"missing keys: {missing}")

    rid = obj["id"]
    if not isinstance(rid, str):
        raise MalformedLine(line_number, "id must be a string")

    raw_datasets = obj["datasets"]
    if not isinstance(raw_datasets, list) or any(
        not isinstance(d, int) or isinstance(d, bool) or d < 1 for d in raw_datasets
    ):
        raise MalformedLine(line_number, "datasets must be a list of labels >= 1")
    datasets = tuple(sorted(set(raw_datasets)))
    if len(datasets) != len(raw_datasets):
        raise MalformedLine(line_number, "datasets must not repeat")

    raw_scores = obj["scores"]
    if not isinstance(raw_scores, dict):
        raise MalformedLine(line_number, "scores must be an object")
    scores: dict[str, float] = {}
    for name, value in raw_scores.items():
        if not isinstance(value, (int, float)) or isinstance(value, bool):
            raise MalformedLine(line_number, f"score for {name!r} must be a number")
        if known is not None and name not in known:
            raise UnknownBenchmark(f"line {line_number}: unknown benchmark {name!r}")
        if not 0.0 <= value <= 1.0:
            raise ScoreOutOfRange(f"line {line_number}: score {name}={value} outside [0, 1]")
        scores[name] = float(value)

    raw_weights = obj["weights"]
    weights = None
    if raw_weights is not None:
        # exact types: json.loads yields no subclasses, and bool is not a weight
        if not isinstance(raw_weights, list) or not set(map(type, raw_weights)) <= _WEIGHT_TYPES:
            raise MalformedLine(line_number, "weights must be a list of numbers or null")
        try:
            weights = validate(raw_weights)
        except Exception as exc:
            raise MalformedLine(line_number, f"invalid weights: {exc}") from exc
        if weights.dataset_labels() != datasets:
            raise MalformedLine(
                line_number,
                f"weight support {weights.dataset_labels()} != datasets {datasets}",
            )

    step = obj.get("step")
    if step is not None and (not isinstance(step, int) or isinstance(step, bool)):
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


def read_records(path: str | Path, suite: Sequence[BenchmarkSpec] | None = None) -> list[PerformanceRecord]:
    with open(path) as fh:
        return parse_records(fh, suite=suite)


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
        obj = json.loads(Path(path).read_text())
    except json.JSONDecodeError as exc:
        raise MalformedLine(exc.lineno, f"invalid JSON: {exc.msg}") from exc
    return parse_suite(obj)


def bundled_suite() -> list[BenchmarkSpec]:
    """The benchmark suite the bundled fixture was scored on."""
    text = (resources.files("mixlab") / "data" / "benchmarks.json").read_text()
    return parse_suite(json.loads(text))


# --- bundled results fixture -------------------------------------------------

def table2_fixture() -> list[PerformanceRecord]:
    """All 42 rows of the bundled results table, in publication order."""
    text = (resources.files("mixlab") / "data" / "table2.jsonl").read_text()
    return parse_records(text.splitlines(), suite=bundled_suite())


def table2_printed_summary() -> dict[str, ScoreSummary]:
    """The In-Score / Out-Score columns exactly as published, keyed by row id.

    Useful for checking that :func:`weighted_aggregate` reproduces the table;
    inputs were published rounded to four decimals, so agreement is expected
    within about 1e-3.
    """
    text = (resources.files("mixlab") / "data" / "table2_summary.json").read_text()
    raw = json.loads(text)
    return {rid: ScoreSummary(in_score=v[0], out_score=v[1]) for rid, v in raw.items()}


def by_id(records: Sequence[PerformanceRecord]) -> dict[str, PerformanceRecord]:
    return {r.id: r for r in records}
