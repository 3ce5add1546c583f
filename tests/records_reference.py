"""The per-line record parser: the reference ``mixlab.records.parse_records`` is checked against.

Every check written out once, with ``isinstance`` tests and one score at a
time, in the order the package raises them.  The package reads records only
through :func:`mixlab.records.parse_records`; the differential tests in
``test_records.py`` parse the same lines with :func:`parse_each_line` and
require the same records, or the same error on the same line.
"""

from __future__ import annotations

from mixlab.errors import MalformedLine, ScoreOutOfRange, UnknownBenchmark
from mixlab.mixtures import validate
from mixlab.records import PerformanceRecord, decode_line

_NUMBER = frozenset({int, float})


def _parse_record_line(line: str, line_number: int, known: set[str] | None) -> PerformanceRecord:
    obj = decode_line(line, line_number)
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
        if not isinstance(raw_weights, list) or not set(map(type, raw_weights)) <= _NUMBER:
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


def parse_each_line(lines, known):
    """The records of a file's lines, each parsed on its own; blank lines are skipped."""
    return [_parse_record_line(line, n, known) for n, line in enumerate(lines, start=1) if line.strip()]
