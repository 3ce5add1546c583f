"""Verifiable reward functions: answer extraction, exact match, box IoU, totals.

The reasoning-format contract is a ``<think>...</think>`` block followed by
``<answer>...</answer>`` (tags are case-sensitive; whitespace between them is
free).  The pair may appear anywhere in the output and the last pair wins.
If extraction fails, format, accuracy, and IoU are all zero.
"""

from __future__ import annotations

import ast
import math
import re
from dataclasses import dataclass
from typing import Iterable, Sequence

from .errors import InvalidBox, InvalidPair, MalformedLine
from .records import decode_line, scan_line

TAG_PATTERN = re.compile(r"<think>(.*?)</think>\s*<answer>(.*?)</answer>", re.DOTALL)

_WS_RUN = re.compile(r"\s+")


@dataclass(frozen=True)
class BoundingBox:
    """Axis-aligned box in pixel coordinates: (x1, y1) <= (x2, y2), finite width and height."""

    x1: float
    y1: float
    x2: float
    y2: float

    def __post_init__(self):
        # both differences are >= 0 once the corners are ordered, so the sum is finite iff each is
        if not (self.x1 <= self.x2 and self.y1 <= self.y2
                and math.isfinite(self.x2 - self.x1 + self.y2 - self.y1)):
            raise InvalidBox(f"box corners out of order or not finite: {self}")

    @property
    def area(self) -> float:
        return (self.x2 - self.x1) * (self.y2 - self.y1)


@dataclass(frozen=True)
class RewardBreakdown:
    """Per-component rewards; ``accuracy`` is None for box tasks and vice versa."""

    format: int
    accuracy: int | None
    iou: float | None
    total: float


def extract_answer(text: str, mode: str = "text"):
    """Pull the final answer out of a model response.

    Returns ``(format_flag, payload)``.  In text mode the payload is the
    trimmed answer span; in box mode it is a list of (BoundingBox, confidence)
    pairs parsed from the span, and a span that does not parse as such counts
    as a format failure.  Never raises on malformed input.
    """
    if mode not in ("text", "box"):
        raise ValueError(f"mode must be 'text' or 'box', got {mode!r}")
    matches = TAG_PATTERN.findall(text or "")
    if not matches:
        return 0, None
    span = matches[-1][1].strip()
    if mode == "text":
        return 1, span
    boxes = _parse_box_payload(span)
    if boxes is None:
        return 0, None
    return 1, boxes


# Fast path for the canonical box payload.  It accepts only spans on which
# ast.literal_eval + float() give the same numbers: ASCII whitespace the
# tokenizer allows, [0-9] digits, quotes paired per key, no leading zeros.
_WS = r"[ \t\n]*"
_NUMBER = r"-?(?:0|[1-9][0-9]*)(?:\.[0-9]+)?"
_POSITION = (rf"(['\"])Position\1{_WS}:{_WS}\[{_WS}"
             + rf"{_WS},{_WS}".join([_NUMBER] * 4) + rf"{_WS}\]")
_CONFIDENCE = rf"(['\"])Confidence\2{_WS}:{_WS}{_NUMBER}"
_BOX_ITEM = r"\{" + _WS + _POSITION + _WS + "," + _WS + _CONFIDENCE + _WS + r"\}"
# one or more items, comma-separated, no trailing comma
_BOX_PAYLOAD = re.compile(
    rf"\[(?:{_WS}{_BOX_ITEM}{_WS}(?:,(?!{_WS}\])|(?=\])))+\]", re.ASCII
)
# In a span _BOX_PAYLOAD matched, the keys hold no digits, so these are the
# five numbers of each item in order.
_NUMBER_TOKEN = re.compile(r"-?[0-9]+(?:\.[0-9]+)?", re.ASCII)


def _parse_box_payload(span: str):
    """Parse ``[{'Position': [x1, y1, x2, y2], 'Confidence': c}, ...]`` or None.

    Spans in the canonical shape (single- or double-quoted keys, Position
    first, integer or plain decimal numbers, spaces, tabs and newlines) are
    read by a compiled pattern; every other span goes to
    :func:`_parse_box_literal`.  Both give the same result on the spans the
    pattern accepts.  Any bad item, out-of-order corners, or a number too
    large for a float makes the whole payload None.
    """
    if _BOX_PAYLOAD.fullmatch(span) is None:
        return _parse_box_literal(span)
    try:
        values = [float(t) if "." in t else float(int(t)) for t in _NUMBER_TOKEN.findall(span)]
    except (OverflowError, ValueError):
        return None
    parsed = []
    for i in range(0, len(values), 5):
        try:
            box = BoundingBox(values[i], values[i + 1], values[i + 2], values[i + 3])
        except InvalidBox:
            return None
        parsed.append((box, values[i + 4]))
    return parsed


def _parse_box_literal(span: str):
    """The general box parser: ``ast.literal_eval`` plus shape and type checks."""
    try:
        obj = ast.literal_eval(span)
    except (ValueError, TypeError, SyntaxError, MemoryError, RecursionError):
        return None
    if not isinstance(obj, list) or not obj:
        return None
    parsed = []
    for item in obj:
        if not isinstance(item, dict) or "Position" not in item or "Confidence" not in item:
            return None
        box = _box(item["Position"])
        confidence = item["Confidence"]
        if box is None or type(confidence) not in (int, float):
            return None
        try:
            parsed.append((box, float(confidence)))
        except OverflowError:
            return None
    return parsed


def _box(position) -> BoundingBox | None:
    """Four ints or floats ``[x1, y1, x2, y2]`` (not bools) as a BoundingBox, or None."""
    if not (isinstance(position, (list, tuple)) and len(position) == 4
            and set(map(type, position)) <= {int, float}):
        return None
    try:
        return BoundingBox(*map(float, position))
    except (InvalidBox, OverflowError):
        return None


def normalize_answer(text: str) -> str:
    """Trim and collapse internal whitespace runs to single spaces."""
    return _WS_RUN.sub(" ", text.strip())


def accuracy_reward(predicted: str, gold: str) -> int:
    """Binary exact match after whitespace normalization; case-sensitive."""
    return int(normalize_answer(predicted) == normalize_answer(gold))


def iou(a: BoundingBox, b: BoundingBox) -> float:
    """Intersection area over union area; a zero-area union scores 0."""
    inter_w = min(a.x2, b.x2) - max(a.x1, b.x1)
    inter_h = min(a.y2, b.y2) - max(a.y1, b.y1)
    intersection = max(0.0, inter_w) * max(0.0, inter_h)
    union = a.area + b.area - intersection
    if union <= 0.0:
        return 0.0
    return intersection / union


def best_box(boxes: Sequence[tuple[BoundingBox, float]]) -> BoundingBox:
    """Highest-confidence predicted box; ties go to the first listed."""
    index = max(range(len(boxes)), key=lambda i: (boxes[i][1], -i))
    return boxes[index][0]


def combined_reward(
    format_flag: int,
    accuracy: int | None = None,
    iou_value: float | None = None,
) -> RewardBreakdown:
    """Total ``2 * quality + 1 * format``, quality being the accuracy or the IoU.

    A format failure zeroes every component, so the total is 0 regardless of
    the other inputs.
    """
    if accuracy is not None and iou_value is not None:
        raise ValueError("a task is scored by accuracy or IoU, not both")
    if format_flag == 0:
        return RewardBreakdown(
            format=0,
            accuracy=0 if accuracy is not None else None,
            iou=0.0 if iou_value is not None else None,
            total=0.0,
        )
    quality = 0.0
    if accuracy is not None:
        quality = float(accuracy)
    elif iou_value is not None:
        quality = float(iou_value)
    total = 2.0 * quality + 1.0
    return RewardBreakdown(format=1, accuracy=accuracy, iou=iou_value, total=total)


def score_pair(prediction: str, gold, mode: str) -> RewardBreakdown:
    """Score one (prediction, gold) pair end to end; InvalidPair unless the types suit ``mode``.

    ``prediction`` is a string; ``gold`` a string (text) or a BoundingBox or [x1, y1, x2, y2] (box).
    """
    if mode == "box" and not isinstance(gold, BoundingBox):
        gold = _box(gold)
    if not isinstance(prediction, str) or not isinstance(gold, BoundingBox if mode == "box" else str):
        raise InvalidPair("expected a string prediction and a string gold (text mode) "
                          "or a gold box [x1, y1, x2, y2] (box mode)")
    flag, payload = extract_answer(prediction, mode=mode)
    if mode == "text":
        acc = accuracy_reward(payload, gold) if flag else 0
        return combined_reward(flag, accuracy=acc)
    value = iou(best_box(payload), gold) if flag else 0.0
    return combined_reward(flag, iou_value=value)


def score_pairs(lines: Iterable[str]) -> list[RewardBreakdown]:
    """Score a JSONL stream of ``{"prediction": ..., "gold": ..., "mode": ...}``."""
    results = []
    for line_number, line in enumerate(lines, start=1):
        if not line.strip():
            continue
        obj = scan_line(line)
        if obj is None:
            obj = decode_line(line, line_number)
        if not isinstance(obj, dict) or not {"prediction", "gold", "mode"} <= obj.keys():
            raise MalformedLine(line_number, "expected {prediction, gold, mode}")
        mode = obj["mode"]
        if mode not in ("text", "box"):
            raise MalformedLine(line_number, f"unknown mode {mode!r}")
        try:
            results.append(score_pair(obj["prediction"], obj["gold"], mode))
        except InvalidPair as exc:
            raise MalformedLine(line_number, str(exc)) from exc
    return results
