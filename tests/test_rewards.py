import json
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from mixlab import rewards
from mixlab.errors import InvalidBox, InvalidPair, MalformedLine
from mixlab.rewards import (
    BoundingBox,
    _parse_box_literal,
    _parse_box_payload,
    accuracy_reward,
    best_box,
    combined_reward,
    extract_answer,
    iou,
    normalize_answer,
    score_pair,
    score_pairs,
)

REASONED = "<think> the diatom makes its own food </think> <answer> B </answer>"
GROUNDED = ("<think> the goalkeeper guards the goal </think> "
            "<answer>[{'Position': [422, 781, 464, 926], 'Confidence': 1}]</answer>")


class TestExtractAnswer:
    def test_reasoned_answer(self):
        assert extract_answer(REASONED) == (1, "B")

    def test_untagged_answer(self):
        assert extract_answer("The answer is B") == (0, None)

    def test_grounded_answer(self):
        flag, boxes = extract_answer(GROUNDED, mode="box")
        assert flag == 1
        assert boxes == [(BoundingBox(422, 781, 464, 926), 1.0)]

    def test_double_quoted_payload(self):
        text = '<think>x</think><answer>[{"Position": [0, 0, 10.5, 20], "Confidence": 0.9}]</answer>'
        flag, boxes = extract_answer(text, mode="box")
        assert flag == 1
        assert boxes[0][0] == BoundingBox(0, 0, 10.5, 20)

    def test_last_match_wins(self):
        text = (
            "<think>a</think><answer>first</answer> trailing words "
            "<think>b</think>\n\t<answer>second</answer>"
        )
        assert extract_answer(text) == (1, "second")

    def test_missing_think_block(self):
        assert extract_answer("<answer>B</answer>") == (0, None)

    def test_malformed_box_payload_is_format_failure(self):
        for payload in ("B", "[]", "[1, 2]", "[{'Position': [1, 2, 3], 'Confidence': 1}]",
                        "[{'Position': [4, 4, 1, 9], 'Confidence': 1}]",
                        "[{'Confidence': 1}]"):
            text = f"<think>x</think><answer>{payload}</answer>"
            assert extract_answer(text, mode="box") == (0, None)

    def test_number_too_large_for_float_is_format_failure(self):
        huge = "9" * 400
        payloads = [f"[{{'Position': [0, 0, {huge}, 1], 'Confidence': 1}}]",
                    f"[{{'Position': [0, 0, 1, 1], 'Confidence': -{huge}}}]",
                    f"[{{'Confidence': {huge}, 'Position': [0, 0, 1, 1]}}]",
                    f"[{{'Position': [0, 0, 1, 1], 'Confidence': {'9' * 5000}}}]",
                    f"[{{'Position': [0, 0, {huge}.5, 1], 'Confidence': 1}}]",
                    f"[{{'Position': [0, 0, {huge}e9, 1], 'Confidence': 1}}]"]
        texts = [f"<think>x</think><answer>{payload}</answer>" for payload in payloads]
        for text in texts:
            assert extract_answer(text, mode="box") == (0, None)
        pairs = [(text, [0, 0, 1, 1]) for text in texts] + [(GROUNDED, [422, 781, 464, 926])]
        lines = [json.dumps({"prediction": p, "gold": g, "mode": "box"}) for p, g in pairs]
        assert [r.total for r in score_pairs(lines)] == [0.0] * len(texts) + [3.0]

    def test_unhashable_literal_is_format_failure(self):
        for payload in ("{[1]: 2}", "[{[]}]"):
            text = f"<think>x</think><answer>{payload}</answer>"
            assert extract_answer(text, mode="box") == (0, None)

    def test_multiline_think_body(self):
        text = "<think>line one\nline two</think>\n<answer>C</answer>"
        assert extract_answer(text) == (1, "C")

    def test_bad_mode(self):
        with pytest.raises(ValueError):
            extract_answer("x", mode="audio")

    @given(st.text(max_size=200))
    @settings(max_examples=200, deadline=None)
    def test_never_raises(self, text):
        flag, _ = extract_answer(text)
        assert flag in (0, 1)
        flag, _ = extract_answer(text, mode="box")
        assert flag in (0, 1)

    @given(st.sampled_from([" ", "\n", "\t", "\n\n  ", ""]))
    def test_closed_under_tag_padding(self, pad):
        text = f"<think>body</think>{pad}<answer>B</answer>"
        assert extract_answer(text) == (1, "B")


def exact(boxes):
    """Parse result with every float as its repr, so -0.0 differs from 0.0."""
    if boxes is None:
        return None
    return [(tuple(repr(v) for v in (b.x1, b.y1, b.x2, b.y2)), repr(c)) for b, c in boxes]


ODD_NUMBERS = ["-0", "-0.0", "007", "00.5", "1e3", ".5", "1.", "1_0", "9" * 400,
               "-" + "9" * 400, "9" * 400 + ".5", "\u0661", "1\u0661", "0.\u0665", "True", "0x1f"]
PLAIN_SPACES = ["", " ", " ", "  ", "\t", "\n"]
ODD_SPACES = ["\xa0", "\v", "\x0c", "\r\n"]


@st.composite
def box_spans(draw):
    """Canonical box payloads, or (``odd``) near-misses with scattered defects."""
    odd = draw(st.booleans())
    rng = draw(st.randoms(use_true_random=True))

    def rare(chance=10):
        return odd and rng.randrange(chance) == 0

    def ws():
        return rng.choice(ODD_SPACES if rare() else PLAIN_SPACES)

    def value():
        if rng.randrange(40) == 0:
            return rng.choice([10**400, -10**400])
        return rng.randint(-300, 300) if rng.random() < 0.5 else rng.randint(-999, 999) / 100

    def number(v):
        return rng.choice(ODD_NUMBERS) if rare() else str(v)

    def key(name):
        quote = rng.choice("'\"")
        close = ('"' if quote == "'" else "'") if rare(20) else quote
        return f"{ws()}{quote}{name}{close}{ws()}:{ws()}"

    items = []
    for _ in range(rng.randint(1, 3)):
        x1, y1, x2, y2 = (value() for _ in range(4))
        if rng.randrange(8):  # otherwise the corners stay in random order
            x1, x2, y1, y2 = min(x1, x2), max(x1, x2), min(y1, y2), max(y1, y2)
        corners = [number(v) for v in (x1, y1, x2, y2)]
        if rare(20):
            corners = corners[:3]
        position = key("Position") + "[" + ",".join(ws() + c + ws() for c in corners) + "]" + ws()
        confidence = key("Confidence") + number(value()) + ws()
        fields = [position, confidence]
        if rare(20):
            fields.reverse()
        if rare(20):
            fields.append(" 'Extra': 1")
        items.append("{" + ",".join(fields) + ("," if rare(20) else "") + "}")
    return "[" + ",".join(ws() + item + ws() for item in items) + ("," if rare(20) else "") + "]"


class TestBoxPayloadParsers:
    @given(box_spans())
    @settings(max_examples=500, deadline=None)
    def test_fast_path_matches_literal_eval(self, span):
        assert exact(_parse_box_payload(span)) == exact(_parse_box_literal(span))

    def test_each_path_taken(self, monkeypatch):
        calls = []

        def recording(span):
            calls.append(span)
            return _parse_box_literal(span)

        monkeypatch.setattr(rewards, "_parse_box_literal", recording)
        canonical = ("[{'Position': [0, 1, 2, 3], \"Confidence\": 0.5},\n"
                     "{'Position': [-0, 0, 1, 1], 'Confidence': 1}]")
        assert exact(_parse_box_payload(canonical)) == [
            (("0.0", "1.0", "2.0", "3.0"), "0.5"), (("0.0", "0.0", "1.0", "1.0"), "1.0")]
        assert calls == []
        reordered = "[{'Confidence': 0.5, 'Position': [0, 1, 2, 3]}]"
        assert exact(_parse_box_payload(reordered)) == [(("0.0", "1.0", "2.0", "3.0"), "0.5")]
        assert calls == [reordered]

    def test_near_misses_fall_through(self, monkeypatch):
        calls = []
        monkeypatch.setattr(rewards, "_parse_box_literal", lambda span: calls.append(span))
        near_misses = [
            "[{'Position\": [0, 0, 1, 1], 'Confidence': 1}]",
            "[{'Position': [0, 0, 1, 1], 'Confidence': 1},]",
            "[{'Position': [0, 0, 1, 1], 'Confidence': 1,}]",
            "[{'Position': [0, 0, 1, 1], 'Confidence': 1, 'Extra': 2}]",
            "[{'Position': [007, 0, 1, 1], 'Confidence': 1}]",
            "[{'Position': [0, 0, 1e3, 1], 'Confidence': 1}]",
            "[{'Position': [0, 0, 1, 1], 'Confidence': .5}]",
            "[{'Position': [0, 0, 1, 1],\xa0'Confidence': 1}]",
            "[{'Position': [0, 0, 1, 1],\v'Confidence': 1}]",
            "[{'Position': [0, 0, 1\u0661, 1], 'Confidence': 0.\u0665}]",
        ]
        for span in near_misses:
            _parse_box_payload(span)
        assert calls == near_misses


class TestAccuracyReward:
    def test_padded_match(self):
        assert accuracy_reward(" B ", "B") == 1

    def test_mismatch(self):
        assert accuracy_reward("B", "C") == 0

    def test_case_sensitive(self):
        # independent oracle: python equality on the normalized strings
        assert normalize_answer("b") != normalize_answer("B")
        assert accuracy_reward("b", "B") == 0

    def test_internal_whitespace_collapsed(self):
        assert accuracy_reward("two  words", "two words") == 1
        assert accuracy_reward("two\nwords", "two words") == 1


def pixel_iou(a: BoundingBox, b: BoundingBox) -> float:
    """Count unit cells inside each box on an integer grid (test oracle)."""
    cells_a = {(x, y) for x in range(int(a.x1), int(a.x2)) for y in range(int(a.y1), int(a.y2))}
    cells_b = {(x, y) for x in range(int(b.x1), int(b.x2)) for y in range(int(b.y1), int(b.y2))}
    union = cells_a | cells_b
    if not union:
        return 0.0
    return len(cells_a & cells_b) / len(union)


class TestIou:
    def test_identical(self):
        box = BoundingBox(3, 4, 10, 12)
        assert iou(box, box) == 1.0

    def test_disjoint(self):
        assert iou(BoundingBox(0, 0, 1, 1), BoundingBox(5, 5, 6, 6)) == 0.0

    def test_one_seventh(self):
        assert iou(BoundingBox(0, 0, 2, 2), BoundingBox(1, 1, 3, 3)) == pytest.approx(1 / 7)

    def test_symmetry_and_bounds(self):
        rng = np.random.default_rng(0)
        for _ in range(200):
            x = np.sort(rng.uniform(0, 50, 2))
            y = np.sort(rng.uniform(0, 50, 2))
            u = np.sort(rng.uniform(0, 50, 2))
            v = np.sort(rng.uniform(0, 50, 2))
            a = BoundingBox(x[0], y[0], x[1], y[1])
            b = BoundingBox(u[0], v[0], u[1], v[1])
            forward, backward = iou(a, b), iou(b, a)
            assert forward == backward
            assert 0.0 <= forward <= 1.0

    def test_unit_only_for_identical_positive_boxes(self):
        a = BoundingBox(0, 0, 4, 4)
        b = BoundingBox(0, 0, 4, 5)
        assert iou(a, b) < 1.0

    def test_zero_area_union(self):
        degenerate = BoundingBox(1, 1, 1, 1)
        assert iou(degenerate, degenerate) == 0.0

    def test_invalid_box(self):
        with pytest.raises(InvalidBox):
            BoundingBox(2, 0, 1, 5)
        for corners in ([math.nan, 0, 1, 1], [0, 0, math.inf, 1], [0, -math.inf, 1, 1], [0, 0, 1, math.nan]):
            with pytest.raises(InvalidBox):
                BoundingBox(*corners)

    def test_pixel_count_oracle(self):
        rng = np.random.default_rng(1)
        checked = 0
        for _ in range(1000):
            coords = rng.integers(0, 12, size=8)
            a = BoundingBox(min(coords[0], coords[1]), min(coords[2], coords[3]),
                            max(coords[0], coords[1]), max(coords[2], coords[3]))
            b = BoundingBox(min(coords[4], coords[5]), min(coords[6], coords[7]),
                            max(coords[4], coords[5]), max(coords[6], coords[7]))
            union_area = a.area + b.area
            tolerance = 1.0 / union_area if union_area > 0 else 1e-12
            assert abs(iou(a, b) - pixel_iou(a, b)) <= tolerance
            checked += 1
        assert checked == 1000


class TestCombinedReward:
    def test_accuracy_hit(self):
        assert combined_reward(1, accuracy=1).total == 3.0

    def test_format_failure_zeroes_everything(self):
        breakdown = combined_reward(0, accuracy=1)
        assert breakdown.total == 0.0
        assert breakdown.accuracy == 0
        assert breakdown.format == 0

    def test_half_iou(self):
        assert combined_reward(1, iou_value=0.5).total == 2.0

    def test_monotone_in_components(self):
        totals = [combined_reward(1, iou_value=v).total for v in (0.0, 0.3, 0.7, 1.0)]
        assert totals == sorted(totals)
        assert combined_reward(1, accuracy=0).total <= combined_reward(1, accuracy=1).total

    def test_both_components_rejected(self):
        with pytest.raises(ValueError):
            combined_reward(1, accuracy=1, iou_value=0.5)


class TestBestBox:
    def test_highest_confidence_wins(self):
        boxes = [(BoundingBox(0, 0, 1, 1), 0.2), (BoundingBox(5, 5, 6, 6), 0.9)]
        assert best_box(boxes) == BoundingBox(5, 5, 6, 6)

    def test_tie_takes_first_listed(self):
        boxes = [(BoundingBox(0, 0, 1, 1), 0.7), (BoundingBox(5, 5, 6, 6), 0.7)]
        assert best_box(boxes) == BoundingBox(0, 0, 1, 1)


# (prediction, gold, mode) triples whose types the mode cannot score
BAD_TYPES = [
    (GROUNDED, [1, 2, 3], "box"),
    (GROUNDED, [3, 3, 1, 1], "box"),
    (GROUNDED, [1, 1, 2, 2, 3], "box"),
    (GROUNDED, [True, 1, 2, 2], "box"),
    (GROUNDED, ["1", 1, 2, 2], "box"),
    (GROUNDED, {"x1": 1}, "box"),
    (GROUNDED, "1,1,2,2", "box"),
    (GROUNDED, [1, 1, 10**400, 2], "box"),
    (GROUNDED, [1, 1, float("inf"), 2], "box"),
    (GROUNDED, [float("nan"), 1, 2, 2], "box"),
    (7, [422, 781, 464, 926], "box"),
    (7, "B", "text"),
    (None, "B", "text"),
    (REASONED, 5, "text"),
    (REASONED, ["B"], "text"),
]


class TestScoringFiles:
    def test_text_pair(self):
        assert score_pair(REASONED, "B", "text").total == 3.0

    def test_box_pair(self):
        breakdown = score_pair(GROUNDED, [422, 781, 464, 926], "box")
        assert breakdown.iou == pytest.approx(1.0)
        assert breakdown.total == pytest.approx(3.0)

    def test_multi_box_scores_highest_confidence(self):
        text = ("<think>x</think><answer>[{'Position': [0, 0, 2, 2], 'Confidence': 0.5}, "
                "{'Position': [10, 10, 12, 12], 'Confidence': 0.9}]</answer>")
        breakdown = score_pair(text, [10, 10, 12, 12], "box")
        assert breakdown.iou == pytest.approx(1.0)

    def test_jsonl_stream(self):
        lines = [
            json.dumps({"prediction": REASONED, "gold": "B", "mode": "text"}),
            json.dumps({"prediction": "no tags here", "gold": "B", "mode": "text"}),
            json.dumps({"prediction": GROUNDED, "gold": [422, 781, 464, 926], "mode": "box"}),
        ]
        results = score_pairs(lines)
        assert [r.total for r in results] == [3.0, 0.0, 3.0]
        assert results[2].iou == pytest.approx(1.0)

    def test_malformed_stream(self):
        with pytest.raises(MalformedLine):
            score_pairs(['{"prediction": "x"}'])
        with pytest.raises(MalformedLine):
            score_pairs(["not json"])

    @pytest.mark.parametrize("prediction, gold, mode", BAD_TYPES)
    def test_bad_types_name_the_line(self, prediction, gold, mode):
        good = json.dumps({"prediction": REASONED, "gold": "B", "mode": "text"})
        bad = json.dumps({"prediction": prediction, "gold": gold, "mode": mode})
        with pytest.raises(MalformedLine) as excinfo:
            score_pairs([good, "", bad])
        assert excinfo.value.line_number == 3

    @pytest.mark.parametrize("bad, message", [
        ("not json", "line 3: invalid JSON: Expecting value"),
        ('{"prediction": "x"} {"gold": "B"}', "line 3: invalid JSON: Extra data"),
        ("[" * 200_000, "line 3: invalid JSON: nested too deeply"),
        ('{"prediction": "x", "gold": "B", "mode": "text"} x', "line 3: invalid JSON: Extra data"),
    ], ids=["not-json", "two-objects", "deeply-nested", "trailing-text"])
    def test_undecodable_line_names_the_line(self, bad, message):
        good = json.dumps({"prediction": REASONED, "gold": "B", "mode": "text"}) + "\n"
        with pytest.raises(MalformedLine) as excinfo:
            score_pairs([good, " \r\n", bad])
        assert str(excinfo.value).startswith(message)

    @pytest.mark.parametrize("layout", ["{}\n", "{}\r\n", "  {}  \n", "{}"])
    def test_line_layout_does_not_change_the_score(self, layout):
        line = json.dumps({"prediction": REASONED, "gold": "B", "mode": "text"})
        assert [r.total for r in score_pairs([layout.format(line)])] == [3.0]

    @pytest.mark.parametrize("prediction, gold, mode", BAD_TYPES)
    def test_score_pair_rejects_bad_types(self, prediction, gold, mode):
        with pytest.raises(InvalidPair):
            score_pair(prediction, gold, mode)

    def test_float_box_gold_accepted(self):
        line = json.dumps({"prediction": GROUNDED, "gold": [422.0, 781, 464.5, 926], "mode": "box"})
        assert score_pairs([line])[0].iou == pytest.approx(score_pair(GROUNDED, [422.0, 781, 464.5, 926], "box").iou)
