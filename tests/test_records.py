import itertools
import json
import math

import pytest
from hypothesis import example, given, settings, strategies as st

from mixlab.errors import (
    EmptyGroup,
    MalformedLine,
    MissingBenchmark,
    MixLabError,
    ScoreOutOfRange,
    UnknownBenchmark,
)
from mixlab.mixtures import SIMPLEX_ATOL
from mixlab.records import (
    BenchmarkSpec,
    bundled_suite,
    parse_records,
    read_records,
    serialize_record,
    stream_records,
    summarize,
    table2_fixture,
    table2_printed_summary,
    weighted_aggregate,
    write_records,
)
from tests.records_reference import parse_each_line


@pytest.fixture(scope="module")
def suite():
    return bundled_suite()


@pytest.fixture(scope="module")
def fixture():
    return table2_fixture()


@pytest.fixture(scope="module")
def by_id(fixture):
    return {record.id: record for record in fixture}


class TestWeightedAggregate:
    def test_base_out(self, suite):
        scores = {"ChartQA": 0.236, "InfoVQA": 0.3144, "MathVista": 0.391, "MMMU": 0.3789}
        assert weighted_aggregate([scores], suite, "out")[0] == pytest.approx(0.3059, abs=5e-4)

    def test_all_mixture_in(self, suite):
        scores = {"LISA": 0.4778, "SAT": 0.5737, "ScienceQA": 0.6991}
        assert weighted_aggregate([scores], suite, "in")[0] == pytest.approx(0.5638, abs=5e-4)

    def test_single_benchmark_group(self):
        suite = [BenchmarkSpec("only", 17, "out")]
        assert weighted_aggregate([{"only": 0.42}], suite, "out")[0] == 0.42

    def test_missing_benchmark(self, suite):
        with pytest.raises(MissingBenchmark):
            weighted_aggregate([{"ChartQA": 0.5}], suite, "out")[0]

    def test_empty_group(self):
        with pytest.raises(EmptyGroup):
            weighted_aggregate([{}], [BenchmarkSpec("x", 1, "in")], "out")[0]

    def test_convex_combination(self, suite, fixture):
        for record in fixture:
            out = [record.scores[b.name] for b in suite if b.group == "out"]
            value = weighted_aggregate([record.scores], suite, "out")[0]
            assert min(out) <= value <= max(out)

    def test_permutation_invariance(self, suite):
        scores = {"ChartQA": 0.1, "InfoVQA": 0.9, "MathVista": 0.3, "MMMU": 0.7}
        values = {
            weighted_aggregate([scores], list(perm), "out")[0]
            for perm in itertools.permutations(suite)
        }
        assert len(values) == 1

    def test_batch_matches_each_mapping(self, suite, fixture):
        rows = [record.scores for record in fixture]
        for group in ("in", "out"):
            members = [b for b in suite if b.group == group]
            total = sum(b.count for b in members)
            want = [math.fsum(b.count * scores[b.name] for b in members) / total for scores in rows]
            got = weighted_aggregate(rows, suite, group)
            assert len(got) == len(want) == 42
            assert all(g == w for g, w in zip(got, want))

    def test_empty_batch_needs_no_group(self):
        assert weighted_aggregate([], [BenchmarkSpec("x", 1, "in")], "out") == []

    def test_missing_benchmark_names_the_first_faulty_mapping(self, suite):
        full = {"ChartQA": 0.1, "InfoVQA": 0.9, "MathVista": 0.3, "MMMU": 0.7}
        rows = [full, {"ChartQA": 0.5, "InfoVQA": 0.5, "MathVista": 0.5}, {"ChartQA": 0.5}]
        with pytest.raises(MissingBenchmark, match=r"\['MMMU'\] in group 'out'"):
            weighted_aggregate(rows, suite, "out")


class TestFixture:
    def test_row_count(self, fixture):
        assert len(fixture) == 42

    def test_base_mathvista(self, by_id):
        assert by_id["Base"].scores["MathVista"] == 0.391

    def test_single_sat(self, by_id):
        assert by_id["4"].scores["SAT"] == 0.5949

    def test_reproduces_printed_columns(self, fixture, suite):
        printed = table2_printed_summary()
        assert set(printed) == {r.id for r in fixture}
        for record in fixture:
            got = summarize([record], suite)[0]
            want = printed[record.id]
            assert got.in_score == pytest.approx(want.in_score, abs=1e-3), record.id
            assert got.out_score == pytest.approx(want.out_score, abs=1e-3), record.id

    def test_seed_rows_carry_uniform_weights(self, by_id):
        assert by_id["1"].weights.weights == (1, 0, 0, 0, 0)
        assert by_id["2345"].weights.weights == (0, 0.25, 0.25, 0.25, 0.25)
        assert by_id["12345"].weights.weights == (0.2,) * 5

    def test_non_seed_rows_have_no_weights(self, by_id):
        for rid in ("Base", "Ain-avg", "no1-Coli-2000", "007"):
            assert by_id[rid].weights is None

    def test_weight_support_matches_datasets(self, fixture):
        for record in fixture:
            if record.weights is not None:
                assert record.weights.dataset_labels() == record.datasets

    def test_round_trip_identity(self, fixture, suite):
        lines = [serialize_record(r) for r in fixture]
        again = parse_records(lines, suite=suite)
        assert again == fixture


class TestParseRecords:
    def test_schema_echo(self, suite):
        line = (
            '{"id": "12345", "datasets": [1, 2, 3, 4, 5],'
            ' "weights": [0.2, 0.2, 0.2, 0.2, 0.2],'
            ' "scores": {"LISA": 0.1, "SAT": 0.2, "ScienceQA": 0.3,'
            ' "ChartQA": 0.4, "InfoVQA": 0.5, "MathVista": 0.6, "MMMU": 0.7},'
            ' "step": null}'
        )
        (record,) = parse_records([line], suite=suite)
        assert record.id == "12345"
        assert record.datasets == (1, 2, 3, 4, 5)
        assert len(record.scores) == 7

    def test_empty_stream(self):
        assert parse_records([]) == []
        assert parse_records(["", "   "]) == []

    def test_score_out_of_range(self):
        line = '{"id": "x", "datasets": [1], "weights": null, "scores": {"b": 1.2}}'
        with pytest.raises(ScoreOutOfRange):
            parse_records([line])

    def test_malformed_json_carries_line_number(self):
        good = '{"id": "x", "datasets": [], "weights": null, "scores": {}}'
        with pytest.raises(MalformedLine) as err:
            parse_records([good, "{oops"])
        assert err.value.line_number == 2

    def test_missing_keys(self):
        with pytest.raises(MalformedLine):
            parse_records(['{"id": "x"}'])

    def test_unknown_benchmark(self, suite):
        line = '{"id": "x", "datasets": [1], "weights": null, "scores": {"Nope": 0.5}}'
        with pytest.raises(UnknownBenchmark):
            parse_records([line], suite=suite)

    def test_weight_support_mismatch(self):
        line = '{"id": "x", "datasets": [1, 2], "weights": [1.0, 0.0], "scores": {}}'
        with pytest.raises(MalformedLine):
            parse_records([line])

    def test_invalid_weights(self):
        line = '{"id": "x", "datasets": [1, 2], "weights": [0.9, 0.9], "scores": {}}'
        with pytest.raises(MalformedLine):
            parse_records([line])

    def test_non_finite_weights(self):
        for weights in ("[NaN, 1.0]", "[1.0, NaN]", "[Infinity, 1.0]", "[-Infinity, 1.0]"):
            line = f'{{"id": "x", "datasets": [1, 2], "weights": {weights}, "scores": {{}}}}'
            with pytest.raises(MalformedLine):
                parse_records([line])

    def test_non_number_weights(self):
        for weights in ('["0.5", "0.5"]', "[true, false]", "[1, false]", "[null, 1.0]", "[[1.0], 0.0]"):
            line = f'{{"id": "x", "datasets": [1, 2], "weights": {weights}, "scores": {{}}}}'
            with pytest.raises(MalformedLine):
                parse_records([line])

    def test_integer_weights(self):
        line = '{"id": "x", "datasets": [2], "weights": [0, 1], "scores": {}}'
        assert parse_records([line])[0].weights.weights == (0.0, 1.0)

    def test_duplicate_datasets(self):
        line = '{"id": "x", "datasets": [1, 1], "weights": null, "scores": {}}'
        with pytest.raises(MalformedLine):
            parse_records([line])


def test_summary_within_group_range(suite):
    record = table2_fixture()[0]
    summary = summarize([record], suite)[0]
    in_scores = [record.scores[b.name] for b in suite if b.group == "in"]
    assert min(in_scores) <= summary.in_score <= max(in_scores)


class TestSummarizeIds:
    def test_ids_in_list_order(self, suite, fixture):
        assert [s.id for s in summarize(fixture, suite)] == [r.id for r in fixture]

    def test_ids_in_file_order_when_streamed(self, suite, fixture, tmp_path):
        path = tmp_path / "records.jsonl"
        write_records(fixture[::-1], path)
        summaries = summarize(stream_records(path, suite), suite)
        assert [s.id for s in summaries] == [r.id for r in reversed(fixture)]
        assert summaries == summarize(fixture[::-1], suite)

    def test_printed_table_is_keyed_by_its_ids(self):
        assert all(summary.id == rid for rid, summary in table2_printed_summary().items())


class TestReadRecords:
    def test_utf8_file_with_crlf_and_non_ascii_ids(self, tmp_path):
        path = tmp_path / "records.jsonl"
        lines = [json.dumps({"id": rid, "datasets": [2], "weights": [0.0, 1.0], "scores": {"b": 0.5}},
                            ensure_ascii=False) for rid in ("caf\u00e9", "\u5b9f\u9a13", "plain")]
        path.write_bytes("\r\n".join(lines).encode("utf-8") + b"\r\n\r\n")
        records = read_records(path)
        assert [r.id for r in records] == ["caf\u00e9", "\u5b9f\u9a13", "plain"]
        assert records == parse_records(lines)


# --- the parser against the per-line reference ------------------------------
# parse_records checks in bulk and with exact types; on clean lines and on every
# defect below it must behave exactly as tests/records_reference.py, the
# per-line parser with one isinstance check at a time: the same records, or the
# same error on the same line.

DIFF_SUITE = [BenchmarkSpec("in-a", 3, "in"), BenchmarkSpec("in-b", 2, "in"), BenchmarkSpec("out-a", 5, "out")]
DIFF_NAMES = [b.name for b in DIFF_SUITE]
RECORD_KEYS = ("id", "datasets", "weights", "scores", "step")
WEIGHT_DEFECTS = ("int weights", "non-finite weight", "negative zero weights", "sum off by the tolerance",
                  "huge int", "huge float", "negative weight")
OBJECT_DEFECTS = WEIGHT_DEFECTS + (
    "unsorted labels", "repeated label", "bool label", "label below 1", "bool step", "float step",
    "extra key", "missing key", "NaN score", "wrong type", "score out of range",
    "unknown benchmark", "support mismatch", "weight above 1", "not an object",
)
LAYOUTS = ("plain", "crlf", "padded", "blank line before", "two objects", "spliced", "truncated",
           "trailing text", "deeply nested", "byte order mark", "no final newline")

SCORES = st.floats(0.0, 1.0) | st.sampled_from([0, 1])
WRONG_TYPED = st.sampled_from(["1", 1, 0.5, True, None, [], {}, [1.0, "x"], [None], [[1.0]], [False, True],
                               {"in-a": "0.5"}])
BLANK_LINES = st.sampled_from(["\n", "   \n", "\r\n", "\t\n"])
DEEP_LINE = "[" * 100_000 + "\n"


@st.composite
def record_objects(draw, weighted=st.booleans()):
    """A well-formed record: a simplex vector and its labels, or null weights and sorted labels."""
    m = draw(st.integers(1, 6))
    if draw(weighted):
        support = sorted(draw(st.sets(st.integers(0, m - 1), min_size=1)))
        mass = draw(st.lists(st.integers(1, 1000), min_size=len(support), max_size=len(support)))
        weights = [0.0] * m
        for position, share in zip(support, mass):
            weights[position] = share / sum(mass)
        datasets = [position + 1 for position in support]
    else:
        weights, datasets = None, sorted(draw(st.sets(st.integers(1, 9))))
    scores = {name: draw(SCORES) for name in DIFF_NAMES if draw(st.booleans())}
    obj = {"id": draw(st.text(max_size=4)), "datasets": datasets, "weights": weights, "scores": scores}
    step = draw(st.sampled_from([None, 0, 240, "absent"]))
    if step != "absent":
        obj["step"] = step
    return obj


@st.composite
def record_values(draw, kind):
    """A record object with the defect ``kind`` from OBJECT_DEFECTS, or a clean one."""
    obj = draw(record_objects(st.just(True)) if kind in WEIGHT_DEFECTS else record_objects())
    weights, datasets, scores = obj["weights"], obj["datasets"], obj["scores"]
    position = draw(st.integers(0, len(weights) - 1)) if weights else None
    name = draw(st.sampled_from(DIFF_NAMES))
    if kind == "int weights":
        obj["weights"] = [int(w) if w.is_integer() else w for w in weights]
    elif kind == "non-finite weight":
        weights[position] = draw(st.sampled_from([math.nan, math.inf, -math.inf]))
    elif kind == "negative zero weights":
        obj["weights"] = [-0.0 if w == 0.0 else w for w in weights]
    elif kind == "sum off by the tolerance":
        weights[weights.index(max(weights))] += draw(st.sampled_from([-2.0, -1.5, -0.5, 0.5, 1.5, 2.0])) * SIMPLEX_ATOL
    elif kind == "huge int":
        if draw(st.booleans()):
            weights[position] = 10**400
        else:
            scores[name] = 10**400
    elif kind == "huge float":  # finite floats whose sum overflows
        obj["weights"] = [1e308, 1e308] + weights[2:]
    elif kind == "negative weight":
        weights[position] = -weights[position] or -0.5
    elif kind == "unsorted labels":
        obj["datasets"] = datasets[::-1]
    elif kind == "repeated label":
        obj["datasets"] = datasets + (datasets[-1:] or [1, 1])
    elif kind == "bool label":
        obj["datasets"] = [True if d == 1 else d for d in datasets] or [True]
    elif kind == "label below 1":
        obj["datasets"] = [draw(st.sampled_from([0, -1]))] + datasets
    elif kind in ("bool step", "float step"):
        obj["step"] = draw(st.booleans()) if kind == "bool step" else 3.0
    elif kind == "extra key":
        obj["note"] = None
    elif kind == "missing key":
        del obj[draw(st.sampled_from(sorted(obj)))]
    elif kind == "NaN score":  # after another score, where a min/max range check would miss it
        scores.pop(name, None)
        scores.setdefault(DIFF_NAMES[DIFF_NAMES.index(name) - 1], 0.5)
        obj["scores"] = {**scores, name: math.nan}
    elif kind == "wrong type":
        obj[draw(st.sampled_from(RECORD_KEYS))] = draw(WRONG_TYPED)
    elif kind == "score out of range":
        scores[name] = draw(st.sampled_from([-0.1, 1.5, -1, 2, math.inf, -math.inf]))
    elif kind == "unknown benchmark":
        scores["Nope"] = 0.5
    elif kind == "support mismatch":
        obj["datasets"] = datasets[1:] if len(datasets) > 1 else datasets + [9]
    elif kind == "weight above 1":
        obj["weights"], obj["datasets"] = [1.0 + draw(st.sampled_from([0.5, 1.0, 2.0])) * SIMPLEX_ATOL], [1]
    elif kind == "not an object":
        return draw(st.sampled_from([[obj], "x", 1, None]))
    return obj


@st.composite
def laid_out(draw, value, layouts=st.sampled_from(LAYOUTS)):
    """The lines a text file yields for one record value, in a layout drawn from ``layouts``."""
    text = json.dumps(value, ensure_ascii=draw(st.booleans()))
    layout = draw(layouts)
    if layout in ("spliced", "truncated"):
        cut = draw(st.integers(0, len(text)))
        return [text[:cut] + "\n", text[cut:] + "\n"] if layout == "spliced" else [text[:cut] + "\n"]
    if layout == "padded":
        return [draw(st.sampled_from([" ", "\t", "\r"])) + text + " \n"]
    if layout == "two objects":
        return [text + draw(st.sampled_from(["", " "])) + text + "\n"]
    if layout == "blank line before":
        return [draw(BLANK_LINES), text + "\n"]
    return [{"crlf": text + "\r\n", "trailing text": text + " x\n", "deeply nested": DEEP_LINE,
             "byte order mark": "\ufeff" + text + "\n", "no final newline": text}.get(layout, text + "\n")]


PLAIN = st.sampled_from(["plain", "no final newline"])
# one line with a defect: in the record, laid out plainly, or in the layout of a clean record
DEFECTIVE_LINES = st.one_of(
    st.sampled_from(OBJECT_DEFECTS).flatmap(record_values).flatmap(lambda value: laid_out(value, PLAIN)),
    record_objects().flatmap(laid_out),
)


@st.composite
def record_files(draw):
    """A record file's lines: clean records laid out plainly, or records and layouts with defects."""
    if draw(st.booleans()):
        values = draw(st.lists(record_objects(), max_size=5))
        return [line for value in values for line in draw(laid_out(value, st.just("plain")))]
    kinds = st.sampled_from(("clean",) + OBJECT_DEFECTS)
    values = draw(st.lists(kinds.flatmap(record_values), max_size=5))
    return [line for value in values for line in draw(laid_out(value))]


def outcome(parse):
    """The records ``parse`` returns, each with its serialized line, or the error it raises."""
    try:
        return [(record, serialize_record(record)) for record in parse()]
    except MixLabError as exc:
        return type(exc), str(exc), getattr(exc, "line_number", None)


# defects that a random draw of these sizes can miss, checked on every run
RARE_DEFECTS = [
    '{"id": "a", "datasets": [1], "scores": {}}\n',
    '{"id": "a", "datasets": [true], "weights": null, "scores": {}}\n',
    '{"id": "a", "datasets": [1, 1], "weights": null, "scores": {}}\n',
    '{"id": "a", "datasets": [1], "weights": [1], "scores": {}}\n',
    '{"id": "a", "datasets": [1, 2], "weights": [0.5, 0.4], "scores": {}}\n',
    '{"id": "a", "datasets": [1], "weights": [0.5, 0.5], "scores": {}}\n',
    '{"id": "a", "datasets": [1], "weights": null, "scores": {"in-a": 0.5, "in-b": NaN}}\n',
    '{"id": "a", "datasets": [1, 2], "weights": [1e308, 1e308], "scores": {}}\n',
]


def on_rare_defects(test):
    """``test`` with each line of RARE_DEFECTS, as a one-line file, among its examples."""
    for line in RARE_DEFECTS:
        test = example(lines=[line], with_suite=False)(test)
    return test


@on_rare_defects
@settings(max_examples=500, deadline=None)
@given(lines=DEFECTIVE_LINES, with_suite=st.booleans())
def test_defective_lines_parse_as_the_reference(lines, with_suite):
    suite, known = (DIFF_SUITE, set(DIFF_NAMES)) if with_suite else (None, None)
    assert outcome(lambda: parse_records(lines, suite=suite)) == outcome(lambda: parse_each_line(lines, known))


@on_rare_defects
@settings(max_examples=150, deadline=None)
@given(lines=record_files(), with_suite=st.booleans())
def test_parse_records_equals_the_per_line_parser(lines, with_suite):
    suite, known = (DIFF_SUITE, set(DIFF_NAMES)) if with_suite else (None, None)
    assert outcome(lambda: parse_records(lines, suite=suite)) == outcome(lambda: parse_each_line(lines, known))
