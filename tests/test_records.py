import itertools

import pytest

from mixlab.errors import (
    EmptyGroup,
    MalformedLine,
    MissingBenchmark,
    ScoreOutOfRange,
    UnknownBenchmark,
)
from mixlab.records import (
    BenchmarkSpec,
    bundled_suite,
    by_id,
    parse_records,
    serialize_record,
    summarize,
    table2_fixture,
    table2_printed_summary,
    weighted_aggregate,
)


@pytest.fixture(scope="module")
def suite():
    return bundled_suite()


@pytest.fixture(scope="module")
def fixture():
    return table2_fixture()


class TestWeightedAggregate:
    def test_base_out(self, suite):
        scores = {"ChartQA": 0.236, "InfoVQA": 0.3144, "MathVista": 0.391, "MMMU": 0.3789}
        assert weighted_aggregate(scores, suite, "out") == pytest.approx(0.3059, abs=5e-4)

    def test_all_mixture_in(self, suite):
        scores = {"LISA": 0.4778, "SAT": 0.5737, "ScienceQA": 0.6991}
        assert weighted_aggregate(scores, suite, "in") == pytest.approx(0.5638, abs=5e-4)

    def test_single_benchmark_group(self):
        suite = [BenchmarkSpec("only", 17, "out")]
        assert weighted_aggregate({"only": 0.42}, suite, "out") == 0.42

    def test_missing_benchmark(self, suite):
        with pytest.raises(MissingBenchmark):
            weighted_aggregate({"ChartQA": 0.5}, suite, "out")

    def test_empty_group(self):
        with pytest.raises(EmptyGroup):
            weighted_aggregate({}, [BenchmarkSpec("x", 1, "in")], "out")

    def test_convex_combination(self, suite, fixture):
        for record in fixture:
            out = [record.scores[b.name] for b in suite if b.group == "out"]
            value = weighted_aggregate(record.scores, suite, "out")
            assert min(out) <= value <= max(out)

    def test_permutation_invariance(self, suite):
        scores = {"ChartQA": 0.1, "InfoVQA": 0.9, "MathVista": 0.3, "MMMU": 0.7}
        values = {
            weighted_aggregate(scores, list(perm), "out")
            for perm in itertools.permutations(suite)
        }
        assert len(values) == 1


class TestFixture:
    def test_row_count(self, fixture):
        assert len(fixture) == 42

    def test_base_mathvista(self, fixture):
        assert by_id(fixture)["Base"].scores["MathVista"] == 0.391

    def test_single_sat(self, fixture):
        assert by_id(fixture)["4"].scores["SAT"] == 0.5949

    def test_reproduces_printed_columns(self, fixture, suite):
        printed = table2_printed_summary()
        assert set(printed) == {r.id for r in fixture}
        for record in fixture:
            got = summarize(record, suite)
            want = printed[record.id]
            assert got.in_score == pytest.approx(want.in_score, abs=1e-3), record.id
            assert got.out_score == pytest.approx(want.out_score, abs=1e-3), record.id

    def test_seed_rows_carry_uniform_weights(self, fixture):
        rows = by_id(fixture)
        assert rows["1"].weights.weights == (1, 0, 0, 0, 0)
        assert rows["2345"].weights.weights == (0, 0.25, 0.25, 0.25, 0.25)
        assert rows["12345"].weights.weights == (0.2,) * 5

    def test_non_seed_rows_have_no_weights(self, fixture):
        rows = by_id(fixture)
        for rid in ("Base", "Ain-avg", "no1-Coli-2000", "007"):
            assert rows[rid].weights is None

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
    summary = summarize(record, suite)
    in_scores = [record.scores[b.name] for b in suite if b.group == "in"]
    assert min(in_scores) <= summary.in_score <= max(in_scores)
