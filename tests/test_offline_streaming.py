"""``mixlab aggregate``, ``fit`` and ``propose`` stream their records file.

Each keeps only the columns it uses and raises a fault in the records'
meaning once the file has been read, so a parse fault on any line still wins.
The commands must print, exit and fail exactly as the list-based path frozen
in ``tests/offline_reference.py`` does, and hold far less than the record list.
"""

import contextlib
import io
import json
import os
import random
import tracemalloc

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from mixlab.cli import dispatch
from mixlab.records import read_records, read_suite
from tests import offline_reference

SUITES = {
    "both groups": [{"name": "a", "count": 3, "group": "in"}, {"name": "b", "count": 1, "group": "in"},
                    {"name": "c", "count": 2, "group": "out"}, {"name": "d", "count": 5, "group": "out"}],
    "no out group": [{"name": name, "count": 1, "group": "in"} for name in "abcd"],
}
NAMES = ("a", "b", "c", "d")
BENIGN_KINDS = ("null weights", "blank")
SEMANTIC_FAULTS = ("other m", "missing member", "missing c")
PARSE_FAULTS = ("invalid JSON", "score out of range", "unknown benchmark", "not an object")
MIXES = {  # (other kinds, faults): a file holds up to two lines of the first and one or two of the second
    "clean": (BENIGN_KINDS, ()),
    "semantic faults": (BENIGN_KINDS, SEMANTIC_FAULTS),
    "parse faults": (BENIGN_KINDS + SEMANTIC_FAULTS, PARSE_FAULTS),
}


def run(argv, out=None):
    """``dispatch(argv)``'s exit code, stdout and stderr; stdout goes to ``out`` instead when given."""
    captured, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out or captured), contextlib.redirect_stderr(err):
        code = dispatch(argv)
    return code, captured.getvalue(), err.getvalue()


@st.composite
def record_line(draw, kind, m):
    """One line of a records file: a record of ``kind`` over ``m`` domains, or a parse fault."""
    if kind == "blank":
        return ""
    if kind == "invalid JSON":
        return "{oops"
    if kind == "not an object":
        return "[]"
    if kind == "other m":
        m += draw(st.sampled_from([-1, 1]))
    mass = draw(st.lists(st.integers(0, 4), min_size=m, max_size=m).filter(any))
    weights = [share / sum(mass) for share in mass]
    datasets = [label for label, w in enumerate(weights, start=1) if w]
    scores = {name: draw(st.floats(0.0, 1.0)) for name in NAMES}
    if kind in ("missing member", "missing c"):  # c is a member of a group and a --target
        del scores[draw(st.sampled_from(NAMES)) if kind == "missing member" else "c"]
    elif kind == "score out of range":
        scores[draw(st.sampled_from(NAMES))] = 1.5
    elif kind == "unknown benchmark":
        scores["zz"] = 0.5
    obj = {"id": f"r{draw(st.integers(0, 99))}", "datasets": datasets,
           "weights": None if kind == "null weights" else weights, "scores": scores}
    return json.dumps(obj)


@st.composite
def records_files(draw, mix):
    """Weighted records over m domains, with up to two lines of ``MIXES[mix]``'s other kinds and faults."""
    m = draw(st.integers(2, 3))
    others, faults = MIXES[mix]
    kinds = ["weighted"] * draw(st.integers(4, 24))
    kinds += [draw(st.sampled_from(others)) for _ in range(draw(st.integers(0, 2)))]
    if faults:
        kinds += [draw(st.sampled_from(faults)) for _ in range(draw(st.integers(1, 2)))]
    kinds = draw(st.permutations(kinds))
    return "".join(draw(record_line(kind, m)) + "\n" for kind in kinds)


@pytest.mark.parametrize("mix", sorted(MIXES))
@pytest.mark.parametrize("command", ["aggregate", "fit", "propose"])
@settings(max_examples=25, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data(), suite=st.sampled_from(sorted(SUITES)), pretty=st.booleans(),
       target=st.sampled_from(["in", "out", "c"]), degree=st.sampled_from(["1", "2"]), seed=st.integers(0, 3))
def test_commands_equal_the_list_based_path(tmp_path, command, mix, data, suite, pretty, target, degree, seed):
    records, suite_path = tmp_path / "records.jsonl", tmp_path / "suite.json"
    records.write_text(data.draw(records_files(mix)))
    suite_path.write_text(json.dumps(SUITES[suite]))
    argv = [command, "--records", str(records), "--suite", str(suite_path)]
    if command == "aggregate" and pretty:
        argv.append("--pretty")
    if command in ("fit", "propose"):  # at 0.3 a split of 7 or more rows has two test rows, so R^2 is defined
        argv += ["--target", target, "--degree", degree, "--seed", str(seed), "--test-fraction", "0.3"]
    if command == "propose":
        argv += ["--n", "300", "--k", "2"]
    with offline_reference.patched():
        expected = run(argv)
    assert run(argv) == expected


@pytest.mark.parametrize("command", ["aggregate", "fit", "propose"])
@pytest.mark.parametrize("fault", ["missing member", "other m"])
def test_a_later_parse_fault_wins_over_an_earlier_semantic_one(tmp_path, command, fault):
    lines = ['{"id": "r%d", "datasets": [1, 2], "weights": [0.5, 0.5], "scores": {"a": 0.5, "b": 0.5}}' % i
             for i in range(6)]
    lines[1] = ('{"id": "bad", "datasets": [1], "weights": [1.0], "scores": {"b": 0.5}}' if fault == "missing member"
                else '{"id": "bad", "datasets": [1], "weights": [1.0, 0.0, 0.0], "scores": {"a": 0.5, "b": 0.5}}')
    lines[4] = "{oops"
    records, suite = tmp_path / "records.jsonl", tmp_path / "suite.json"
    records.write_text("\n".join(lines) + "\n")
    suite.write_text(json.dumps([{"name": "a", "count": 1, "group": "in"}, {"name": "b", "count": 1, "group": "out"}]))
    code, out, err = run([command, "--records", str(records), "--suite", str(suite)])
    assert (code, out) == (2, "")
    assert "error: line 5: invalid JSON" in err


@pytest.mark.parametrize("command", ["fit", "propose"])
def test_a_fault_the_target_does_not_read_leaves_the_list_based_output(tmp_path, command):
    # the only fault is the last weighted record's missing c, an out-group member, so --target in
    # fits every weighted row, the last one too; a null-weights record follows it
    rng = random.Random(0)
    objs = []
    for i in range(16):
        mass = [rng.randint(1, 4) for _ in range(3)]
        obj = {"id": f"r{i}", "datasets": [1, 2, 3], "weights": [share / sum(mass) for share in mass],
               "scores": {name: rng.random() for name in NAMES}}
        objs.append(obj)
    del objs[-1]["scores"]["c"]
    objs.append({"id": "unweighted", "datasets": [1, 2], "weights": None, "scores": objs[0]["scores"]})
    records, suite = tmp_path / "records.jsonl", tmp_path / "suite.json"
    records.write_text("".join(json.dumps(obj) + "\n" for obj in objs))
    suite.write_text(json.dumps(SUITES["both groups"]))
    argv = [command, "--records", str(records), "--suite", str(suite), "--target", "in",
            "--degree", "2", "--seed", "0", "--test-fraction", "0.3"]
    if command == "propose":
        argv += ["--n", "300", "--k", "2"]
    with offline_reference.patched():
        expected = run(argv)
    assert expected[0] == 0, expected[2]
    assert run(argv) == expected


# --- memory ---------------------------------------------------------------------

LINES = 5_000


@pytest.fixture(scope="module")
def large_file(tmp_path_factory):
    """A ``LINES``-line records file over six domains and a four-benchmark suite."""
    rng = random.Random(0)
    directory = tmp_path_factory.mktemp("large")
    records, suite = directory / "records.jsonl", directory / "suite.json"
    suite.write_text(json.dumps(SUITES["both groups"]))
    with open(records, "w") as fh:
        for i in range(LINES):
            mass = [rng.randint(0, 9) for _ in range(6)]
            mass[i % 6] += 1
            weights = [share / sum(mass) for share in mass]
            obj = {"id": f"run-{i:05d}", "datasets": [d for d, w in enumerate(weights, start=1) if w],
                   "weights": weights, "scores": {name: rng.random() for name in NAMES}, "step": 240}
            fh.write(json.dumps(obj) + "\n")
    return records, suite


@pytest.fixture(scope="module")
def record_list_bytes(large_file):
    """How many records ``read_records`` gives for ``large_file`` and the bytes the list holds."""
    records, suite = large_file
    loaded, _, list_bytes = traced(read_records, records, read_suite(suite))
    return len(loaded), list_bytes


def traced(fn, *args):
    """``fn(*args)`` and the bytes tracemalloc saw allocated at its peak and still held after it."""
    tracemalloc.start()
    try:
        result = fn(*args)
        held, peak = tracemalloc.get_traced_memory()
        return result, peak, held
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("command", [["aggregate"], ["fit", "--degree", "2", "--seed", "0"]])
def test_peak_memory_is_the_columns_not_the_records(large_file, record_list_bytes, command):
    # aggregate keeps an id and two scores a record, fit six weights and a target value as
    # doubles and one split's design rows; the record list holds every record's objects,
    # its scores dict and the dict's keys
    records, suite = large_file
    count, list_bytes = record_list_bytes
    assert count == LINES
    argv = [*command, "--records", str(records), "--suite", str(suite)]
    with open(os.devnull, "w") as sink:  # printed rows are not held, so not counted
        run(argv, sink)  # once untraced, so what a first call sets up once is not counted
        (code, _, err), peak, _ = traced(run, argv, sink)
    assert code == 0, err
    assert peak < list_bytes / 2  # about 0.2 for aggregate and 0.3 for fit
