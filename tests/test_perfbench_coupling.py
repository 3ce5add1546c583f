"""The names perfbench's tracer and workloads reach into mixlab for.

``perfbench/tracing.py`` replaces each ``(module, attr)`` of ``PATCHES`` with a
timing wrapper, and ``perfbench/workloads.py`` wraps ``pipeline._run_all`` on
every pipeline execution.  Only a traced benchmark run would otherwise notice
one of them going missing.
"""

import importlib
import importlib.util
from pathlib import Path
from unittest import mock

import pytest

import mixlab.cli  # noqa: F401  (imports every module the patches name)
from mixlab.records import table2_fixture, write_records

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_patched_binding_resolves():
    for module_name, attr, _ in load_tracing().PATCHES:
        owner = importlib.import_module(module_name)
        for part in attr.split("."):
            owner = getattr(owner, part)
        assert callable(owner), f"{module_name}.{attr}"


def test_phase_runner_exists():
    import mixlab.pipeline

    assert callable(mixlab.pipeline._run_all)


@pytest.mark.parametrize("command, caller", [("fit", "mixlab.cli"), ("propose", "mixlab.search")])
def test_fit_goes_through_the_traced_binding(tmp_path, monkeypatch, capsys, command, caller):
    # the tracer times the fit on these two bindings; a command that fit another way
    # would leave surrogate.fit_calls at 0
    fits = {}
    for name in ("mixlab.cli", "mixlab.search"):
        module = importlib.import_module(name)
        fits[name] = mock.Mock(wraps=module.cross_validated_fit)
        monkeypatch.setattr(module, "cross_validated_fit", fits[name])
    records = tmp_path / "table2.jsonl"
    write_records(table2_fixture(), records)
    argv = [command, "--records", str(records), "--degree", "1", "--seed", "0"]
    if command == "propose":
        argv += ["--n", "500", "--k", "2"]
    assert mixlab.cli.dispatch(argv) == 0, capsys.readouterr().err
    assert {name: fit.call_count for name, fit in fits.items()} == {name: int(name == caller) for name in fits}
