"""The names perfbench's tracer and workloads reach into mixlab for.

``perfbench/tracing.py`` replaces each ``(module, attr)`` of ``PATCHES`` with a
timing wrapper, and ``perfbench/workloads.py`` wraps ``pipeline._run_all`` on
every pipeline execution.  Only a traced benchmark run would otherwise notice
one of them going missing.
"""

import importlib
import importlib.util
from pathlib import Path

import mixlab.cli  # noqa: F401  (imports every module the patches name)

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
