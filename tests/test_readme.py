"""The README's library quick start, run as written."""

import re
from pathlib import Path

import pytest

from mixlab.errors import ZeroVariance

README = Path(__file__).resolve().parents[1] / "README.md"


def quick_start() -> str:
    """The python block under the README's "## Library quick start" heading."""
    section = README.read_text(encoding="utf-8").split("\n## Library quick start\n", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.DOTALL).group(1)


# With m=4 and the default seed plan, every cross-validation split holds a single
# test row, so R^2 is undefined. Strict: once the fit is mended the run passes,
# and this marker has to go.
@pytest.mark.xfail(raises=ZeroVariance, strict=True, reason="the default fit cannot score m=4 pilots")
def test_library_quick_start_runs(capsys):
    exec(compile(quick_start(), str(README), "exec"), {})
    assert "delta of top predicted mixture vs uniform" in capsys.readouterr().out
