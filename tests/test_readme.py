"""The README's "Library use" example runs as written."""

import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def library_use_example() -> str:
    """The first fenced Python block under the README's "## Library use" heading."""
    section = README.read_text().split("\n## Library use\n", 1)[1].split("\n## ", 1)[0]
    return re.search(r"^```python\n(.*?)^```$", section, re.S | re.M).group(1)


def test_library_use_example_runs(capsys):
    code = library_use_example()
    assert "sw.propagate(" in code
    exec(compile(code, str(README), "exec"), {})
    printed = capsys.readouterr().out.splitlines()
    assert printed[-1].startswith("chiral 0 (3, 1000) ")
