"""The README's library example runs against the library's current API."""

import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def test_library_example_runs(capsys):
    section = README.read_text().split("## Library example", 1)[1]
    code = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    exec(compile(code, f"{README.name} library example", "exec"), {})
    out = capsys.readouterr().out
    assert "direction ul" in out and "sindr_closed_3" in out
