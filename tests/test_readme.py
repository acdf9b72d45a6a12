"""The README's Python API example runs and gives the results it shows, and
its table of exit codes is every exported error class's ``exit_code``."""

from __future__ import annotations

import re
from collections.abc import Mapping
from pathlib import Path

import xmap

README = Path(__file__).resolve().parent.parent / "README.md"


def test_readme_python_api_block_gives_its_commented_results():
    block = README.read_text(encoding="utf-8").split("## Python API\n\n```python\n", 1)[1]
    lines = block.split("\n```\n", 1)[0].splitlines()
    namespace: dict = {}
    code: list[str] = []
    checked = []
    # Each "# result" line shows the value of the expression on the line before it.
    for line in lines:
        if not line.startswith("# "):
            code.append(line)
            continue
        *statements, expression = [text for text in code if text.strip()]
        exec("\n".join(statements), namespace)
        value = eval(expression, namespace)
        shown = dict(value) if isinstance(value, Mapping) else value
        checked.append((expression, repr(shown), line[2:]))
        code = []
    assert [expression for expression, _, _ in checked] == [
        "xmap.apply(recode, series).entries",
        "xmap.summarize(recode).most_synthetic_targets",
    ]
    for expression, got, shown in checked:
        assert got == shown, expression


def test_readme_exit_code_table_gives_every_exported_error_class():
    rows = re.findall(r"^\| `(\w+)` \| (\d) \|$", README.read_text(encoding="utf-8"), re.MULTILINE)
    errors = [
        cls for cls in map(xmap.__dict__.get, xmap.__all__)
        if isinstance(cls, type) and issubclass(cls, xmap.CrossmapError)
    ]
    assert len(rows) == len(dict(rows))
    assert {name: int(code) for name, code in rows} == {cls.__name__: cls.exit_code for cls in errors}
