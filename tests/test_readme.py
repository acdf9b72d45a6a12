"""The README's Python API example and its shell example run and give the
results they show, and its table of exit codes is every exported error
class's ``exit_code``."""

from __future__ import annotations

import ast
import io
import re
import shlex
from collections.abc import Mapping
from pathlib import Path

import xmap
from xmap.cli import run

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


def test_readme_shell_example_gives_the_lines_it_shows(tmp_path, monkeypatch):
    text = README.read_text(encoding="utf-8")
    # The inputs the example names: the opening edge list, and the API
    # example's series.
    edges = text.split("```text\nfrom,to,weight\n", 1)[1].split("```", 1)[0]
    values = ast.literal_eval(re.search(r'IndexedSeries\("v1990", (\{.*\})\)', text)[1])
    monkeypatch.chdir(tmp_path)
    Path("countries.csv").write_text("from,to,weight\n" + edges, encoding="utf-8")
    Path("gdp1989.csv").write_text(
        "key,value\n" + "".join(f"{key},{value}\n" for key, value in values.items()), encoding="utf-8"
    )
    block = text.split("```sh\n$ xmap ", 1)[1].split("\n```\n", 1)[0]
    # Each "$ xmap" command is followed by the lines it prints, then a blank line.
    examples = [example.split("\n", 1) for example in ("$ xmap " + block).split("\n\n")]
    assert [command for command, _ in examples] == [
        "$ xmap validate countries.csv",
        "$ xmap transform --map countries.csv --data gdp1989.csv",
    ]
    for command, shown in examples:
        out, err = io.StringIO(), io.StringIO()
        code = run(shlex.split(command)[2:], stdout=out, stderr=err)
        assert (code, out.getvalue(), err.getvalue()) == (0, shown + "\n", ""), command


def test_readme_exit_code_table_gives_every_exported_error_class():
    rows = re.findall(r"^\| `(\w+)` \| (\d) \|$", README.read_text(encoding="utf-8"), re.MULTILINE)
    errors = [
        cls for cls in map(xmap.__dict__.get, xmap.__all__)
        if isinstance(cls, type) and issubclass(cls, xmap.CrossmapError)
    ]
    assert len(rows) == len(dict(rows))
    assert {name: int(code) for name, code in rows} == {cls.__name__: cls.exit_code for cls in errors}
