"""The documented examples run: the docstring examples of every package
module, and the README's library example."""

from __future__ import annotations

import doctest
import importlib
import pkgutil
import re
from pathlib import Path

import ringcover

README = Path(__file__).resolve().parents[1] / "README.md"


def test_module_doctests_pass():
    attempted = 0
    for info in pkgutil.iter_modules(ringcover.__path__):
        if info.name == "__main__":  # importing it runs the CLI
            continue
        result = doctest.testmod(importlib.import_module(f"ringcover.{info.name}"))
        assert result.failed == 0, info.name
        attempted += result.attempted
    assert attempted > 0


def test_readme_library_example_runs(capsys):
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(encoding="utf-8"), re.S)
    assert len(blocks) == 1
    exec(compile(blocks[0], str(README), "exec"), {})
    assert capsys.readouterr().out
