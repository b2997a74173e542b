"""The documented examples run: the docstring examples of every package
module, and the README's library example."""

from __future__ import annotations

import doctest
import importlib
import pkgutil
import re
import shlex
from pathlib import Path

import ringcover
from ringcover import cli
from ringcover.graph_core import gen_erdos_renyi, write_edge_list

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


def test_readme_command_lines_run(tmp_path, monkeypatch, capsys):
    # every documented invocation must still parse and run, so a flag that
    # is removed cannot linger in the docs
    text = README.read_text(encoding="utf-8")
    block = re.search(r"## Command line.*?```sh\n(.*?)```", text, re.S).group(1)
    lines = [line for line in block.splitlines() if line.startswith("ringcover ")]
    assert len(lines) >= 8
    write_edge_list(gen_erdos_renyi(12, 0.4, seed=3), tmp_path / "graph.txt")
    monkeypatch.chdir(tmp_path)
    for line in lines:
        assert cli.main(shlex.split(line)[1:]) == 0, line
        assert capsys.readouterr().out, line
