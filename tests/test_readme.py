"""The README's examples run against the package as it is."""
import re
import shlex
from pathlib import Path

import pytest

from rulechain.cli import main

README = Path(__file__).parent.parent / "README.md"
TEXT = README.read_text(encoding="utf-8")
BLOCKS = re.findall(r"^```python\n(.*?)^```", TEXT, re.M | re.S)
# The quick start: its sh block, then the theory.txt block, then solve's JSON.
QUICK_START = re.search(
    r"^## Quick start\n.*?^```sh\n(.*?)^```\n.*?^```\n(.*?)^```\n.*?^```json\n(.*?)^```",
    TEXT,
    re.M | re.S,
)


def test_readme_has_python_examples():
    assert len(BLOCKS) >= 2


@pytest.mark.parametrize("code", BLOCKS, ids=[f"block{i + 1}" for i in range(len(BLOCKS))])
def test_readme_example_runs(code, capsys):
    exec(compile(code, str(README), "exec"), {})
    assert capsys.readouterr().out


def test_readme_quick_start_runs(tmp_path, monkeypatch, capsys):
    commands, theory, solve_json = QUICK_START.groups()
    monkeypatch.chdir(tmp_path)
    (tmp_path / "theory.txt").write_text(theory, encoding="utf-8")
    lines = commands.splitlines()
    assert lines and all(line.startswith("rulechain ") for line in lines)
    for line in lines:
        _, *argv = shlex.split(line)
        code = main(argv)
        out = capsys.readouterr().out
        assert code == 0, line
        if argv[0] == "solve":
            assert out == solve_json
