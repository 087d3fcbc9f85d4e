"""The README's python examples run against the package as it is."""
import re
from pathlib import Path

import pytest

README = Path(__file__).parent.parent / "README.md"
BLOCKS = re.findall(r"^```python\n(.*?)^```", README.read_text(encoding="utf-8"), re.M | re.S)


def test_readme_has_python_examples():
    assert len(BLOCKS) >= 2


@pytest.mark.parametrize("code", BLOCKS, ids=[f"block{i + 1}" for i in range(len(BLOCKS))])
def test_readme_example_runs(code, capsys):
    exec(compile(code, str(README), "exec"), {})
    assert capsys.readouterr().out
