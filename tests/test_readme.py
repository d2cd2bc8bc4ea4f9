"""README's code blocks run against the package as it is, so a deleted or
renamed public name fails here rather than leaving the docs stale."""

import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def python_block(heading: str) -> str:
    """The first ```python block of README's section ``heading``."""
    section = README.read_text().split(f"\n{heading}\n", 1)[1].split("\n## ", 1)[0]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def test_library_example_runs(capsys):
    exec(compile(python_block("## Library example"), str(README), "exec"), {})
    # one line for the ERP tuple, then the oracle and the estimate
    assert len(capsys.readouterr().out.splitlines()) == 3
