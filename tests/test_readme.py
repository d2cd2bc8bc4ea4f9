"""README's code blocks run against the package as it is, so a deleted or
renamed public name fails here rather than leaving the docs stale; and every
exported name that no library code calls has a reason in README."""

import ast
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


def orphaned_exports() -> set[str]:
    """Names that ``qrot/__init__.py`` imports and no other definition in
    ``src/qrot`` references as a ``Name`` or ``Attribute`` (docstrings do not
    count). A definition's references to its own name do not count either."""
    package = Path(__file__).resolve().parent.parent / "src" / "qrot"
    init = ast.parse((package / "__init__.py").read_text())
    exported = {alias.asname or alias.name for node in init.body
                if isinstance(node, ast.ImportFrom) for alias in node.names}
    used = set()
    for path in package.glob("*.py"):
        if path.name == "__init__.py":
            continue
        for node in ast.parse(path.read_text()).body:
            own = getattr(node, "name", None)
            for sub in ast.walk(node):
                name = (sub.id if isinstance(sub, ast.Name)
                        else sub.attr if isinstance(sub, ast.Attribute) else None)
                if name is not None and name != own:
                    used.add(name)
    return exported - used


def test_every_orphaned_export_has_a_reason():
    # README's list of names exported without a library caller: one bullet per
    # reason, the names backticked before its colon.
    text = README.read_text().split("\nExported without a library caller, and why:\n", 1)[1]
    bullets = text.strip("\n").split("\n\n", 1)[0].split("\n* ")
    listed = {name for bullet in bullets
              for name in re.findall(r"`(\w+)`", bullet.split(":", 1)[0])}
    assert orphaned_exports() == listed
