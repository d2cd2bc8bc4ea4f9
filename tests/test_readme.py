"""README's code blocks run against the package as it is, so a deleted or
renamed public name fails here rather than leaving the docs stale; and every
exported name, function or method that no library code calls has a reason in
README."""

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


def references(node: ast.AST, own: frozenset = frozenset()) -> set[str]:
    """The names under ``node`` that a ``Name`` or ``Attribute`` refers to
    (docstrings do not count), less each definition's references to its own
    name or to the name of a definition that encloses it."""
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        own = own | {node.name}
    name = (node.id if isinstance(node, ast.Name)
            else node.attr if isinstance(node, ast.Attribute) else None)
    found = {name} - own if name is not None else set()
    for child in ast.iter_child_nodes(node):
        found |= references(child, own)
    return found


def orphans() -> set[str]:
    """Names that ``qrot/__init__.py`` imports, and functions and methods
    (dunder methods aside) defined in ``src/qrot``, that nothing else in
    ``src/qrot`` refers to."""
    package = Path(__file__).resolve().parent.parent / "src" / "qrot"
    init = ast.parse((package / "__init__.py").read_text())
    names = {alias.asname or alias.name for node in init.body
             if isinstance(node, ast.ImportFrom) for alias in node.names}
    used = set()
    for path in package.glob("*.py"):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text())
        names |= {node.name for node in ast.walk(tree)
                  if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
                  and not node.name.startswith("__")}
        used |= references(tree)
    return names - used


def test_every_orphaned_export_has_a_reason():
    # README's list of names without a library caller: one bullet per
    # reason, the names backticked before its colon.
    text = README.read_text().split("\nExported without a library caller, and why:\n", 1)[1]
    bullets = text.strip("\n").split("\n\n", 1)[0].split("\n* ")
    listed = {name for bullet in bullets
              for name in re.findall(r"`(\w+)`", bullet.split(":", 1)[0])}
    assert orphans() == listed
