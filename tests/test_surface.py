"""The package surface: exported names resolve, and no module imports a name it never uses.

No linter runs on this tree, so the unused-import check walks each module's
syntax tree.  An import the module keeps for another reason (perfbench
rebinds some names in ``streaming`` and ``cluster`` to trace them) says so
with ``# noqa: F401`` on its first line.
"""
import ast
from collections import Counter
from pathlib import Path

import pytest

import sals

MODULES = sorted(Path(sals.__file__).parent.glob("*.py"))


def test_all_names_resolve_once():
    assert [name for name, n in Counter(sals.__all__).items() if n > 1] == []
    assert [name for name in sals.__all__ if not hasattr(sals, name)] == []


def unused_imports(source: str) -> list[str]:
    """Names imported by ``source`` and never read, unless the import says ``noqa: F401``."""
    tree = ast.parse(source)
    lines = source.splitlines()
    imported = {}
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        if getattr(node, "module", None) == "__future__" or "noqa: F401" in lines[node.lineno - 1]:
            continue
        for alias in node.names:
            imported[(alias.asname or alias.name).split(".")[0]] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in ast.walk(tree):  # re-exports count as uses
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            used.update(ast.literal_eval(node.value))
    return [f"line {line}: {name}" for name, line in imported.items() if name not in used]


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_no_unused_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def test_unused_import_is_named():
    source = "import os\nimport sys  # noqa: F401\nfrom math import pi, tau\nprint(pi)\n"
    assert unused_imports(source) == ["line 1: os", "line 3: tau"]
