"""The package surface: exported names resolve, every name the benchmark
rebinds or the README cites exists, and no module imports a name it never uses.

No linter runs on this tree, so the unused-import check walks each module's
syntax tree.  An import the module keeps for another reason (perfbench
rebinds some names in ``streaming`` and ``cluster`` to trace them) says so
with ``# noqa: F401`` on its first line.
"""
import ast
import re
from collections import Counter
from pathlib import Path

import pytest

import sals

MODULES = sorted(Path(sals.__file__).parent.glob("*.py"))
CHILD = Path(__file__).resolve().parent.parent / "perfbench" / "child.py"
README = CHILD.parent.parent / "README.md"


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


def trace_targets(source: str) -> list[tuple[str, str]]:
    """The (owner, name) pairs that ``trace_targets`` in ``source`` returns, each
    owner as written there (``streaming.ColumnStore``, ``sals.sgd``)."""
    tree = ast.parse(source)
    func = next(node for node in ast.walk(tree)
                if isinstance(node, ast.FunctionDef) and node.name == "trace_targets")
    returned = next(node for node in func.body if isinstance(node, ast.Return)).value
    return [(ast.unparse(pair.elts[0]), pair.elts[1].value) for pair in returned.elts]


def test_benchmark_rebinding_targets_resolve():
    # perfbench rebinds these names to trace them; read without importing or
    # running it, as a missing name would fail only the traced self-test
    targets = trace_targets(CHILD.read_text(encoding="utf-8"))
    assert targets
    missing = []
    for owner, name in targets:
        obj = sals
        for part in owner.removeprefix("sals.").split("."):
            obj = getattr(obj, part, None)
        if not hasattr(obj, name):
            missing.append(f"{owner}.{name}")
    assert missing == []


def test_readme_names_resolve():
    # every backticked `sals.<module>.<name>` or `sals.<name>`, up to its first
    # non-name character (a call's parenthesis), is an attribute chain from sals
    cited = re.findall(r"`(sals(?:\.\w+)+)", README.read_text(encoding="utf-8"))
    assert cited
    missing = []
    for name in cited:
        owner, _, attr = name.rpartition(".")
        obj = sals
        for part in owner.split(".")[1:]:
            obj = getattr(obj, part, None)
        if not hasattr(obj, attr):
            missing.append(name)
    assert missing == []
