"""The package's modules import one another in one direction only."""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "umbilic"

# each module may import only the modules before it; `__init__` re-exports
# from any of them
ORDER = ["errors", "bilinear", "jets", "charts", "catalog", "analysis",
         "congruence", "cli"]


def relative_imports(path: Path) -> set[str]:
    """Sibling modules named by the relative imports of a module."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            if node.module:
                names.add(node.module.split(".")[0])
            else:
                names.update(a.name for a in node.names)
    return names


def test_every_module_is_ranked():
    modules = {p.stem for p in PACKAGE.glob("*.py")} - {"__init__"}
    assert modules == set(ORDER)


@pytest.mark.parametrize("module", ORDER)
def test_imports_run_one_way(module):
    allowed = set(ORDER[:ORDER.index(module)])
    assert relative_imports(PACKAGE / f"{module}.py") <= allowed


def test_package_imports_only_its_modules():
    assert relative_imports(PACKAGE / "__init__.py") <= set(ORDER)


def unused_imports(path: Path) -> list[str]:
    """Names a module imports but never reads; a name listed in `__all__`
    is read as an export."""
    tree = ast.parse(path.read_text())
    imported, used = set(), set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(a.asname or a.name.split(".")[0]
                            for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(a.asname or a.name for a in node.names)
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif (isinstance(node, ast.Assign)
              and any(getattr(t, "id", None) == "__all__"
                      for t in node.targets)):
            used.update(e.value for e in node.value.elts)
    return sorted(imported - used)


@pytest.mark.parametrize("module", ORDER + ["__init__"])
def test_no_unused_imports(module):
    assert unused_imports(PACKAGE / f"{module}.py") == []
