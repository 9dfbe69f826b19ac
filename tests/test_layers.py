"""The package's modules import one another in one direction only,
something reads every function, class and method they define, and they
name nothing that only numpy 2 has."""

import ast
import functools
import json
import os
import subprocess
import sys
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


# every module, test and benchmark file that may read a definition
READERS = [p for d in ("src", "tests", "perfbench")
           for p in (PACKAGE.parent.parent / d).rglob("*.py")]


def definitions(path: Path) -> list[str]:
    """A module's top-level functions and classes, and the methods of its
    classes other than dunders."""
    names = []
    for node in ast.parse(path.read_text()).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.append(node.name)
        if isinstance(node, ast.ClassDef):
            names += [f.name for f in node.body
                      if isinstance(f, ast.FunctionDef)
                      and not (f.name.startswith("__")
                               and f.name.endswith("__"))]
    return names


@functools.cache
def names_read() -> set[str]:
    """Every name read in READERS: a Name, an Attribute, an imported name
    or a string constant, so that a table of names to look up counts."""
    names = set()
    for path in READERS:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
            elif isinstance(node, ast.alias):
                names.add(node.name.split(".")[-1])
            elif isinstance(node, ast.Constant) and isinstance(node.value,
                                                               str):
                names.add(node.value)
    return names


@pytest.mark.parametrize("module", ORDER)
def test_every_definition_is_read(module):
    # code that nothing reads is dead, and stays deleted
    assert sorted(set(definitions(PACKAGE / f"{module}.py"))
                  - names_read()) == []


def test_import_fills_no_cache():
    # cached tables (index tables, weights, draws) fill on first use, so
    # importing the package and its CLI builds none of them
    code = ("import json, umbilic, umbilic.cli\n"
            "from umbilic import charts, jets\n"
            "print(json.dumps({f'{m.__name__}.{n}': f.cache_info().currsize\n"
            "                  for m in (jets, charts)\n"
            "                  for n, f in vars(m).items()\n"
            "                  if hasattr(f, 'cache_info')}))")
    env = {**os.environ, "PYTHONPATH": str(PACKAGE.parent)}
    done = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                          capture_output=True, text=True)
    tables = json.loads(done.stdout)
    assert {"umbilic.jets.packed_indices", "umbilic.jets._fd_rows",
            "umbilic.charts._flat_weights"} <= set(tables)
    assert tables == dict.fromkeys(tables, 0)


# names numpy 2 added, which the supported numpy >= 1.24 lacks; `concat` and
# `astype` only as numpy functions, since arrays have an `astype` method
NUMPY2_NAMES = {"mT", "matrix_transpose", "vecdot", "vector_norm",
                "matrix_norm", "permute_dims", "unstack", "cumulative_sum",
                "isdtype"}
NUMPY2_FUNCTIONS = {"concat", "astype"}


def numpy2_names(source: str) -> list[str]:
    """The numpy-2-only names a module's source reads or imports, by line."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Attribute):
            on_numpy = (isinstance(node.value, ast.Name)
                        and node.value.id in ("np", "numpy"))
            if node.attr in NUMPY2_NAMES or (
                    on_numpy and node.attr in NUMPY2_FUNCTIONS):
                found.append(f"{node.lineno}: {node.attr}")
        elif (isinstance(node, ast.ImportFrom)
              and (node.module or "").split(".")[0] == "numpy"):
            found += [f"{node.lineno}: {a.name}" for a in node.names
                      if a.name in NUMPY2_NAMES | NUMPY2_FUNCTIONS]
    return found


def test_numpy2_scan_finds_every_name():
    source = "\n".join(
        [f"x.{n}" for n in sorted(NUMPY2_NAMES)]
        + [f"np.{n}(a)" for n in sorted(NUMPY2_FUNCTIONS)]
        + ["from numpy.linalg import vector_norm", "a.astype(int)",
           "np.concatenate(a)"])
    assert len(numpy2_names(source)) == len(NUMPY2_NAMES) + 3


@pytest.mark.parametrize("module", ORDER + ["__init__"])
def test_no_numpy2_only_names(module):
    assert numpy2_names((PACKAGE / f"{module}.py").read_text()) == []
