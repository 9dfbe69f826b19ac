"""The package's modules import one another in one direction only,
something reads every function, class and method they define, only
`bilinear` takes a singular value decomposition, and they name nothing
that only numpy 2 has."""

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
READERS = tuple(p for d in ("src", "tests", "perfbench")
                for p in (PACKAGE.parent.parent / d).rglob("*.py"))


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


def _read_name(node: ast.AST) -> str | None:
    """The name a node reads: a Name, an Attribute, an imported name or a
    string constant, so that a table of names to look up counts."""
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    if isinstance(node, ast.alias):
        return node.name.split(".")[-1]
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return node.value
    return None


def _reads(node: ast.AST, inside: frozenset = frozenset()):
    """The names read under `node`, less a read of a definition's name in
    that definition's own body (a recursion, a `super().name(...)` call),
    which `inside` holds for the bodies enclosing `node`."""
    name = _read_name(node)
    if name is not None and name not in inside:
        yield name
    body = getattr(node, "body", None)
    for child in ast.iter_child_nodes(node):
        within = inside
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)) and child in body:
            within = inside | {node.name}
        yield from _reads(child, within)


@functools.cache
def names_read(readers: tuple[Path, ...] = READERS) -> set[str]:
    """Every name read in `readers` outside the body of a definition of
    that name (see `_reads`)."""
    return {name for path in readers
            for name in _reads(ast.parse(path.read_text()))}


def test_a_definition_does_not_read_itself():
    # a recursion and a `super()` call are no reads; a call from elsewhere,
    # a decorator and a default value are
    source = ("class A:\n    def f(self):\n        super().f()\n"
              "def g(n):\n    return g(n - 1)\n")
    assert set(_reads(ast.parse(source))) == {"super", "n"}
    source += "@h\ndef k(x=j):\n    return A().f()\n"
    assert set(_reads(ast.parse(source))) == {"super", "n", "h", "j", "A",
                                              "f"}


@pytest.mark.parametrize("module", ORDER)
def test_every_definition_is_read(module):
    # code that nothing reads is dead, and stays deleted
    assert sorted(set(definitions(PACKAGE / f"{module}.py"))
                  - names_read()) == []


def test_every_export_is_read_outside_tests():
    # a public name that only tests call is a second way to a fact that
    # the program reaches another way
    tests = PACKAGE.parent.parent / "tests"
    outside = tuple(p for p in READERS if p != PACKAGE / "__init__.py"
                    and tests not in p.parents)
    exports = next(node.value for node in
                   ast.parse((PACKAGE / "__init__.py").read_text()).body
                   if isinstance(node, ast.Assign)
                   and node.targets[0].id == "__all__")
    assert sorted({e.value for e in exports.elts}
                  - names_read(outside)) == []


def svd_calls(path: Path) -> int:
    """The calls `<module>.linalg.svd(...)` in a module's source."""
    return sum(isinstance(node, ast.Call)
               and isinstance(node.func, ast.Attribute)
               and node.func.attr == "svd"
               and getattr(node.func.value, "attr", None) == "linalg"
               for node in ast.walk(ast.parse(path.read_text())))


def test_only_bilinear_takes_an_svd():
    # every rank decision reads singular values from the one module whose
    # rank rule sets them, so a change to that rule reaches them all
    calls = {m: svd_calls(PACKAGE / f"{m}.py") for m in ORDER + ["__init__"]}
    assert {m for m, n in calls.items() if n} == {"bilinear"}


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
