"""Every module of the package and of the tests uses each name it imports,
and every package name the benchmark's tracer hooks exists.

The import check reads the source with the standard-library ast module: a
name bound by an import statement must be read somewhere in the module, or
be listed in its __all__.  Imports from __future__ are exempt.
"""

import ast
import runpy
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
MODULES = sorted([*ROOT.glob("src/shortpres/*.py"), *ROOT.glob("tests/*.py")])


def unused_imports(source):
    """The names a module's imports bind but the module never reads."""
    tree = ast.parse(source)
    bound = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            bound |= {a.asname or a.name.split(".")[0] for a in node.names}
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound |= {a.asname or a.name for a in node.names if a.name != "*"}
    read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    for node in ast.walk(tree):
        if (isinstance(node, ast.Assign)
                and any(getattr(t, "id", None) == "__all__" for t in node.targets)):
            read |= set(ast.literal_eval(node.value))
    return sorted(bound - read)


def test_the_check_finds_an_unused_import():
    source = ("from __future__ import annotations\n"
              "import os.path\nimport sys\nfrom json import dumps as d, loads\n"
              "__all__ = ['loads']\nos.path.join(d(1))\n")
    assert unused_imports(source) == ["sys"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: str(p.relative_to(ROOT)))
def test_no_unused_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def test_every_traced_name_resolves():
    """perfbench/tracing.py hooks package names by their path; one that was
    renamed or dropped would read 0 in its layer.  run_path executes the file
    without importing it as a module, so it writes nothing beside it."""
    tracing = runpy.run_path(str(ROOT / "perfbench" / "tracing.py"))
    resolve = tracing["_resolve"]
    for _, module, path in tracing["SPANS"]:
        resolve(module, path)
    for name, _ in tracing["PERM_OPS"]:
        resolve("shortpres.perm", f"Permutation.{name}")
