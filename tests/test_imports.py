"""Import hygiene of the package and the test suite, read from the source.

Every module-level import binds a name its module reads, and no test
module imports another one: a helper that several test modules share
lives in `reference.py`.
"""

import ast
import os

import pytest

TESTS = os.path.dirname(os.path.abspath(__file__))
PACKAGE = os.path.join(os.path.dirname(TESTS), "src", "segrefuchs")
MODULES = sorted(os.path.join(d, f) for d in (PACKAGE, TESTS)
                 for f in os.listdir(d) if f.endswith(".py"))
TEST_MODULES = {f[:-3] for f in os.listdir(TESTS)
                if f.startswith("test_") and f.endswith(".py")}


def unused_imports(tree):
    """The names that module-level imports of `tree` bind and it never
    reads."""
    bound = {}
    for node in tree.body:
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                bound[name] = node.lineno
    read = {n.id for n in ast.walk(tree)
            if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
    return sorted((line, name) for name, line in bound.items()
                  if name not in read)


def imported_test_modules(tree):
    """The test modules that any import of `tree` names."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names.update(a.name.split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module:
            names.add(node.module.split(".")[0])
    return sorted(names & TEST_MODULES)


@pytest.mark.parametrize("path", MODULES, ids=os.path.basename)
def test_every_import_is_read_and_none_is_of_a_test_module(path):
    with open(path) as f:
        tree = ast.parse(f.read(), path)
    assert unused_imports(tree) == []
    assert imported_test_modules(tree) == []


def test_the_checks_see_what_they_look_for():
    tree = ast.parse("import os, json as j\nfrom a.b import c\n"
                     "from test_golden import d\nprint(os, d)\n"
                     "def f():\n    import test_surfaces.x\n")
    assert unused_imports(tree) == [(1, "j"), (2, "c")]
    assert imported_test_modules(tree) == ["test_golden", "test_surfaces"]
