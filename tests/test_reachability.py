"""Every function in src/segrefuchs is reached by the CLI or has a role.

A child interpreter installs `sys.setprofile` before it imports the
package, then runs every command on small inputs (the m=1 model, a dense
m=1 surface, a non-Fuchsian m=2 surface, a 2x2 constant system and the
m=1 model's u-system, which depends on w) with each option that selects
its own code, plus `selftest`.  A function no command calls keeps one
docstring line, "Off the CLI path: <role>.", naming why it stays in the
package.  The test fails when a function is neither reached nor marked,
or when a marked function is reached, so the marked docstrings stay the
exact list of what the CLI never calls.  A role may not name the tests or
an oracle: code only the tests use lives in tests/reference.py.  Nor may
it be paper content: what no command runs leaves the package, or moves
to the tests where it serves as an oracle.
"""

import ast
import json
import os
import re
import subprocess
import sys

import pytest

from segrefuchs import serialize
from segrefuchs.prolongation import assemble_u_system
from segrefuchs.qfield import qi
from segrefuchs.segre import eliminate
from segrefuchs.surfaces import build_complex, build_real
from reference import const_system, dense_surface

SRC = os.path.dirname(os.path.abspath(serialize.__file__))

MARK = "Off the CLI path:"

CHILD = r"""
import json, sys
seen = set()


def hook(frame, event, arg):
    if event == "call":
        seen.add(frame.f_code)


sys.setprofile(hook)
from segrefuchs.cli import main
exits = [main(argv) for argv in json.loads(sys.argv[1])]
sys.setprofile(None)
with open(sys.argv[2], "w") as f:
    json.dump({"exits": exits,
               "reached": [[c.co_filename, c.co_firstlineno] for c in seen]},
              f)
"""


def universe():
    """({(file, first line): "module.qualname"} of every def in the
    package, {name: role} of those whose docstring carries MARK); lambdas
    and comprehensions are part of the function around them, and a role
    is the rest of MARK's paragraph."""
    out, roles = {}, {}

    def walk(node, fn, prefix):
        for c in ast.iter_child_nodes(node):
            if isinstance(c, (ast.FunctionDef, ast.AsyncFunctionDef)):
                name = prefix + c.name
                first = min([c.lineno] + [d.lineno for d in c.decorator_list])
                out[(fn, first)] = name
                doc = ast.get_docstring(c) or ""
                if MARK in doc:
                    role = doc.split(MARK, 1)[1].split("\n\n", 1)[0]
                    roles[name] = " ".join(role.split())
                walk(c, fn, name + ".<locals>.")
            elif isinstance(c, ast.ClassDef):
                walk(c, fn, prefix + c.name + ".")
            else:
                walk(c, fn, prefix)

    for fn in sorted(os.listdir(SRC)):
        if fn.endswith(".py"):
            with open(os.path.join(SRC, fn)) as f:
                walk(ast.parse(f.read()), fn, fn[:-3] + ".")
    return out, roles


def _write(path, payload):
    path.write_text(serialize.dumps(payload))
    return str(path)


@pytest.fixture(scope="module")
def cli_run(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("reach")
    model = _write(tmp / "model.json",
                   serialize.surface_to_json(build_complex(1, 1, {}, 12)))
    dense = _write(tmp / "dense.json",
                   serialize.surface_to_json(dense_surface(12)))
    system = _write(tmp / "system.json", serialize.system_to_json(
        const_system([[qi(1), qi(0)], [qi(0), qi(-1)]], 10)))
    usystem = _write(tmp / "usystem.json", serialize.system_to_json(
        assemble_u_system(eliminate(build_complex(1, 1, {}, 12), 12))))
    nonfuchsian = _write(tmp / "nonfuchsian.json", serialize.surface_to_json(
        build_real(2, 1, {(2, 2): {(0,): qi(1)}}, 12)))
    out = str(tmp / "out.json")
    ops = [["check-fuchsian", nonfuchsian, "-o", out],
           ["symmetries", nonfuchsian, "-o", out],
           ["verify", model, "--order", "13", "-o", out]]
    expect = [1, 3, 11]
    for surface in (model, dense):
        for argv, code in ((["verify"], 0), (["derive-ode"], 0),
                           (["check-fuchsian"], 0),
                           (["check-fuchsian", "--format", "table"], 0),
                           (["symmetries", "--real-form"], 0),
                           (["blowup", "--auto", "4"], 0),
                           (["blowup", "--blowup", "s=2"], 0),
                           (["verify", "--order", "10"], 0)):
            ops.append([argv[0], surface] + argv[1:] + ["-o", out])
            expect.append(code)
    ops += [["monodromy", system, "-o", out], ["monodromy", usystem, "-o", out],
            ["selftest"]]
    expect += [0, 0, 0]
    report = tmp / "reached.json"
    env = dict(os.environ, PYTHONPATH=os.path.dirname(SRC))
    subprocess.run([sys.executable, "-c", CHILD, json.dumps(ops),
                    str(report)], check=True, env=env, capture_output=True)
    data = json.loads(report.read_text())
    assert data["exits"] == expect
    names, roles = universe()
    src = os.path.realpath(SRC)
    reached = {names[(os.path.basename(f), line)]
               for f, line in data["reached"]
               if os.path.dirname(os.path.realpath(f)) == src
               and (os.path.basename(f), line) in names}
    return set(names.values()), set(roles), reached


def test_every_function_is_reached_or_marked(cli_run):
    functions, marked, reached = cli_run
    assert sorted(functions - reached - marked) == []


def test_no_marked_function_is_reached(cli_run):
    functions, marked, reached = cli_run
    assert sorted(marked & reached) == []


def test_no_role_names_the_tests_or_an_oracle():
    _, roles = universe()
    assert sorted(name for name, role in roles.items()
                  if re.search(r"\btests?\b|oracle", role, re.I)) == []


def test_no_role_is_paper_content():
    _, roles = universe()
    assert sorted(name for name, role in roles.items()
                  if re.search(r"paper content", role, re.I)) == []
