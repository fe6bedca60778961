"""AST checks over the package's modules.

Every name a module imports is used there (pyflakes' F401). No module calls
np.einsum: row-wise dot products go through np.vecdot, whose rows match
ndarray.dot, so the scalar epoch and the lockstep epoch cannot drift apart.
No module imports an underscore name from another module of the package: a
name one module shares with another is public where it is defined. Only
geometry.py imports numbers or calls isinstance with int or float: what
counts as an integer or a real argument is decided there alone
(geometry.integer and geometry.real), config values included.
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "halfband"

# imported only so perfbench/layertrace.py can patch it where the CLI would look it up
EXEMPT = {("cli.py", "schedule_for")}


def unused_imports(source):
    """Names bound by import statements in `source` that no expression reads."""
    tree = ast.parse(source)
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(a.asname or a.name.split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom):
            imported.update(a.asname or a.name for a in node.names)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return imported - used


def test_unused_imports_detected():
    source = "import os\nimport numpy as np\nfrom math import pi, tau\nprint(np.pi, tau)\n"
    assert unused_imports(source) == {"os", "pi"}


def test_package_modules_use_every_import():
    # __init__.py imports only to re-export, so it is not checked
    found = {
        (path.name, name)
        for path in sorted(PACKAGE.glob("*.py"))
        if path.name != "__init__.py"
        for name in unused_imports(path.read_text())
    }
    assert found == EXEMPT


def einsum_calls(source):
    """Line numbers of the calls in `source` to a function named einsum."""
    return [
        node.lineno
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Call)
        and "einsum" in (getattr(node.func, "attr", None), getattr(node.func, "id", None))
    ]


def test_einsum_calls_detected():
    source = (
        "import numpy as np\nfrom numpy import einsum\n"
        "np.einsum('i,i', a, a)\nx = np.vecdot(a, a)\neinsum('i->', a)\n"
    )
    assert einsum_calls(source) == [3, 5]


def test_package_modules_call_no_einsum():
    found = {
        (path.name, line)
        for path in sorted(PACKAGE.glob("*.py"))
        for line in einsum_calls(path.read_text())
    }
    assert found == set()


def private_imports(source):
    """Underscore names that `source` imports from a module of the package."""
    return [
        alias.name
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.ImportFrom)
        and (node.level > 0 or (node.module or "").split(".")[0] == "halfband")
        for alias in node.names
        if alias.name.startswith("_")
    ]


def test_private_imports_detected():
    source = (
        "from math import _private, pi\nfrom .oracles import _ball_radial, eta_of_margin\n"
        "from halfband.learner import _check_epoch\nfrom . import _impl, geometry\n"
    )
    assert private_imports(source) == ["_ball_radial", "_check_epoch", "_impl"]


def test_package_modules_import_no_private_names():
    found = {
        (path.name, name)
        for path in sorted(PACKAGE.glob("*.py"))
        for name in private_imports(path.read_text())
    }
    assert found == set()


def imports_numbers(source):
    """Whether `source` imports the standard library module numbers, or a name from it."""
    return any(
        (isinstance(node, ast.Import) and any(a.name == "numbers" for a in node.names))
        or (isinstance(node, ast.ImportFrom) and node.level == 0 and node.module == "numbers")
        for node in ast.walk(ast.parse(source))
    )


def test_numbers_imports_detected():
    assert imports_numbers("import numbers\n")
    assert imports_numbers("import math, numbers as nb\n")
    assert imports_numbers("def f():\n    from numbers import Integral\n")
    assert not imports_numbers("import numpy as np\nnumbers = np.arange(3)\n")
    assert not imports_numbers("from . import numbers\nfrom .numbers import Real\n")


def test_only_geometry_imports_numbers():
    found = {path.name for path in PACKAGE.glob("*.py") if imports_numbers(path.read_text())}
    assert found == {"geometry.py"}


def int_or_float_isinstance_calls(source):
    """Line numbers of the isinstance calls in `source` whose type argument names int or float."""
    return [
        node.lineno
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "isinstance"
        and len(node.args) == 2
        and any(isinstance(n, ast.Name) and n.id in ("int", "float")
                for n in ast.walk(node.args[1]))
    ]


def test_int_or_float_isinstance_calls_detected():
    source = (
        "isinstance(x, int)\nisinstance(x, (str, float))\nisinstance(x, bool)\n"
        "isinstance(x, kind)\nisinstance(x, numbers.Integral)\nisinstance(x, (int, float))\n"
    )
    assert int_or_float_isinstance_calls(source) == [1, 2, 6]


def test_only_geometry_tests_for_int_or_float():
    found = {
        (path.name, line)
        for path in sorted(PACKAGE.glob("*.py"))
        if path.name != "geometry.py"
        for line in int_or_float_isinstance_calls(path.read_text())
    }
    assert found == set()
