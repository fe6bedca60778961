"""AST checks over the package's modules.

Every name a module imports is used there (pyflakes' F401). No module calls
np.einsum: row-wise dot products go through np.vecdot, whose rows match
ndarray.dot, so the scalar epoch and the lockstep epoch cannot drift apart.
No module imports an underscore name from another module of the package: a
name one module shares with another is public where it is defined. Only
geometry.py imports numbers or calls isinstance with int or float: what
counts as an integer or a real argument is decided there alone
(geometry.integer and geometry.real), config values included. Likewise only
geometry.py reads an array's .ndim (or np.ndim) or tests isinstance against a numpy
Generator: what a well-formed array or generator is (finite_array, generator)
is decided there too. Only learner.py raises InvariantError: a run's
invariants are checked in learn, for every caller. Outside geometry.py no `in`
or `not in` test has an ALL-CAPS module table on its right: whether a value
names a row of a table is geometry.choice's one rule. Only schedules.py calls
exact_tsybakov_A: which A a TNC run uses and the lemma suite checks at is
decided in schedules.regime_params alone. No add_argument call passes type=
or choices=: argparse hands each flag's text through, and the CLI reads it by
the config's rules.
"""

import ast
import re
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


def shape_or_generator_tests(source):
    """Line numbers in `source` that name an attribute ndim (np.ndim too) or a Generator type."""
    return sorted(
        node.lineno
        for node in ast.walk(ast.parse(source))
        if (isinstance(node, ast.Attribute) and node.attr == "ndim")
        or (isinstance(node, ast.Call) and getattr(node.func, "id", None) == "isinstance"
            and len(node.args) == 2
            and any("Generator" in (getattr(n, "attr", None), getattr(n, "id", None))
                    for n in ast.walk(node.args[1])))
    )


def test_shape_or_generator_tests_detected():
    source = (
        "if X.ndim != 2:\n    pass\nisinstance(rng, np.random.Generator)\nnp.ndim(X)\n"
        "isinstance(g, (Generator, int))\nisinstance(x, np.ndarray)\nn = a.shape[0]\n"
    )
    assert shape_or_generator_tests(source) == [1, 3, 4, 5]


def test_only_geometry_tests_shapes_or_generators():
    found = {
        (path.name, line)
        for path in sorted(PACKAGE.glob("*.py"))
        if path.name != "geometry.py"
        for line in shape_or_generator_tests(path.read_text())
    }
    assert found == set()


def invariant_raises(source):
    """Line numbers of the raise statements in `source` whose exception names InvariantError."""
    return [
        node.lineno
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Raise) and node.exc is not None
        and any("InvariantError" in (getattr(n, "attr", None), getattr(n, "id", None))
                for n in ast.walk(node.exc))
    ]


def test_invariant_raises_detected():
    source = (
        "raise InvariantError('gap')\nraise errors.InvariantError\nraise ValueError('x')\n"
        "try:\n    pass\nexcept InvariantError:\n    raise\n"
    )
    assert invariant_raises(source) == [1, 2]


def test_only_learner_raises_invariant_errors():
    found = {path.name for path in PACKAGE.glob("*.py") if invariant_raises(path.read_text())}
    assert found == {"learner.py"}


def table_membership_tests(source):
    """Line numbers of the in / not in tests in `source` against an ALL-CAPS name (X.NAME too)."""
    def table(node):
        name = getattr(node, "attr", None) or getattr(node, "id", None)
        return name is not None and re.fullmatch(r"_?[A-Z][A-Z0-9_]*", name) is not None

    return [
        node.lineno
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Compare)
        and any(isinstance(op, (ast.In, ast.NotIn)) and table(right)
                for op, right in zip(node.ops, node.comparators))
    ]


def test_table_membership_tests_detected():
    source = (
        "if kind not in NOISE_KINDS:\n    pass\nok = family in dists.FAMILIES\n"
        "ok = kind in kinds\nfor k in REGIMES:\n    pass\nok = 'x' in d and a in _MAX_2\n"
        "ok = x in TABLE[0]\nok = B in kinds\n"
    )
    assert table_membership_tests(source) == [1, 3, 7]


def test_only_geometry_tests_table_membership():
    found = {
        (path.name, line)
        for path in sorted(PACKAGE.glob("*.py"))
        if path.name != "geometry.py"
        for line in table_membership_tests(path.read_text())
    }
    assert found == set()


def exact_tsybakov_a_calls(source):
    """Line numbers of the calls in `source` to a function named exact_tsybakov_A."""
    return [
        node.lineno
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Call)
        and "exact_tsybakov_A" in (getattr(node.func, "attr", None),
                                   getattr(node.func, "id", None))
    ]


def test_exact_tsybakov_a_calls_detected():
    source = (
        "A = exact_tsybakov_A(B, alpha, dist)\nf = exact_tsybakov_A\n"
        "A = oracles.exact_tsybakov_A(1.0, 0.75, dist)\nA = exact_A(B, alpha, dist)\n"
    )
    assert exact_tsybakov_a_calls(source) == [1, 3]


def test_only_schedules_calls_exact_tsybakov_a():
    found = {path.name for path in PACKAGE.glob("*.py") if exact_tsybakov_a_calls(path.read_text())}
    assert found == {"schedules.py"}


def typed_arguments(source):
    """Line numbers of the add_argument calls in `source` that pass type= or choices=."""
    return [
        node.lineno
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Call)
        and "add_argument" in (getattr(node.func, "attr", None), getattr(node.func, "id", None))
        and any(k.arg in ("type", "choices") for k in node.keywords)
    ]


def test_typed_arguments_detected():
    source = (
        "p.add_argument('--seed', type=int)\np.add_argument('--out')\n"
        "p.add_argument('--profile', default=None, choices=['desk'])\nadd_argument(type=int)\n"
        "p.add_option('--n', type=int)\n"
    )
    assert typed_arguments(source) == [1, 3, 4]


def test_no_flag_is_read_by_argparse():
    found = {
        (path.name, line)
        for path in sorted(PACKAGE.glob("*.py"))
        for line in typed_arguments(path.read_text())
    }
    assert found == set()
