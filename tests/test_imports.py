"""Every name a package module imports is used there (pyflakes' F401, by AST)."""

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
