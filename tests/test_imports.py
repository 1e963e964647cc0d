"""Every name a package module imports is used in that module, every name
a module exports resolves, no module imports scipy, no module imports
hashlib but as a fallback for a missing module, no module but
``tolerances.py`` writes a tolerance-sized float literal, and every
tolerance that ``tolerances.py`` defines is imported by another module.

No linter ships with the package, so this parses each module with ``ast``.
``__init__.py`` is exempt from the unused-import check: its imports are the
package's re-exports.
"""

import ast
import importlib
from collections import Counter
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "qcompact"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = (alias.asname or alias.name).split(".")[0]
                imported[name] = node.lineno
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return [f"line {line}: {name}" for name, line in imported.items() if name not in used]


def imports_of(source: str, module: str, *, skip_fallbacks: bool = False) -> list[str]:
    """Imports of ``module`` or of a submodule, at any depth.  With
    ``skip_fallbacks``, not those in the handler of an ImportError, where a
    module stands in for one that this Python lacks."""
    found = []

    def visit(node):
        if skip_fallbacks and isinstance(node, ast.ExceptHandler) and _catches_import_error(node):
            return
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names = [node.module]
        else:
            names = []
        found.extend(f"line {node.lineno}: {n}" for n in names if n.split(".")[0] == module)
        for child in ast.iter_child_nodes(node):
            visit(child)

    visit(ast.parse(source))
    return found


def _catches_import_error(handler: ast.ExceptHandler) -> bool:
    return isinstance(handler.type, ast.Name) and handler.type.id in (
        "ImportError",
        "ModuleNotFoundError",
    )


def tolerance_literals(source: str) -> list[str]:
    """Float constants ``x`` with ``0 < |x| < 1e-6``: rounding budgets, which
    belong in ``tolerances.py`` under a name that says what they bound."""
    return [
        f"line {node.lineno}: {node.value!r}"
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Constant)
        and isinstance(node.value, float)
        and 0.0 < abs(node.value) < 1e-6
    ]


def test_modules_are_found():
    assert {"prokhorov.py", "stochastic.py", "metric.py"} <= {p.name for p in MODULES}


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def test_detects_an_unused_import():
    source = "import math\nfrom typing import Optional, Sequence\nx: Sequence = math.pi\n"
    assert unused_imports(source) == ["line 2: Optional"]


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_no_scipy_imports(path):
    # numpy is the package's only runtime dependency
    assert imports_of(path.read_text(), "scipy") == []


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_no_hashlib_imports(path):
    # hashlib maps OpenSSL's libcrypto, 3.6 MiB, into every job that hashes
    # its inputs; CPython's own SHA-256 module does the job
    assert imports_of(path.read_text(), "hashlib", skip_fallbacks=True) == []


def test_detects_a_scipy_import():
    source = (
        "import numpy, scipy.sparse as sp\n"
        "from .scipy import x\n"
        "def f():\n"
        "    from scipy.optimize import nnls\n"
        "try:\n"
        "    from numpy.x import y\n"
        "except ImportError:\n"
        "    from scipy import y\n"
    )
    assert imports_of(source, "scipy") == [
        "line 1: scipy.sparse", "line 4: scipy.optimize", "line 8: scipy"
    ]


def test_detects_a_hashlib_import_but_not_a_fallback():
    source = (
        "import hashlib\n"
        "def f():\n"
        "    from hashlib import sha256\n"
        "try:\n"
        "    import hashlib._x\n"
        "except ImportError:\n"
        "    from hashlib import sha256\n"
        "except ValueError:\n"
        "    import hashlib\n"
    )
    assert imports_of(source, "hashlib", skip_fallbacks=True) == [
        "line 1: hashlib", "line 3: hashlib", "line 5: hashlib._x", "line 9: hashlib"
    ]


@pytest.mark.parametrize(
    "path",
    sorted(p for p in PACKAGE.glob("*.py") if p.name != "tolerances.py"),
    ids=lambda p: p.name,
)
def test_no_tolerance_literals(path):
    assert tolerance_literals(path.read_text()) == []


def test_detects_a_tolerance_literal():
    source = "x = 1e-6 + 2.5\nif y > x - 1e-12:\n    z = f(3e-13, 10)\n"
    assert tolerance_literals(source) == ["line 2: 1e-12", "line 3: 3e-13"]


def unread_tolerances(tolerances: str, modules: list[str]) -> list[str]:
    """The names that the ``tolerances`` source assigns at its top level and
    that none of the ``modules`` sources imports from it."""
    defined = [
        target.id
        for node in ast.parse(tolerances).body
        if isinstance(node, (ast.Assign, ast.AnnAssign))
        for target in (node.targets if isinstance(node, ast.Assign) else [node.target])
        if isinstance(target, ast.Name)
    ]
    read = {
        alias.name
        for source in modules
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.ImportFrom)
        and node.module in ("tolerances", "qcompact.tolerances")
        for alias in node.names
    }
    return [name for name in defined if name not in read]


def test_every_tolerance_is_read():
    # a tolerance that no module reads bounds nothing
    others = [p.read_text() for p in MODULES if p.name != "tolerances.py"]
    assert unread_tolerances((PACKAGE / "tolerances.py").read_text(), others) == []


def test_detects_an_unread_tolerance():
    tolerances = '"""doc"""\nA = 1e-9\nB = 2e-9\nC: float = 3e-9\nD = 4e-9\n'
    modules = [
        "from .tolerances import A\n",
        "from qcompact.tolerances import (\n    C,\n)\nfrom .other import D\n",
    ]
    assert unread_tolerances(tolerances, modules) == ["B", "D"]


@pytest.mark.parametrize(
    "name", ["qcompact", *(f"qcompact.{p.stem}" for p in MODULES)]
)
def test_exports_resolve_once(name):
    module = importlib.import_module(name)
    exported = getattr(module, "__all__", [])
    assert [n for n, c in Counter(exported).items() if c > 1] == []
    assert [n for n in exported if not hasattr(module, n)] == []
