"""Every name a package module imports is used in that module, every name
a module exports resolves, no module imports scipy, no module imports
hashlib but as a fallback for a missing module, no module calls a numpy
function that imports ``numpy.ma`` but where listed, no module but
``tolerances.py`` writes a tolerance-sized float literal, and every
tolerance that ``tolerances.py`` defines is imported by another module.

No linter ships with the package, so this parses each module with ``ast``.
``__init__.py`` is exempt from the unused-import check: it imports only
what it uses to serve the package.

A CLI job runs only the modules its command reads: after ``import
qcompact.cli`` every other module is registered but lazy, and a command
runs what it calls.  Those checks run in fresh processes.
"""

import ast
import importlib
import importlib.util
import json
import sys
from collections import Counter
from pathlib import Path

import pytest

import qcompact
from test_ball import _run_python

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "qcompact"
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


#: numpy functions whose first call imports ``numpy.ma`` (about 11 ms): since
#: numpy 2 they ask it whether their argument is masked
MASKED_ARRAY_TRIGGERS = frozenset(
    {"unique", "union1d", "intersect1d", "setdiff1d", "setxor1d", "quantile", "percentile",
     "median", "ma"}
)

#: the calls allowed, as ``masked_array_triggers`` names them, by module: the
#: lattice rows that only the aa-net report lists
MASKED_ARRAY_EXCEPTIONS = {"paths.py": ["AANet.grid_points: np.unique"]}


def masked_array_triggers(source: str) -> list[str]:
    """Each read of ``np.<name>`` or ``numpy.<name>`` for a name in
    ``MASKED_ARRAY_TRIGGERS``, as ``"<enclosing class and function>: np.<name>"``."""
    found = []

    def visit(node, scope):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            scope = (*scope, node.name)
        if (
            isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id in ("np", "numpy")
            and node.attr in MASKED_ARRAY_TRIGGERS
        ):
            found.append(f"{'.'.join(scope) or '<module>'}: {node.value.id}.{node.attr}")
        for child in ast.iter_child_nodes(node):
            visit(child, scope)

    visit(ast.parse(source), ())
    return found


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


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_no_masked_array_triggers(path):
    assert masked_array_triggers(path.read_text()) == MASKED_ARRAY_EXCEPTIONS.get(path.name, [])


def test_detects_a_masked_array_trigger():
    source = (
        "import numpy as np\n"
        "u = np.unique(x)\n"
        "class A:\n"
        "    def f(self):\n"
        "        return numpy.quantile(y, 0.5) + np.sort(y)\n"
        "def g(a, b):\n"
        "    def h():\n"
        "        return np.ma.masked\n"
        "    return reduce(np.union1d, (a, b))\n"
    )
    assert masked_array_triggers(source) == [
        "<module>: np.unique", "A.f: numpy.quantile", "g.h: np.ma", "g: np.union1d"
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


def test_star_import_exports_all():
    namespace: dict = {}
    exec("from qcompact import *", namespace)
    assert [name for name in qcompact.__all__ if name not in namespace] == []
    with pytest.raises(AttributeError, match="no_such_name"):
        qcompact.no_such_name


#: prints the package's executed and lazy modules, and whether numpy.ma is loaded
_REPORT_MODULES = (
    "import json, sys\n"
    "mods = {n.split('.', 1)[1]: type(m).__name__ for n, m in list(sys.modules.items())\n"
    "        if n.startswith('qcompact.')}\n"
    "print(json.dumps({'ran': sorted(n for n, t in mods.items() if t == 'module'),\n"
    "                  'lazy': sorted(n for n, t in mods.items() if t == '_LazyModule'),\n"
    "                  'numpy.ma': 'numpy.ma' in sys.modules}))\n"
)


def _wrapped_by_the_tracer() -> list[tuple[str, str]]:
    """``(module, function or Class.method)`` for each function that
    ``perfbench/tracer.py`` wraps in a traced job."""
    spec = importlib.util.spec_from_file_location("tracer", ROOT / "perfbench" / "tracer.py")
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return [(module, target) for module, target, _ in tracer.WRAPPED]


def test_cli_import_runs_only_what_every_command_reads():
    state = json.loads(_run_python("import qcompact.cli\n" + _REPORT_MODULES))
    assert state["ran"] == ["cli", "errors", "tolerances"]
    assert state["lazy"] == sorted(p.stem for p in MODULES if p.stem not in state["ran"])
    # a lazy module stays in sys.modules, where a traced job finds every
    # function it wraps; reading one runs the module
    for module, target in _wrapped_by_the_tracer():
        owner = sys.modules[f"qcompact.{module}"]
        for attr in target.split("."):
            owner = getattr(owner, attr)
        assert callable(owner), (module, target)


@pytest.mark.parametrize(
    "case, ran",
    [
        ("cheby", ["ball", "cli", "errors", "serialize", "tolerances"]),
        # an ensemble needs paths (and ball, which paths imports from), but
        # none of the sandwich's kernels
        ("gen-walks", ["arrays", "ball", "cli", "errors", "paths", "serialize", "stochastic",
                       "tolerances"]),
    ],
)
def test_a_command_runs_only_its_modules(case, ran, tmp_path):
    from test_golden import CASES

    argv, status = CASES[case]
    argv = [*argv, "--out", str(tmp_path / "report.json")]
    code = f"from qcompact.cli import main\nassert main({argv!r}) == {status}\n" + _REPORT_MODULES
    state = json.loads(_run_python(code, cwd=ROOT / "tests" / "golden" / "inputs"))
    assert state["ran"] == ran
    assert state["lazy"] == sorted(p.stem for p in MODULES if p.stem not in ran)


@pytest.mark.parametrize(
    "case",
    ["cheby", "cover-profile", "verify-qaa", "prokhorov-dist", "verify-qsaa", "verify-qprokh",
     "tv-dist", "mu-ut"],
)
def test_golden_runs_leave_numpy_ma_unloaded(case, tmp_path):
    from test_golden import CASES

    argv, status = CASES[case]
    argv = [*argv, "--out", str(tmp_path / "report.json")]
    code = f"from qcompact.cli import main\nassert main({argv!r}) == {status}\n" + _REPORT_MODULES
    state = json.loads(_run_python(code, cwd=ROOT / "tests" / "golden" / "inputs"))
    assert state["numpy.ma"] is False
