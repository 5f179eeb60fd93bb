"""Every name a package module imports is used in that module, every module
is reached from the package or its console script, importing the package
leaves out the heavy scipy subpackages it does not call, one function
builds every certification record, and one words the positive-scalar rule."""
import ast
import re
import subprocess
import sys
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "hullmetry"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(f"{name} (line {line})" for name, line in imported.items() if name not in used)


def test_unused_imports_are_found():
    source = "import math\nimport os.path\nfrom os import sep as s, path\n\nx = math.pi + s\n"
    assert unused_imports(source) == ["os (line 2)", "path (line 3)"]


@pytest.mark.parametrize("module", MODULES, ids=lambda p: p.name)
def test_module_uses_every_import(module):
    assert unused_imports(module.read_text()) == []


SOURCES = (PACKAGE.parent, PACKAGE.parents[1] / "tests")


def _defined_names(tree: ast.Module) -> dict:
    """Module-level function, class and variable names, each with its defining node."""
    defined = {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            defined[node.name] = node
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                for name in ast.walk(target):
                    if isinstance(name, ast.Name):
                        defined[name.id] = node
    return defined


def _references(node) -> list[str]:
    """Names read in node: loaded names and attribute names."""
    refs = []
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name) and not isinstance(sub.ctx, ast.Store):
            refs.append(sub.id)
        elif isinstance(sub, ast.Attribute):
            refs.append(sub.attr)
    return refs


def unreferenced_names(source: str, others: list[str]) -> list[str]:
    """Module-level names of source that neither source (outside their own
    definition) nor any of the other sources reads."""
    tree = ast.parse(source)
    refs = _references(tree)
    for other in others:
        refs += _references(ast.parse(other))
    dead = []
    for name, node in _defined_names(tree).items():
        outside = refs.count(name) - _references(node).count(name)
        if outside == 0:
            dead.append(name)
    return sorted(dead)


def test_unreferenced_names_are_found():
    source = (
        "import math\n"
        "LIMIT = 3\n"
        "TABLE = {'a': LIMIT}\n"
        "def used():\n    return math.pi\n"
        "def loop(n):\n    return loop(n - 1) if n else 0\n"
        "class Dead:\n    pass\n"
    )
    assert unreferenced_names(source, ["x = mod.used()\n"]) == ["Dead", "TABLE", "loop"]


@pytest.mark.parametrize("module", MODULES, ids=lambda p: p.name)
def test_module_level_names_are_referenced(module):
    others = [
        path.read_text()
        for root in SOURCES
        for path in sorted(root.rglob("*.py"))
        if path != module and path.name != "__init__.py"
    ]
    assert unreferenced_names(module.read_text(), others) == []


def test_import_loads_no_scipy_signal_stats_or_fft():
    # the package never calls scipy.signal, which alone pulls in scipy.stats
    # and costs about 0.4 s of a fresh process, nor scipy.fft; scipy.optimize
    # loads scipy.fft, so covering.inradius imports it at call time, and only
    # for an epsilon that the closed-form inradius bracket cannot place
    modules = ("scipy.signal", "scipy.stats", "scipy.fft")
    probe = (
        "import sys, hullmetry, hullmetry.cli; "
        f"print(sorted(m for m in {modules!r} if m in sys.modules))"
    )
    proc = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_volume_cover_bounds_on_the_unit_square_loads_no_scipy_optimize():
    # the inradius 1/2 of the unit square is both ends of its closed-form
    # bracket, so no epsilon of the bundled cover_ratio checks needs linprog
    probe = (
        "import sys; from hullmetry import quickhull, volume_cover_bounds; "
        "sq = quickhull([[0, 0], [1, 0], [1, 1], [0, 1]]); "
        "print([volume_cover_bounds(sq, e)[1] is None for e in (0.2, 0.4, 0.8)], "
        "'scipy.optimize' in sys.modules)"
    )
    proc = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[False, False, True] False"


def relative_imports(source: str) -> set[str]:
    """Sibling modules that a package module imports with `from .x import` or `from . import x`."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            if node.module:
                found.add(node.module.split(".")[0])
            else:
                found.update(alias.name for alias in node.names)
    return found


def unreachable_modules(sources: dict[str, str], roots: list[str]) -> list[str]:
    """Modules of a package (name -> source) that no chain of relative imports
    from the root modules reaches."""
    reached, todo = set(), list(roots)
    while todo:
        name = todo.pop()
        if name in sources and name not in reached:
            reached.add(name)
            todo.extend(relative_imports(sources[name]))
    return sorted(set(sources) - reached)


def test_unreachable_modules_are_found():
    sources = {
        "__init__": "from .core import f\n",
        "core": "from . import util\nfrom .errors import E\n",
        "util": "import math\n",
        "errors": "",
        "cli": "from .core import f\nfrom .report import r\n",
        "report": "",
        "fixtures": "from .core import f\n",
    }
    assert unreachable_modules(sources, ["__init__", "cli"]) == ["fixtures"]
    assert unreachable_modules(sources, ["__init__"]) == ["cli", "fixtures", "report"]


def test_every_module_is_reached_from_the_package_or_its_console_script():
    # a module that only tests import is test data, not package code
    pyproject = (PACKAGE.parents[1] / "pyproject.toml").read_text()
    scripts = re.findall(r'^[\w-]+ = "hullmetry\.(\w+):\w+"$', pyproject, re.MULTILINE)
    assert scripts == ["cli"]
    roots = ["__init__"] + scripts
    sources = {path.stem: path.read_text() for path in PACKAGE.glob("*.py")}
    assert unreachable_modules(sources, roots) == []


def callers_of(source: str, name: str) -> list[str]:
    """Owner of each call name(...) in source: the top-level function, the
    method as Class.method, or <module> for a call outside any function."""
    found = []

    def scan(nodes, prefix):
        for node in nodes:
            if isinstance(node, ast.ClassDef):
                scan(node.body, f"{prefix}{node.name}.")
                continue
            is_def = isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
            owner = prefix + (node.name if is_def else "<module>")
            found.extend(owner for sub in ast.walk(node)
                         if isinstance(sub, ast.Call) and isinstance(sub.func, ast.Name)
                         and sub.func.id == name)

    scan(ast.parse(source).body, "")
    return found


def test_callers_are_found():
    source = (
        "R = Rec(0)\n"
        "def build():\n    return Rec(1), [Rec(2)]\n"
        "class Box:\n"
        "    def make(self):\n        return helper(Rec)\n"
        "    def other(self):\n        return Rec(3)\n"
    )
    assert callers_of(source, "Rec") == ["<module>", "build", "build", "Box.other"]


def test_run_scenario_alone_builds_certification_records():
    # the checks return their numbers; one constructor keeps the record's shape in one place
    callers = {path.name: callers_of(path.read_text(), "CertificationRecord") for path in MODULES}
    assert {name: found for name, found in callers.items() if found} == {
        "harness.py": ["run_scenario"]
    }


def test_errors_alone_words_the_positive_scalar_rule():
    # errors.check_positive is the one owner of the rule; a second wording is a second copy
    modules = sorted(PACKAGE.glob("*.py"))
    assert [p.name for p in modules if "must be positive and finite" in p.read_text()] == [
        "errors.py"
    ]
