"""Every module-level import in the package is used, every private top-level
function or class is referenced, and no import names scipy. No module
defines a ``to_json``: the CLI's one serializer, ``cli._payload``, turns
result dataclasses into JSON, and in the CLI only ``_json_text`` (which
applies it) and the config echo call ``json.dump``/``json.dumps``.

A name bound by a top-level ``import`` or ``from ... import`` counts as used
if it is read anywhere in the module or listed in its ``__all__``. A private
top-level definition counts as referenced if its name is read, taken as an
attribute or imported anywhere in the package outside its own body. The
scipy check covers every import statement, function-local ones included.
Importing the CLI loads neither scipy nor ``numpy.random``.
"""

import ast
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"
SOURCES = sorted((SRC / "focalcal").glob("*.py"))


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    bound = {}
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                bound[name] = node.lineno
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)):
            used |= set(ast.literal_eval(node.value))
    return [f"line {line}: {name}" for name, line in sorted(bound.items()) if name not in used]


def test_checker_flags_an_unused_import():
    src = "import os\nimport sys\nfrom math import pi, tau\n__all__ = ['tau']\nprint(sys.argv)\n"
    assert unused_imports(src) == ["line 1: os", "line 3: pi"]


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_unused_module_imports(path):
    assert unused_imports(path.read_text()) == []


def unreferenced_private_defs(sources: dict[str, str]) -> list[str]:
    """``module: name`` of each private top-level function or class that nothing else names."""
    defs, uses = [], []
    for module, source in sources.items():
        for node in ast.parse(source).body:
            owner = getattr(node, "name", None)
            if (isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
                    and owner.startswith("_") and not owner.startswith("__")):
                defs.append((module, owner))
            names = set()
            for n in ast.walk(node):
                if isinstance(n, ast.Name):
                    names.add(n.id)
                elif isinstance(n, ast.Attribute):
                    names.add(n.attr)
                elif isinstance(n, ast.ImportFrom):
                    names |= {alias.name for alias in n.names}
            uses.append((module, owner, names))
    return [f"{module}: {name}" for module, name in defs
            if not any(name in names and (m, owner) != (module, name) for m, owner, names in uses)]


def test_checker_flags_an_unreferenced_private_def():
    sources = {"a.py": "def _used():\n    pass\ndef _dead():\n    return _dead()\n"
                       "class _Kept:\n    pass\ndef __getattr__(name):\n    pass\n",
               "b.py": "from a import _used\nimport a\nx = a._Kept()\n"}
    assert unreferenced_private_defs(sources) == ["a.py: _dead"]


def test_no_unreferenced_private_defs():
    assert unreferenced_private_defs({p.name: p.read_text() for p in SOURCES}) == []


def hand_written_json(source: str, dumpers=()) -> list[str]:
    """``line N: ...`` for each ``to_json`` defined anywhere in ``source``, and
    each ``json.dump``/``json.dumps`` call outside the top-level functions ``dumpers``."""
    tree = ast.parse(source)
    found = [(n.lineno, "def to_json") for n in ast.walk(tree)
             if isinstance(n, (ast.FunctionDef, ast.AsyncFunctionDef)) and n.name == "to_json"]
    for node in tree.body:
        if getattr(node, "name", None) not in dumpers:
            found += [(n.lineno, f"json.{n.func.attr}") for n in ast.walk(node)
                      if isinstance(n, ast.Call) and isinstance(n.func, ast.Attribute)
                      and isinstance(n.func.value, ast.Name) and n.func.value.id == "json"
                      and n.func.attr in ("dump", "dumps")]
    return [f"line {line}: {what}" for line, what in sorted(found)]


def test_checker_flags_to_json_and_stray_dumps():
    src = ("import json\nclass R:\n    def to_json(self):\n        return {}\n"
           "def _json_text(obj):\n    return json.dumps(obj)\n"
           "def save(obj, fh):\n    json.dump(obj, fh)\n")
    assert hand_written_json(src, ("_json_text",)) == ["line 3: def to_json", "line 8: json.dump"]


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_hand_written_json(path):
    # data.save_points writes point files, one compact JSON object per line
    dumpers = {"cli.py": ("_json_text", "_print_config"), "data.py": ("save_points",)}
    assert hand_written_json(path.read_text(), dumpers.get(path.name, ())) == []


def scipy_imports(source: str) -> list[str]:
    lines = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            modules = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            modules = [node.module or ""]
        else:
            continue
        if any(m.split(".")[0] == "scipy" for m in modules):
            lines.append(f"line {node.lineno}")
    return lines


def test_checker_flags_a_function_local_scipy_import():
    src = ("import scipy.sparse as sp\nfrom . import scipyish\n"
           "def f():\n    from scipy.optimize import minimize\n    return minimize\n")
    assert scipy_imports(src) == ["line 1", "line 4"]


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_scipy_import(path):
    assert scipy_imports(path.read_text()) == []


def modules_loaded_by_cli_import(prefix: str) -> str:
    """Modules named ``prefix`` or below it, after a fresh interpreter imports the CLI."""
    code = ("import sys; sys.path.insert(0, sys.argv[1]); import focalcal.cli; "
            "print(sorted(m for m in sys.modules if (m + '.').startswith(sys.argv[2] + '.')))")
    return subprocess.run([sys.executable, "-c", code, str(SRC), prefix], capture_output=True,
                          text=True, check=True).stdout.strip()


def test_cli_import_leaves_scipy_unloaded():
    # scipy takes about a second to import, and the package does not use it
    assert modules_loaded_by_cli_import("scipy") == "[]"


def test_cli_import_leaves_numpy_random_unloaded():
    # numpy loads numpy.random lazily, and importing it takes about 14 ms even
    # with a warm file cache (-X importtime); the libm probe that runs at
    # import draws its arguments without it
    assert modules_loaded_by_cli_import("numpy.random") == "[]"


# numpy's own exp, log and power may take SIMD loops whose bits differ by CPU;
# the package goes through ``_common.libm``, and only its ``_UFUNCS`` table names them
NUMPY_TRANSCENDENTALS = ("exp", "log", "power", "log1p", "expm1")


def numpy_transcendentals(source: str, allowed=()) -> list[str]:
    """``line N: np.f`` for each use of numpy's exp, log, power, log1p or expm1
    outside the top-level assignments to the names ``allowed``."""
    found = []
    for node in ast.parse(source).body:
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id in allowed for t in node.targets)):
            continue
        found += [(n.lineno, f"{n.value.id}.{n.attr}") for n in ast.walk(node)
                  if isinstance(n, ast.Attribute) and isinstance(n.value, ast.Name)
                  and n.value.id in ("np", "numpy") and n.attr in NUMPY_TRANSCENDENTALS]
    return [f"line {line}: {name}" for line, name in sorted(found)]


def test_checker_flags_numpy_transcendentals():
    src = ("import numpy as np\n_UFUNCS = {1: np.exp, 2: np.log}\n"
           "def f(x):\n    return np.log1p(x) + np.exp2(x)\n"
           "g = np.power\nh = numpy.expm1\n# np.log in a comment\n")
    assert numpy_transcendentals(src, ("_UFUNCS",)) == [
        "line 4: np.log1p", "line 5: np.power", "line 6: numpy.expm1"]
    assert numpy_transcendentals(src)[:2] == ["line 2: np.exp", "line 2: np.log"]


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_numpy_transcendentals_outside_libm(path):
    allowed = {"_common.py": ("_UFUNCS",)}.get(path.name, ())
    assert numpy_transcendentals(path.read_text(), allowed) == []
