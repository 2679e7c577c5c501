"""Static checks on the package sources."""
from __future__ import annotations

import ast
import importlib
import json
import subprocess
import sys
from pathlib import Path

import pytest

_ROOT = Path(__file__).parent.parent
_SRC = sorted((_ROOT / "src" / "quelab").glob("*.py"))


def _exports(tree: ast.Module) -> list[str]:
    """The names listed in the module's __all__, in order."""
    names: list[str] = []
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)):
            names.extend(ast.literal_eval(node.value))
    return names


def _imported(tree: ast.Module) -> dict[str, int]:
    """Names bound by top-level imports, with the line that binds each."""
    bound: dict[str, int] = {}
    for node in tree.body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                bound[alias.asname or alias.name] = node.lineno
    return bound


def _unused_imports(tree: ast.Module) -> list[str]:
    """Names bound by top-level imports that the module never reads.

    A name listed in __all__ counts as read: the module re-exports it.
    """
    bound = _imported(tree)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    used.update(_exports(tree))
    return [f"line {line}: {name}" for name, line in sorted(bound.items(), key=lambda kv: kv[1])
            if name not in used]


@pytest.mark.parametrize("path", _SRC, ids=[p.name for p in _SRC])
def test_no_unused_top_level_imports(path):
    unused = _unused_imports(ast.parse(path.read_text(), filename=str(path)))
    assert not unused, f"{path.name} imports names it never uses: {unused}"


def test_unused_import_check_sees_orphans():
    tree = ast.parse("import os\nimport numpy as np\nfrom .a import b, c as d\n"
                     "from __future__ import annotations\n__all__ = ['b']\nnp.sum(0)\n")
    assert _unused_imports(tree) == ["line 1: os", "line 3: d"]


def _stale_exports(tree: ast.Module) -> list[str]:
    """Names in __all__ that no top-level statement of the module binds."""
    bound = set(_imported(tree))
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            bound.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            bound.update(n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name))
    return [name for name in _exports(tree) if name not in bound]


@pytest.mark.parametrize("path", _SRC, ids=[p.name for p in _SRC])
def test_all_names_are_bound(path):
    stale = _stale_exports(ast.parse(path.read_text(), filename=str(path)))
    assert not stale, f"{path.name} lists names in __all__ it never binds: {stale}"


def test_export_check_sees_stale_names():
    tree = ast.parse("from .a import b\nc, d = 1, 2\nK: int = 3\nclass E: pass\n"
                     "def f(): g = 1\n__all__ = ['b', 'c', 'd', 'K', 'E', 'f', 'g', 'Gone']\n")
    assert _stale_exports(tree) == ["g", "Gone"]


def _caches_without_maxsize(tree: ast.Module, namespace: dict) -> list[str]:
    """Top-level functions cached by functools without a finite integer maxsize.

    The decorator must pass maxsize itself (bare `lru_cache` and `cache` do
    not); its value is read from the function that `namespace` binds.
    """
    bad: list[str] = []
    for node in tree.body:
        if not isinstance(node, ast.FunctionDef):
            continue
        for dec in node.decorator_list:
            target = dec.func if isinstance(dec, ast.Call) else dec
            name = target.attr if isinstance(target, ast.Attribute) else getattr(target, "id", "")
            if name not in ("lru_cache", "cache"):
                continue
            size = namespace[node.name].cache_parameters()["maxsize"]
            passed = isinstance(dec, ast.Call) and bool(
                dec.args or any(k.arg == "maxsize" for k in dec.keywords))
            if not (passed and isinstance(size, int)):
                bad.append(f"{node.name}: maxsize={size!r}" + ("" if passed else " by default"))
    return bad


@pytest.mark.parametrize("path", _SRC, ids=[p.name for p in _SRC])
def test_every_lru_cache_is_bounded(path):
    module = importlib.import_module(f"quelab.{path.stem}")
    tree = ast.parse(path.read_text(), filename=str(path))
    unsized = _caches_without_maxsize(tree, vars(module))
    assert not unsized, f"{path.name} has caches without a finite maxsize: {unsized}"


def test_cache_check_sees_a_missing_maxsize():
    source = ("import functools\nfrom functools import lru_cache, cache\nLEVELS = (1, 2)\n"
              "@lru_cache(maxsize=None)\ndef a(n): return n\n"
              "@functools.lru_cache(maxsize=len(LEVELS))\ndef b(n): return n\n"
              "@cache\ndef c(n): return n\n"
              "@functools.lru_cache\ndef d(n): return n\n"
              "def e(n): return n\n")
    namespace: dict = {}
    exec(compile(source, "<fixture>", "exec"), namespace)
    assert _caches_without_maxsize(ast.parse(source), namespace) == [
        "a: maxsize=None", "c: maxsize=None by default", "d: maxsize=128 by default"]


# Installs perfbench's tracer in a fresh interpreter and prints the bindings
# it could not find; `prepare` runs after the import, before the install.
_TRACER_PROBE = """
import json, sys
sys.path[:0] = [{perfbench!r}, {src!r}]
import quelab.cli
from tracing import Tracer
{prepare}
tracer = Tracer()
tracer.install()
print(json.dumps(tracer.missing))
"""


def _missing_bindings(prepare: str = "") -> list[str]:
    code = _TRACER_PROBE.format(perfbench=str(_ROOT / "perfbench"), src=str(_ROOT / "src"),
                                prepare=prepare)
    done = subprocess.run([sys.executable, "-B", "-c", code], capture_output=True, text=True,
                          timeout=120)
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.splitlines()[-1])


def test_perfbench_tracer_finds_every_binding():
    # the benchmark's per-layer metrics patch these names; a rename or a
    # deleted import would otherwise only show up as a benchmark warning
    assert _missing_bindings() == []


def test_binding_check_sees_a_deleted_binding():
    missing = _missing_bindings("import quelab.selberg\ndel quelab.selberg.ball_quadrature")
    assert missing == ["geometry.ball_quadrature@quelab.selberg"]


# Evaluates one table-route ball on H^2 and one on Z[i], one cosh-route ball
# (t < 8) and one `value` call on each surface in a fresh interpreter, and
# prints which of the named numpy modules got imported; `prepare` runs after
# the quelab imports.
_MODULE_PROBE = """
import json, sys
sys.path.insert(0, {src!r})
from quelab.eisenstein import EisensteinH2, EisensteinH3
from quelab.geometry import GeodesicBall, PointH2, PointH3
from quelab.lattice import ImagQuadField
from quelab.mass import ball_mass
{prepare}
qi = EisensteinH3(ImagQuadField(-1))
ball_mass(2, GeodesicBall(2, PointH2(0.1, 1.2), 0.4), 12.0, EisensteinH2(), order=10)
ball_mass(3, GeodesicBall(3, PointH3(0.1 + 0.05j, 1.2), 0.4), 9.0, qi, order=6)
ball_mass(2, GeodesicBall(2, PointH2(0.1, 1.2), 0.4), 5.0, EisensteinH2(), order=10)
EisensteinH2().value(PointH2(0.1, 1.2), 0.5 + 12j)
qi.value(PointH3(0.1 + 0.05j, 1.2), 1.0 + 9j)
print(json.dumps([name for name in ("numpy.fft", "numpy.ma") if name in sys.modules]))
"""


def _heavy_numpy_modules(prepare: str = "") -> list[str]:
    code = _MODULE_PROBE.format(src=str(_ROOT / "src"), prepare=prepare)
    done = subprocess.run([sys.executable, "-B", "-c", code], capture_output=True, text=True,
                          timeout=120)
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.splitlines()[-1])


def test_table_route_balls_import_no_heavy_numpy_module():
    # numpy.fft adds about 0.7 MB and numpy.ma about 1.6 MB to the benchmark's
    # peak RSS; on numpy 2.4 a bare np.unique(a) loads numpy.ma, while
    # np.unique with return_inverse or return_counts does not
    assert _heavy_numpy_modules() == []


def test_module_check_sees_an_import():
    assert _heavy_numpy_modules("import numpy.fft") == ["numpy.fft"]
