"""Static checks on the package sources."""
from __future__ import annotations

import ast
from pathlib import Path

import pytest

_SRC = sorted((Path(__file__).parent.parent / "src" / "quelab").glob("*.py"))


def _unused_imports(tree: ast.Module) -> list[str]:
    """Names bound by top-level imports that the module never reads.

    A name listed in __all__ counts as read: the module re-exports it.
    """
    bound: dict[str, int] = {}
    for node in tree.body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                bound[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)):
            used.update(ast.literal_eval(node.value))
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
