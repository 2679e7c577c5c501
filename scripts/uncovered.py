"""Function-body statements of quelab that a pytest run never executes.

    python3 scripts/uncovered.py [pytest arguments ...]

Run from the repository root, it runs pytest in this process (arguments
default to `-q -p no:cacheprovider`, so `tests` is collected as in Tier-1)
under `sys.settrace`, recording line events only in frames whose code lives
in `src/quelab`, then prints, per source file, each run of sibling
statements inside a function body that never ran, as
`file:first[-last]  qualified.name`.  Module and class level statements are
left out: they run at import.  A statement counts as run when any line it
spans ran, so an `if` whose body never ran is reported by its body, not by
its test.  Lines that only a child interpreter runs (the tests that start
one) count as never run.  Exits with pytest's status.  Standard library
only.
"""
from __future__ import annotations

import ast
import sys
import threading
from pathlib import Path

_ROOT = Path(__file__).resolve().parent.parent
_PACKAGE = _ROOT / "src" / "quelab"


def _is_docstring(node: ast.stmt) -> bool:
    return (isinstance(node, ast.Expr) and isinstance(node.value, ast.Constant)
            and isinstance(node.value.value, str))


def _ran(node: ast.stmt, executed: set[int]) -> bool:
    return any(line in executed for line in range(node.lineno, node.end_lineno + 1))


def _child_bodies(node: ast.AST):
    """The statement lists directly inside a statement, with except and match arms."""
    for name in ("body", "orelse", "finalbody"):
        yield getattr(node, name, [])
    for arm in getattr(node, "handlers", []) + getattr(node, "cases", []):
        yield arm.body


def unexecuted(source: str, executed: set[int]) -> list[tuple[int, int, str]]:
    """(first line, last line, qualified name of the function) of each run of
    consecutive sibling statements in a function body of `source` that never
    ran, given the set of line numbers that did; a statement is reported only
    when its parent ran.  Docstrings and `global`/`nonlocal` declarations,
    which compile to no code, are skipped."""
    out: list[tuple[int, int, str]] = []

    def body(stmts: list[ast.stmt], name: str, in_function: bool) -> None:
        run: list[ast.stmt] = []
        for node in stmts + [None]:
            if node is None or not in_function or _ran(node, executed):
                if run:
                    out.append((run[0].lineno, run[-1].end_lineno, name))
                    run = []
                if node is not None:
                    visit(node, name, in_function)
            elif not (_is_docstring(node) or isinstance(node, (ast.Global, ast.Nonlocal))):
                run.append(node)

    def visit(node: ast.stmt, name: str, in_function: bool) -> None:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            inner = f"{name}.{node.name}" if name else node.name
            # a class body runs with its class statement; a function body on a call
            body(node.body, inner, in_function or not isinstance(node, ast.ClassDef))
            return
        for stmts in _child_bodies(node):
            body(stmts, name, in_function)

    body(ast.parse(source).body, "", False)
    return out


def _tracer(executed: dict[Path, set[int]]):
    """A global trace function that adds the line events of frames whose code
    lives in a file of `executed` to that file's set."""
    lines_of: dict[object, set[int] | None] = {}  # code object -> its file's set

    def local(frame, event, arg):
        if event == "line":
            lines_of[frame.f_code].add(frame.f_lineno)
        return local

    def trace(frame, event, arg):
        code = frame.f_code
        if code not in lines_of:
            lines_of[code] = executed.get(Path(code.co_filename).resolve())
        return local if lines_of[code] is not None else None

    return trace


def main(argv: list[str] | None = None) -> int:
    args = (sys.argv[1:] if argv is None else argv) or ["-q", "-p", "no:cacheprovider"]
    sys.path.insert(0, str(_PACKAGE.parent))
    import pytest

    executed = {p: set() for p in sorted(_PACKAGE.glob("*.py"))}
    trace = _tracer(executed)
    threading.settrace(trace)
    sys.settrace(trace)
    try:
        status = pytest.main(args)
    finally:
        sys.settrace(None)
        threading.settrace(None)
    total = 0
    for path, lines in executed.items():
        rel = path.relative_to(_ROOT)
        for first, last, name in unexecuted(path.read_text(), lines):
            span = f"{first}" if first == last else f"{first}-{last}"
            print(f"{rel}:{span}  {name}")
            total += last - first + 1
    print(f"{total} lines of function bodies never ran")
    return int(status)


if __name__ == "__main__":
    sys.exit(main())
