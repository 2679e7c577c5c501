"""The report of scripts/uncovered.py on a fixed source and line set."""
from __future__ import annotations

import importlib.util
from pathlib import Path

_PATH = Path(__file__).resolve().parent.parent / "scripts" / "uncovered.py"
_SPEC = importlib.util.spec_from_file_location("uncovered", _PATH)
uncovered = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(uncovered)

_SOURCE = '''\
import math
TOP = 1


def f(x):
    """Docstring."""
    global TOP
    if x > 0:
        y = math.sqrt(
            x)
    else:
        y = 0.0
        TOP = 2
    return y


class C:
    size = 3

    def g(self):
        try:
            return 1
        except ValueError:
            return 2

    def h(self):
        def inner():
            return 3
        return inner
'''


def test_reports_runs_of_statements_that_never_ran():
    # f ran with x > 0 (line 10 only: its statement starts on 9); g returned
    # from its try; h was never called; module and class level count as run
    executed = {8, 10, 14, 22}
    assert uncovered.unexecuted(_SOURCE, executed) == [
        (12, 13, "f"),
        (24, 24, "C.g"),
        (27, 29, "C.h"),
    ]


def test_reports_nested_function_bodies_by_qualified_name():
    # h ran and defined inner, which was never called
    executed = {8, 10, 14, 22, 27, 29}
    assert uncovered.unexecuted(_SOURCE, executed)[-1] == (28, 28, "C.h.inner")
    assert uncovered.unexecuted(_SOURCE, set(range(1, 30))) == []
