"""In-memory span tracing of quelab's layers, installed from outside.

Every traced function is replaced by a wrapper in each module that holds a
binding to it: a module that did `from .zeta import dedekind_zeta` calls its
own binding, so patching only the defining module would count nothing.
A span records its name, start, end, parent span and row index; spans stay
in a list until the run ends.  Self time is a span's duration minus the
time covered by its direct children.
"""
from __future__ import annotations

import functools
import inspect
import json
import sys
import time

import numpy as np

# (metric prefix, attribute name, modules holding a binding); the first
# module defines the function.  The balanced K route is reported under the
# layer name the metrics use, k_balanced.
BINDINGS = (
    ("eisenstein.k_balanced", "_k_scaled_batch", ("quelab.eisenstein",)),
    ("specfun.bessel_K_many", "bessel_K_many", ("quelab.specfun", "quelab.eisenstein")),
    ("specfun.log_gamma", "log_gamma",
     ("quelab.specfun", "quelab.zeta", "quelab.eisenstein", "quelab._rs")),
    ("zeta.hurwitz_reg", "_hurwitz_reg", ("quelab.zeta",)),
    ("zeta.dirichlet_L", "dirichlet_L", ("quelab.zeta", "quelab.eisenstein")),
    ("zeta.dedekind_zeta", "dedekind_zeta",
     ("quelab.zeta", "quelab.eisenstein", "quelab.mass")),
    ("zeta.scattering_phi_K", "scattering_phi_K", ("quelab.zeta", "quelab.eisenstein")),
    ("zeta.zeta_moment", "zeta_moment", ("quelab.zeta", "quelab.cli")),
    ("lattice.divisor_sigma", "divisor_sigma", ("quelab.lattice", "quelab.eisenstein")),
    ("lattice.enumerate_by_norm", "enumerate_by_norm",
     ("quelab.lattice", "quelab.eisenstein")),
    ("eisenstein.h3_term_table", "_h3_term_table", ("quelab.eisenstein",)),
    ("eisenstein.eis_h2_heegner", "eis_h2_heegner", ("quelab.eisenstein",)),
    ("eisenstein.lower_bound_avg", "lower_bound_avg", ("quelab.eisenstein", "quelab.cli")),
    ("selberg.h_char", "h_char",
     ("quelab.selberg", "quelab.mass", "quelab.eisenstein", "quelab.cli")),
    ("selberg.h_closed_h3", "h_closed_h3", ("quelab.selberg", "quelab.cli")),
    ("geometry.ball_quadrature", "ball_quadrature",
     ("quelab.geometry", "quelab.mass", "quelab.selberg")),
    ("geometry.sample_ball", "sample_ball", ("quelab.geometry", "quelab.mass")),
    ("mass.ball_mass", "ball_mass", ("quelab.mass", "quelab.cli")),
)

# (metric prefix, module, class, method)
METHODS = (
    ("eisenstein.EisensteinH2.value", "quelab.eisenstein", "EisensteinH2", "value"),
    ("eisenstein.EisensteinH3.value", "quelab.eisenstein", "EisensteinH3", "value"),
    ("zeta.ZetaBackend.zeta", "quelab.zeta", "ZetaBackend", "zeta"),
)

ROW = "cli.row"
RUN = "cli.run_experiment"


def _xs_count(args, kwargs) -> int:
    xs = args[1] if len(args) > 1 else kwargs.get("xs")
    return int(np.size(xs))


class Tracer:
    """Span recorder; one per traced process."""

    def __init__(self) -> None:
        self.spans: list = []   # (name, start, end, parent, row); parent -1 = root
        self._stack: list[int] = []
        self.row = -1
        self._rows = 0
        self.calls: dict[str, int] = {}
        self.errors: dict[str, int] = {}
        self.args: dict[str, int] = {}
        self.hits: dict[str, int] = {}
        self.points = 0
        self.missing: list[str] = []

    def span(self, name: str, fn, counter=None, is_row: bool = False):
        """Wrap fn; counter(args, kwargs, call) may add counts around the call."""
        self.calls.setdefault(name, 0)
        self.errors.setdefault(name, 0)
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if is_row:
                self.row, self._rows = self._rows, self._rows + 1
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            self.calls[name] += 1
            start = clock()
            try:
                if counter is None:
                    return fn(*args, **kwargs)
                return counter(args, kwargs, lambda: fn(*args, **kwargs))
            except BaseException:
                self.errors[name] += 1
                raise
            finally:
                end = clock()
                stack.pop()
                spans[idx] = (name, start, end, parent, self.row)
                if is_row:
                    self.row = -1

        return wrapper

    # -- counters that need more than a call count -------------------------

    def _count_args(self, name):
        self.args[name] = 0

        def counter(args, kwargs, call):
            self.args[name] += _xs_count(args, kwargs)
            return call()
        return counter

    def _count_cache_growth(self, name):
        # a ZetaBackend call hit its cache iff the cache did not grow
        self.hits[name] = 0

        def counter(args, kwargs, call):
            before = args[0].cache_size()
            out = call()
            if args[0].cache_size() == before:
                self.hits[name] += 1
            return out
        return counter

    def _count_lru_hits(self, name, cached):
        self.hits[name] = 0

        def counter(args, kwargs, call):
            before = cached.cache_info().hits
            out = call()
            self.hits[name] += cached.cache_info().hits - before
            return out
        return counter

    def _count_sampled(self, args, kwargs, call):
        out = call()
        self.points += len(out)
        return out

    def _count_nodes(self, fn):
        sig = inspect.signature(fn)

        def counter(args, kwargs, call):
            bound = sig.bind(*args, **kwargs)
            bound.apply_defaults()
            self.points += bound.arguments["order"] ** bound.arguments["ball"].dimension
            return call()
        return counter

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        """Patch every binding listed in BINDINGS and METHODS."""
        for name, attr, modules in BINDINGS:
            original = getattr(sys.modules[modules[0]], attr, None)
            if original is None:
                self.missing.append(name)
                continue
            if name in ("eisenstein.k_balanced", "specfun.bessel_K_many"):
                counter = self._count_args(name)
            elif name == "eisenstein.h3_term_table":
                counter = self._count_lru_hits(name, original)
            elif name == "geometry.ball_quadrature":
                counter = self._count_nodes(original)
            elif name == "geometry.sample_ball":
                counter = self._count_sampled
            else:
                counter = None
            wrapped = self.span(name, original, counter)
            for mod_name in modules:
                mod = sys.modules[mod_name]
                if getattr(mod, attr, None) is original:
                    setattr(mod, attr, wrapped)
                else:
                    self.missing.append(f"{name}@{mod_name}")
        for name, mod_name, cls_name, meth in METHODS:
            cls = getattr(sys.modules[mod_name], cls_name, None)
            if cls is None or not hasattr(cls, meth):
                self.missing.append(name)
                continue
            counter = self._count_cache_growth(name) if cls_name == "ZetaBackend" else None
            setattr(cls, meth, self.span(name, getattr(cls, meth), counter))
        cli = sys.modules["quelab.cli"]
        cli._compute_row = self.span(ROW, cli._compute_row, is_row=True)

    # -- results -------------------------------------------------------------

    def self_times(self) -> list[float]:
        """Per-span self time, in span order."""
        out = [end - start for _, start, end, _, _ in self.spans]
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                out[parent] -= end - start
        return out

    def summary(self) -> dict:
        """Per-layer stats: calls, errors, args, hits and self time by name."""
        self_s: dict[str, float] = {}
        for (name, *_), st in zip(self.spans, self.self_times()):
            self_s[name] = self_s.get(name, 0.0) + st
        return {"calls": self.calls, "errors": self.errors, "args": self.args,
                "hits": self.hits, "self_s": self_s, "points": self.points,
                "missing": self.missing}

    def dump(self, path: str) -> None:
        """Write every span as one JSON line: name, start, end, parent, row, self."""
        with open(path, "w") as fh:
            for (name, start, end, parent, row), st in zip(self.spans, self.self_times()):
                fh.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent, "row": row, "self": st}) + "\n")
