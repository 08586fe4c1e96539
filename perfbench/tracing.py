"""Spans and counts recorded at mudd's module boundaries, from outside.

`Tracer.install()` replaces each wrapped function on every `mudd` module
that binds it, because `cli`, `feasibility`, `geometry` and `exploration`
bind some of them by `from ... import`.  `uninstall()` puts the originals
back.  Spans (name, start, end, parent) and counts stay in memory until
`dump()`.  A layer's self time is its duration minus the part of it that
its child spans cover.

`linprog.solve_equality_form` is attributed to its caller: inside
`linprog.feasible_point` (the box LP) it opens no span of its own, and
everywhere else (interior removal, cone membership) it is the
`linprog.membership` span.
"""
from __future__ import annotations

import json
import sys
import time
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Optional


@dataclass
class Span:
    name: str
    start: float
    end: float = 0.0
    parent: Optional[int] = None


def _bits(x) -> int:
    f = x if isinstance(x, Fraction) else Fraction(x)
    return max(f.numerator.bit_length(), f.denominator.bit_length())


class Tracer:
    """Wraps mudd's public layer functions; one instance per traced pass."""

    def __init__(self):
        self.spans: list[Span] = []
        self.counts: dict[str, float] = {}
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    def add(self, name: str, value: float = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + value

    def peak(self, name: str, value: float) -> None:
        self.counts[name] = max(self.counts.get(name, 0), value)

    def _parent_name(self) -> Optional[str]:
        return self.spans[self._stack[-1]].name if self._stack else None

    def call(self, name: Optional[str], fn: Callable, args, kwargs):
        if name is None:
            return fn(*args, **kwargs)
        idx = len(self.spans)
        self.spans.append(Span(name, time.perf_counter(),
                               parent=self._stack[-1] if self._stack else None))
        self._stack.append(idx)
        try:
            return fn(*args, **kwargs)
        finally:
            self._stack.pop()
            self.spans[idx].end = time.perf_counter()

    # -- wrappers ----------------------------------------------------------

    def _wrappers(self, mudd) -> list[tuple[object, str, Callable]]:
        """(module, attribute, wrapper factory) for each wrapped function."""
        t = self

        def plain(name, after=None):
            def make(fn):
                def wrapper(*args, **kwargs):
                    out = t.call(name, fn, args, kwargs)
                    if after is not None:
                        after(args, out)
                    return out
                return wrapper
            return make

        def lp_sizes(args):
            A, b, num_vars = args[0], args[1], args[2]
            t.peak("linprog.rows", len(A))
            t.peak("linprog.cols", num_vars)
            bits = max((_bits(x) for row in A for x in row if x), default=0)
            bits = max([bits] + [_bits(x) for x in b if x])
            t.peak("linprog.input_bits", bits)

        def solve(fn):
            def wrapper(*args, **kwargs):
                lp_sizes(args)
                if t._parent_name() == "linprog.box":
                    return fn(*args, **kwargs)
                t.add("linprog.membership_calls")
                return t.call("linprog.membership", fn, args, kwargs)
            return wrapper

        def verdict(args, v):
            t.add("feasibility.cells")
            if not v.feasible:
                t.add("feasibility.infeasible")
                if not v.violated_constraints:
                    t.add("feasibility.unexplained")

        return [
            (mudd.cli, "main", plain("cli.main")),
            (mudd.dsl, "parse_file", plain("dsl.parse")),
            (mudd.model, "enumerate_mupaths",
             plain("model.enumerate", lambda a, out: t.add("model.paths", len(out)))),
            (mudd.geometry, "constraints_from_signatures",
             plain("geometry.deduce",
                   lambda a, out: t.add("geometry.facets", len(out.inequalities)))),
            (mudd.geometry, "find_equalities",
             plain("geometry.equalities",
                   lambda a, out: t.add("geometry.generators", len(a[0])))),
            (mudd.geometry, "remove_interior_generators",
             plain("geometry.interior",
                   lambda a, out: t.add("geometry.extreme_rays", len(out)))),
            (mudd.geometry, "conic_hull_facets", plain("geometry.hull")),
            (mudd.hull, "convex_hull_hyperplanes", plain("hull.hull")),
            (mudd.linprog, "feasible_point",
             plain("linprog.box", lambda a, out: t.add("linprog.box_calls"))),
            (mudd.linprog, "solve_equality_form", solve),
            (mudd.stats, "load_observations", plain("stats.load")),
            (mudd.stats, "build_confidence_region", plain("stats.region")),
            (mudd.feasibility, "check_feasibility", plain("feasibility.check", verdict)),
            (mudd.feasibility, "attribute_violations", plain("feasibility.attribute")),
            (mudd.feasibility, "batch_check", plain("feasibility.batch")),
            (mudd.exploration, "cone_expansion_check",
             plain("exploration.expansion", lambda a, out: t.add("exploration.edges"))),
            (mudd.geometry, "cone_membership",
             plain(None, lambda a, out: t.add("exploration.membership_checks"))),
        ]

    def install(self) -> None:
        import mudd.cli  # noqa: F401  (loads every module wrapped below)

        mudd = sys.modules["mudd"]
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == "mudd" or n.startswith("mudd."))]
        for home, attr, make in self._wrappers(mudd):
            original = getattr(home, attr)
            wrapper = make(original)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._saved.append((module, key, value))
                        setattr(module, key, wrapper)

    def uninstall(self) -> None:
        for module, key, value in reversed(self._saved):
            setattr(module, key, value)
        self._saved.clear()

    # -- results -----------------------------------------------------------

    def total(self, name: str) -> float:
        return sum(s.end - s.start for s in self.spans if s.name == name)

    def self_time(self, name: str) -> float:
        """Summed duration of `name` spans minus their children's coverage."""
        children: dict[int, list[Span]] = {}
        for s in self.spans:
            if s.parent is not None:
                children.setdefault(s.parent, []).append(s)
        out = 0.0
        for i, s in enumerate(self.spans):
            if s.name != name:
                continue
            covered, reach = 0.0, s.start
            for c in sorted(children.get(i, ()), key=lambda c: c.start):
                lo, hi = max(c.start, reach), min(c.end, s.end)
                if hi > lo:
                    covered += hi - lo
                    reach = hi
            out += (s.end - s.start) - covered
        return out

    def under(self, name: str, ancestor: str) -> float:
        """Summed duration of `name` spans that have an `ancestor` span above them."""
        out = 0.0
        for s in self.spans:
            if s.name != name:
                continue
            p = s.parent
            while p is not None and self.spans[p].name != ancestor:
                p = self.spans[p].parent
            if p is not None:
                out += s.end - s.start
        return out

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({
                "spans": [[s.name, s.start, s.end, s.parent] for s in self.spans],
                "counts": self.counts,
            }, fh)
