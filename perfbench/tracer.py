"""Spans around calls into hlcolor's public functions, recorded from outside.

``Tracer.install`` replaces every module attribute under ``hlcolor`` that holds
a traced function with a wrapper, so aliases made by ``from ... import`` (in
``cli``, in ``coloring``, in the package ``__init__``) and names imported at
call time (``transport_coloring``, ``linear_colorings``) all reach the
wrapper.  Spans stay in memory until ``write``.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
from collections import defaultdict

# (module, function, has traced children).  algebra and groups run inside the
# gfamily and mcqb spans.
TRACED = (
    ("cli", "main", True),
    ("structio", "parse_structure_file", False),
    ("diagram", "parse_diagram", False),
    ("diagram", "build_braid", False),
    ("gfamily", "associated_mcb", False),
    ("gfamily", "associated_mcq", False),
    ("gfamily", "qg_map", False),
    ("mcqb", "q_functor_mcb", False),
    ("coloring", "enumerate_colorings_mcb", False),
    ("coloring", "enumerate_colorings_mcq", False),
    ("coloring", "enumerate_flows", False),
    ("coloring", "colorings_by_flow", True),
    ("coloring", "linear_colorings", True),
    ("rings", "solve_linear", False),
    ("moves", "find_sites", True),
    ("moves", "apply_move", False),
    ("moves", "transport_coloring", True),
)

# ROADMAP baseline rows: the MCB and Q(X) searches of the GF(9) family on
# these diagrams, inside the count workload.
BASELINE_INSTANCE = "gf9-z8-family/{}"
BASELINE_DIAGRAMS = ("fig8", "stem-clasp", "stem-clasp-slid-under")

# The instance name of spans recorded during set-up.
SETUP = "(setup)"


def _counters(name: str, args, result) -> dict[str, int]:
    """Counts taken where the work happens, from a call's arguments and result."""
    if name in ("coloring.enumerate_colorings_mcb", "coloring.enumerate_colorings_mcq"):
        return {"coloring.colorings_found": result.count}
    if name == "coloring.enumerate_flows":
        return {"coloring.flows_found": len(result)}
    if name == "rings.solve_linear":
        rows = args[1]
        return {"rings.solve_linear.unknowns": len(rows[0]) if rows else 0}
    if name == "moves.find_sites":
        return {"moves.sites_found": len(result)}
    return {}


class Span:
    __slots__ = ("name", "parent", "instance", "start", "end", "child_s", "error", "counts")

    def __init__(self, name, parent, instance, start):
        self.name = name
        self.parent = parent
        self.instance = instance
        self.start = start
        self.end = start
        self.child_s = 0.0
        self.error = ""
        self.counts: dict[str, int] = {}

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.instance = SETUP
        self._stack: list[Span] = []
        self._patched: list[tuple[object, str, object]] = []

    def install(self) -> None:
        traced = {m: importlib.import_module(f"hlcolor.{m}") for m, _, _ in TRACED}
        modules = [m for n, m in sys.modules.items() if n == "hlcolor" or n.startswith("hlcolor.")]
        for modname, fname, _ in TRACED:
            original = getattr(traced[modname], fname)
            wrapper = self._wrap(f"{modname}.{fname}", original)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, wrapper)
                        self._patched.append((module, attr, original))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    def _wrap(self, name: str, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = self._stack[-1] if self._stack else None
            span = Span(name, parent, self.instance, time.perf_counter())
            self._stack.append(span)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                span.error = type(exc).__name__
                raise
            finally:
                span.end = time.perf_counter()
                self._stack.pop()
                if parent is not None:
                    parent.child_s += span.duration
                self.spans.append(span)
            span.counts = _counters(name, args, result)
            return result

        return wrapper

    def layer_metrics(self, passes: int) -> dict[str, tuple[float, str]]:
        """Per-layer metrics as (value, unit): set-up once plus the mean traced pass."""
        total: dict[str, float] = defaultdict(float)
        baseline_keys = {BASELINE_INSTANCE.format(d): d for d in BASELINE_DIAGRAMS}
        for span in self.spans:
            w = 1.0 if span.instance == SETUP else 1.0 / passes
            total[f"{span.name}.calls"] += w
            total[f"{span.name}.busy_s"] += w * span.duration
            total[f"{span.name}.self_s"] += w * (span.duration - span.child_s)
            for key, value in span.counts.items():
                total[key] += w * value
            if span.name == "moves.apply_move" and span.parent and span.parent.name == "moves.find_sites":
                total["moves.find_sites.tries"] += w
            elif span.name == "rings.solve_linear" and span.error == "DeadlineExceeded":
                total["rings.solve_linear.timeouts"] += w
            elif span.name == "moves.transport_coloring" and span.error:
                total["moves.transport_coloring.errors"] += w
            if span.instance in baseline_keys and span.name in (
                    "coloring.enumerate_colorings_mcb", "coloring.enumerate_colorings_mcq"):
                side = "mcb" if span.name.endswith("mcb") else "mcq"
                total[f"baseline.{baseline_keys[span.instance]}.{side}_s"] += w * span.duration
        out: dict[str, tuple[float, str]] = {}
        for modname, fname, has_children in TRACED:
            name = f"{modname}.{fname}"
            out[f"{name}.calls"] = (total[f"{name}.calls"], "count")
            out[f"{name}.busy_s"] = (total[f"{name}.busy_s"], "s")
            if has_children:
                out[f"{name}.self_s"] = (total[f"{name}.self_s"], "s")
        for key in ("coloring.colorings_found", "coloring.flows_found", "moves.sites_found",
                    "rings.solve_linear.unknowns", "rings.solve_linear.timeouts",
                    "moves.transport_coloring.errors"):
            out[key] = (total[key], "count")
        tries = total["moves.find_sites.tries"]
        out["moves.find_sites.hit_ratio"] = (total["moves.sites_found"] / tries if tries else 0.0,
                                             "ratio")
        for dname in BASELINE_DIAGRAMS:
            for side in ("mcb", "mcq"):
                key = f"baseline.{dname}.{side}_s"
                out[key] = (total[key], "s")
        return out

    def write(self, path: str) -> None:
        """One JSON line per span: id, parent id, instance, name, start, end, error."""
        ids = {id(span): i for i, span in enumerate(self.spans)}
        with open(path, "w", encoding="utf-8") as fh:
            for i, span in enumerate(self.spans):
                parent = ids.get(id(span.parent)) if span.parent is not None else None
                fh.write(json.dumps([i, parent, span.instance, span.name, round(span.start, 7),
                                     round(span.end, 7), span.error]) + "\n")
