"""In-memory span tracer installed around caldesign's public functions.

A span records its name, start, end, parent span and solve id.  Spans are
installed from outside the library by replacing module and class attributes
(``caldesign.lp_core.solve``, ``caldesign.fptas.build_disc_lp``, ...); every
call goes through the wrapper because ``exact``, ``fptas`` and ``cli`` look
these names up at call time.  Spans stay in memory until the run writes them
out.  A span's self time is its duration minus the part of it that its
children cover.
"""

from __future__ import annotations

import functools
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass, field

import numpy as np


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    solve_id: int | None
    failed: bool = False
    attrs: dict = field(default_factory=dict)


class Tracer:
    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[Span] = []
        self.solve_id: int | None = None
        self._open: list[int] = []

    @contextmanager
    def span(self, name, **attrs):
        parent = self._open[-1] if self._open else None
        index = len(self.spans)
        span = Span(name, self.clock(), float("nan"), parent, self.solve_id,
                    attrs=attrs)
        self.spans.append(span)
        self._open.append(index)
        try:
            yield span
        except BaseException:
            span.failed = True
            raise
        finally:
            span.end = self.clock()
            self._open.pop()

    def enclosing(self, name):
        """Innermost open span called ``name``, or None."""
        for index in reversed(self._open):
            if self.spans[index].name == name:
                return self.spans[index]
        return None

    def self_times(self):
        """Per span: duration minus the union of its children's intervals."""
        children = defaultdict(list)
        for span in self.spans:
            if span.parent is not None:
                children[span.parent].append((span.start, span.end))
        out = []
        for index, span in enumerate(self.spans):
            covered = 0.0
            reach = span.start
            for start, end in sorted(children[index]):
                start, end = max(start, reach), min(end, span.end)
                if end > start:
                    covered += end - start
                    reach = end
            out.append(span.end - span.start - covered)
        return out

    def to_records(self):
        return [{"name": s.name, "start": s.start, "end": s.end,
                 "parent": s.parent, "solve_id": s.solve_id,
                 "failed": s.failed, **s.attrs} for s in self.spans]


class Patches:
    """Attribute replacements that can be undone in reverse order."""

    def __init__(self):
        self._undo = []

    def replace(self, owner, attr, new):
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, new)

    def restore(self):
        while self._undo:
            owner, attr, old = self._undo.pop()
            setattr(owner, attr, old)


def traced(tracer, name, func, before=None, after=None):
    """Wrap ``func`` in a span; ``before(args)`` returns span attributes and
    runs outside the span, ``after(span, args, result)`` annotates it."""

    @functools.wraps(func)
    def wrapper(*args, **kwargs):
        attrs = before(args) if before else {}
        with tracer.span(name, **attrs) as span:
            result = func(*args, **kwargs)
            if after:
                after(span, args, result)
            return result

    return wrapper


# Layer name -> (module path, attribute) pairs wrapped for it.  exact.refine
# is not wrapped: it is the lp_core.solve calls after the first inside one
# exact.solve span, because _refine_for_agent is private.
LAYERS = {
    "cli": [("cli", "main")],
    "model.validate": [("model", "validate_instance"),
                       ("model.Instance", "with_epsilon")],
    "model.eval": [("model", "ece"), ("model", "payoff"),
                   ("model", "agent_payoff")],
    "fptas.grid": [("fptas", "build_grid")],
    "fptas.build": [("fptas", "build_disc_lp")],
    "fptas.convert": [("fptas.PlanColumns", "plan"),
                      ("fptas", "plan_to_predictor")],
    "exact.build": [("exact", "build_actrec_lp")],
    "exact.refine": [],
    "exact.convert": [("exact", "strategy_to_predictor")],
    "lp_core.solve": [("lp_core", "solve")],
}
# Solver entry points; their self time is solver code outside every layer.
ENTRY_SPANS = {"exact.solve": ("exact", "solve_exact"),
               "fptas.solve": ("fptas", "fptas_solve")}


def _resolve(package, path):
    obj = package
    for part in path.split("."):
        obj = getattr(obj, part)
    return obj


def _lp_shape(args):
    lp = args[0]
    rows = len(lp.constraints)
    nnz = sum(int(np.count_nonzero(coeffs)) for coeffs, _, _ in lp.constraints)
    return {"rows": rows, "cols": lp.num_vars, "nnz": nnz}


def instrument(tracer, package):
    """Wrap every layer of ``package`` (the imported caldesign); returns the
    :class:`Patches` whose ``restore()`` removes the wrappers."""
    patches = Patches()

    def mark_exit_code(span, args, result):
        span.failed = result != 0

    def note_grid(span, args, result):
        span.attrs["grid_points"] = int(result.size)

    def note_plan(span, args, result):
        span.attrs["cols_built"] = int(np.size(args[1]))
        span.attrs["cols_used"] = len(result)

    def lp_shape_and_stage(args):
        attrs = _lp_shape(args)
        outer = tracer.enclosing("exact.solve")
        if outer is not None:
            attrs["refine"] = outer.attrs["lp_solves"] > 0
            outer.attrs["lp_solves"] += 1
        return attrs

    def open_solve(args):
        return {"lp_solves": 0}

    hooks = {"cli.main": (None, mark_exit_code),
             "exact.solve_exact": (open_solve, None),
             "fptas.build_grid": (None, note_grid),
             "fptas.PlanColumns.plan": (None, note_plan),
             "lp_core.solve": (lp_shape_and_stage, None)}
    targets = [(layer, path, attr) for layer, pairs in LAYERS.items()
               for path, attr in pairs]
    targets += [(name, path, attr) for name, (path, attr) in ENTRY_SPANS.items()]
    for name, path, attr in targets:
        owner = _resolve(package, path)
        before, after = hooks.get(f"{path}.{attr}", (None, None))
        patches.replace(owner, attr, traced(tracer, name,
                                            owner.__dict__[attr],
                                            before, after))
    return patches


def layer_metrics(tracer):
    """Per-layer calls, self time and failures plus LP-shape and ratio
    metrics, keyed by metric name."""
    selfs = tracer.self_times()
    calls = defaultdict(int)
    self_s = defaultdict(float)
    failed = defaultdict(int)

    def add(layer, span, seconds):
        calls[layer] += 1
        self_s[layer] += seconds
        failed[layer] += int(span.failed)

    rows = cols = grid_points = 0
    nnz = dense_bytes = cols_built = cols_used = 0
    for span, seconds in zip(tracer.spans, selfs):
        add(span.name, span, seconds)
        if span.name == "lp_core.solve":
            rows = max(rows, span.attrs["rows"])
            cols = max(cols, span.attrs["cols"])
            nnz += span.attrs["nnz"]
            dense_bytes += span.attrs["rows"] * span.attrs["cols"] * 8
            if span.attrs.get("refine"):
                add("exact.refine", span, seconds)
        elif span.name == "fptas.grid":
            grid_points = max(grid_points, span.attrs["grid_points"])
        elif span.name == "fptas.convert" and "cols_built" in span.attrs:
            cols_built += span.attrs["cols_built"]
            cols_used += span.attrs["cols_used"]

    out = {}
    for layer in list(LAYERS) + list(ENTRY_SPANS):
        out[f"{layer}.calls"] = (calls[layer], "count")
        out[f"{layer}.self_s"] = (self_s[layer], "s")
        out[f"{layer}.failed"] = (failed[layer], "count")
    refine_calls = calls["exact.refine"]
    out.update({
        "lp_core.rows.max": (rows, "count"),
        "lp_core.cols.max": (cols, "count"),
        "lp_core.nnz.sum": (nnz, "count"),
        "lp_core.dense_bytes.sum": (dense_bytes, "bytes"),
        "fptas.grid_points.max": (grid_points, "count"),
        "fptas.cols_used_ratio": (cols_used / cols_built if cols_built else 0.0,
                                  "ratio"),
        "exact.refine_ok_ratio": (
            (refine_calls - failed["exact.refine"]) / refine_calls
            if refine_calls else 0.0, "ratio"),
    })
    bases = {"fptas.cols_used_ratio": [cols_used, cols_built],
             "exact.refine_ok_ratio": [refine_calls - failed["exact.refine"],
                                       refine_calls],
             "self_s.total": sum(selfs)}
    return out, bases
