"""Span tracer that times calls into nlsground's public functions from outside.

The package binds names with ``from .x import y``, so one function object
is reachable from several module namespaces.  ``Tracer.patch`` replaces the
function in every ``nlsground`` namespace that bound it, and the two
``FiberValues`` methods on the class itself; ``Tracer.unpatch`` puts every
original back.  Spans are kept in memory and written out by the caller.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import itertools
import json
import sys
import time
from dataclasses import dataclass

PACKAGE = "nlsground"

# layer name -> (module, attribute); a dotted attribute is a method patched
# on its class
TARGETS = {
    "cli.run": ("nlsground.cli", "run"),
    "grid.make_grid": ("nlsground.grid", "make_grid"),
    "grid.pde_residual": ("nlsground.grid", "pde_residual"),
    "grid.dilate": ("nlsground.grid", "dilate"),
    "model.run_condition_suite": ("nlsground.model", "run_condition_suite"),
    "functionals.fiber_values": ("nlsground.functionals", "fiber_values"),
    "functionals.FiberValues.pohozaev_at": ("nlsground.functionals",
                                            "FiberValues.pohozaev_at"),
    "functionals.FiberValues.energy_at": ("nlsground.functionals",
                                          "FiberValues.energy_at"),
    "manifold.project_to_M": ("nlsground.manifold", "project_to_M"),
    "manifold.lambda_membership": ("nlsground.manifold", "lambda_membership"),
    "solver.shoot_oracle": ("nlsground.solver", "shoot_oracle"),
    "solver.solve_fiber_descent": ("nlsground.solver", "solve_fiber_descent"),
    "solver.solve_limit_BL": ("nlsground.solver", "solve_limit_BL"),
    "solver.sweep_lambda": ("nlsground.solver", "sweep_lambda"),
    "verify.run_suite": ("nlsground.verify", "run_suite"),
}

# layers whose spans record how many fiber points t one call evaluates
POINT_LAYERS = ("functionals.FiberValues.pohozaev_at",
                "functionals.FiberValues.energy_at")
SHOT_LAYER = "solver.shoot_oracle"
PROJECTION_LAYER = "manifold.project_to_M"
P_LAYER = "functionals.FiberValues.pohozaev_at"


@dataclass
class Span:
    span_id: int
    name: str
    start: float
    end: float
    parent: int | None
    run_id: str
    points: int = 0
    key: tuple | None = None     # shot identity, for repeat_frac

    @property
    def duration(self) -> float:
        return self.end - self.start


def _fiber_points(args, kwargs) -> int:
    import numpy as np

    t = args[1] if len(args) > 1 else kwargs["t"]
    return int(np.atleast_1d(np.asarray(t)).size)


def _grid_key(grid):
    return None if grid is None else (grid.N, grid.r_max, grid.n)


def _shot_key(signature):
    """Identity of a shot: (v_inf, f params, N, lam, grid)."""
    def key(args, kwargs):
        bound = signature.bind(*args, **kwargs)
        bound.apply_defaults()
        a = bound.arguments
        f = a["f"]
        return (float(a["v_inf"]), f.family, tuple(sorted(f.params.items())),
                int(a["N"]), float(a["lam"]), _grid_key(a["grid"]))
    return key


class Tracer:
    """In-memory spans around the functions named in ``TARGETS``."""

    def __init__(self, targets=None):
        self.targets = dict(TARGETS if targets is None else targets)
        self.spans: list[Span] = []
        self.run_id = ""
        self.wrappers: dict[str, object] = {}
        self._stack: list[int] = []
        self._ids = itertools.count(1)
        self._restore: list[tuple] = []    # (owner, attribute, original)

    # ----- span recording -------------------------------------------

    def wrap(self, name, fn, points=None, key=None):
        """Return a wrapper of ``fn`` that records one span per call."""
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span_id = next(self._ids)
            parent = self._stack[-1] if self._stack else None
            n_points = points(args, kwargs) if points else 0
            span_key = key(args, kwargs) if key else None
            self._stack.append(span_id)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self._stack.pop()
                self.spans.append(Span(span_id, name, start, end, parent,
                                       self.run_id, n_points, span_key))

        return wrapper

    # ----- patching -------------------------------------------------

    def patch(self):
        """Install a wrapper wherever a target is bound in the package."""
        if self._restore:
            raise RuntimeError("tracer is already patched")
        modules = [m for name, m in sorted(sys.modules.items())
                   if m is not None
                   and (name == PACKAGE or name.startswith(PACKAGE + "."))]
        for name, (mod_name, attr) in self.targets.items():
            module = importlib.import_module(mod_name)
            points = _fiber_points if name in POINT_LAYERS else None
            if "." in attr:
                cls_name, meth = attr.split(".")
                owner = getattr(module, cls_name)
                original = owner.__dict__[meth]
                wrapper = self.wrap(name, original, points)
                self._restore.append((owner, meth, original))
                setattr(owner, meth, wrapper)
            else:
                original = getattr(module, attr)
                key = (_shot_key(inspect.signature(original))
                       if name == SHOT_LAYER else None)
                wrapper = self.wrap(name, original, points, key)
                for mod in modules:
                    for binding, value in list(vars(mod).items()):
                        if value is original:
                            self._restore.append((mod, binding, original))
                            setattr(mod, binding, wrapper)
            self.wrappers[name] = wrapper

    def unpatch(self):
        """Put every original function back where it was bound."""
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore = []
        self.wrappers = {}

    def __enter__(self):
        self.patch()
        return self

    def __exit__(self, *exc):
        self.unpatch()
        return False

    # ----- output ---------------------------------------------------

    def write_jsonl(self, path):
        with open(path, "w") as fh:
            for s in self.spans:
                fh.write(json.dumps({
                    "id": s.span_id, "name": s.name, "start": s.start,
                    "end": s.end, "parent": s.parent, "run_id": s.run_id,
                    "points": s.points}) + "\n")


def summarize(spans) -> dict:
    """Per-layer totals: calls, inclusive s, self s, points, and ratios.

    Inclusive time counts only the outermost span of a name, so a layer
    that re-enters itself is not counted twice.  Self time is a span's
    duration minus that of its direct children.
    """
    by_id = {s.span_id: s for s in spans}
    child_time = {}
    for s in spans:
        if s.parent is not None:
            child_time[s.parent] = child_time.get(s.parent, 0.0) + s.duration

    def ancestors(s):
        while s.parent is not None:
            s = by_id[s.parent]
            yield s

    out = {}
    for name in TARGETS:
        out[name] = {"calls": 0, "s": 0.0, "self_s": 0.0, "points": 0}
    for s in spans:
        agg = out.setdefault(s.name, {"calls": 0, "s": 0.0, "self_s": 0.0,
                                      "points": 0})
        agg["calls"] += 1
        agg["points"] += s.points
        agg["self_s"] += s.duration - child_time.get(s.span_id, 0.0)
        if all(a.name != s.name for a in ancestors(s)):
            agg["s"] += s.duration

    shots = [s.key for s in spans if s.name == SHOT_LAYER]
    repeats = sum(1 for i, k in enumerate(shots) if k in shots[:i])
    out[SHOT_LAYER]["repeat_frac"] = repeats / len(shots) if shots else 0.0

    projections = out[PROJECTION_LAYER]["calls"]
    inside = sum(s.points for s in spans if s.name == P_LAYER
                 and any(a.name == PROJECTION_LAYER for a in ancestors(s)))
    out[PROJECTION_LAYER]["p_points_per_call"] = (
        inside / projections if projections else 0.0)
    return out
