"""In-memory span tracer that patches sdfreach's layer functions at their call sites.

A span is ``[name, start, end, parent, root, info]``: ``parent`` is the index
of the enclosing span (-1 for a root), ``root`` the name of the outermost
span, and ``info`` whatever the layer's counter extracted from the call.
Spans stay in memory; ``summarize`` folds them into per-(root, name) totals
and self times once the traced pass is over.

Patching rules, because the program imports some names directly:

* ``qp.solve`` is imported by name into ``sdfreach.controller``, so the
  wrapper replaces ``controller.solve``;
* ``kinematics._fk_arrays``, ``controller.distance_jacobians`` and
  ``robot_shape.sample_points`` are looked up as module globals by their
  callers, so patching the module attribute catches every call;
* ``Union.distance``/``Union.distance_and_gradient`` and
  ``CachedDistances.refresh`` are methods, patched on the class.
"""

from __future__ import annotations

import functools
import time
from collections import defaultdict
from contextlib import ExitStack, contextmanager
from dataclasses import dataclass, field

perf_counter = time.perf_counter


@contextmanager
def patched(owner, attr: str, make):
    """Replace ``owner.attr`` by ``make(original)`` until the block exits."""
    original = getattr(owner, attr)
    setattr(owner, attr, make(original))
    try:
        yield
    finally:
        setattr(owner, attr, original)


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []

    def _open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        root = self.spans[parent][4] if parent >= 0 else name
        idx = len(self.spans)
        self.spans.append([name, perf_counter(), 0.0, parent, root, None])
        self._stack.append(idx)
        return idx

    def _close(self, idx: int) -> None:
        self.spans[idx][2] = perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        """A span around a call the benchmark itself makes."""
        idx = self._open(name)
        try:
            yield self.spans[idx]
        finally:
            self._close(idx)

    def wrapper(self, name, info=None):
        """Wrapper factory for ``patched``.

        ``name`` is a span name or a function of the call's positional
        arguments; ``info(args, result)`` extracts the span's counters.
        """
        def make(fn):
            @functools.wraps(fn)
            def traced(*args, **kwargs):
                idx = self._open(name if isinstance(name, str) else name(args))
                try:
                    out = fn(*args, **kwargs)
                    if info is not None:
                        self.spans[idx][5] = info(args, out)
                    return out
                finally:
                    self._close(idx)
            return traced
        return make

    def install(self, stack: ExitStack, audit_rep) -> None:
        """Patch every traced layer function; ``stack`` undoes the patches."""
        from sdfreach import bench, controller, kinematics, robot_shape, sdf

        def points(args, out):
            return len(args[1])

        def refresh_name(args):
            return ("bench.refresh_audit" if args[0].rep is audit_rep
                    else "bench.refresh_tracked")

        def refresh_info(args, out):
            return (len(out[1]), args[0].rep.total_count)

        def solve_info(args, out):
            problem = args[0]
            rows = 0 if problem.Ain is None else problem.Ain.shape[0]
            return (out.status.value, out.iterations, rows)

        def step_info(args, out):
            return (out.diagnostics.active_constraints, out.status.value)

        def jac_rows(args, out):
            return len(args[2])

        layers = [
            (sdf.Union, "distance", "sdf.distance", points),
            (sdf.Union, "distance_and_gradient", "sdf.distance_and_gradient",
             points),
            (bench.CachedDistances, "refresh", refresh_name, refresh_info),
            (bench, "integrate_with_events", "bench.integrate", None),
            (controller, "step", "controller.step", step_info),
            (controller, "solve", "qp.solve", solve_info),
            (controller, "distance_jacobians", "controller.distance_jacobians",
             None),
            (kinematics, "_fk_arrays", "kinematics.fk", None),
            (kinematics, "point_jacobians", "kinematics.point_jacobians",
             jac_rows),
            (kinematics, "manipulability_jacobian",
             "kinematics.manipulability_jacobian", None),
            (kinematics, "ee_jacobian", "kinematics.ee_jacobian", None),
            (robot_shape, "sample_points", "robot_shape.sample_points", None),
            (robot_shape, "sphere_distances", "robot_shape.sphere_distances",
             None),
        ]
        for owner, attr, name, info in layers:
            stack.enter_context(patched(owner, attr, self.wrapper(name, info)))


@dataclass
class Layer:
    """Totals of one span name under one root."""

    calls: int = 0
    total: float = 0.0
    self_time: float = 0.0
    info: list = field(default_factory=list)


def summarize(spans: list[list]):
    """Per-(root, name) call counts, total and self seconds, and counters.

    A span's self time is its duration minus the durations of its direct
    children. Returns ``(layers, solves)`` where ``solves`` lists, for each
    ``controller.step`` span that called ``qp.solve``, how often it did.
    """
    child_time = [0.0] * len(spans)
    for name, t0, t1, parent, root, info in spans:
        if parent >= 0:
            child_time[parent] += t1 - t0
    layers: dict = defaultdict(Layer)
    solves_per_step: dict[int, int] = defaultdict(int)
    for i, (name, t0, t1, parent, root, info) in enumerate(spans):
        layer = layers[(root, name)]
        layer.calls += 1
        layer.total += t1 - t0
        layer.self_time += t1 - t0 - child_time[i]
        if info is not None:
            layer.info.append(info)
        if name == "qp.solve" and parent >= 0 \
                and spans[parent][0] == "controller.step":
            solves_per_step[parent] += 1
    return layers, list(solves_per_step.values())
