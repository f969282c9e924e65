"""In-memory span tracer that wraps the solver's public layer functions
from outside the program.

A span is (name, start_ns, end_ns, parent), where parent is the index of
the enclosing span or -1.  Wrappers are installed on module and class
attributes for the duration of a ``with tracer.installed():`` block and the
original objects are put back on exit, so untraced runs in the same process
execute the unmodified program.
"""

from __future__ import annotations

import contextlib
import functools
import time

from wadg import geometry, meshgen, operators, refelem, solver

# (owner, attribute, span name).  solver.run and the functions below look
# each of these up at call time, so replacing the attribute is enough.
LAYER_TARGETS = (
    (meshgen, "disk_mesh", "meshgen.disk_mesh"),
    (solver, "lsrk_step", "solver.lsrk_step"),
    (solver, "rhs_full", "solver.rhs_full"),
    (solver, "rhs_pre_mass", "solver.rhs_pre_mass"),
    (solver, "apply_mass_inverse", "solver.apply_mass_inverse"),
    (solver, "energy", "solver.energy"),
    (solver, "stable_dt", "solver.stable_dt"),
    (solver, "project_initial_condition", "solver.project_initial_condition"),
    (solver.Discretization, "__init__", "solver.Discretization"),
    (solver.Discretization, "face_traces", "solver.face_traces"),
    (operators, "apply_weight_adjusted_inverse", "operators.apply_weight_adjusted_inverse"),
    (operators, "l2_project", "operators.l2_project"),
    (operators, "weighted_mass_matrix", "operators.weighted_mass_matrix"),
    (operators, "global_l2_error", "operators.global_l2_error"),
    (geometry, "compute_geometric_data", "geometry.compute_geometric_data"),
    (refelem, "build_reference_element", "refelem.build_reference_element"),
)


class Tracer:
    """Collects spans in memory; single-threaded, so a stack gives parents."""

    def __init__(self):
        self.spans = []      # [name, start_ns, end_ns, parent]
        self._stack = []

    @contextlib.contextmanager
    def span(self, name):
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter_ns(), 0, parent])
        self._stack.append(idx)
        try:
            yield
        finally:
            self._stack.pop()
            self.spans[idx][2] = time.perf_counter_ns()

    def _wrap(self, name, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name):
                return fn(*args, **kwargs)
        return traced

    @contextlib.contextmanager
    def installed(self):
        """Replace every target with a span-recording wrapper; restore the
        original objects on exit, also when the traced code raises."""
        originals = []
        try:
            for owner, attr, name in LAYER_TARGETS:
                fn = vars(owner)[attr]
                originals.append((owner, attr, fn))
                setattr(owner, attr, self._wrap(name, fn))
            yield self
        finally:
            for owner, attr, fn in reversed(originals):
                setattr(owner, attr, fn)


def span_stats(spans):
    """Per-name call count, inclusive ns, self ns and the list of inclusive
    durations.  Self time is the span's duration minus its children's."""
    child_ns = [0] * len(spans)
    for name, t0, t1, parent in spans:
        if parent >= 0:
            child_ns[parent] += t1 - t0
    stats = {}
    for i, (name, t0, t1, _) in enumerate(spans):
        s = stats.setdefault(name, {"calls": 0, "ns": 0, "self_ns": 0, "durations": []})
        s["calls"] += 1
        s["ns"] += t1 - t0
        s["self_ns"] += t1 - t0 - child_ns[i]
        s["durations"].append(t1 - t0)
    return stats


def spans_nest(spans):
    """True when every span ends after it starts and lies inside its parent,
    and parents are recorded before their children."""
    for i, (_, t0, t1, parent) in enumerate(spans):
        if t1 < t0 or parent >= i:
            return False
        if parent >= 0:
            _, p0, p1, _ = spans[parent]
            if t0 < p0 or t1 > p1:
                return False
    return True
