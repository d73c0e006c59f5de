"""Spans and per-layer tallies for the traced benchmark run.

The tracer wraps dcloc's public functions at the attribute where their
callers look them up (a module global or a class attribute), records one span
per call and restores the originals afterwards.  Nothing under ``src/`` is
edited.  A span is ``[name, start, end, parent, request, note]``: ``parent``
indexes the same request's span list (-1 for the entry call) and ``note``
holds a value read from the call's result, such as an iteration count.
"""

from __future__ import annotations

import contextlib
import functools
import time
from collections import defaultdict

from dcloc import cli, dca, geometry, inner, instance_io, model, oracle

LAYERS = ("cli", "instance_io", "model", "geometry", "inner", "dca", "oracle")

# relative tolerance for "a start reached the best value" (dca.starts_at_best_frac)
BEST_VALUE_RTOL = 1e-8


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.request = -1
        self.meta: dict[str, tuple[str, str]] = {}  # name -> (layer, key)
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def wrap(self, owner, attr: str, layer: str, key: str, note=None) -> None:
        """Replace ``owner.attr`` by a recording wrapper.

        ``note(args, kwargs, result)`` returns the value stored on the span.
        """
        original = vars(owner)[attr]
        name = f"{owner.__name__.removeprefix('dcloc.')}.{attr}"
        self.meta[name] = (layer, key)
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, self.request, None]
            stack.append(len(spans))
            spans.append(span)
            span[1] = clock()
            try:
                result = original(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if note is not None:
                span[5] = note(args, kwargs, result)
            return result

        self._patches.append((owner, attr, original))
        setattr(owner, attr, wrapper)

    def restore(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def take(self) -> list[list]:
        """Hand over the spans recorded so far and start a fresh list."""
        taken = self.spans[:]
        self.spans.clear()
        return taken


def self_times(spans: list[list]) -> list[float]:
    """Span duration minus the part of it that its child spans cover."""
    children = defaultdict(list)
    for i, span in enumerate(spans):
        if span[3] >= 0:
            children[span[3]].append(i)
    out = []
    for i, (_, start, end, *_rest) in enumerate(spans):
        covered, cursor = 0.0, start
        for j in sorted(children[i], key=lambda j: spans[j][1]):
            lo, hi = max(spans[j][1], cursor), min(spans[j][2], end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        out.append(end - start - covered)
    return out


def tally(spans: list[list], meta: dict[str, tuple[str, str]]) -> dict[str, float]:
    """Counts, inclusive times, layer self times and notes of one request."""
    t = defaultdict(float)
    starts_by_parent = defaultdict(list)
    for span, own in zip(spans, self_times(spans)):
        name, start, end, parent, _, note = span
        layer, key = meta[name]
        t["n." + key] += 1
        t["t." + key] += end - start
        t["self." + layer] += own
        if note is None:  # no note, or the call raised
            continue
        if key == "dca.solve":
            steps, value = note
            t["note.dca.solve"] += steps
            starts_by_parent[parent].append(value)
        else:
            t["note." + key] += note
    for values in starts_by_parent.values():
        best = min(values)
        tol = BEST_VALUE_RTOL * (1.0 + abs(best))
        t["dca.starts_at_best"] += sum(v <= best + tol for v in values)
    return t


def layer_metrics(totals: dict[str, float], n_requests: int) -> dict[str, float]:
    """Per-request per-layer metrics from tallies summed over ``n_requests``."""
    t = defaultdict(float, totals)

    def per(key, scale=1.0):
        return t[key] * scale / n_requests

    def ratio(num, den, scale=1.0):
        return t[num] * scale / t[den] if t[den] else 0.0

    m = {f"{layer}.self_ms": per("self." + layer, 1e3) for layer in LAYERS}
    m.update({
        "instance_io.load_ms": per("t.instance_io.load", 1e3),
        "model.validate_ms": per("t.model.validate", 1e3),
        "model.setbatch_builds": per("n.model.setbatch_build"),
        "model.setbatch_build_ms": per("t.model.setbatch_build", 1e3),
        "model.projections_calls": per("n.model.projections"),
        "model.projections_us": ratio("t.model.projections", "n.model.projections", 1e6),
        "model.objective_calls": per("n.model.objective"),
        "model.distances_many_ms": per("t.model.distances_many", 1e3),
        "model.distances_many_rows": per("note.model.distances_many"),
        "geometry.project_calls": per("n.geometry.project"),
        "geometry.project_us": ratio("t.geometry.project", "n.geometry.project", 1e6),
        "geometry.project_many_ms": per("t.geometry.project_many", 1e3),
        "inner.solves": per("n.inner.solve"),
        "inner.weiszfeld_maps": per("n.inner.weiszfeld_map"),
        "inner.maps_per_solve": ratio("n.inner.weiszfeld_map", "n.inner.solve"),
        "inner.weiszfeld_map_us": ratio("t.inner.weiszfeld_map", "n.inner.weiszfeld_map", 1e6),
        "inner.fallbacks": per("n.inner.subgradient"),
        "inner.subgradient_iters": per("note.inner.subgradient"),
        "inner.subgradient_ms": per("t.inner.subgradient", 1e3),
        "inner.phi_calls": per("n.inner.phi"),
        "inner.maxed_frac": ratio("note.inner.solve", "n.inner.solve"),
        "dca.starts": per("n.dca.solve"),
        "dca.outer_steps": per("note.dca.solve"),
        "dca.outer_steps_per_start": ratio("note.dca.solve", "n.dca.solve"),
        "dca.residual_ms": per("t.dca.residual", 1e3),
        "dca.starts_at_best_frac": ratio("dca.starts_at_best", "n.dca.solve"),
        "oracle.grid_points": per("note.oracle.grid_search"),
    })
    return m


@contextlib.contextmanager
def installed(tracer: Tracer):
    """Wrap the public entry points of every measured dcloc module."""

    def maxed(args, kwargs, result):
        cfg = args[2] if len(args) > 2 else kwargs.get("cfg")
        return result.iterations >= (cfg or inner.InnerConfig()).max_iters

    w = tracer.wrap
    try:
        w(cli, "main", "cli", "cli.main")
        for attr in ("load_points_csv", "load_instance"):
            w(instance_io, attr, "instance_io", "instance_io.load")
        w(cli, "validate_instance", "model", "model.validate")
        w(model.SetBatch, "__init__", "model", "model.setbatch_build")
        w(model.SetBatch, "projections", "model", "model.projections")
        w(model.SetBatch, "distances", "model", "model.distances")
        w(model.SetBatch, "distances_many", "model", "model.distances_many",
          lambda a, k, r: r.shape[0])
        w(dca, "evaluate_objective", "model", "model.objective")
        w(oracle, "evaluate_objective", "model", "model.objective")
        w(oracle, "evaluate_objective_many", "model", "model.objective")
        for shape in (geometry.Singleton, geometry.Ball, geometry.AxisBox, geometry.Halfspace):
            w(shape, "project", "geometry", "geometry.project")
            w(shape, "project_many", "geometry", "geometry.project_many")
        w(geometry.ConvexSet, "contains", "geometry", "geometry.contains")
        w(geometry.ConvexSet, "distance", "geometry", "geometry.distance")
        w(dca, "solve_inner", "inner", "inner.solve", maxed)
        w(inner, "weiszfeld_solve", "inner", "inner.weiszfeld_solve")
        w(inner, "subgradient_solve", "inner", "inner.subgradient",
          lambda a, k, r: r.iterations)
        w(inner, "weiszfeld_map", "inner", "inner.weiszfeld_map")
        w(inner, "phi", "inner", "inner.phi")
        w(dca, "multi_start_solve", "dca", "dca.multi_start")
        w(dca, "dca_solve", "dca", "dca.solve",
          lambda a, k, r: (r.outer_iterations, r.final_value))
        w(dca, "criticality_residual", "dca", "dca.residual")
        w(dca, "dca_step", "dca", "dca.step")
        w(oracle, "grid_search", "oracle", "oracle.grid_search",
          lambda a, k, r: r.evaluations)
        yield tracer
    finally:
        tracer.restore()
