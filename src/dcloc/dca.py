"""Outer d.c. iteration for the full attraction/repulsion problem.

Each outer step picks a subgradient of the concave part at the current point
(unit directions away from the repulsion sets, zero on them, plus the
quadratic correction) and hands the resulting linearized strongly convex
subproblem to the inner solver.  Its solution is the DCA image S(x) of the
point, and the plain step x -> S(x) lowers the objective by at least
(lam/2) * |S(x) - x|^2.  ``dca_solve`` accelerates this map with the same
safeguarded secant (one-step Anderson) step that the inner fixed-point solve
uses, and keeps an extrapolated point only if it meets that sufficient
decrease itself, so every accepted iterate does.  The iteration terminates
either at a fixed point of S (a critical point of the d.c. reformulation) or
after the configured budget of inner solves.

Each point the iteration visits costs one pass of the repulsion batch and one
of the attraction batch, whose O(n) summaries serve everything asked of the
point: the objective (the same arithmetic as ``evaluate_objective``, so the
same value to the bit), the linearization, the first fixed-point map of the
point's inner solve and that solve's fallback test.  An inner solve's
certificate passes the attraction batch at the image it returns, so the
image's summary comes with it, and the criticality residual at the final
point reuses that point's summaries too.

The criticality residual costs one more inner solve, and a solve keeps it only
for the point it returns.  ``multi_start_solve`` therefore runs each start
without it, keeps the best start's report and the summaries of its final
point, and computes the residual once, for that start alone: the same
computation at the same point as ``dca_solve`` makes, so the same value.
Points that the iteration builds itself are projected onto the constraint by
its family's formula (``ConvexSet._project``), without the public method's
dimension check.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .geometry import _norm, _residuals, coordinate_norms, membership_tol
from .inner import (
    AttractionSummary,
    InnerConfig,
    InnerProblem,
    InnerResult,
    NotInConstraint,
    _on_a_set,
    _require_integer,
    _require_tolerance,
    _secant_point,
    attraction_summary,
    solve_inner,
)
from .model import ProblemInstance
from .model import evaluate_objective  # noqa: F401  bench/tracing.py wraps it by this name

__all__ = [
    "DcaConfig",
    "TrajectoryPoint",
    "SolveReport",
    "dca_step",
    "dca_solve",
    "criticality_residual",
    "multi_start_solve",
]


@dataclass
class DcaConfig:
    """Outer solver options, checked at construction (ValueError)."""

    lam: float = 1.0
    max_outer: int = 200
    outer_step_tol: float = 1e-8
    inner: InnerConfig = field(default_factory=InnerConfig)
    record_trajectory: bool = False

    def __post_init__(self):
        if not (math.isfinite(self.lam) and self.lam > 0):
            raise ValueError(f"lambda must be finite and positive, got {self.lam}")
        if _require_integer("max_outer", self.max_outer) < 1:
            raise ValueError(f"max_outer must be at least 1, got {self.max_outer}")
        _require_tolerance("outer_step_tol", self.outer_step_tol)


@dataclass
class TrajectoryPoint:
    """Row ``k`` of a recorded trajectory: an accepted iterate ``x``, the
    linearization ``y`` at the previous row (None on row 0) and the distance
    ``step_norm`` from the previous row."""

    k: int
    x: np.ndarray
    y: np.ndarray | None
    f_value: float
    step_norm: float


@dataclass
class SolveReport:
    final_x: np.ndarray
    final_value: float
    outer_iterations: int  # inner solves, refused extrapolations included
    termination: str  # step_tol | max_outer
    criticality_residual: float
    trajectory: list[TrajectoryPoint] | None
    inner_methods_used: list[str]


def _repulsion_pass(inst: ProblemInstance, x: np.ndarray) -> tuple[float, np.ndarray]:
    """The weighted repulsion-distance sum at ``x`` and a subgradient of it,
    from one pass of the repulsion batch.

    The subgradient takes the unit direction away from each repulsion set not
    containing ``x``, and the zero selection on sets that do contain it.
    """
    diff = _residuals(x, inst.repulsion_batch.projections(x))
    dists = coordinate_norms(diff)
    weights = inst.repulsion_weights
    if _on_a_set(dists, x):
        scale = np.divide(weights, dists, out=np.zeros_like(dists), where=dists > membership_tol(x))
    else:
        scale = weights / dists
    return float(weights @ dists), diff @ scale


class _PointSummary(NamedTuple):
    """The O(n) summaries of a point's passes of the two set batches."""

    repulsion_sum: float
    subgradient: np.ndarray  # of the repulsion-distance sum
    attraction: AttractionSummary

    @property
    def value(self) -> float:
        """The objective at the point, as ``evaluate_objective`` forms it."""
        return self.attraction.distance_sum - self.repulsion_sum


def _summarize(
    inst: ProblemInstance, x: np.ndarray, attraction: AttractionSummary | None = None
) -> _PointSummary:
    """The summaries of ``x``, with its attraction summary when known."""
    if attraction is None:
        attraction = attraction_summary(inst.attraction_batch, inst.attraction_weights, x)
    return _PointSummary(*_repulsion_pass(inst, x), attraction)


def _step(
    inst: ProblemInstance,
    lam: float,
    x_k: np.ndarray,
    inner_cfg: InnerConfig,
    summary: _PointSummary,
) -> tuple[np.ndarray, InnerResult]:
    y_k = summary.subgradient + lam * x_k
    prob = InnerProblem.for_instance(inst, y_k, lam)
    result = solve_inner(prob, x_k, inner_cfg, summary=summary.attraction)
    return y_k, result


def dca_step(
    inst: ProblemInstance,
    lam: float,
    x_k,
    inner_cfg: InnerConfig | None = None,
    *,
    summary: _PointSummary | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """One plain outer step: the linearization ``y_k`` at ``x_k`` and the DCA
    image S(x_k), the next iterate of the unaccelerated iteration.
    ``summary``, optional, holds the summaries of ``x_k``'s batch passes."""
    x_k = np.asarray(x_k, dtype=float)
    if not inst.constraint.contains(x_k, membership_tol(x_k)):
        raise NotInConstraint("outer iterate is not in the constraint set")
    if summary is None:
        summary = _summarize(inst, x_k)
    y_k, result = _step(inst, lam, x_k, inner_cfg or InnerConfig(), summary)
    return y_k, result.x


def _start_point(inst: ProblemInstance, x0) -> np.ndarray:
    """``x0`` as a float vector, or ValueError naming what is wrong with it."""
    x = np.asarray(x0, dtype=float)
    if x.shape != (inst.dimension,):
        raise ValueError(
            f"x0 must be a vector of the instance's dimension {inst.dimension}, "
            f"got shape {x.shape}"
        )
    if not np.isfinite(x).all():
        raise ValueError(f"x0 must be finite, got {x.tolist()}")
    if not inst.constraint.contains(x, membership_tol(x)):
        raise NotInConstraint("starting point is not in the constraint set")
    return x


def dca_solve(
    inst: ProblemInstance,
    x0,
    cfg: DcaConfig | None = None,
    *,
    _final_summary: list | None = None,
) -> SolveReport:
    """Iterate the DCA image map S with a safeguarded secant step until its
    residual drops below ``outer_step_tol``.

    Each pass holds the current iterate x, its image t = S(x) (one inner
    solve) and the residual g = t - x, and stops, returning t, once |g| is
    at most ``outer_step_tol``.  Otherwise, given the previous kept iterate
    x' and its residual g', it tries the secant extrapolation
    c = P_C(t - gamma * (x - x' + g - g')), where gamma = (g - g').g /
    |g - g'|^2 minimizes |g - gamma * (g - g')|.  The candidate is kept only
    if it passes two tests, in this order:

    1. before its inner solve, the sufficient decrease
       f(c) <= f(x) - (lam/2) * |c - x|^2, so that a refused candidate costs
       at most two objective evaluations and no inner solve;
    2. after it, a residual |S(c) - c| below |g|.

    If either test fails, the iteration steps plainly to t and forgets x'.
    A candidate that is t itself (gamma = 0) is that plain step.
    The objective at a point comes from the summaries of its batch passes
    (see the module docstring), so it costs nothing beyond them.  Every
    accepted iterate lies (lam/2) * step^2 below the one before it: plain
    steps by the DCA descent property, extrapolations by the first test.

    ``max_outer`` bounds the number of inner solves, and
    ``outer_iterations`` counts them, refused candidates included; when the
    budget runs out the image t of the last kept iterate is returned.  A
    recorded trajectory holds one row per accepted iterate, from ``x0`` to
    ``final_x``: ``y`` is the linearization at the previous row and
    ``step_norm`` the distance from the previous row.

    ``x0`` must be a finite vector of the instance's dimension (else
    ValueError) in the constraint set (else ``NotInConstraint``).

    ``_final_summary`` is for ``multi_start_solve``: given a list, the
    summaries of the final point are appended to it and the criticality
    residual is left NaN, for the caller to compute from them.
    """
    cfg = cfg or DcaConfig()
    lam = cfg.lam
    x = _start_point(inst, x0)
    methods: list[str] = []
    solves = 0

    def image(point: np.ndarray, summary: _PointSummary):
        """The linearization at ``point``, the inner result that holds its
        DCA image t and t's attraction summary, and the residual t - point."""
        nonlocal solves
        solves += 1
        y_point, result = _step(inst, lam, point, cfg.inner, summary)
        if result.method_used not in methods:
            methods.append(result.method_used)
        return y_point, result, result.x - point

    def summary_of(result: InnerResult) -> _PointSummary:
        """The summaries of an image, with its certificate's attraction summary."""
        return _summarize(inst, result.x, result.summary)

    at_x = _summarize(inst, x)
    f_x = at_x.value
    trajectory = None
    if cfg.record_trajectory:
        trajectory = [TrajectoryPoint(k=0, x=x, y=None, f_value=f_x, step_norm=0.0)]

    def keep(point, y_prev, f_point, step) -> None:
        """Record an accepted iterate."""
        if trajectory is not None:
            trajectory.append(TrajectoryPoint(len(trajectory), point, y_prev, f_point, step))

    y, image_x, g = image(x, at_x)
    res = _norm(g)
    prev = None  # the kept iterate before x and its residual
    while res > cfg.outer_step_tol and solves < cfg.max_outer:
        t = image_x.x
        cand = t if prev is None else _secant_point(x, t, g, prev)
        if cand is not t:  # an extrapolation to try, not the plain step
            cand = inst.constraint._project(cand)
            at_cand = _summarize(inst, cand)
            f_cand = at_cand.value
            step = _norm(cand - x)
            if f_cand <= f_x - 0.5 * lam * step * step:
                y_cand, image_cand, g_cand = image(cand, at_cand)
                res_cand = _norm(g_cand)
                if res_cand < res:
                    keep(cand, y, f_cand, step)
                    prev = (x, g)
                    x, y, image_x, g, res, f_x = cand, y_cand, image_cand, g_cand, res_cand, f_cand
                    continue
                if solves >= cfg.max_outer:
                    break
        # the plain step to t, which forgets any refused candidate
        at_t = summary_of(image_x)
        keep(t, y, at_t.value, res)
        prev = (x, g)
        x, f_x = t, at_t.value
        y, image_x, g = image(x, at_t)
        res = _norm(g)
    t = image_x.x
    at_t = summary_of(image_x)
    final_value = at_t.value
    keep(t, y, final_value, res)
    report = SolveReport(
        final_x=t,
        final_value=final_value,
        outer_iterations=solves,
        termination="step_tol" if res <= cfg.outer_step_tol else "max_outer",
        criticality_residual=math.nan,
        trajectory=trajectory,
        inner_methods_used=methods,
    )
    if _final_summary is None:
        return _with_residual(inst, cfg, report, at_t)
    _final_summary.append(at_t)
    return report


def _with_residual(
    inst: ProblemInstance, cfg: DcaConfig, report: SolveReport, at_final: _PointSummary
) -> SolveReport:
    """``report`` with its criticality residual, from the summaries
    ``at_final`` of its final point."""
    report.criticality_residual = criticality_residual(
        inst, cfg.lam, report.final_x, cfg.inner, summary=at_final
    )
    return report


def criticality_residual(
    inst: ProblemInstance,
    lam: float,
    x,
    inner_cfg: InnerConfig | None = None,
    *,
    summary: _PointSummary | None = None,
) -> float:
    """Norm of the displacement |S(x) - x| of one plain outer step at ``x``.

    The step map fixes ``x`` exactly when the chosen subgradient of the
    concave part is also a subgradient of the convex part, so a zero residual
    certifies criticality with respect to that selection.  The value is a
    surrogate: it inherits the inner solver's accuracy.  ``summary``,
    optional, holds the summaries of ``x``'s batch passes.
    """
    x = np.asarray(x, dtype=float)
    _, x_next = dca_step(inst, lam, x, inner_cfg, summary=summary)
    return _norm(x_next - x)


def multi_start_solve(
    inst: ProblemInstance,
    cfg: DcaConfig | None = None,
    n_starts: int = 5,
    seed: int = 0,
    sample_box: tuple[np.ndarray, np.ndarray] | None = None,
) -> SolveReport:
    """Best-of-N solve from random feasible starts.

    Starts are sampled uniformly in ``sample_box`` (defaulting to the bounding
    box of the constraint set, which must then be bounded) and projected onto
    the constraint.  A ``sample_box`` is a pair (lower, upper) of finite
    vectors of the instance's dimension with lower <= upper and a finite
    width; anything else raises ValueError, and so do an ``n_starts`` that is
    not an integer of at least 1 and a ``seed`` that is not a non-negative
    integer.  The outer iteration only guarantees a critical point, so
    restarts are the practical guard against poor local behavior.  The merge
    is deterministic: best objective value, ties broken by lexicographically
    smallest final iterate.

    Each start runs ``dca_solve`` without the criticality residual; the best
    start's report and the summaries of its final point are kept, and the
    residual is computed once, for that start, from them.
    So the returned report equals, field by field, ``dca_solve``'s from the
    best start, at one inner solve beyond the starts' ``outer_iterations``.
    """
    cfg = cfg or DcaConfig()
    if _require_integer("n_starts", n_starts) < 1:
        raise ValueError(f"need at least one start, got n_starts={n_starts}")
    if _require_integer("seed", seed) < 0:
        raise ValueError(f"seed must be a non-negative integer, got {seed}")
    if sample_box is None:
        radius = inst.constraint.bounding_radius()
        if radius is None:
            raise ValueError(
                "unbounded constraint set: pass an explicit sample_box"
            )
        lo = np.full(inst.dimension, -radius)
        hi = np.full(inst.dimension, radius)
    else:
        lo, hi = _sample_box(inst, sample_box)
    rng = np.random.Generator(np.random.Philox(seed))
    best = None  # the best start's report and the summaries of its final point
    for _ in range(n_starts):
        x0 = inst.constraint.project(rng.uniform(lo, hi))
        at_final: list[_PointSummary] = []
        report = dca_solve(inst, x0, cfg, _final_summary=at_final)
        if best is None or _report_better(report, best[0]):
            best = report, at_final[0]
    return _with_residual(inst, cfg, *best)


def _sample_box(inst: ProblemInstance, sample_box) -> tuple[np.ndarray, np.ndarray]:
    """The bounds of ``sample_box`` as float vectors, or ValueError."""
    lo, hi = (np.asarray(bound, dtype=float) for bound in sample_box)
    for name, bound in (("lower", lo), ("upper", hi)):
        if bound.shape != (inst.dimension,):
            raise ValueError(
                f"sample_box {name} bound must be a vector of the instance's "
                f"dimension {inst.dimension}, got shape {bound.shape}"
            )
        if not np.isfinite(bound).all():
            raise ValueError(f"sample_box {name} bound must be finite, got {bound.tolist()}")
    if not (lo <= hi).all():
        raise ValueError(f"sample_box lower bound {lo.tolist()} exceeds upper bound {hi.tolist()}")
    with np.errstate(over="ignore"):
        width = hi - lo
    if not np.isfinite(width).all():
        raise ValueError("sample_box width must be finite")
    return lo, hi


def _report_better(candidate: SolveReport, incumbent: SolveReport) -> bool:
    if candidate.final_value != incumbent.final_value:
        return candidate.final_value < incumbent.final_value
    return tuple(candidate.final_x) < tuple(incumbent.final_x)
