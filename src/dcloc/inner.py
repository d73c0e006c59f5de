"""Strongly convex inner subproblem solvers.

The subproblem minimizes a weighted sum of distances to the attraction sets
plus a quadratic term minus a linear term, over the constraint set.  The
quadratic term makes the objective strongly convex, so the minimizer is
unique.  The primary solver is a fixed-point iteration that averages the
projections onto the attraction sets with reciprocal-distance weights and
projects back onto the constraint.  A one-step Anderson (secant) update
extrapolates its iterates, kept only where it lowers the fixed-point
residual, and a primal-dual gap built from the unit residuals at the
returned point certifies every exit of the iteration (``InnerResult.gap``),
an exit on an attraction set (where the fixed-point map divides by zero)
included.  ``solve_inner`` returns a certified result and otherwise hands
over to ``dual_solve``: accelerated proximal gradient (FISTA) on the dual
problem, built from the same projections, which also stops on a certified
primal-dual gap.  ``subgradient_solve``, a projected subgradient method with
diminishing 1/l steps, remains as a standalone function; it has no stopping
test and no certificate, and no route calls it.

A pass of the attraction batch at a point projects it onto every set, an
(n, m) array for m sets in dimension n.  Only an O(n) ``AttractionSummary``
of a pass is kept beyond it: the weighted distance sum and the part of the
fixed-point map that does not depend on the linear term.  The certificate's
pass at the returned point builds one (``InnerResult.summary``), and a solve
handed the summary of its start (``solve_inner(..., summary=)``) builds its
first map and its fallback test from it, so the outer iteration passes the
batch once per point it visits.
"""

from __future__ import annotations

import math
import operator
from collections.abc import Sequence
from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .geometry import ConvexSet, _finite, _norm, _residuals, coordinate_norms, membership_tol
from .model import ProblemInstance, SetBatch, WeightedSet, _batch_of, _weights_of

__all__ = [
    "InnerProblem",
    "InnerConfig",
    "InnerResult",
    "AttractionSummary",
    "NotInConstraint",
    "attraction_summary",
    "phi",
    "weiszfeld_map",
    "weiszfeld_solve",
    "subgradient_solve",
    "dual_solve",
    "solve_inner",
]


class NotInConstraint(ValueError):
    """Starting point outside the constraint set."""


@dataclass(eq=False)
class InnerProblem:
    v: np.ndarray
    lam: float
    attractions: Sequence[WeightedSet]
    constraint: ConvexSet

    def __post_init__(self):
        v = np.asarray(self.v, dtype=float)
        if v.shape != (self.constraint.dim,):
            raise ValueError(
                f"linear term must be a 1-d vector of the constraint's dimension "
                f"{self.constraint.dim}, got shape {v.shape}"
            )
        self.v = _finite(v, "linear term")
        self.lam = float(self.lam)
        if not (math.isfinite(self.lam) and self.lam > 0):
            raise ValueError(f"quadratic coefficient must be finite and positive, got {self.lam}")

    @classmethod
    def for_instance(cls, inst: ProblemInstance, v, lam: float) -> InnerProblem:
        """The subproblem over ``inst``'s attraction sets and constraint.

        It shares the instance's cached attraction batch and weights, so
        building one per outer step costs no set stacking.
        """
        prob = cls(v, lam, inst.attractions, inst.constraint)
        prob.batch = inst.attraction_batch
        prob.weights = inst.attraction_weights
        return prob

    @cached_property
    def batch(self) -> SetBatch:
        return _batch_of(self.attractions)

    @cached_property
    def weights(self) -> np.ndarray:
        return _weights_of(self.attractions)


# converged=True needs a primal-dual gap of at most GAP_TOL * (1 + |value|)
GAP_TOL = 1e-13


def _require_integer(name: str, value) -> int:
    """``value`` as an int, or ValueError naming ``name``: Python and numpy
    integers pass (``operator.index``), floats and fractions do not."""
    try:
        return operator.index(value)
    except TypeError:
        raise ValueError(f"{name} must be an integer, got {value!r}") from None


def _require_tolerance(name: str, value: float) -> None:
    if not (math.isfinite(value) and value >= 0):
        raise ValueError(f"{name} must be finite and nonnegative, got {value}")


@dataclass
class InnerConfig:
    """Inner solver options, checked at construction (ValueError)."""

    max_iters: int = 1000
    step_tol: float = 1e-10  # fixed-point step norm

    def __post_init__(self):
        if _require_integer("max_iters", self.max_iters) < 1:
            raise ValueError(f"max_iters must be at least 1, got {self.max_iters}")
        _require_tolerance("step_tol", self.step_tol)


@dataclass
class InnerResult:
    x: np.ndarray
    value: float
    iterations: int
    converged: bool
    method_used: str
    # an upper bound on value minus the minimum, from a dual point: set by the
    # fixed-point and dual routes, None for the subgradient route
    gap: float | None = None
    # the attraction summary at x, from the fixed-point route's certificate;
    # None for the dual and subgradient routes
    summary: AttractionSummary | None = None


class AttractionSummary(NamedTuple):
    """What a pass of the attraction batch at a point x leaves for later
    use, O(n) in size.

    ``distance_sum`` is sum_i w_i d_i(x), the distance part of ``phi`` and
    of the objective.  ``pull`` and ``pull_weight`` are sum_i (w_i / d_i(x))
    P_i(x) and sum_i w_i / d_i(x), the part of the fixed-point map at x that
    does not depend on the linear term; both are None when x is on a set,
    where the map is undefined.  Each value is formed as ``weiszfeld_map``
    and ``phi`` form it, so whatever is built from a summary is what those
    give at x, bit for bit.
    """

    distance_sum: float
    pull: np.ndarray | None
    pull_weight: float | None


def attraction_summary(batch: SetBatch, weights: np.ndarray, x: np.ndarray) -> AttractionSummary:
    """The summary of one pass of the attraction ``batch`` at ``x``."""
    proj = batch.projections(x)
    dists = coordinate_norms(x[:, None], proj)
    distance_sum = float(weights @ dists)
    if _on_a_set(dists, x):
        return AttractionSummary(distance_sum, None, None)
    inv = weights / dists
    return AttractionSummary(distance_sum, proj @ inv, float(np.add.reduce(inv)))


def _on_a_set(dists: np.ndarray, x: np.ndarray) -> bool:
    """Whether a point ``x`` at ``dists`` from the sets is (numerically) on one."""
    # np.minimum.reduce is what dists.min() calls, without the method's
    # Python wrapper (np.add.reduce likewise stands for .sum())
    return dists.size > 0 and np.minimum.reduce(dists) <= membership_tol(x)


def _map_point(prob: InnerProblem, summary: AttractionSummary) -> np.ndarray | None:
    """The fixed-point map at the point that ``summary`` summarizes."""
    if not prob.batch.n_sets:  # (0 + v) / (0 + lam) would turn -0.0 into 0.0
        return prob.v / prob.lam
    if summary.pull is None:
        return None
    return (summary.pull + prob.v) / (summary.pull_weight + prob.lam)


def phi(prob: InnerProblem, x) -> float:
    """Inner objective: distances + quadratic - linear term."""
    return _phi_terms(prob, np.asarray(x, dtype=float))[0]


def _quadratic(prob: InnerProblem, x: np.ndarray) -> float:
    """The quadratic and linear part lam/2 |x|^2 - v.x of ``phi``."""
    return 0.5 * prob.lam * float(x @ x) - float(prob.v @ x)


def _phi_terms(prob: InnerProblem, x: np.ndarray):
    """``phi(prob, x)`` together with the residuals ``x - P_i(x)`` onto the
    attraction sets, as the columns of an (n, m) array, and their norms."""
    diff = _residuals(x, prob.batch.projections(x))
    dists = coordinate_norms(diff)
    return _quadratic(prob, x) + float(prob.weights @ dists), diff, dists


def weiszfeld_map(prob: InnerProblem, x) -> np.ndarray | None:
    """One application of the reciprocal-distance averaging map.

    The map weights are the reciprocals of the distances, so it is undefined
    on the attraction sets: it returns None when ``x`` is (numerically) on
    one.
    """
    x = np.asarray(x, dtype=float)
    return _map_point(prob, attraction_summary(prob.batch, prob.weights, x))


def _require_feasible(prob: InnerProblem, x0) -> np.ndarray:
    x0 = np.asarray(x0, dtype=float)
    if not prob.constraint.contains(x0, membership_tol(x0)):
        raise NotInConstraint("starting point is not in the constraint set")
    return x0


def weiszfeld_solve(
    prob: InnerProblem,
    x0,
    cfg: InnerConfig | None = None,
    *,
    summary: AttractionSummary | None = None,
) -> InnerResult:
    """Iterate the fixed-point map with a safeguarded secant step, projecting
    onto the constraint, and certify the result by its primal-dual gap.

    Each pass maps the current iterate x to t = P_C(T(x)), with T the
    fixed-point map, and stops, returning t, once the residual g = t - x has
    norm at most ``step_tol``.  Otherwise, given the previous iterate x' and
    its residual g', the next iterate is the one-step Anderson (secant)
    extrapolation P_C(t - gamma * (x - x' + g - g')), where gamma minimizes
    |g - gamma * (g - g')|.  It is kept only if its residual is smaller than
    that of x; else the iteration moves to t, the plain map point of x, and
    forgets x'.  Extrapolated iterates need not decrease the objective; the
    certificate below is what vouches for the result.

    ``max_iters`` bounds the number of map applications; when it runs out,
    the map point of the last kept iterate is returned.  The map is undefined
    on an attraction set, so the iteration also stops there: at a start on a
    set, at a plain map point on one, and at an extrapolated iterate on one
    whose objective is below that of t, each of which it returns.  Any other
    extrapolated iterate on a set fails the safeguard, like one with a larger
    residual: the minimizer may lie off every set.

    Every exit is judged alike.  At the returned point x the unit residuals
    u_i = (x - P_i x) / d_i of the final objective evaluation, with u_i = 0
    on a set (d_i at most ``membership_tol(x)``, where the residual is
    rounding noise), form a dual point (see ``dual_solve``), so the gap costs
    one constraint projection.  ``converged`` is True only when that gap is at
    most ``GAP_TOL * (1 + |value|)``; ``gap`` is always set, and so is
    ``summary``, from the same pass of the attraction batch.

    ``summary``, optional, is the ``AttractionSummary`` of ``x0``; the first
    map is then built from it, with no pass of the batch.
    """
    cfg = cfg or InnerConfig()
    project = prob.constraint._project  # on the iteration's own vectors
    x = _require_feasible(prob, x0)
    maps = 1
    t = weiszfeld_map(prob, x) if summary is None else _map_point(prob, summary)
    if t is None:
        return _fixed_point_result(prob, project(x), maps)
    t = project(t)
    g = t - x
    res = _norm(g)
    prev = None  # the kept iterate before x and its residual
    while res > cfg.step_tol and maps < cfg.max_iters:
        y = t if prev is None else project(_secant_point(x, t, g, prev))
        maps += 1
        t_y = weiszfeld_map(prob, y)
        if t_y is None:
            # no residual can judge a point on a set: a plain map point
            # there is returned, and so is an extrapolation that beats t in
            # objective; any other extrapolation onto a set fails the safeguard
            if prev is None or _phi_terms(prob, y)[0] < _phi_terms(prob, t)[0]:
                return _fixed_point_result(prob, y, maps)
            prev = None
            continue
        t_y = project(t_y)
        g_y = t_y - y
        res_y = _norm(g_y)
        if prev is None or res_y < res:
            prev = (x, g)
            x, t, g, res = y, t_y, g_y, res_y
        else:  # the safeguard: step plainly to t on the next pass
            prev = None
    return _fixed_point_result(prob, t, maps)


def _secant_point(x: np.ndarray, t: np.ndarray, g: np.ndarray, prev) -> np.ndarray:
    """The one-step Anderson (secant) extrapolation t - gamma * (x - x' + g - g')
    of a map point t with residual g = t - x, given the previous iterate and
    its residual ``prev = (x', g')``; gamma = (g - g').g / |g - g'|^2
    minimizes |g - gamma * (g - g')|.  When gamma is 0 (as when g = g') the
    result is ``t`` itself, the plain step."""
    dg = g - prev[1]
    dd = float(dg @ dg)
    gamma = float(dg @ g) / dd if dd > 0.0 else 0.0
    return t if gamma == 0.0 else t - gamma * (x - prev[0] + dg)


def _fixed_point_result(prob: InnerProblem, x: np.ndarray, maps: int) -> InnerResult:
    """The fixed-point route's result at ``x``, judged by its gap against the
    unit-residual dual point, with the attraction summary of ``x`` from the
    same pass."""
    proj = prob.batch.projections(x)
    dists = coordinate_norms(x[:, None], proj)
    distance_sum = float(prob.weights @ dists)
    value = _quadratic(prob, x) + distance_sum
    # u_i = (x - P_i x) / d_i, and u_i = 0 on a set: there the residual is
    # rounding noise, and a unit u_i built from it could certify a point that
    # is not the minimizer; u is never built.  u_i.(x - P_i x) = d_i off the
    # sets, so only the sets' own d_i are left of the Fenchel-Young terms.
    if _on_a_set(dists, x):
        off = dists > membership_tol(x)
        inv = np.divide(prob.weights, dists, out=np.zeros_like(dists), where=off)
        np.putmask(dists, off, 0.0)
        slack = float(prob.weights @ dists)
        summary = AttractionSummary(distance_sum, None, None)
    else:  # off every set: the summary's map weights are the dual point's
        inv = prob.weights / dists
        slack = 0.0
        summary = AttractionSummary(distance_sum, proj @ inv, float(np.add.reduce(inv)))
    z = prob.v - _residuals(x, proj) @ inv  # proj is spent from here
    gap = _gap(prob, x, slack, z, prob.constraint._project(z / prob.lam))
    return InnerResult(
        x=x,
        value=value,
        iterations=maps,
        converged=gap <= GAP_TOL * (1.0 + abs(value)),
        method_used="weiszfeld",
        gap=gap,
        summary=summary,
    )


def subgradient_solve(prob: InnerProblem, x0, cfg: InnerConfig | None = None) -> InnerResult:
    """Projected subgradient descent with step 1/l at iteration l.

    Applicable even on the attraction sets (the zero subgradient of the
    distance term is selected there).  Plain subgradient steps are not
    monotone, so the best iterate by objective value is returned.  One batch
    projection per iteration serves both the value of the new iterate and the
    subgradient taken there.  The method has no stopping test, so it runs its
    whole budget and never reports ``converged``.
    """
    cfg = cfg or InnerConfig()
    x = _require_feasible(prob, x0)
    best_x = x
    best_val, diff, dists = _phi_terms(prob, x)
    threshold_scale = 1e-9
    for ell in range(1, cfg.max_iters + 1):
        safe = dists > threshold_scale * (1.0 + np.linalg.norm(x))
        inv = np.divide(prob.weights, dists, out=np.zeros_like(dists), where=safe)
        u = prob.lam * x - prob.v + diff @ inv
        x = prob.constraint.project(x - u / ell)
        val, diff, dists = _phi_terms(prob, x)
        if val < best_val:
            best_val = val
            best_x = x
    return InnerResult(
        x=best_x,
        value=best_val,
        iterations=cfg.max_iters,
        converged=False,
        method_used="subgradient",
    )


def _dual_primal(prob: InnerProblem, u: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``z = v - sum_i w_i u_i`` and the primal point ``P_C(z / lam)`` it
    determines (the minimizer of lam/2 |x|^2 - z.x over the constraint)."""
    z = prob.v - u @ prob.weights
    return z, prob.constraint._project(z / prob.lam)


def _gap(prob: InnerProblem, x, slack: float, z, x_u) -> float:
    """Gap between ``phi(prob, x)`` and the dual value at u, summed from terms
    that are each nonnegative in exact arithmetic.

    ``slack`` is sum_i w_i (d_i(x) - u_i.x + s_i(u_i)), the weighted sum of
    the Fenchel-Young terms, and ``x_u`` is x(u) = P_C(z / lam).  The gap is
    ``slack`` plus q(x) - q(x(u)) for q(y) = lam/2 |y|^2 - z.y, factored as
    lam/2 (x - x(u)).(x + x(u) - 2 z / lam) so that neither value of q is
    formed: the gap is not the difference of two rounded values of the size
    of ``phi``.
    """
    quad = 0.5 * prob.lam * float((x - x_u) @ (x + x_u - (2.0 / prob.lam) * z))
    return slack + quad


def dual_solve(prob: InnerProblem, x0, cfg: InnerConfig | None = None) -> InnerResult:
    """Accelerated proximal gradient (FISTA) on the dual, stopped on the gap.

    The distance to set i is d_i(x) = max over |u_i| <= 1 of u_i.x - s_i(u_i),
    with s_i the support function of the set.  For dual variables u (an
    (n, m) array, one column u_i per attraction set) let z = v - sum_i w_i u_i
    and x(u) = P_C(z / lam); the dual value
    D(u) = lam/2 |x(u)|^2 - z.x(u) - sum_i w_i s_i(u_i) bounds the inner
    minimum from below.  Its smooth part has gradient w_i x(u) in u_i,
    Lipschitz with constant sum_i w_i^2 / lam, and the proximal step in u_i
    is the clipped residual of one paired projection onto set i (Moreau's
    decomposition of the distance function's prox), which also attains
    s_i at the new u_i.  So one iteration costs two constraint projections and
    two batch projections, on or off the attraction sets.

    Each iterate's primal point is x(u) itself, so its gap against u is the
    sum of the Fenchel-Young terms w_i (d_i(x(u)) - u_i.x(u) + s_i(u_i)).
    The returned point is the best among ``x0`` and the x(u), so its gap is
    at most the least of these iterate gaps, and that is the reported gap;
    the solve stops, with ``converged=True``, once it is at most
    ``GAP_TOL * (1 + |value|)``.  The returned ``x`` is that best
    primal point, always feasible.  By lam-strong convexity the minimizer x*
    satisfies |x - x*| <= sqrt(2 * gap / lam).  The momentum restarts
    whenever it points against the latest proximal step (the adaptive restart
    of O'Donoghue and Candes, Found. Comput. Math. 2015), which cuts the
    iteration count severalfold where many sets overlap.
    """
    cfg = cfg or InnerConfig()
    best_x = _require_feasible(prob, x0)
    if not prob.attractions:  # no dual variables: P_C(v / lam) is the minimizer
        x = prob.constraint.project(prob.v / prob.lam)
        return InnerResult(x, _phi_terms(prob, x)[0], 1, True, "dual", gap=0.0)
    best_val = _phi_terms(prob, best_x)[0]
    w = prob.weights
    step = (prob.lam / float(w @ w)) * w  # t * w_i, t = 1/L
    u = np.zeros((best_x.size, w.size))
    y, theta = u, 1.0
    gap = np.inf
    converged = False
    iterations = 0
    for iterations in range(1, cfg.max_iters + 1):
        pts = _dual_primal(prob, y)[1][:, None] + y / step
        proj = prob.batch.paired_projections(pts)
        u_next = step * (pts - proj)
        norms = coordinate_norms(u_next)
        outside = norms > 1.0
        u_next[:, outside] /= norms[outside]
        z, x = _dual_primal(prob, u_next)
        value, _, dists = _phi_terms(prob, x)
        if value < best_val:
            best_val, best_x = value, x
        u_res = np.einsum("ij,ij->j", u_next, x[:, None] - proj)
        gap = min(gap, _gap(prob, x, float(w @ (dists - u_res)), z, x))
        if gap <= GAP_TOL * (1.0 + abs(best_val)):
            converged = True
            break
        if np.vdot(y - u_next, u_next - u) > 0:  # momentum against the step
            theta = 1.0
        theta_next = 0.5 * (1.0 + math.sqrt(1.0 + 4.0 * theta * theta))
        y = u_next + ((theta - 1.0) / theta_next) * (u_next - u)
        u, theta = u_next, theta_next
    return InnerResult(best_x, best_val, iterations, converged, "dual", gap=float(gap))


def solve_inner(
    prob: InnerProblem,
    x0,
    cfg: InnerConfig | None = None,
    *,
    summary: AttractionSummary | None = None,
) -> InnerResult:
    """The fixed-point solve, or the dual solve where its gap refuses it.

    The fixed-point result (see ``weiszfeld_solve``) is returned when its gap
    certifies it.  Otherwise, whether the iteration stopped on an attraction
    set, ran out of budget or met its step test at a point the gap refuses,
    the certified dual solve takes over (``method_used`` ``"dual"``, with
    ``gap`` set).  Extrapolated iterates need not decrease the objective, so
    the dual solve starts from whichever of ``x0`` and the fixed-point point
    has the lower objective, and never returns a worse point than that.

    ``summary``, optional, is the ``AttractionSummary`` of ``x0``; the first
    map and the objective at ``x0`` are then built from it, with no pass of
    the attraction batch.
    """
    x0 = np.asarray(x0, dtype=float)
    result = weiszfeld_solve(prob, x0, cfg, summary=summary)
    if result.converged:
        return result
    if summary is None:
        x0_value = phi(prob, x0)
    else:
        x0_value = _quadratic(prob, x0) + summary.distance_sum
    start = result.x if result.value <= x0_value else x0
    return dual_solve(prob, start, cfg)
