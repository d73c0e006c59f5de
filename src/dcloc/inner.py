"""Strongly convex inner subproblem solvers.

The subproblem minimizes a weighted sum of distances to the attraction sets
plus a quadratic term minus a linear term, over the constraint set.  The
quadratic term makes the objective strongly convex, so the minimizer is
unique.  The primary solver is a fixed-point iteration that averages the
projections onto the attraction sets with reciprocal-distance weights and
projects back onto the constraint; a projected subgradient method with
diminishing 1/l steps serves as a fallback for iterates landing exactly on an
attraction set (where the fixed-point map divides by zero).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .geometry import ConvexSet, membership_tol, row_norms
from .model import ProblemInstance, SetBatch, WeightedSet

__all__ = [
    "InnerProblem",
    "InnerConfig",
    "InnerResult",
    "OnTargetSet",
    "NotInConstraint",
    "phi",
    "weiszfeld_map",
    "weiszfeld_solve",
    "subgradient_solve",
    "solve_inner",
]


class NotInConstraint(ValueError):
    """Starting point outside the constraint set."""


class OnTargetSet(RuntimeError):
    """An iterate landed on an attraction set; the fixed-point map is undefined."""

    def __init__(self, index: int, x: np.ndarray):
        super().__init__(f"iterate lies on attraction set {index}")
        self.index = index
        self.x = x


@dataclass(eq=False)
class InnerProblem:
    v: np.ndarray
    lam: float
    attractions: list[WeightedSet]
    constraint: ConvexSet

    def __post_init__(self):
        self.v = np.asarray(self.v, dtype=float)
        self.lam = float(self.lam)
        if not self.lam > 0:
            raise ValueError("quadratic coefficient must be positive")
        self._batch = None
        self._weights = None

    @classmethod
    def for_instance(cls, inst: ProblemInstance, v, lam: float) -> InnerProblem:
        """The subproblem over ``inst``'s attraction sets and constraint.

        It shares the instance's cached attraction batch and weights, so
        building one per outer step costs no set stacking.
        """
        prob = cls(v, lam, inst.attractions, inst.constraint)
        prob._batch = inst.attraction_batch
        prob._weights = inst.attraction_weights
        return prob

    @property
    def batch(self) -> SetBatch:
        if self._batch is None:
            self._batch = SetBatch([w.set for w in self.attractions])
        return self._batch

    @property
    def weights(self) -> np.ndarray:
        if self._weights is None:
            self._weights = np.array([w.weight for w in self.attractions])
        return self._weights


@dataclass
class InnerConfig:
    method: str = "auto"  # weiszfeld | subgradient | auto
    max_iters: int = 1000
    step_tol: float = 1e-10
    subgradient_step_scale: float = 1.0


@dataclass
class InnerResult:
    x: np.ndarray
    value: float
    iterations: int
    converged: bool
    method_used: str


def phi(prob: InnerProblem, x) -> float:
    """Inner objective: distances + quadratic - linear term."""
    return _phi_terms(prob, np.asarray(x, dtype=float))[0]


def _phi_terms(prob: InnerProblem, x: np.ndarray):
    """``phi(prob, x)`` together with the residuals ``x - P_i(x)`` onto the
    attraction sets and their norms (both None without attraction sets)."""
    val = 0.5 * prob.lam * float(x @ x) - float(prob.v @ x)
    if not prob.attractions:
        return val, None, None
    diff = x - prob.batch.projections(x)
    dists = row_norms(diff)
    return val + float(prob.weights @ dists), diff, dists


def weiszfeld_map(prob: InnerProblem, x) -> np.ndarray:
    """One application of the reciprocal-distance averaging map.

    Raises OnTargetSet when ``x`` is (numerically) on some attraction set,
    since the map weights are the reciprocals of the distances.
    """
    x = np.asarray(x, dtype=float)
    if not prob.attractions:
        return prob.v / prob.lam
    proj = prob.batch.projections(x)
    dists = row_norms(x - proj)
    threshold = membership_tol(x)
    hit = np.nonzero(dists <= threshold)[0]
    if hit.size:
        raise OnTargetSet(int(hit[0]), x)
    inv = prob.weights / dists
    numer = inv @ proj + prob.v
    denom = float(np.sum(inv)) + prob.lam
    return numer / denom


def _require_feasible(prob: InnerProblem, x0) -> np.ndarray:
    x0 = np.asarray(x0, dtype=float)
    if not prob.constraint.contains(x0, membership_tol(x0)):
        raise NotInConstraint("starting point is not in the constraint set")
    return x0


def weiszfeld_solve(prob: InnerProblem, x0, cfg: InnerConfig | None = None) -> InnerResult:
    """Iterate the fixed-point map, projecting onto the constraint each step.

    The objective strictly decreases at every non-fixed step, and strong
    convexity makes the limit the unique minimizer.  OnTargetSet propagates
    to the caller, carrying the offending iterate.
    """
    cfg = cfg or InnerConfig()
    x = _require_feasible(prob, x0)
    converged = False
    iterations = 0
    for iterations in range(1, cfg.max_iters + 1):
        x_next = prob.constraint.project(weiszfeld_map(prob, x))
        step = float(np.linalg.norm(x_next - x))
        x = x_next
        if step <= cfg.step_tol:
            converged = True
            break
    return InnerResult(
        x=x,
        value=phi(prob, x),
        iterations=iterations,
        converged=converged,
        method_used="weiszfeld",
    )


def subgradient_solve(prob: InnerProblem, x0, cfg: InnerConfig | None = None) -> InnerResult:
    """Projected subgradient descent with step scale/l at iteration l.

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
        u = prob.lam * x - prob.v
        if diff is not None:
            safe = dists > threshold_scale * (1.0 + np.linalg.norm(x))
            if np.any(safe):
                scaled = (prob.weights[safe] / dists[safe])[:, None] * diff[safe]
                u = u + np.sum(scaled, axis=0)
        x = prob.constraint.project(x - (cfg.subgradient_step_scale / ell) * u)
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


def solve_inner(prob: InnerProblem, x0, cfg: InnerConfig | None = None) -> InnerResult:
    """Dispatch on the configured method.

    ``auto`` runs the fixed-point solver and falls back to the subgradient
    method when an iterate lands on an attraction set; the fallback restarts
    from the point where the fixed-point map became undefined and the better
    of that point and the subgradient result is kept.
    """
    cfg = cfg or InnerConfig()
    if cfg.method == "weiszfeld":
        return weiszfeld_solve(prob, x0, cfg)
    if cfg.method == "subgradient":
        return subgradient_solve(prob, x0, cfg)
    if cfg.method != "auto":
        raise ValueError(f"unknown inner method {cfg.method!r}")
    try:
        return weiszfeld_solve(prob, x0, cfg)
    except OnTargetSet as stop:
        resume = prob.constraint.project(stop.x)
        result = subgradient_solve(prob, resume, cfg)
        resume_val = phi(prob, resume)
        if resume_val < result.value:
            result = InnerResult(
                x=resume,
                value=resume_val,
                iterations=result.iterations,
                converged=False,
                method_used="subgradient",
            )
        return result
