"""Outer d.c. iteration for the full attraction/repulsion problem.

Each outer step picks a subgradient of the concave part at the current point
(unit directions away from the repulsion sets, zero on them, plus the
quadratic correction) and hands the resulting linearized strongly convex
subproblem to the inner solver.  The objective decreases by at least
(lam/2) * step^2 per outer step, so the iteration terminates either at a
fixed point of the step map (a critical point of the d.c. reformulation) or
after the configured iteration budget.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .geometry import coordinate_norms, membership_tol
from .inner import (
    InnerConfig,
    InnerProblem,
    InnerResult,
    NotInConstraint,
    _require_tolerance,
    solve_inner,
)
from .model import ProblemInstance, evaluate_objective

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
        if self.max_outer < 1:
            raise ValueError(f"max_outer must be at least 1, got {self.max_outer}")
        _require_tolerance("outer_step_tol", self.outer_step_tol)


@dataclass
class TrajectoryPoint:
    k: int
    x: np.ndarray
    y: np.ndarray | None
    f_value: float
    step_norm: float


@dataclass
class SolveReport:
    final_x: np.ndarray
    final_value: float
    outer_iterations: int
    termination: str  # step_tol | max_outer
    criticality_residual: float
    trajectory: list[TrajectoryPoint] | None
    inner_methods_used: list[str]


def _repulsion_subgradient(inst: ProblemInstance, x: np.ndarray) -> np.ndarray:
    """A subgradient of the weighted repulsion-distance sum at ``x``.

    Unit direction away from each repulsion set not containing ``x``; the zero
    selection on sets that do contain it.
    """
    if not inst.repulsions:
        return np.zeros(inst.dimension)
    diff = x[:, None] - inst.repulsion_batch.projections(x)
    dists = coordinate_norms(diff)
    scale = np.divide(
        inst.repulsion_weights, dists, out=np.zeros_like(dists), where=dists > membership_tol(x)
    )
    return diff @ scale


def _step(
    inst: ProblemInstance,
    lam: float,
    x_k: np.ndarray,
    inner_cfg: InnerConfig,
) -> tuple[np.ndarray, InnerResult]:
    y_k = _repulsion_subgradient(inst, x_k) + lam * x_k
    prob = InnerProblem.for_instance(inst, y_k, lam)
    result = solve_inner(prob, x_k, inner_cfg)
    return y_k, result


def dca_step(
    inst: ProblemInstance,
    lam: float,
    x_k,
    inner_cfg: InnerConfig | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """One outer step: linearization point ``y_k`` and the next iterate."""
    x_k = np.asarray(x_k, dtype=float)
    if not inst.constraint.contains(x_k, membership_tol(x_k)):
        raise NotInConstraint("outer iterate is not in the constraint set")
    y_k, result = _step(inst, lam, x_k, inner_cfg or InnerConfig())
    return y_k, result.x


def dca_solve(inst: ProblemInstance, x0, cfg: DcaConfig | None = None) -> SolveReport:
    """Run outer steps until the step norm drops below tolerance."""
    cfg = cfg or DcaConfig()
    x = np.asarray(x0, dtype=float)
    if not inst.constraint.contains(x, membership_tol(x)):
        raise NotInConstraint("starting point is not in the constraint set")
    trajectory = None
    if cfg.record_trajectory:
        trajectory = [
            TrajectoryPoint(
                k=0, x=x, y=None, f_value=evaluate_objective(inst, x), step_norm=0.0
            )
        ]
    methods: list[str] = []
    termination = "max_outer"
    k = 0
    for k in range(1, cfg.max_outer + 1):
        y_k, result = _step(inst, cfg.lam, x, cfg.inner)
        if result.method_used not in methods:
            methods.append(result.method_used)
        step = float(np.linalg.norm(result.x - x))
        x = result.x
        if trajectory is not None:
            trajectory.append(
                TrajectoryPoint(
                    k=k,
                    x=x,
                    y=y_k,
                    f_value=evaluate_objective(inst, x),
                    step_norm=step,
                )
            )
        if step <= cfg.outer_step_tol:
            termination = "step_tol"
            break
    residual = criticality_residual(inst, cfg.lam, x, cfg.inner)
    return SolveReport(
        final_x=x,
        final_value=evaluate_objective(inst, x),
        outer_iterations=k,
        termination=termination,
        criticality_residual=residual,
        trajectory=trajectory,
        inner_methods_used=methods,
    )


def criticality_residual(
    inst: ProblemInstance,
    lam: float,
    x,
    inner_cfg: InnerConfig | None = None,
) -> float:
    """Norm of the displacement produced by one outer step at ``x``.

    The step map fixes ``x`` exactly when the chosen subgradient of the
    concave part is also a subgradient of the convex part, so a zero residual
    certifies criticality with respect to that selection.  The value is a
    surrogate: it inherits the inner solver's accuracy.
    """
    x = np.asarray(x, dtype=float)
    _, x_next = dca_step(inst, lam, x, inner_cfg)
    return float(np.linalg.norm(x_next - x))


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
    the constraint.  The outer iteration only guarantees a critical point, so
    restarts are the practical guard against poor local behavior.  The merge
    is deterministic: best objective value, ties broken by lexicographically
    smallest final iterate.
    """
    cfg = cfg or DcaConfig()
    if n_starts < 1:
        raise ValueError(f"need at least one start, got n_starts={n_starts}")
    if sample_box is None:
        radius = inst.constraint.bounding_radius()
        if radius is None:
            raise ValueError(
                "unbounded constraint set: pass an explicit sample_box"
            )
        lo = np.full(inst.dimension, -radius)
        hi = np.full(inst.dimension, radius)
    else:
        lo = np.asarray(sample_box[0], dtype=float)
        hi = np.asarray(sample_box[1], dtype=float)
    rng = np.random.Generator(np.random.Philox(seed))
    best: SolveReport | None = None
    for _ in range(n_starts):
        x0 = inst.constraint.project(rng.uniform(lo, hi))
        report = dca_solve(inst, x0, cfg)
        if best is None or _report_better(report, best):
            best = report
    return best


def _report_better(candidate: SolveReport, incumbent: SolveReport) -> bool:
    if candidate.final_value != incumbent.final_value:
        return candidate.final_value < incumbent.final_value
    return tuple(candidate.final_x) < tuple(incumbent.final_x)
