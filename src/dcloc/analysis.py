"""Solution structure for the single attraction / single repulsion problem.

With one attraction set, one repulsion set, weights alpha >= beta > 0 and no
constraint, the minimization has a clean structure: for alpha > beta its
solutions coincide with the maximizers of the repulsion distance over the
attraction set; for alpha = beta every such maximizer spawns a whole solution
ray leaving the repulsion set.  This module classifies candidate points
(stationary/critical), solves the reduced maximization in closed form for
every bounded attraction set, builds the solution rays and checks uniqueness.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .geometry import (
    AxisBox,
    ConvexSet,
    GeometryError,
    Halfspace,
    Singleton,
    membership_tol,
)

__all__ = [
    "SpecialInstance",
    "PointClass",
    "SolutionRay",
    "UnboundedDomain",
    "classify_point",
    "solve_reduced_max",
    "solution_rays",
    "solve_special",
    "uniqueness_check",
]


class UnboundedDomain(ValueError):
    """The reduced maximization needs a bounded attraction set."""


@dataclass(eq=False)
class SpecialInstance:
    omega: ConvexSet  # attraction set
    theta: ConvexSet  # repulsion set
    alpha: float = 1.0
    beta: float = 1.0

    def __post_init__(self):
        self.alpha = float(self.alpha)
        self.beta = float(self.beta)
        if not (self.alpha >= self.beta > 0):
            raise ValueError("weights must satisfy alpha >= beta > 0")
        if self.omega.dim != self.theta.dim:
            raise ValueError("attraction and repulsion sets of different dimension")

    @property
    def dim(self) -> int:
        return self.omega.dim

    def objective(self, x) -> float:
        return self.alpha * self.omega.distance(x) - self.beta * self.theta.distance(x)


@dataclass
class PointClass:
    """Stationarity/criticality of a point; None marks an undecided case."""

    stationary: bool | None
    critical: bool | None
    witness: np.ndarray | None = None  # common subgradient, when one was found


@dataclass
class SolutionRay:
    base: np.ndarray
    direction: np.ndarray  # may be zero (ray degenerates to the point)

    def point_at(self, t: float) -> np.ndarray:
        return self.base + t * self.direction


def classify_point(inst: SpecialInstance, x, tol: float = 1e-9) -> PointClass:
    """Decide stationarity (subdifferential inclusion) and criticality
    (subdifferential intersection) via the closed-form distance
    subdifferentials.

    Both subdifferentials are singletons off the sets, so equality of the
    scaled gradients settles everything.  On the attraction set the repulsion
    gradient is tested for membership in the scaled normal cone.  On the
    repulsion set the inclusion direction is set-valued; it is decided only
    in the enumerated shape cases and left undecided otherwise.
    """
    x = np.asarray(x, dtype=float)
    in_omega = inst.omega.contains(x, max(tol, membership_tol(x)))
    in_theta = inst.theta.contains(x, max(tol, membership_tol(x)))

    if not in_theta:
        d_t = inst.theta.distance(x)
        grad_h = inst.beta * (x - inst.theta.project(x)) / d_t
        if not in_omega:
            d_o = inst.omega.distance(x)
            grad_g = inst.alpha * (x - inst.omega.project(x)) / d_o
            same = bool(np.linalg.norm(grad_h - grad_g) <= tol * (1 + inst.alpha))
            return PointClass(
                stationary=same, critical=same, witness=grad_h if same else None
            )
        # x on the attraction set: grad_h must lie in alpha * (normal cone & B)
        scaled = grad_h / inst.alpha
        inside = bool(
            np.linalg.norm(scaled) <= 1 + tol
            and inst.omega.normal_cone_contains(x, scaled, tol)
        )
        return PointClass(
            stationary=inside, critical=inside, witness=grad_h if inside else None
        )

    # x on the repulsion set: its subdifferential is set-valued
    if not in_omega:
        d_o = inst.omega.distance(x)
        grad_g = inst.alpha * (x - inst.omega.project(x)) / d_o
        scaled = grad_g / inst.beta
        critical = bool(
            np.linalg.norm(scaled) <= 1 + tol
            and inst.theta.normal_cone_contains(x, scaled, tol)
        )
        # inclusion of a set containing 0 in the nonzero singleton always fails
        return PointClass(
            stationary=False, critical=critical, witness=grad_g if critical else None
        )

    # x on both sets: zero is a common subgradient
    stationary: bool | None
    if isinstance(inst.omega, Singleton):
        # attraction subdifferential is the full ball of radius alpha
        stationary = inst.beta <= inst.alpha + tol
    elif inst.theta.interior_depth(x) > tol:
        stationary = True  # repulsion subdifferential collapses to {0}
    else:
        stationary = None
    return PointClass(stationary=stationary, critical=True, witness=np.zeros_like(x))


def solve_reduced_max(inst: SpecialInstance, tol: float = 1e-9) -> list[np.ndarray]:
    """Maximize the repulsion distance over the attraction set, in closed form.

    Over a box: the vertices within ``tol * (1 + best)`` of the best, in
    lexicographic order with the lower bound first.  d(x, Theta) grows with a
    separable sum of convex terms f_k(x_k) (``_coordinate_terms``), so the
    vertex ``top`` that takes the bound with the larger f_k in every
    coordinate is a maximizer, and the others differ from it only in the
    coordinates whose single flip at ``top`` ties.  That costs 1 + 2n
    distances, plus 2^t for t tied coordinates.

    Over a ball B(c, r): c + r*u for each unit u attaining d(x, Theta) = max
    over |u| <= 1 of u.x - sigma_Theta(u), that is away from Theta when c
    lies outside it, else towards its nearest boundary.  ``GeometryError``
    means infinitely many maximizers: a box edge, the whole ball, a sphere or
    an arc.
    """
    omega, theta = inst.omega, inst.theta
    if isinstance(omega, Singleton):
        return [omega.point.copy()]
    if omega.bounding_radius() is None:
        raise UnboundedDomain("attraction set must be bounded")
    if isinstance(omega, AxisBox):
        lo, hi = omega.lower, omega.upper
        up = _coordinate_terms(theta, hi) > _coordinate_terms(theta, lo)
        top, flip = np.where(up, hi, lo), np.where(up, lo, hi)

        def moved(k, coords):  # the distance at top with coordinate k from coords
            x = top.copy()
            x[k] = coords[k]
            return theta.distance(x)

        free = np.flatnonzero(lo < hi)
        best = theta.distance(top)
        cut = best - tol * (1 + best)
        # a vertex that flips several coordinates of top lies below each of
        # its single flips, so the maximizers flip only coordinates that tie
        tied = {k for k in free if moved(k, flip) >= cut}
        choices = [(lo[k], hi[k]) if k in tied else (top[k],) for k in range(inst.dim)]
        vertices = [np.array(c, dtype=float) for c in itertools.product(*choices)]
        values = [theta.distance(v) for v in vertices]
        best = max(values)  # tied vertices may round apart
        cut = best - tol * (1 + best)
        # the maximizers of a convex function over a box are a union of faces,
        # so they are finite unless an edge midpoint ties; along each axis the
        # edge at top is the highest
        middle = 0.5 * (lo + hi)
        if any(moved(k, middle) >= cut for k in free):
            raise GeometryError("a whole edge of the box maximizes")
        return [v for v, val in zip(vertices, values) if val >= cut]
    c, r = omega.center, omega.radius
    away = c - theta.project(c)  # math.hypot: no underflow for tiny vectors
    if math.hypot(*away) <= tol:
        depth = theta.interior_depth(c)
        if r <= depth + tol:
            raise GeometryError("every point maximizes: the ball lies in the repulsion set")
        if isinstance(theta, AxisBox):
            slack = np.concatenate([c - theta.lower, theta.upper - c])
            faces = np.flatnonzero(slack <= depth + tol * (1 + r - depth))
            axes = faces % inst.dim
            if depth <= tol and np.any(axes != axes[0]):
                raise GeometryError("an arc maximizes: centre on a repeller edge or corner")
            signs = np.where(faces < inst.dim, -r, r)  # lower faces, then upper
            return [c + s * np.eye(inst.dim)[k] for s, k in zip(signs, axes)]
        if isinstance(theta, Halfspace):
            away = theta.normal
        else:  # a ball's centre or the point
            away = c - theta.selection_point()
            if math.hypot(*away) <= tol:
                raise GeometryError("every boundary point maximizes: repeller at the centre")
    return [c + (r / math.hypot(*away)) * away]


def _coordinate_terms(theta: ConvexSet, x: np.ndarray) -> np.ndarray:
    """The terms f_k(x_k), each convex in x_k, of a sum that d(x, Theta) is a
    nondecreasing function of: a_k*x_k for a halfspace a.x <= b, and the gap
    from x_k to [l_k, u_k] for a box, or to the point's or ball's centre."""
    if isinstance(theta, Halfspace):
        return theta.normal * x
    if isinstance(theta, AxisBox):
        return np.abs(x - theta.project(x))
    return np.abs(x - theta.selection_point())


def solution_rays(inst: SpecialInstance, s2: list[np.ndarray]) -> list[SolutionRay]:
    """Rays spanned by the reduced-max solutions away from the repulsion set.

    Only meaningful in the equal-weight case with the attraction set not fully
    inside the repulsion set; then the solution set is exactly the union of
    these rays.
    """
    if inst.alpha != inst.beta:
        raise ValueError("solution rays require equal weights")
    if not any(inst.theta.distance(u) > 0 for u in s2):
        raise ValueError(
            "attraction set is contained in the repulsion set: no rays exist"
        )
    return [
        SolutionRay(base=np.asarray(u, dtype=float), direction=u - inst.theta.project(u))
        for u in s2
    ]


def solve_special(inst: SpecialInstance) -> tuple[list, str]:
    """Full solution set of the two-set problem.

    For alpha > beta the solutions are exactly the reduced-max points (and do
    not depend on the weights); for alpha = beta each reduced-max point
    extends to a ray, unless the attraction set lies inside the repulsion set,
    in which case the reduced-max points are themselves solutions.  Raises
    ``GeometryError`` when the reduced maximizers are infinitely many.
    """
    s2 = solve_reduced_max(inst)
    if inst.alpha > inst.beta:
        return s2, "reduced-equivalent"
    if any(inst.theta.distance(u) > 0 for u in s2):
        return solution_rays(inst, s2), "ray-family"
    return s2, "reduced-equivalent"


def uniqueness_check(inst: SpecialInstance, tol: float = 1e-9) -> bool | None:
    """Whether the two-set problem has exactly one solution.

    True only in two situations: strictly dominant attraction weight with a
    unique reduced-max point, or equal weights with a singleton attractor
    strictly inside the repulsion set.  None for an unbounded attraction set
    at dominant attraction weight.
    """
    if inst.alpha > inst.beta:
        try:
            return len(solve_reduced_max(inst, tol)) == 1
        except UnboundedDomain:
            return None
        except GeometryError:  # infinitely many maximizers
            return False
    if not isinstance(inst.omega, Singleton):
        return False
    p = inst.omega.point
    if isinstance(inst.theta, Singleton):
        return False  # a point repeller has empty interior
    return inst.theta.interior_depth(p) > tol
