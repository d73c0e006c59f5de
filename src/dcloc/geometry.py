"""Closed-form convex set primitives.

Four shape families are supported: singletons, Euclidean balls, axis-aligned
boxes with optionally infinite bounds, and halfspaces.  Every family admits a
closed-form Euclidean projection, which makes membership tests, distance
evaluation, distance subgradients and normal-cone membership cheap and exact
(up to floating point).  General polytopes are deliberately not supported:
their projection would need an inner QP.

A family's public ``project`` is a dimension check of its input followed by
one private formula, ``_project``, which takes a float vector of the set's
dimension as it is.  ``contains`` and ``distance`` check once and then use
the formula too.  The solver calls ``_project`` directly on the arrays it
builds itself, which need no check.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

__all__ = [
    "GeometryError",
    "DimensionMismatch",
    "ConvexSet",
    "Singleton",
    "Ball",
    "AxisBox",
    "Halfspace",
    "membership_tol",
    "set_contains_set",
]


class GeometryError(ValueError):
    """Invalid geometric input (bad shape parameters, unsupported query)."""


class DimensionMismatch(GeometryError):
    """Operands live in spaces of different dimension."""


# the least and the greatest positive normal float
_TINY, _HUGE = sys.float_info.min, sys.float_info.max


def _vec(x) -> np.ndarray:
    a = np.asarray(x, dtype=float)
    if a.ndim != 1:
        raise GeometryError(f"expected a 1-d coordinate array, got shape {a.shape}")
    return a


def _finite(value, what: str):
    # math.isfinite over a list: several times cheaper than np.isfinite on
    # the small arrays that CSV loading builds by the thousand
    entries = value.tolist() if isinstance(value, np.ndarray) else (value,)
    if not all(map(math.isfinite, entries)):
        raise GeometryError(f"{what} must be finite, got {value}")
    return value


def _norm(d: np.ndarray) -> float:
    """``np.linalg.norm(d)`` of a contiguous 1-d array, bit for bit, without
    its call overhead: norm takes the same ``sqrt(d.dot(d))``."""
    return math.sqrt(d.dot(d))


def membership_tol(x: np.ndarray) -> float:
    """Scale-aware default tolerance for membership tests."""
    # np.linalg.norm(x) takes the norm of x.ravel(order="K"), and a strided x
    # would sum in another order
    return 1e-9 * (1.0 + _norm(x.ravel(order="K")))


def coordinate_norms(
    d: np.ndarray, minus: np.ndarray | None = None, out: np.ndarray | None = None
) -> np.ndarray:
    """Euclidean norms over the leading (coordinate) axis of ``d``, or of
    ``d - minus`` (the two broadcast against each other after that axis).

    Accumulated one coordinate at a time, so neither the difference nor a
    squared copy is built in full: the temporaries have the result's shape.
    ``out``, optional, is an array of the broadcast shape of ``d - minus``,
    coordinate axis included, in which the squared differences are formed
    and summed, so that nothing is allocated; it may be ``minus`` itself,
    which is then overwritten.  The norms are then returned as ``out[0]``.
    """
    total = None
    for k in range(len(d)):
        slot = None if out is None else out[k]
        if minus is None:
            c = np.multiply(d[k], d[k], out=slot)
        else:
            c = np.subtract(d[k], minus[k], out=slot)
            c *= c
        total = c if total is None else np.add(total, c, out=total)
    return np.sqrt(total, out=total)


def _residuals(x: np.ndarray, proj: np.ndarray) -> np.ndarray:
    """The residuals ``x - proj[:, i]`` of a point ``x`` as the columns of an
    (n, m) array, formed one coordinate at a time in ``proj`` itself unless
    it is read-only (a singleton family's point parameter, which must not
    change).  The broadcast ``x[:, None] - proj`` gives the same values but
    allocates an (n, m) temporary besides its result."""
    diff = proj if proj.flags.writeable else np.empty_like(proj)
    for k in range(len(x)):
        np.subtract(x[k], proj[k], out=diff[k])
    return diff


@dataclass(eq=False)
class ConvexSet:
    """Base class for the supported nonempty closed convex shapes.

    Construction rejects NaN anywhere and infinities outside box bounds.
    """

    # whether coordinate k of a projection depends only on coordinate k of
    # the point and row k of the point-like parameters (and the family has
    # no scalar ones), so that a squared distance is a sum of per-coordinate
    # terms: see ``model.SetBatch.coordinate_terms``
    separable = False

    def _check_dim(self, x: np.ndarray) -> np.ndarray:
        x = _vec(x)
        if x.shape[0] != self.dim:
            raise DimensionMismatch(
                f"point of dimension {x.shape[0]} vs set of dimension {self.dim}"
            )
        return x

    @property
    def dim(self) -> int:
        raise NotImplementedError

    def project(self, x) -> np.ndarray:
        """Euclidean projection of ``x`` onto the set."""
        return self._project(self._check_dim(x))

    def _project(self, x: np.ndarray) -> np.ndarray:
        """``project`` of a float vector ``x`` of the set's dimension, taken as
        it is: the caller vouches for its type and shape.  The result is a
        new array."""
        raise NotImplementedError

    @staticmethod
    def _project_array(x: np.ndarray, *params, out: np.ndarray | None = None) -> np.ndarray:
        """Projections of the points ``x``, coordinate axis first (shape
        ``(n, ...)``), onto the sets whose stacked ``_key()`` parameters
        broadcast against ``x``: point-like parameters of shape ``(n, ...)``
        and scalar ones over the trailing axes, such as ``(n, m)`` and
        ``(m,)`` for m sets.  The set axis is then the last, so elementwise
        work runs in contiguous loops over the sets.  This is the array kernel
        behind ``project_many`` and ``model.SetBatch``.  The result is
        written to ``out`` when it is given (an array of the broadcast shape)
        and to a fresh array otherwise; for singletons it is always the point
        parameter itself."""
        raise NotImplementedError

    def project_many(self, pts: np.ndarray) -> np.ndarray:
        """Row-wise projection of an ``(N, n)`` array of points."""
        pts = np.asarray(pts, dtype=float)
        if pts.ndim != 2 or pts.shape[1] != self.dim:
            raise DimensionMismatch(f"expected (N, {self.dim}) points, got shape {pts.shape}")
        cols = pts.T
        params = (p[:, None] if np.ndim(p) else p for p in self._key())
        proj = self._project_array(cols, *params)
        if not proj.flags.owndata:  # a singleton's own point
            proj = np.broadcast_to(proj, cols.shape).copy()
        return proj.T

    def distance(self, x) -> float:
        x = self._check_dim(x)
        return _norm(x - self._project(x))

    def contains(self, x, tol: float | None = None) -> bool:
        x = self._check_dim(x)
        if tol is None:
            tol = membership_tol(x)
        return _norm(x - self._project(x)) <= tol

    def support(self, direction) -> float:
        """Support value sup{<direction, q> : q in set}; may be +inf."""
        raise NotImplementedError

    def bounding_radius(self) -> float | None:
        """Radius r with the set inside B(0; r), or None if unbounded."""
        raise NotImplementedError

    def selection_point(self) -> np.ndarray:
        """A canonical point of the set (the 'center' for bounded shapes)."""
        params = (p[:, None] if np.ndim(p) else p for p in self._key())
        return self._selection_array(*params)[:, 0]

    @staticmethod
    def _selection_array(*params) -> np.ndarray:
        """Selection points of the sets whose stacked ``_key()`` parameters
        are given as in ``_project_array`` (coordinate axis first, set axis
        last), one column per set: the point of a singleton, the centre of a
        ball, the midpoint of a bounded box, and the projection of the origin
        onto an unbounded box or a halfspace.  This is the one kernel behind
        ``selection_point`` and ``model.SetBatch.selection_points``."""
        raise NotImplementedError

    def interior_depth(self, x) -> float:
        """Distance from ``x`` to the boundary; <= 0 when the interior is empty
        or ``x`` lies outside, +inf deep inside an unbounded shape."""
        raise NotImplementedError

    def normal_cone_contains(self, x, v, tol: float = 1e-9) -> bool:
        """Whether ``v`` lies in the normal cone to the set at ``x`` (x must
        belong to the set)."""
        raise NotImplementedError

    def __eq__(self, other) -> bool:
        if type(self) is not type(other):
            return NotImplemented
        return all(
            np.array_equal(a, b) for a, b in zip(self._key(), other._key())
        )

    def _key(self) -> tuple:
        raise NotImplementedError


@dataclass(eq=False)
class Singleton(ConvexSet):
    point: np.ndarray

    def __post_init__(self):
        self.point = _finite(_vec(self.point), "point coordinates")

    @property
    def dim(self) -> int:
        return self.point.shape[0]

    separable = True

    def _project(self, x):
        return self.point.copy()

    @staticmethod
    def _project_array(x, point, out=None):
        return point

    # each shape keeps project and project_many in its own namespace, so that
    # per-class instrumentation can wrap them
    project = ConvexSet.project
    project_many = ConvexSet.project_many

    def support(self, direction) -> float:
        return float(np.dot(_vec(direction), self.point))

    def bounding_radius(self) -> float | None:
        return float(np.linalg.norm(self.point))

    @staticmethod
    def _selection_array(point):
        return point.copy()

    def interior_depth(self, x) -> float:
        return 0.0 if self.contains(x) else -self.distance(x)

    def normal_cone_contains(self, x, v, tol: float = 1e-9) -> bool:
        if not self.contains(x, tol):
            raise GeometryError("normal cone queried at a point outside the set")
        return True  # normal cone at the unique point is the whole space

    def _key(self):
        return (self.point,)


@dataclass(eq=False)
class Ball(ConvexSet):
    center: np.ndarray
    radius: float

    def __post_init__(self):
        self.center = _finite(_vec(self.center), "ball center")
        self.radius = _finite(float(self.radius), "ball radius")
        if not self.radius > 0:
            raise GeometryError("ball radius must be positive")

    @property
    def dim(self) -> int:
        return self.center.shape[0]

    def _project(self, x):
        d = x - self.center
        nd = _norm(d)
        if nd <= self.radius:
            return x.copy()
        return self.center + (self.radius / nd) * d

    @staticmethod
    def _project_array(x, center, radius, out=None):
        d = np.subtract(x, center, out=out)
        scale = coordinate_norms(d)
        np.maximum(scale, radius, out=scale)
        d *= np.divide(radius, scale, out=scale)
        d += center
        return d

    project = ConvexSet.project
    project_many = ConvexSet.project_many

    def support(self, direction) -> float:
        direction = _vec(direction)
        return float(
            np.dot(direction, self.center) + self.radius * np.linalg.norm(direction)
        )

    def bounding_radius(self) -> float | None:
        return float(np.linalg.norm(self.center)) + self.radius

    @staticmethod
    def _selection_array(center, radius):
        return center.copy()

    def interior_depth(self, x) -> float:
        x = self._check_dim(x)
        return self.radius - float(np.linalg.norm(x - self.center))

    def normal_cone_contains(self, x, v, tol: float = 1e-9) -> bool:
        x = self._check_dim(x)
        v = self._check_dim(v)
        if not self.contains(x, tol):
            raise GeometryError("normal cone queried at a point outside the set")
        nv = np.linalg.norm(v)
        if nv <= tol:
            return True
        d = x - self.center
        nd = np.linalg.norm(d)
        if nd < self.radius - tol * (1.0 + self.radius):
            return False  # interior point: cone is {0}
        # v must be a nonnegative multiple of the outward radial direction
        u = d / nd
        return bool(np.linalg.norm(v - nv * u) <= tol * (1.0 + nv))

    def _key(self):
        return (self.center, self.radius)


@dataclass(eq=False)
class AxisBox(ConvexSet):
    """Axis-aligned box; bounds may be -inf/+inf, and lower may equal upper
    (degenerate faces encode points, segments and affine slabs)."""

    lower: np.ndarray
    upper: np.ndarray

    def __post_init__(self):
        self.lower = _vec(self.lower)
        self.upper = _vec(self.upper)
        if self.lower.shape != self.upper.shape:
            raise DimensionMismatch("box bounds of different lengths")
        # scalar checks on lists, as in _finite
        lower, upper = self.lower.tolist(), self.upper.tolist()
        if any(lo > hi for lo, hi in zip(lower, upper)):
            raise GeometryError("box requires lower <= upper componentwise")
        if any(map(math.isnan, lower)) or any(map(math.isnan, upper)):
            raise GeometryError("box bounds must not be NaN")

    @property
    def dim(self) -> int:
        return self.lower.shape[0]

    separable = True

    def _project(self, x):
        return np.clip(x, self.lower, self.upper)

    @staticmethod
    def _project_array(x, lower, upper, out=None):
        out = np.maximum(x, lower, out=out)
        return np.minimum(out, upper, out=out)

    project = ConvexSet.project
    project_many = ConvexSet.project_many

    def support(self, direction) -> float:
        direction = _vec(direction)
        bound = np.where(direction > 0, self.upper, self.lower)
        terms = np.zeros_like(direction)
        mask = direction != 0
        terms[mask] = direction[mask] * bound[mask]  # avoids 0 * inf
        return float(np.sum(terms))

    def is_bounded(self) -> bool:
        # scalar checks on lists, as in _finite
        return all(map(math.isfinite, self.lower.tolist() + self.upper.tolist()))

    def bounding_radius(self) -> float | None:
        if not self.is_bounded():
            return None
        # the farthest vertex takes the larger-magnitude bound in every coordinate
        return float(np.linalg.norm(np.maximum(np.abs(self.lower), np.abs(self.upper))))

    @staticmethod
    def _selection_array(lower, upper):
        # the projection of the origin, replaced by the midpoint in the
        # columns of bounded boxes (and only there: inf + -inf would warn)
        points = np.clip(np.zeros(lower.shape), lower, upper)
        bounded = np.isfinite(lower).all(axis=0) & np.isfinite(upper).all(axis=0)
        points[:, bounded] = 0.5 * (lower[:, bounded] + upper[:, bounded])
        return points

    def interior_depth(self, x) -> float:
        x = self._check_dim(x)
        return float(np.min(np.minimum(x - self.lower, self.upper - x)))

    def normal_cone_contains(self, x, v, tol: float = 1e-9) -> bool:
        x = self._check_dim(x)
        v = self._check_dim(v)
        if not self.contains(x, tol):
            raise GeometryError("normal cone queried at a point outside the set")
        nv = np.linalg.norm(v)
        if nv <= tol:
            return True
        # sup over the box of <v, q - x>, with tiny components of v zeroed out
        vv = np.where(np.abs(v) <= tol * nv, 0.0, v)
        bound = np.where(vv > 0, self.upper, self.lower)
        gap = np.zeros_like(vv)
        mask = vv != 0
        gap[mask] = vv[mask] * (bound[mask] - x[mask])  # avoids 0 * inf
        return bool(np.sum(gap) <= tol * max(1.0, nv))

    def _key(self):
        return (self.lower, self.upper)


@dataclass(eq=False)
class Halfspace(ConvexSet):
    """The set {x : <normal, x> <= offset}."""

    normal: np.ndarray
    offset: float

    def __post_init__(self):
        self.normal = _finite(_vec(self.normal), "halfspace normal")
        self.offset = _finite(float(self.offset), "halfspace offset")
        # projections divide by the squared norm, which must not have
        # underflowed to zero or a subnormal, nor overflowed
        with np.errstate(over="ignore", under="ignore"):
            squared = float(np.dot(self.normal, self.normal))
        if not _TINY <= squared <= _HUGE:
            raise GeometryError(
                f"halfspace normal has squared norm {squared}, outside the "
                f"normal floats [{_TINY}, {_HUGE}]"
            )

    @property
    def dim(self) -> int:
        return self.normal.shape[0]

    def _project(self, x):
        excess = np.dot(self.normal, x) - self.offset
        if excess <= 0:
            return x.copy()
        return x - (excess / np.dot(self.normal, self.normal)) * self.normal

    @staticmethod
    def _project_array(x, normal, offset, out=None):
        out = np.multiply(x, normal, out=out)
        excess = np.sum(out, axis=0)
        excess -= offset
        np.maximum(excess, 0.0, out=excess)
        excess /= np.sum(normal * normal, axis=0)
        np.multiply(excess, normal, out=out)
        return np.subtract(x, out, out=out)

    project = ConvexSet.project
    project_many = ConvexSet.project_many

    def support(self, direction) -> float:
        direction = _vec(direction)
        nn = np.dot(self.normal, self.normal)
        t = np.dot(direction, self.normal) / nn
        residual = direction - t * self.normal
        if t < 0 or np.linalg.norm(residual) > 1e-12 * (1 + np.linalg.norm(direction)):
            return float("inf")
        return t * self.offset

    def bounding_radius(self) -> float | None:
        return None

    @staticmethod
    def _selection_array(normal, offset):
        # project's formula at the origin, where its excess is -offset.  The
        # squared norms come from np.dot on contiguous rows, as in project:
        # np.sum over the coordinates may round them differently
        rows = np.ascontiguousarray(normal.T)
        squares = np.fromiter(map(np.dot, rows, rows), float, len(rows))
        return 0.0 - (np.maximum(-offset, 0.0) / squares) * normal

    def interior_depth(self, x) -> float:
        x = self._check_dim(x)
        return float(
            (self.offset - np.dot(self.normal, x)) / np.linalg.norm(self.normal)
        )

    def normal_cone_contains(self, x, v, tol: float = 1e-9) -> bool:
        x = self._check_dim(x)
        v = self._check_dim(v)
        if not self.contains(x, tol):
            raise GeometryError("normal cone queried at a point outside the set")
        nv = np.linalg.norm(v)
        if nv <= tol:
            return True
        slack = self.offset - np.dot(self.normal, x)
        if slack > tol * (1.0 + np.linalg.norm(self.normal)):
            return False  # interior point: cone is {0}
        t = np.dot(v, self.normal) / np.dot(self.normal, self.normal)
        if t < -tol:
            return False
        return bool(np.linalg.norm(v - t * self.normal) <= tol * (1.0 + nv))

    def _key(self):
        return (self.normal, self.offset)


def set_contains_set(inner: ConvexSet, outer: ConvexSet) -> bool | None:
    """Decide ``inner`` subset-of ``outer`` for the decidable shape pairs.

    Returns True/False when decidable, None otherwise.  Containment in a
    halfspace or a box reduces to support-function evaluations; containment
    in a ball is handled for singletons, balls and bounded boxes.
    """
    if isinstance(inner, Singleton):
        return outer.contains(inner.point)
    if isinstance(outer, Halfspace):
        return inner.support(outer.normal) <= outer.offset + 1e-12 * (
            1.0 + abs(outer.offset)
        )
    if isinstance(outer, AxisBox):
        n = outer.dim
        for k in range(n):
            e = np.zeros(n)
            e[k] = 1.0
            if inner.support(e) > outer.upper[k] + 1e-12 * (1.0 + abs(outer.upper[k])):
                return False
            if -inner.support(-e) < outer.lower[k] - 1e-12 * (1.0 + abs(outer.lower[k])):
                return False
        return True
    if isinstance(outer, Ball):
        if isinstance(inner, Ball):
            gap = np.linalg.norm(inner.center - outer.center) + inner.radius
            return bool(gap <= outer.radius + 1e-12 * (1.0 + outer.radius))
        if isinstance(inner, AxisBox) and inner.is_bounded():
            # the vertex farthest from the centre takes, in every coordinate,
            # the bound farther from it; the box is inside iff that vertex is
            lower, upper = inner.lower, inner.upper
            c = outer.center
            return outer.contains(np.where(np.abs(lower - c) >= np.abs(upper - c), lower, upper))
        return None
    return None  # a singleton outer set: only a singleton fits, handled above
