import functools
import itertools
import time

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from dcloc import (
    AxisBox,
    Ball,
    GeometryError,
    Halfspace,
    Singleton,
    SpecialInstance,
    UnboundedDomain,
    classify_point,
    solution_rays,
    solve_reduced_max,
    solve_special,
    uniqueness_check,
)
from conftest import box_vertices

INF = np.inf


def segment_vs_point(alpha=1.0, beta=1.0):
    """Vertical segment attractor against a point repeller to its side."""
    return SpecialInstance(
        omega=AxisBox([0, -2], [0, 2]),
        theta=Singleton([1.0, 0.0]),
        alpha=alpha,
        beta=beta,
    )


class TestClassifyPoint:
    @pytest.mark.parametrize(
        "point,stationary,critical",
        [
            ([-2.0, 0.0], True, True),   # gradients agree across the segment
            ([2.0, 0.0], True, True),
            ([1.0, 0.0], False, True),   # on the repeller: intersection only
            ([0.5, 0.5], False, False),
            ([-1.0, -4.0], True, True),
            ([0.0, 0.0], True, True),    # on the attractor, normal cone active
        ],
    )
    def test_segment_vs_point_probes(self, point, stationary, critical):
        result = classify_point(segment_vs_point(), point)
        assert result.stationary is stationary
        assert result.critical is critical

    def test_witness_is_common_subgradient(self):
        result = classify_point(segment_vs_point(), [2.0, 0.0])
        assert np.allclose(result.witness, [1.0, 0.0])

    def test_no_witness_when_not_critical(self):
        assert classify_point(segment_vs_point(), [0.5, 0.5]).witness is None

    def test_point_attractor_inside_repeller(self):
        # on both sets with a singleton attractor: the full-ball attraction
        # subdifferential absorbs the repulsion one whenever beta <= alpha
        inst = SpecialInstance(Singleton([0.0, 0.0]), Ball([0, 0], 1.0))
        result = classify_point(inst, [0.0, 0.0])
        assert result.stationary is True and result.critical is True

    def test_interior_of_repeller(self):
        # on both sets, strictly inside the repeller: its subdifferential
        # collapses to zero, which the attraction side always contains
        inst = SpecialInstance(AxisBox([-1, -1], [1, 1]), Ball([0, 0], 3.0))
        result = classify_point(inst, [0.5, 0.0])
        assert result.stationary is True
        assert np.allclose(result.witness, [0.0, 0.0])

    def test_boundary_overlap_undecided(self):
        # on both sets, on the repeller boundary, non-singleton attractor:
        # the inclusion is not decidable in the shape algebra
        inst = SpecialInstance(AxisBox([-2, 0], [2, 0]), Ball([0, -1], 1.0))
        result = classify_point(inst, [0.0, 0.0])
        assert result.stationary is None
        assert result.critical is True


class TestSolveReducedMax:
    def test_segment_endpoints(self):
        pts = solve_reduced_max(segment_vs_point())
        assert sorted(map(tuple, pts)) == [(0.0, -2.0), (0.0, 2.0)]

    def test_singleton_attractor(self):
        inst = SpecialInstance(Singleton([3.0, 4.0]), Ball([0, 0], 1.0))
        assert [tuple(p) for p in solve_reduced_max(inst)] == [(3.0, 4.0)]

    def test_ball_antipode(self):
        inst = SpecialInstance(Ball([2.0, 0.0], 1.0), Singleton([0.0, 0.0]), alpha=2.0)
        pts = solve_reduced_max(inst)
        assert len(pts) == 1 and np.allclose(pts[0], [3.0, 0.0])

    def test_ball_with_central_repeller(self):
        inst = SpecialInstance(Ball([0, 0], 1.0), Singleton([0.0, 0.0]))
        with pytest.raises(GeometryError):
            solve_reduced_max(inst)

    def test_unbounded_attractor(self):
        inst = SpecialInstance(AxisBox([-INF], [0.0]), Singleton([1.0]))
        with pytest.raises(UnboundedDomain):
            solve_reduced_max(inst)

    def test_grid_fallback_ball_vs_box(self):
        # the farthest boundary point from the box [2,3]x[-1,1] is (-1, 0)
        inst = SpecialInstance(Ball([0, 0], 1.0), AxisBox([2, -1], [3, 1]))
        pts = solve_reduced_max(inst)
        assert len(pts) == 1 and np.allclose(pts[0], [-1.0, 0.0], rtol=0, atol=1e-12)

    def test_maximizer_beats_samples(self):
        rng = np.random.default_rng(47)
        for _ in range(20):
            omega = Ball(rng.normal(size=2), float(rng.uniform(0.5, 2.0)))
            theta = AxisBox(*(np.sort(rng.normal(size=(2, 2)), axis=0)))
            inst = SpecialInstance(omega, theta)
            best = max(theta.distance(p) for p in solve_reduced_max(inst))
            for _ in range(100):
                q = omega.project(rng.normal(scale=4, size=2))
                assert theta.distance(q) <= best + 1e-12 * (1 + best)

    def test_nearest_faces_of_a_box_repeller(self):
        # the ball B(0, 2) centred on [-1,1]^2 reaches farthest out through
        # each of the four tied nearest faces
        inst = SpecialInstance(Ball([0, 0], 2.0), AxisBox([-1, -1], [1, 1]), alpha=2.0)
        pts = solve_reduced_max(inst)
        assert sorted(map(tuple, pts)) == [(-2.0, 0.0), (0.0, -2.0), (0.0, 2.0), (2.0, 0.0)]

    def test_centre_inside_ball_repeller(self):
        # centre inside the repeller, off its centre: leave through the
        # nearest boundary point, straight away from the repeller's centre
        inst = SpecialInstance(Ball([0, 0], 1.0), Ball([0, 0.5], 0.7), alpha=2.0)
        assert [tuple(p) for p in solve_reduced_max(inst)] == [(0.0, -1.0)]
        assert uniqueness_check(inst) is True

    @pytest.mark.parametrize(
        "omega,theta",
        [
            (Ball([0, 0], 1.0), AxisBox([-3, -3], [3, 3])),  # the whole ball
            (Ball([0.5, 0], 1.0), Halfspace([1, 0], 2.0)),
            (Ball([0, 0], 1.0), Ball([0, 0.5], 3.0)),
            (Ball([0, 0], 2.0), Ball([0, 0], 1.0)),  # the circle |x| = 2
            (Ball([1, 1], 1.0), AxisBox([0, 0], [1, 1])),  # an arc at a corner
            (Ball([1, 0.5, 1], 1.0), AxisBox([0, 0, 0], [1, 1, 1])),  # at an edge
        ],
    )
    def test_infinitely_many_maximizers_raise(self, omega, theta):
        with pytest.raises(GeometryError):
            solve_reduced_max(SpecialInstance(omega, theta, alpha=2.0))

    def test_box_edge_maximizes(self):
        # d = 5 - x1 is constant on the segment, so the whole edge maximizes
        inst = SpecialInstance(
            AxisBox([0, -2], [0, 2]), AxisBox([5, -10], [6, 10]), alpha=2.0
        )
        with pytest.raises(GeometryError):
            solve_special(inst)


@functools.cache
def sphere_directions(n: int) -> np.ndarray:
    """Unit vectors in R^n: 4000 random ones, the unit circles of every
    coordinate plane and the coordinate axes."""
    angles = np.linspace(0.0, 2 * np.pi, 360, endpoint=False)
    dirs = [np.random.default_rng(0).normal(size=(4000, n)), np.eye(n), -np.eye(n)]
    for i, j in itertools.combinations(range(n), 2):
        circle = np.zeros((angles.size, n))
        circle[:, i], circle[:, j] = np.cos(angles), np.sin(angles)
        dirs.append(circle)
    u = np.concatenate(dirs)
    return u / np.linalg.norm(u, axis=1, keepdims=True)


def boundary_samples(omega: Ball, tops) -> np.ndarray:
    """Points of the sphere of ``omega``: ``sphere_directions`` and small
    perturbations of the directions of ``tops``."""
    rng = np.random.default_rng(0)
    dirs = [sphere_directions(omega.dim)]
    for p in tops:
        for scale in (1e-2, 1e-4, 1e-6):
            u = (p - omega.center) / omega.radius + rng.normal(scale=scale, size=(50, omega.dim))
            dirs.append(u / np.linalg.norm(u, axis=1, keepdims=True))
    return omega.center + omega.radius * np.concatenate(dirs)


@st.composite
def ball_against(draw, kind: str):
    n = draw(st.integers(2, 5))
    coord = st.floats(-3.0, 3.0, allow_subnormal=False)

    def vec():
        return np.array(draw(st.lists(coord, min_size=n, max_size=n)))

    omega = Ball(vec(), draw(st.floats(0.1, 3.0)))
    if kind == "point":
        theta = Singleton(vec())
    elif kind == "ball":
        theta = Ball(vec(), draw(st.floats(0.1, 3.0)))
    elif kind == "box":
        a, b = vec(), vec()
        theta = AxisBox(np.minimum(a, b), np.maximum(a, b))
    else:
        normal = vec()
        assume(np.linalg.norm(normal) > 0.1)
        theta = Halfspace(normal, draw(coord))
    return SpecialInstance(omega, theta, alpha=2.0)


@pytest.mark.parametrize("kind", ["point", "ball", "box", "halfspace"])
@settings(max_examples=500, deadline=None)
@given(data=st.data(), tol=st.sampled_from([0.0, 1e-9]))
def test_ball_maximizers_beat_boundary_samples(kind, data, tol):
    """The closed-form maximizers over a ball attain a common value that no
    sampled boundary point exceeds; where it reports infinitely many, at
    least two distinct samples attain the sampled maximum."""
    inst = data.draw(ball_against(kind))
    omega, theta = inst.omega, inst.theta
    try:
        tops = solve_reduced_max(inst, tol)
    except GeometryError:
        tops = None
    pts = boundary_samples(omega, tops or [])
    values = np.linalg.norm(pts - theta.project_many(pts), axis=1)
    slack = 1e-12 + tol
    if tops is None:
        top = values.max()
        near = pts[values >= top - slack * (1 + top)]
        assert np.ptp(near, axis=0).max() > 1e-6 * omega.radius
        return
    assert all(omega.distance(p) <= 1e-12 * (1 + omega.radius) for p in tops)
    tops_values = [theta.distance(p) for p in tops]
    best = max(tops_values)
    assert min(tops_values) >= best - slack * (1 + best)
    assert values.max() <= best + 1e-12 * (1 + best)


@pytest.mark.parametrize("center, theta", [
    # centres 5.5e-14 and 7.1e-16 outside the repeller
    ([1.0, 1e-13], Halfspace([1.5, 1.0], 1.5)),
    ([-0.45763160137618947, 2.0937874645877863],
     Ball([0.13573073406713437, 2.310363486795888], 0.6316518301392302)),
])
def test_ball_maximizer_next_to_the_repeller_boundary(center, theta):
    """A ball attractor centred just outside the repeller is maximized along
    the exact outward direction, not along c - P(c), which there is rounding
    noise: the reported value is d(c) + r, up to rounding."""
    inst = SpecialInstance(Ball(center, 1.0), theta, alpha=2.0)
    (top,) = solve_reduced_max(inst, 0.0)
    expected = theta.distance(inst.omega.center) + 1.0
    assert abs(theta.distance(top) - expected) <= 1e-14


def reduced_max_by_enumeration(inst: SpecialInstance, tol: float) -> list[np.ndarray]:
    """The box maximizers from every vertex: those within the cut of the
    best, after a test of every edge next to one of them."""
    omega, theta = inst.omega, inst.theta
    vertices = box_vertices(omega)
    values = [theta.distance(v) for v in vertices]
    best = max(values)
    cut = best - tol * (1 + best)
    tops = [v for v, val in zip(vertices, values) if val >= cut]
    middle = 0.5 * (omega.lower + omega.upper)
    for v in tops:
        for k in np.flatnonzero(omega.lower < omega.upper):
            x = v.copy()
            x[k] = middle[k]
            if theta.distance(x) >= cut:
                raise GeometryError("a whole edge of the box maximizes")
    return tops


@st.composite
def box_against(draw, kind: str):
    """A box attractor of dimension up to 8 with some degenerate faces,
    against a repeller of the given family.  Integer coordinates make ties,
    and zero normal components, common."""
    n = draw(st.integers(1, 8))
    if draw(st.booleans()):
        coord = st.integers(-3, 3).map(float)
        radius = st.integers(1, 3).map(float)
    else:
        coord = st.floats(-3.0, 3.0, allow_subnormal=False)
        radius = st.floats(0.1, 3.0)

    def vec():
        return np.array(draw(st.lists(coord, min_size=n, max_size=n)))

    a, b = vec(), vec()
    b = np.where(draw(st.lists(st.booleans(), min_size=n, max_size=n)), a, b)
    omega = AxisBox(np.minimum(a, b), np.maximum(a, b))
    if kind == "point":
        theta = Singleton(vec())
    elif kind == "ball":
        theta = Ball(vec(), draw(radius))
    elif kind == "box":
        a, b = vec(), vec()
        theta = AxisBox(np.minimum(a, b), np.maximum(a, b))
    else:
        normal = vec()
        assume(np.linalg.norm(normal) > 0.1)
        theta = Halfspace(normal, draw(coord))
    return SpecialInstance(omega, theta, alpha=2.0)


def outcome(solve, inst, tol):
    try:
        return [tuple(v) for v in solve(inst, tol)]
    except GeometryError:
        return "infinitely many"


@pytest.mark.parametrize("kind", ["point", "ball", "box", "halfspace"])
@settings(max_examples=150, deadline=None)
@given(data=st.data(), tol=st.sampled_from([0.0, 1e-9]))
def test_box_maximizers_match_vertex_enumeration(kind, data, tol):
    """Over a box, the maximizers built from one vertex and its edges are the
    list that enumerating every vertex gives, in the same order, and both
    raise in the same cases."""
    inst = data.draw(box_against(kind))
    expected = outcome(reduced_max_by_enumeration, inst, tol)
    assert outcome(solve_reduced_max, inst, tol) == expected


@pytest.mark.parametrize(
    "theta,count",
    [(Singleton(np.zeros(16)), 2), (Halfspace(np.ones(16), 0.5), 1)],
)
def test_box_reduced_max_in_high_dimension_is_immediate(theta, count):
    # 2^16 vertices; the top vertex, its edges and one tie decide
    n = 16
    inst = SpecialInstance(AxisBox(-np.ones(n), np.arange(1.0, n + 1)), theta, alpha=2.0)
    elapsed = []
    for _ in range(5):  # the best of five, on a shared machine
        start = time.perf_counter()
        tops = solve_reduced_max(inst)
        elapsed.append(time.perf_counter() - start)
        assert len(tops) == count
    assert min(elapsed) < 1e-3


class TestSolutionRays:
    def test_segment_rays(self):
        inst = segment_vs_point()
        rays = solution_rays(inst, solve_reduced_max(inst))
        got = sorted((tuple(r.base), tuple(r.direction)) for r in rays)
        assert got == [
            ((0.0, -2.0), (-1.0, -2.0)),
            ((0.0, 2.0), (-1.0, 2.0)),
        ]

    def test_objective_constant_along_ray(self):
        inst = segment_vs_point()
        for ray in solution_rays(inst, solve_reduced_max(inst)):
            base_val = inst.objective(ray.base)
            for t in (0.5, 1.0, 3.0, 10.0):
                assert np.isclose(inst.objective(ray.point_at(t)), base_val, atol=1e-9)

    def test_ray_points_beat_samples(self):
        inst = segment_vs_point()
        rays = solution_rays(inst, solve_reduced_max(inst))
        best = inst.objective(rays[0].base)
        rng = np.random.default_rng(53)
        for _ in range(500):
            assert inst.objective(rng.normal(scale=4, size=2)) >= best - 1e-9

    def test_unequal_weights_rejected(self):
        inst = segment_vs_point(alpha=2.0)
        with pytest.raises(ValueError):
            solution_rays(inst, solve_reduced_max(inst))

    def test_attractor_inside_repeller_rejected(self):
        inst = SpecialInstance(Singleton([0.0, 0.0]), Ball([0, 0], 1.0))
        with pytest.raises(ValueError):
            solution_rays(inst, solve_reduced_max(inst))


class TestSolveSpecial:
    def test_dominant_attraction_returns_points(self):
        solutions, mode = solve_special(segment_vs_point(alpha=2.0))
        assert mode == "reduced-equivalent"
        assert sorted(map(tuple, solutions)) == [(0.0, -2.0), (0.0, 2.0)]

    def test_equal_weights_returns_rays(self):
        solutions, mode = solve_special(segment_vs_point())
        assert mode == "ray-family"
        assert len(solutions) == 2 and all(hasattr(s, "point_at") for s in solutions)

    def test_attractor_inside_repeller(self):
        solutions, mode = solve_special(
            SpecialInstance(Singleton([0.0, 0.0]), Ball([0, 0], 1.0))
        )
        assert mode == "reduced-equivalent"
        assert [tuple(s) for s in solutions] == [(0.0, 0.0)]

    def test_dominant_solutions_minimize(self):
        inst = segment_vs_point(alpha=2.0)
        solutions, _ = solve_special(inst)
        best = inst.objective(solutions[0])
        rng = np.random.default_rng(59)
        for _ in range(500):
            assert inst.objective(rng.normal(scale=4, size=2)) >= best - 1e-9


class TestUniqueness:
    def test_two_endpoint_maximizers(self):
        assert uniqueness_check(segment_vs_point(alpha=2.0)) is False

    def test_unique_antipode(self):
        inst = SpecialInstance(Ball([2.0, 0.0], 1.0), Singleton([0.0, 0.0]), alpha=2.0)
        assert uniqueness_check(inst) is True

    def test_singleton_strictly_inside(self):
        inst = SpecialInstance(Singleton([0.2, 0.0]), Ball([0, 0], 1.0))
        assert uniqueness_check(inst) is True

    def test_point_repeller_never_unique_at_equal_weights(self):
        inst = SpecialInstance(Singleton([0.0, 0.0]), Singleton([1.0, 0.0]))
        assert uniqueness_check(inst) is False

    def test_equal_weights_nonsingleton(self):
        assert uniqueness_check(segment_vs_point()) is False

    def test_undecidable_reduced_max(self):
        inst = SpecialInstance(AxisBox([-INF], [0.0]), Singleton([1.0]), alpha=2.0)
        assert uniqueness_check(inst) is None

    @pytest.mark.parametrize(
        "omega,theta",
        [
            (Ball([0, 0], 2.0), Ball([0, 0], 1.0)),  # the circle |x| = 2
            (Ball([0, 0], 1.0), AxisBox([-3, -3], [3, 3])),  # the whole ball
            (Ball([0, 0], 2.0), AxisBox([-1, -1], [1, 1])),  # four points
            (Ball([0.5, 0], 1.0), Halfspace([1, 0], 2.0)),
            (Ball([0, 0], 1.0), Ball([0, 0.5], 3.0)),
            (Ball([0, 0], 1.0), Singleton([0.0, 0.0])),  # the unit circle
            (AxisBox([0, -2], [0, 2]), AxisBox([5, -10], [6, 10])),  # the edge
        ],
    )
    def test_several_maximizers_not_unique(self, omega, theta):
        assert uniqueness_check(SpecialInstance(omega, theta, alpha=2.0)) is False


class TestWeightValidation:
    def test_beta_exceeds_alpha(self):
        with pytest.raises(ValueError):
            SpecialInstance(Singleton([0.0]), Singleton([1.0]), alpha=1.0, beta=2.0)

    def test_nonpositive_beta(self):
        with pytest.raises(ValueError):
            SpecialInstance(Singleton([0.0]), Singleton([1.0]), beta=0.0)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            SpecialInstance(Singleton([0.0]), Singleton([1.0, 0.0]))
