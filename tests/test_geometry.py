import math
import sys
import time
import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from dcloc import (
    AxisBox,
    Ball,
    DimensionMismatch,
    GeometryError,
    Halfspace,
    Singleton,
)
from dcloc.geometry import set_contains_set
from conftest import box_vertices, random_set, sample_point_in

INF = np.inf
NAN = np.nan


class TestProject:
    def test_ball_radial_scaling(self):
        assert np.allclose(Ball([0, 0], 1.0).project([3, 4]), [0.6, 0.8])

    def test_box_componentwise_clamp(self):
        assert np.allclose(AxisBox([0, 0], [1, 1]).project([2, 5]), [1, 1])

    def test_halfspace_lower_halfplane(self):
        # the set {x2 <= -1}
        assert np.allclose(Halfspace([0, 1], -1.0).project([3, 0]), [3, -1])

    def test_interior_point_fixed(self):
        x = np.array([0.3, -0.2])
        assert np.allclose(Ball([0, 0], 1.0).project(x), x)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            Ball([0, 0], 1.0).project([1, 2, 3])


class TestConstruction:
    @pytest.mark.parametrize("make", [
        lambda: Singleton([0.0, NAN]),
        lambda: Singleton([INF, 0.0]),
        lambda: Ball([NAN, 0.0], 1.0),
        lambda: Ball([0.0, -INF], 1.0),
        lambda: Ball([0.0, 0.0], INF),
        lambda: Ball([0.0, 0.0], NAN),
        lambda: AxisBox([NAN, 0.0], [1.0, 1.0]),
        lambda: AxisBox([0.0, 0.0], [1.0, NAN]),
        lambda: Halfspace([NAN, 1.0], 0.0),
        lambda: Halfspace([INF, 1.0], 0.0),
        lambda: Halfspace([0.0, 1.0], INF),
        lambda: Halfspace([0.0, 1.0], NAN),
    ])
    def test_non_finite_rejected(self, make):
        with pytest.raises(GeometryError):
            make()

    # a squared norm that underflows to 0, one that is subnormal (the
    # projection of [1, 0] would be [-1.1e-5, 0]) and one that overflows
    # (every point would be a member)
    @pytest.mark.parametrize("normal, squared", [
        ([9.48e-288], "0.0"),
        ([1e-160, 0.0], "1e-320"),
        ([1e200, 0.0], "inf"),
    ])
    def test_halfspace_normal_squared_norm_must_be_normal(self, normal, squared):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(GeometryError, match=f"squared norm {squared}, outside the normal"):
                Halfspace(normal, 0.0)

    def test_halfspace_normal_at_the_squared_norm_bounds(self):
        # squared norms at the least normal float and near the greatest
        tiny = Halfspace([math.sqrt(sys.float_info.min)], 0.0)
        huge = Halfspace([1.3e154, 0.0], 0.0)
        assert np.array_equal(tiny.project([1.0]), [0.0])
        assert not huge.contains([1.0, 0.0])

    def test_infinite_box_bounds_allowed(self):
        assert AxisBox([-INF, 0.0], [INF, 0.0]).dim == 2

    def test_project_many_shape_checked(self):
        with pytest.raises(DimensionMismatch):
            Ball([0.0, 0.0], 1.0).project_many(np.zeros((4, 3)))
        with pytest.raises(DimensionMismatch):
            Singleton([0.0, 0.0]).project_many(np.zeros(2))


class TestContains:
    def test_ball_boundary(self):
        assert Ball([0, 0], 1.0).contains([1, 0], tol=0.0)

    def test_horizontal_line(self):
        assert AxisBox([-INF, 0], [INF, 0]).contains([3, 0])

    def test_singleton_other_point(self):
        assert not Singleton([1, 0]).contains([0, 0], tol=0.0)


class TestDistance:
    def test_singleton_zero_at_point(self):
        assert Singleton([1, 0]).distance([1, 0]) == 0.0

    def test_halfline_member(self):
        assert AxisBox([-INF], [0.0]).distance([-10.0]) == 0.0

    def test_singleton_1d(self):
        assert Singleton([1.0]).distance([-10.0]) == 11.0


class TestNormalCone:
    def test_active_upper_face(self):
        Q = AxisBox([0, -2], [0, 2])
        assert Q.normal_cone_contains(np.array([0.0, 2.0]), np.array([0.0, 1.0]))
        # independent check: <v, q - x> <= 0 over sampled members
        rng = np.random.default_rng(0)
        for _ in range(200):
            q = sample_point_in(rng, Q)
            assert np.dot([0.0, 1.0], q - np.array([0.0, 2.0])) <= 1e-12

    def test_inactive_face_rejected(self):
        Q = AxisBox([0, -2], [0, 2])
        assert not Q.normal_cone_contains(np.array([0.0, 0.0]), np.array([0.0, 1.0]))
        # witness: q = (0, 1) gives <v, q - x> = 1 > 0
        assert np.dot([0.0, 1.0], np.array([0.0, 1.0]) - 0.0) > 0

    @pytest.mark.parametrize("make", [
        lambda: Singleton([1.0, 2.0]),
        lambda: Ball([0.0, 0.0], 1.0),
        lambda: AxisBox([0, 0], [1, 1]),
        lambda: Halfspace([1.0, 0.0], 0.5),
    ])
    def test_zero_vector_always_inside(self, make):
        Q = make()
        x = Q.project(np.array([5.0, 5.0]))
        assert Q.normal_cone_contains(x, np.zeros(2))

    def test_outside_point_rejected(self):
        with pytest.raises(GeometryError):
            Ball([0, 0], 1.0).normal_cone_contains(np.array([5.0, 0.0]), np.array([1.0, 0.0]))

    def test_random_sets_against_sampling(self):
        rng = np.random.default_rng(7)
        for _ in range(100):
            n = int(rng.integers(1, 4))
            Q = random_set(rng, n)
            x = sample_point_in(rng, Q)
            v = rng.normal(size=n)
            inside = Q.normal_cone_contains(x, v, tol=1e-9)
            sup = max(
                float(np.dot(v, sample_point_in(rng, Q) - x)) for _ in range(300)
            )
            if inside:
                assert sup <= 1e-7 * (1 + np.linalg.norm(v))


class TestBoundingRadius:
    def test_singleton(self):
        assert Singleton([3, 4]).bounding_radius() == 5.0

    def test_ball(self):
        assert Ball([1, 0], 2.0).bounding_radius() == 3.0

    def test_halfspace_unbounded(self):
        assert Halfspace([1, 0], 0.0).bounding_radius() is None

    def test_infinite_box_unbounded(self):
        assert AxisBox([-INF, 0], [INF, 0]).bounding_radius() is None

    def test_box_in_high_dimension_is_immediate(self):
        # 2^64 vertices: only a closed form returns at all
        start = time.perf_counter()
        assert AxisBox(-np.ones(64), np.ones(64)).bounding_radius() == 8.0
        assert time.perf_counter() - start < 1.0


@settings(max_examples=300, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(1, 10))
def test_box_bounding_radius_is_farthest_vertex(seed, n):
    """The closed-form box radius equals the largest vertex norm bit for bit,
    with degenerate faces and bounds from 1e-5 to 1e5 in magnitude."""
    rng = np.random.default_rng(seed)
    a = rng.choice([-1.0, 1.0], n) * 10.0 ** rng.uniform(-5, 5, n)
    b = rng.choice([-1.0, 1.0], n) * 10.0 ** rng.uniform(-5, 5, n)
    b = np.where(rng.random(n) < 0.3, a, b)  # degenerate faces
    box = AxisBox(np.minimum(a, b), np.maximum(a, b))
    assert box.bounding_radius() == max(np.linalg.norm(v) for v in box_vertices(box))


@settings(max_examples=400, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(1, 8))
def test_box_in_ball_matches_vertex_loop(seed, n):
    """Containment of a bounded box in a ball, decided by its farthest vertex,
    agrees with the test of every vertex wherever no vertex lies within
    1e-6 of the sphere (the membership tolerance is 1e-9)."""
    rng = np.random.default_rng(seed)
    a, b = rng.normal(size=n), rng.normal(size=n)
    b = np.where(rng.random(n) < 0.2, a, b)  # degenerate faces
    box = AxisBox(np.minimum(a, b), np.maximum(a, b))
    center = rng.normal(scale=0.5, size=n)
    vertices = box_vertices(box)
    far = max(np.linalg.norm(v - center) for v in vertices)
    ball = Ball(center, far * rng.uniform(0.8, 1.2))
    assume(all(abs(np.linalg.norm(v - center) - ball.radius) > 1e-6 for v in vertices))
    assert set_contains_set(box, ball) is all(ball.contains(v) for v in vertices)


def test_box_in_ball_in_high_dimension_is_immediate():
    # 2^14 vertices; the farthest one alone decides
    n = 14
    box = AxisBox(-np.ones(n), np.ones(n))
    for radius, inside in ((2.0 * n, True), (np.sqrt(n) - 1e-3, False)):
        ball = Ball(np.zeros(n), radius)
        elapsed = []
        for _ in range(5):  # the best of five, on a shared machine
            start = time.perf_counter()
            verdict = set_contains_set(box, ball)
            elapsed.append(time.perf_counter() - start)
            assert verdict is inside
        assert min(elapsed) < 1e-3


class TestBoxVertices:
    """The test-local vertex enumeration that closed-form box rules are
    checked against, on boxes whose vertices are known."""

    def test_degenerate_segment(self):
        vs = box_vertices(AxisBox([0, -2], [0, 2]))
        assert [tuple(v) for v in vs] == [(0.0, -2.0), (0.0, 2.0)]

    def test_square(self):
        vs = box_vertices(AxisBox([0, 0], [1, 1]))
        assert [tuple(v) for v in vs] == [(0.0, 0.0), (0.0, 1.0), (1.0, 0.0), (1.0, 1.0)]

    def test_point(self):
        assert [tuple(v) for v in box_vertices(AxisBox([1, 1], [1, 1]))] == [(1.0, 1.0)]


# each shape's coordinate parameters, built from a coordinate list
SHAPE_COORDINATES = {
    "point": lambda c: Singleton(c),
    "ball center": lambda c: Ball(c, 1.0),
    "box lower": lambda c: AxisBox(c, np.full(len(c), INF)),
    "box upper": lambda c: AxisBox(np.full(len(c), -INF), c),
    "halfspace normal": lambda c: Halfspace(c, 0.0),
}


@settings(max_examples=200, deadline=None)
@given(
    parameter=st.sampled_from(sorted(SHAPE_COORDINATES)),
    coords=st.lists(st.floats(-1e3, 1e3), min_size=1, max_size=4),
    data=st.data(),
)
def test_nan_coordinate_rejected_at_construction(parameter, coords, data):
    """A NaN anywhere in any shape's coordinates raises at construction."""
    coords[data.draw(st.integers(0, len(coords) - 1))] = NAN
    with pytest.raises(GeometryError, match="must be finite|must not be NaN"):
        SHAPE_COORDINATES[parameter](coords)


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_projection_nonexpansive(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 5))
    Q = random_set(rng, n)
    x, y = rng.normal(scale=3, size=n), rng.normal(scale=3, size=n)
    lhs = np.linalg.norm(Q.project(x) - Q.project(y))
    assert lhs <= np.linalg.norm(x - y) + 1e-12


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_distance_one_lipschitz(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 5))
    Q = random_set(rng, n)
    x, y = rng.normal(scale=3, size=n), rng.normal(scale=3, size=n)
    assert abs(Q.distance(x) - Q.distance(y)) <= np.linalg.norm(x - y) + 1e-12


def test_variational_inequality():
    rng = np.random.default_rng(11)
    for _ in range(200):
        n = int(rng.integers(1, 4))
        Q = random_set(rng, n)
        x = rng.normal(scale=3, size=n)
        w = Q.project(x)
        for _ in range(20):
            q = sample_point_in(rng, Q)
            assert np.dot(x - w, q - w) <= 1e-12


def test_exterior_subgradient_inequality_and_unit_norm():
    rng = np.random.default_rng(13)
    for _ in range(200):
        n = int(rng.integers(1, 4))
        Q = random_set(rng, n)
        x = rng.normal(scale=3, size=n)
        if Q.contains(x):
            continue
        gradient = (x - Q.project(x)) / Q.distance(x)
        assert abs(np.linalg.norm(gradient) - 1.0) <= 1e-12
        for _ in range(10):
            y = rng.normal(scale=3, size=n)
            assert Q.distance(y) >= Q.distance(x) + np.dot(gradient, y - x) - 1e-12
