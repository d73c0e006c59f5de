import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dcloc import (
    AxisBox,
    Ball,
    Halfspace,
    InnerConfig,
    InnerProblem,
    InnerResult,
    NotInConstraint,
    Singleton,
    WeightedSet,
    dual_solve,
    phi,
    solve_inner,
    subgradient_solve,
    weiszfeld_map,
    weiszfeld_solve,
)
from dcloc import inner
from dcloc.dca import _repulsion_pass
from dcloc.inner import GAP_TOL
from dcloc.instance_io import load_instance
from conftest import random_instance, random_set

INF = np.inf


def free2():
    return AxisBox([-INF, -INF], [INF, INF])


def single_target(v=(0.0, 0.0), lam=1.0, alpha=1.0, constraint=None):
    return InnerProblem(
        v=np.array(v, dtype=float),
        lam=lam,
        attractions=[WeightedSet(Singleton([2.0, 0.0]), alpha)],
        constraint=constraint or free2(),
    )


class TestPhi:
    def test_hand_value(self):
        prob = InnerProblem(
            v=[1.0, 0.0], lam=2.0,
            attractions=[WeightedSet(Singleton([3.0, 0.0]), 1.0)],
            constraint=free2(),
        )
        # 0.5*2*1 - 1 + 2
        assert phi(prob, [1.0, 0.0]) == 2.0

    def test_no_attractions_quadratic_only(self):
        prob = InnerProblem(v=[0.0, 0.0], lam=4.0, attractions=[], constraint=free2())
        assert phi(prob, [1.0, 1.0]) == 4.0


class TestForInstance:
    def test_shares_instance_batch_and_weights(self):
        inst = random_instance(np.random.default_rng(2), 2, separated=True)
        prob = InnerProblem.for_instance(inst, [0.5, -0.5], 2.0)
        assert prob.batch is inst.attraction_batch
        assert prob.weights is inst.attraction_weights
        direct = InnerProblem([0.5, -0.5], 2.0, inst.attractions, inst.constraint)
        x = inst.constraint.project(np.array([0.3, 0.1]))
        assert phi(prob, x) == phi(direct, x)


class TestWeiszfeldMap:
    def test_single_target_closed_form(self):
        prob = single_target()
        # (0.5 * (2,0)) / (0.5 + 1)
        assert np.allclose(weiszfeld_map(prob, [0.0, 0.0]), [2.0 / 3.0, 0.0])

    def test_no_attractions(self):
        prob = InnerProblem(v=[3.0, 0.0], lam=2.0, attractions=[], constraint=free2())
        assert np.allclose(weiszfeld_map(prob, [5.0, 5.0]), [1.5, 0.0])

    def test_on_target_raises(self):
        # the map is undefined on an attraction set
        assert weiszfeld_map(single_target(), [2.0, 0.0]) is None

    def test_strict_descent_off_fixed_point(self):
        rng = np.random.default_rng(23)
        checked = 0
        while checked < 200:
            inst = random_instance(rng, int(rng.integers(1, 4)), separated=True)
            prob = InnerProblem(
                v=rng.normal(size=inst.dimension),
                lam=float(rng.uniform(0.2, 3.0)),
                attractions=inst.attractions,
                constraint=inst.constraint,
            )
            x = inst.constraint.project(rng.normal(size=inst.dimension))
            t = weiszfeld_map(prob, x)
            if t is None:
                continue
            x_next = prob.constraint.project(t)
            if np.linalg.norm(x_next - x) <= 1e-12:
                continue
            assert phi(prob, x_next) < phi(prob, x)
            checked += 1


class TestWeiszfeldSolve:
    def test_quadratic_pull_toward_origin(self):
        # minimizer of |x - (2,0)| + |x|^2/2 is (1,0)
        result = weiszfeld_solve(single_target(), [0.5, 0.0])
        assert np.allclose(result.x, [1.0, 0.0], atol=1e-8)
        assert np.isclose(result.value, 1.5, atol=1e-10)
        assert result.converged and result.method_used == "weiszfeld"

    def test_linear_push_past_target(self):
        # with v=(8,0) the minimizer sits at (7,0) beyond the target
        result = weiszfeld_solve(single_target(v=(8.0, 0.0)), [0.0, 0.0])
        assert np.allclose(result.x, [7.0, 0.0], atol=1e-7)
        assert np.isclose(result.value, -26.5, atol=1e-9)

    def test_constraint_active(self):
        result = weiszfeld_solve(
            single_target(constraint=Ball([0, 0], 0.5)), [0.0, 0.0]
        )
        assert np.allclose(result.x, [0.5, 0.0], atol=1e-8)

    def test_start_outside_constraint(self):
        with pytest.raises(NotInConstraint):
            weiszfeld_solve(single_target(constraint=Ball([0, 0], 0.5)), [2.0, 2.0])

    def test_unique_minimizer_start_independent(self):
        rng = np.random.default_rng(29)
        for _ in range(20):
            inst = random_instance(rng, 2, separated=True)
            prob = InnerProblem(
                v=rng.normal(size=2),
                lam=1.0,
                attractions=inst.attractions,
                constraint=inst.constraint,
            )
            a = weiszfeld_solve(prob, inst.constraint.project(rng.normal(size=2)))
            b = weiszfeld_solve(prob, inst.constraint.project(rng.normal(size=2)))
            assert np.allclose(a.x, b.x, atol=1e-6)


class TestSubgradientSolve:
    def test_matches_weiszfeld(self):
        rng = np.random.default_rng(31)
        for _ in range(20):
            inst = random_instance(rng, 2, separated=True)
            prob = InnerProblem(
                v=rng.normal(size=2),
                lam=1.0,
                attractions=inst.attractions,
                constraint=inst.constraint,
            )
            x0 = inst.constraint.project(rng.normal(size=2))
            w = weiszfeld_solve(prob, x0)
            s = subgradient_solve(prob, x0, InnerConfig(max_iters=5000))
            assert abs(w.value - s.value) <= 1e-3 * (1.0 + abs(w.value))

    def test_applicable_on_target_set(self):
        # started exactly on the target, where the fixed-point map fails
        prob = single_target(v=(5.0, 0.0), constraint=Ball([0, 0], 10.0))
        result = subgradient_solve(prob, [2.0, 0.0], InnerConfig(max_iters=4000))
        # minimizer (4,0), value 2 + 8 - 20
        assert np.isclose(result.value, -10.0, atol=1e-2)

    def test_never_claims_convergence(self):
        # no stopping test, so no evidence that the iterate is the minimizer;
        # the auto fallback hands over to the dual route, which certifies it
        result = subgradient_solve(single_target(), [0.0, 0.0], InnerConfig(max_iters=50))
        assert result.iterations == 50 and result.converged is False
        fallback = solve_inner(single_target(alpha=3.0), [0.0, 0.0])
        assert fallback.method_used == "dual" and fallback.converged is True
        assert fallback.gap <= GAP_TOL * (1.0 + abs(fallback.value))


class TestSolveInner:
    def test_auto_smooth_route(self):
        result = solve_inner(single_target(), [0.0, 0.0])
        assert result.method_used == "weiszfeld"
        assert np.allclose(result.x, [1.0, 0.0], atol=1e-8)

    def test_auto_fallback_when_minimizer_on_target(self):
        # alpha=3 makes the target itself the minimizer; the fixed-point
        # iteration walks into it and hands over to the fallback
        prob = single_target(alpha=3.0)
        result = solve_inner(prob, [0.0, 0.0])
        assert result.method_used == "dual" and result.converged is True
        assert result.gap <= GAP_TOL * (1.0 + abs(result.value))
        assert np.allclose(result.x, [2.0, 0.0], atol=1e-8)
        assert np.isclose(result.value, 2.0, atol=1e-6)

    @staticmethod
    def line_start(fixtures_dir):
        # the line fixture's inner problem at a start near a repelling
        # halfplane: its minimizer (-3.14, 0) lies on the attraction line
        inst = load_instance(fixtures_dir / "line_between_halfplanes.json")
        x0 = np.array([-3.14, -0.995])
        return InnerProblem.for_instance(inst, _repulsion_pass(inst, x0)[1] + x0, 1.0), x0

    def test_auto_hands_over_when_budget_runs_out(self, fixtures_dir):
        # five maps leave the fixed-point iteration short of the line y = 0
        prob, x0 = self.line_start(fixtures_dir)
        cfg = InnerConfig(max_iters=5)
        assert weiszfeld_solve(prob, x0, cfg).converged is False
        result = solve_inner(prob, x0, cfg)
        assert result.method_used == "dual" and result.converged is True
        assert np.allclose(result.x, [-3.14, 0.0], rtol=0.0, atol=1e-12)

    def test_auto_hands_over_when_gap_refuses_step_test_point(self, fixtures_dir):
        # the iteration meets its step test at x_2 of order -1e-8, farther
        # from the minimizer than the outer tolerance; the gap refuses it
        prob, x0 = self.line_start(fixtures_dir)
        fixed_point = weiszfeld_solve(prob, x0)
        assert fixed_point.iterations < InnerConfig().max_iters
        assert fixed_point.converged is False
        assert fixed_point.gap > GAP_TOL * (1.0 + abs(fixed_point.value))
        result = solve_inner(prob, x0)
        assert result.method_used == "dual" and certified(result)
        assert np.allclose(result.x, [-3.14, 0.0], rtol=0.0, atol=1e-12)

    def test_auto_never_worse_than_start(self):
        # the budget runs out at the map point of an extrapolated iterate, at
        # a higher objective than the start; with a budget too small for the
        # dual route to recover, only starting it from x0 keeps the value
        prob, x0 = random_inner_problem(3064, [0, 1, 1, 1], False, "ball")
        cfg = InnerConfig(max_iters=3)
        fixed_point = weiszfeld_solve(prob, x0, cfg)
        assert fixed_point.converged is False
        assert fixed_point.value > phi(prob, x0)
        result = solve_inner(prob, x0, cfg)
        assert result.method_used == "dual" and result.converged is False
        assert result.value <= phi(prob, x0)

    def test_extrapolation_onto_a_set_is_refused_not_handed_over(self):
        # an extrapolated iterate lands on an attraction set although the
        # minimizer lies 0.14 away from every set: the safeguard refuses the
        # extrapolation, and the fixed-point route certifies the minimizer
        prob, x0 = random_inner_problem(2252029514, [2, 2, 3, 0], False, "box")
        result = solve_inner(prob, x0)
        assert result.method_used == "weiszfeld" and certified(result)
        assert prob.batch.distances(result.x).min() > 0.1
        reference = dual_solve(prob, x0, InnerConfig(max_iters=5000))
        assert certified(reference)
        assert abs(result.value - reference.value) <= 1e-9 * (1.0 + abs(reference.value))

    def test_extrapolation_onto_minimizing_set_hands_over(self, fixtures_dir, monkeypatch):
        # from (3, 0.5) the plain maps approach the line y = 0 only linearly;
        # the seventh map is tried at an extrapolation that lies on the line
        # below the plain map point's objective, which is returned at once
        # (refused, it would leave the route creeping on for 21 maps); the
        # gap refuses it, so the dual route takes over
        inst = load_instance(fixtures_dir / "line_between_halfplanes.json")
        x0 = np.array([3.0, 0.5])
        prob = InnerProblem.for_instance(inst, _repulsion_pass(inst, x0)[1] + x0, 1.0)
        maps = []
        monkeypatch.setattr(
            inner, "weiszfeld_map", lambda p, x: maps.append(x) or weiszfeld_map(p, x)
        )
        stop = weiszfeld_solve(prob, x0)
        assert len(maps) == 7 and stop.iterations == 7
        assert abs(stop.x[1]) <= 1e-9 and stop.converged is False
        result = solve_inner(prob, x0)
        assert result.method_used == "dual" and certified(result)
        assert np.allclose(result.x, [3.0, 0.0], rtol=0.0, atol=1e-12)

    def test_start_on_a_set_certified_without_dual_solve(self, fixtures_dir, monkeypatch):
        # at (3, 0) on the attraction line the repulsions cancel, so the
        # start is the minimizer with the zero dual point on the line
        inst = load_instance(fixtures_dir / "line_between_halfplanes.json")
        x0 = np.array([3.0, 0.0])
        prob = InnerProblem.for_instance(inst, _repulsion_pass(inst, x0)[1] + x0, 1.0)
        reference = dual_solve(prob, x0)
        dual_calls = []
        monkeypatch.setattr(
            inner, "dual_solve", lambda *a, **k: dual_calls.append(a) or dual_solve(*a, **k)
        )
        result = solve_inner(prob, x0)
        assert result.method_used == "weiszfeld" and certified(result)
        assert dual_calls == []
        assert certified(reference)
        assert abs(result.value - reference.value) <= 1e-12 * abs(reference.value)

    def test_nonpositive_quadratic_rejected(self):
        with pytest.raises(ValueError):
            InnerProblem(v=[0.0], lam=0.0, attractions=[], constraint=AxisBox([-INF], [INF]))

    @pytest.mark.parametrize("v, lam, message", [
        ([0.0], INF, "quadratic coefficient must be finite and positive"),
        ([0.0], float("nan"), "quadratic coefficient must be finite and positive"),
        ([0.0], -1.0, "quadratic coefficient must be finite and positive"),
        ([float("nan")], 1.0, "linear term must be finite"),
        ([-INF], 1.0, "linear term must be finite"),
    ])
    def test_non_finite_input_rejected(self, v, lam, message):
        with pytest.raises(ValueError, match=message):
            InnerProblem(v=v, lam=lam, attractions=[], constraint=AxisBox([-INF], [INF]))

    @pytest.mark.parametrize("v", [[[1.0, 2.0]], 1.0, [1.0, 2.0, 3.0], []])
    def test_linear_term_of_wrong_shape_rejected(self, v):
        with pytest.raises(ValueError, match="linear term must be a 1-d vector of the "
                                             "constraint's dimension 2"):
            InnerProblem(v=v, lam=1.0, attractions=[], constraint=free2())


def summary_problems(fixtures_dir):
    """(problem, start) pairs: random problems of each shape family, and the
    line fixture's at a start on its line and at one that the dual route
    solves."""
    rng = np.random.default_rng(2027)
    cases = []
    for kind in ("point", "ball", "box", "halfspace"):
        for _ in range(8):
            n = int(rng.integers(1, 4))
            attractions = [
                WeightedSet(random_set(rng, n, kind=kind), float(rng.uniform(0.5, 2.0)))
                for _ in range(int(rng.integers(1, 4)))
            ]
            constraint = Ball(np.zeros(n), 3.0)
            prob = InnerProblem(rng.normal(size=n), float(rng.uniform(0.2, 3.0)), attractions,
                                constraint)
            cases.append((prob, constraint.project(rng.normal(scale=2.0, size=n))))
    inst = load_instance(fixtures_dir / "line_between_halfplanes.json")
    for x0 in ([3.0, 0.0], [3.0, 0.5]):  # solved on the line, and by the dual route
        x0 = np.array(x0)
        prob = InnerProblem.for_instance(inst, _repulsion_pass(inst, x0)[1] + x0, 1.0)
        cases.append((prob, x0))
    return cases


class TestAttractionSummary:
    def test_handed_over_map_equals_fresh_map(self, fixtures_dir):
        # the certificate's summary of the returned point builds the map
        # there, bit for bit, and None on a set
        on_a_set = 0
        for prob, x0 in summary_problems(fixtures_dir):
            result = weiszfeld_solve(prob, x0)
            handed = inner._map_point(prob, result.summary)
            fresh = weiszfeld_map(prob, result.x)
            if fresh is None:
                on_a_set += 1
                assert handed is None
            else:
                assert handed.tobytes() == fresh.tobytes()
            assert result.summary.distance_sum + inner._quadratic(prob, result.x) == phi(
                prob, result.x
            )
        assert on_a_set >= 1

    def test_handed_over_start_gives_the_same_solve(self, fixtures_dir):
        routes = set()
        for prob, x0 in summary_problems(fixtures_dir):
            summary = inner.attraction_summary(prob.batch, prob.weights, x0)
            handed, fresh = solve_inner(prob, x0, summary=summary), solve_inner(prob, x0)
            assert handed.x.tobytes() == fresh.x.tobytes()
            assert (handed.value, handed.gap, handed.iterations, handed.method_used) == (
                fresh.value, fresh.gap, fresh.iterations, fresh.method_used
            )
            routes.add(handed.method_used)
        assert routes == {"weiszfeld", "dual"}


class TestInnerConfig:
    @pytest.mark.parametrize("kwargs, message", [
        ({"step_tol": INF}, "step_tol must be finite"),
        ({"max_iters": 0}, "max_iters must be at least 1"),
        ({"step_tol": float("nan")}, "step_tol must be finite"),
        ({"step_tol": -1e-3}, "step_tol must be finite"),
        ({"max_iters": 2.5}, "max_iters must be an integer, got 2.5"),
        ({"max_iters": 3.0}, "max_iters must be an integer, got 3.0"),
    ])
    def test_rejects_bad_options(self, kwargs, message):
        with pytest.raises(ValueError, match=message):
            InnerConfig(**kwargs)

    def test_numpy_integer_budget_accepted(self):
        assert InnerConfig(max_iters=np.int64(7)).max_iters == 7


def certified(result: InnerResult) -> bool:
    return result.converged is True and result.gap <= GAP_TOL * (1.0 + abs(result.value))


class TestDualSolve:
    # minimizers on an attraction set, where the fixed-point map is undefined:
    # (problem, start, minimizer, minimum value)
    ON_SET = {
        # |x - (2,0)| pulled by weight 3 > |d/dx of |x|^2/2| = 2 at (2,0)
        "singleton": (single_target(alpha=3.0), [0.0, 0.0], [2.0, 0.0], 2.0),
        # v/lam = (3,0) outside the unit disk; weight 3 holds x on the circle
        "ball": (
            InnerProblem([3.0, 0.0], 1.0, [WeightedSet(Ball([0, 0], 1.0), 3.0)], free2()),
            [0.0, 0.0], [1.0, 0.0], -2.5,
        ),
        # the line fixture's inner problem: |x_2| keeps x_2 at 0 against v_2 = 0.5
        "line box": (
            InnerProblem(
                [3.0, 0.5], 1.0,
                [WeightedSet(AxisBox([-INF, 0], [INF, 0]), 1.0)],
                Ball([0, 0], 10.0),
            ),
            [3.0, 0.0], [3.0, 0.0], -4.5,
        ),
        # distance max(x_2, 0) keeps x_2 at 0 against v_2 = 0.5
        "halfspace": (
            InnerProblem([1.0, 0.5], 1.0, [WeightedSet(Halfspace([0, 1], 0.0), 1.0)], free2()),
            [1.0, -1.0], [1.0, 0.0], -0.5,
        ),
    }

    @pytest.mark.parametrize("family", sorted(ON_SET))
    def test_on_set_minimizer_certified(self, family):
        prob, x0, x_star, value = self.ON_SET[family]
        result = dual_solve(prob, x0)
        assert result.method_used == "dual" and certified(result)
        assert np.allclose(result.x, x_star, atol=1e-8)
        assert np.isclose(result.value, value, atol=1e-10)
        # the auto route reaches the same certificate through the fallback
        assert certified(solve_inner(prob, x0))

    def test_no_attractions_exact(self):
        prob = InnerProblem(v=[3.0, 0.0], lam=2.0, attractions=[], constraint=Ball([0, 0], 1.0))
        result = dual_solve(prob, [0.0, 0.0])
        assert certified(result) and result.gap == 0.0
        assert np.allclose(result.x, [1.0, 0.0])
        # the fixed-point route certifies the same point through its gap
        fixed = weiszfeld_solve(prob, [0.0, 0.0])
        assert certified(fixed) and fixed.gap == 0.0
        assert fixed.x.tobytes() == result.x.tobytes()

    def test_never_worse_than_start(self):
        # the start is kept when no dual iterate improves on it
        prob = single_target(alpha=3.0)
        result = dual_solve(prob, [2.0, 0.0], InnerConfig(max_iters=1))
        assert result.value <= phi(prob, [2.0, 0.0])

    def test_uncertified_budget_not_converged(self):
        rng = np.random.default_rng(5)
        inst = random_instance(rng, 2)
        prob = InnerProblem.for_instance(inst, rng.normal(size=2), 0.5)
        result = dual_solve(prob, [0.0, 0.0], InnerConfig(max_iters=1))
        assert result.iterations == 1 and result.gap > 1.0
        assert result.converged is False
        assert prob.constraint.contains(result.x)
        assert certified(dual_solve(prob, [0.0, 0.0]))

    def test_start_outside_constraint(self):
        with pytest.raises(NotInConstraint):
            dual_solve(single_target(constraint=Ball([0, 0], 0.5)), [2.0, 2.0])

    def test_routes_without_certificate_report_no_gap(self):
        prob = single_target()
        fixed_point = weiszfeld_solve(prob, [0.0, 0.0])
        assert fixed_point.gap is not None
        assert fixed_point.gap <= GAP_TOL * (1.0 + abs(fixed_point.value))
        assert subgradient_solve(prob, [0.0, 0.0], InnerConfig(max_iters=5)).gap is None


FAMILIES = ("point", "ball", "box", "halfspace")


def random_inner_problem(seed, counts, interleave, constraint_kind):
    """An inner problem with ``counts[k]`` attraction sets of family k, in
    family order or shuffled, over a constraint of the given kind, and a
    feasible start."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 4))
    sets = [random_set(rng, n, kind=k) for k, c in zip(FAMILIES, counts) for _ in range(c)]
    if interleave:
        sets = [sets[i] for i in rng.permutation(len(sets))]
    attractions = [WeightedSet(s, float(rng.uniform(0.1, 3.0))) for s in sets]
    constraint = random_set(rng, n, kind=constraint_kind)
    prob = InnerProblem(
        rng.normal(scale=3.0, size=n), float(rng.uniform(0.1, 3.0)), attractions, constraint
    )
    return prob, constraint.project(rng.normal(scale=3.0, size=n))


def inner_problems(min_count: int, **more):
    """Draws of ``random_inner_problem``'s arguments, and of ``more``."""
    return given(
        seed=st.integers(0, 2**32 - 1),
        counts=st.lists(st.integers(min_count, 3), min_size=4, max_size=4),
        interleave=st.booleans(),
        constraint_kind=st.sampled_from(("ball", "box", "halfspace")),
        **more,
    )


@settings(max_examples=100, deadline=None)
@inner_problems(min_count=1)
# a halfspace puts x at -172.39, where phi is about 4e4: the gap taken as the
# difference of the primal and dual values read -1.46e-11 here
@example(seed=2393078, counts=[3, 1, 1, 3], interleave=True, constraint_kind="halfspace")
def test_dual_gap_certificate(seed, counts, interleave, constraint_kind):
    """Over every attraction family, contiguous or interleaved, the dual route
    stops on its gap certificate, the gap is a valid one (nonnegative up to
    rounding) and the returned point is in C."""
    prob, x0 = random_inner_problem(seed, counts, interleave, constraint_kind)
    # the iteration count has a long tail where many sets overlap
    cfg = InnerConfig(max_iters=5000)
    result = dual_solve(prob, x0, cfg)
    assert certified(result)
    assert -1e-12 <= result.gap <= GAP_TOL * (1.0 + abs(result.value))
    assert prob.constraint.contains(result.x)
    assert result.value == phi(prob, result.x)


# most draws start on a set, where the fixed-point map is undefined; families
# may be absent here, so that about one draw in nine avoids every set.  Small
# budgets make the route stop on a set or with its budget spent as well as on
# its step test, and every exit is judged by the same gap
@settings(max_examples=200, deadline=None)
@inner_problems(min_count=0, max_iters=st.sampled_from((1, 3, 1000)))
# the start lies inside a ball at a residual of 6.9e-18, rounding noise, 0.49
# above the minimum in value: a unit dual vector built from that residual
# gave a false gap of 0.0
@example(
    seed=1001943351, counts=[1, 1, 0, 3], interleave=False, constraint_kind="box",
    max_iters=1000,
)
def test_fixed_point_certificate(seed, counts, interleave, constraint_kind, max_iters):
    """The fixed-point route either certifies its point, and then agrees with
    the dual route, or reports ``converged=False``, at every exit."""
    prob, x0 = random_inner_problem(seed, counts, interleave, constraint_kind)
    result = weiszfeld_solve(prob, x0, InnerConfig(max_iters=max_iters))
    assert result.gap is not None and result.value == phi(prob, result.x)
    if not result.converged:
        return
    assert certified(result)
    assert prob.constraint.contains(result.x)
    reference = dual_solve(prob, x0, InnerConfig(max_iters=5000))
    assert certified(reference)
    assert abs(result.value - reference.value) <= 1e-9 * (1.0 + abs(reference.value))
