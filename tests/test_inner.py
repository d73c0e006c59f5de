import numpy as np
import pytest

from dcloc import (
    AxisBox,
    Ball,
    InnerConfig,
    InnerProblem,
    NotInConstraint,
    OnTargetSet,
    Singleton,
    WeightedSet,
    phi,
    solve_inner,
    subgradient_solve,
    weiszfeld_map,
    weiszfeld_solve,
)
from conftest import random_instance

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
        prob = single_target()
        with pytest.raises(OnTargetSet) as exc:
            weiszfeld_map(prob, [2.0, 0.0])
        assert exc.value.index == 0

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
            try:
                x_next = prob.constraint.project(weiszfeld_map(prob, x))
            except OnTargetSet:
                continue
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
        # no stopping test: neither the method nor the auto fallback, which
        # hands over to it, has evidence that the iterate is the minimizer
        result = subgradient_solve(single_target(), [0.0, 0.0], InnerConfig(max_iters=50))
        assert result.iterations == 50 and result.converged is False
        fallback = solve_inner(single_target(alpha=3.0), [0.0, 0.0])
        assert fallback.method_used == "subgradient" and fallback.converged is False


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
        assert result.method_used == "subgradient"
        assert np.allclose(result.x, [2.0, 0.0], atol=1e-4)
        assert np.isclose(result.value, 2.0, atol=1e-6)

    def test_explicit_method_selection(self):
        prob = single_target()
        w = solve_inner(prob, [0.0, 0.0], InnerConfig(method="weiszfeld"))
        s = solve_inner(prob, [0.0, 0.0], InnerConfig(method="subgradient"))
        assert w.method_used == "weiszfeld"
        assert s.method_used == "subgradient"
        assert abs(w.value - s.value) <= 1e-3

    def test_unknown_method(self):
        with pytest.raises(ValueError):
            solve_inner(single_target(), [0.0, 0.0], InnerConfig(method="newton"))

    def test_nonpositive_quadratic_rejected(self):
        with pytest.raises(ValueError):
            InnerProblem(v=[0.0], lam=0.0, attractions=[], constraint=AxisBox([-INF], [INF]))
