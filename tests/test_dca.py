import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dcloc import (
    AxisBox,
    Ball,
    DcaConfig,
    Halfspace,
    NotInConstraint,
    ProblemInstance,
    Singleton,
    SolveReport,
    WeightedSet,
    criticality_residual,
    dca_solve,
    dca_step,
    evaluate_objective,
    multi_start_solve,
)
from dcloc import dca, model
from dcloc.instance_io import load_instance, load_points_csv
from conftest import random_instance, random_set

INF = np.inf


def line_instance():
    """Horizontal-line attractor between two repelling halfplanes, in a ball."""
    return ProblemInstance(
        2,
        [WeightedSet(AxisBox([-INF, 0], [INF, 0]), 1.0)],
        [
            WeightedSet(Halfspace([0, 1], -1.0), 1.0),
            WeightedSet(Halfspace([0, -1], -1.0), 1.0),
        ],
        Ball([0, 0], 10.0),
    )


def push_pull_1d():
    """Attractor at 1, repeller at 0, constrained to the nonnegative ray."""
    return ProblemInstance(
        1,
        [WeightedSet(Singleton([1.0]), 1.0)],
        [WeightedSet(Singleton([0.0]), 1.0)],
        AxisBox([0.0], [INF]),
    )


class TestDcaStep:
    def test_hand_step_1d(self):
        inst = push_pull_1d()
        y, x_next = dca_step(inst, 1.0, [0.2])
        assert np.allclose(y, [1.2])
        assert np.allclose(x_next, [1.0], atol=1e-8)

    def test_fixed_at_attractor(self):
        inst = push_pull_1d()
        _, x_next = dca_step(inst, 1.0, [1.0])
        assert np.allclose(x_next, [1.0], atol=1e-8)

    def test_infeasible_start(self):
        with pytest.raises(NotInConstraint):
            dca_step(push_pull_1d(), 1.0, [-1.0])


class TestDcaSolve:
    def test_line_instance_optimum(self):
        report = dca_solve(line_instance(), [3.0, 0.5])
        assert np.isclose(report.final_value, -2.0, atol=1e-8)
        assert abs(report.final_x[1]) <= 1e-8
        assert report.termination == "step_tol"
        assert report.criticality_residual <= 1e-8
        # the line attractor meets the ball constraint, so the fallback runs
        assert "dual" in report.inner_methods_used

    def test_trajectory_recorded(self):
        cfg = DcaConfig(record_trajectory=True)
        report = dca_solve(push_pull_1d(), [0.2], cfg)
        traj = report.trajectory
        assert traj is not None and traj[0].k == 0 and traj[0].y is None
        assert np.allclose(traj[0].x, [0.2])
        assert traj[-1].step_norm <= cfg.outer_step_tol
        assert np.allclose(report.final_x, traj[-1].x)

    def test_trajectory_off_by_default(self):
        assert dca_solve(push_pull_1d(), [0.2]).trajectory is None

    def test_sufficient_decrease(self):
        rng = np.random.default_rng(41)
        cfg = DcaConfig(record_trajectory=True, max_outer=30)
        for _ in range(30):
            inst = random_instance(rng, int(rng.integers(1, 4)), separated=True)
            x0 = inst.constraint.project(rng.normal(size=inst.dimension))
            report = dca_solve(inst, x0, cfg)
            traj = report.trajectory
            for prev, cur in zip(traj, traj[1:]):
                decrease = prev.f_value - cur.f_value
                assert decrease >= 0.5 * cfg.lam * cur.step_norm**2 - 1e-7

    def test_sufficient_decrease_line_fixture(self):
        # every step from these starts takes the certified dual fallback
        cfg = DcaConfig(record_trajectory=True)
        for x0 in ([3.0, 0.5], [-6.0, -0.9], [0.0, 0.2], [8.0, -0.01]):
            report = dca_solve(line_instance(), x0, cfg)
            traj = report.trajectory
            assert "dual" in report.inner_methods_used
            assert len(traj) > 2
            for prev, cur in zip(traj, traj[1:]):
                decrease = prev.f_value - cur.f_value
                assert decrease >= 0.5 * cfg.lam * cur.step_norm**2 - 1e-12
            assert np.isclose(report.final_value, -2.0, atol=1e-12)

    def test_max_outer_termination(self):
        cfg = DcaConfig(max_outer=1, outer_step_tol=0.0)
        report = dca_solve(push_pull_1d(), [0.2], cfg)
        assert report.termination == "max_outer"
        assert report.outer_iterations == 1


def group_instance(fixtures_dir, shape):
    """The bundled two-group CSV instance, point or square footprint."""
    half_side = 5.0 if shape == "square" else 0.0
    return ProblemInstance(
        2,
        load_points_csv(fixtures_dir / "group_a.csv", shape=shape, half_side=half_side),
        load_points_csv(fixtures_dir / "group_b.csv", shape=shape, half_side=half_side),
        Ball([30.0, -160.0], 30.0),
    )


# a start from which both footprints refuse some extrapolation by its decrease
GROUP_START = [10.0, -180.0]


def plain_dca(inst, x0, cfg):
    """The unaccelerated iteration x <- S(x) from the public ``dca_step``:
    its final point and the number of inner solves it took."""
    x = np.asarray(x0, dtype=float)
    for solves in range(1, cfg.max_outer + 1):
        _, x_next = dca_step(inst, cfg.lam, x, cfg.inner)
        step = float(np.linalg.norm(x_next - x))
        x = x_next
        if step <= cfg.outer_step_tol:
            break
    return x, solves


class TestSecantStep:
    @pytest.fixture
    def recorded(self, monkeypatch):
        """The points ``dca_solve`` hands to the inner solver and the points
        whose objective it takes from their batch passes, in call order."""
        solved, evaluated = [], []
        solve_inner, summarize = dca.solve_inner, dca._summarize

        def counting_solve(prob, x, cfg, **kwargs):
            solved.append(np.array(x))
            return solve_inner(prob, x, cfg, **kwargs)

        def counting_summarize(inst, x, *args):
            evaluated.append(np.array(x))
            return summarize(inst, x, *args)

        monkeypatch.setattr(dca, "solve_inner", counting_solve)
        monkeypatch.setattr(dca, "_summarize", counting_summarize)
        return solved, evaluated

    @pytest.mark.parametrize("shape", ["point", "square"])
    def test_refused_extrapolation_costs_no_inner_solve(self, fixtures_dir, recorded, shape):
        solved, evaluated = recorded
        report = dca_solve(group_instance(fixtures_dir, shape), GROUP_START)
        # a point evaluated but never solved at is a candidate that the
        # decrease test refused
        refused = [p for p in evaluated if not any(np.array_equal(p, q) for q in solved)]
        assert refused
        # the one solve beyond the outer iterations is the criticality residual's
        assert len(solved) == report.outer_iterations + 1

    @pytest.mark.parametrize("max_outer", [1, 2, 3, 4, 5, 6])
    def test_max_outer_bounds_inner_solves(self, fixtures_dir, recorded, max_outer):
        solved, _ = recorded
        cfg = DcaConfig(max_outer=max_outer)
        report = dca_solve(group_instance(fixtures_dir, "square"), GROUP_START, cfg)
        assert report.termination == "max_outer"
        assert report.outer_iterations == max_outer
        assert len(solved) == max_outer + 1

    @pytest.mark.parametrize("shape", ["point", "square"])
    def test_matches_plain_iteration_with_fewer_solves(self, fixtures_dir, shape):
        inst = group_instance(fixtures_dir, shape)
        cfg = DcaConfig()
        report = dca_solve(inst, GROUP_START, cfg)
        x_plain, plain_solves = plain_dca(inst, GROUP_START, cfg)
        plain_value = evaluate_objective(inst, x_plain)
        assert report.termination == "step_tol"
        assert abs(report.final_value - plain_value) <= 1e-12 * abs(plain_value)
        assert np.max(np.abs(report.final_x - x_plain)) <= 1e-8
        assert report.outer_iterations < plain_solves

    def test_secant_equal_to_plain_step_costs_one_solve(self, fixtures_dir):
        # on this fixture's unbounded linear tail every plain step has the
        # same residual, so the secant step is the plain step itself and must
        # not be solved at twice
        inst = load_instance(fixtures_dir / "mixed_line_unbounded.json")
        cfg = DcaConfig(max_outer=20)
        report = dca_solve(inst, [2.0], cfg)
        x_plain, plain_solves = plain_dca(inst, [2.0], cfg)
        assert report.termination == "max_outer" and plain_solves == 20
        assert np.array_equal(report.final_x, x_plain)

    def test_trajectory_rows_and_sufficient_decrease_square_footprint(self, fixtures_dir):
        inst = group_instance(fixtures_dir, "square")
        cfg = DcaConfig(record_trajectory=True)
        report = dca_solve(inst, GROUP_START, cfg)
        traj = report.trajectory
        assert np.array_equal(traj[0].x, GROUP_START)
        assert np.array_equal(traj[-1].x, report.final_x)
        extrapolated = 0
        for prev, cur in zip(traj, traj[1:]):
            y_prev, image = dca_step(inst, cfg.lam, prev.x, cfg.inner)
            assert np.array_equal(cur.y, y_prev)
            assert cur.step_norm == float(np.linalg.norm(cur.x - prev.x))
            assert prev.f_value - cur.f_value >= 0.5 * cfg.lam * cur.step_norm**2 - 1e-7
            extrapolated += not np.array_equal(cur.x, image)
        assert extrapolated >= 1


class TestDcaConfig:
    @settings(max_examples=100, deadline=None)
    @given(lam=st.floats(allow_nan=True, allow_infinity=True))
    def test_lambda_accepted_iff_finite_and_positive(self, lam):
        if math.isfinite(lam) and lam > 0:
            assert DcaConfig(lam=lam).lam == lam
        else:
            with pytest.raises(ValueError, match="lambda must be finite and positive"):
                DcaConfig(lam=lam)

    @pytest.mark.parametrize("kwargs, message", [
        ({"lam": 0.0}, "lambda must be finite and positive"),
        ({"lam": -1.0}, "lambda must be finite and positive"),
        ({"lam": float("nan")}, "lambda must be finite and positive"),
        ({"lam": float("inf")}, "lambda must be finite and positive"),
        ({"max_outer": 0}, "max_outer must be at least 1"),
        ({"outer_step_tol": float("nan")}, "outer_step_tol must be finite"),
        ({"outer_step_tol": -1.0}, "outer_step_tol must be finite"),
        ({"max_outer": 1.5}, "max_outer must be an integer, got 1.5"),
        ({"max_outer": 2.0}, "max_outer must be an integer, got 2.0"),
    ])
    def test_rejects_bad_options(self, kwargs, message):
        with pytest.raises(ValueError, match=message):
            DcaConfig(**kwargs)

    def test_numpy_integer_budget_accepted(self):
        assert DcaConfig(max_outer=np.int32(4)).max_outer == 4


class TestCriticalityResidual:
    def test_zero_at_fixed_point(self):
        assert criticality_residual(push_pull_1d(), 1.0, [1.0]) <= 1e-8

    def test_positive_off_fixed_point(self):
        assert np.isclose(criticality_residual(push_pull_1d(), 1.0, [0.2]), 0.8, atol=1e-6)

    @pytest.mark.parametrize("lam", [0.5, 1.0, 2.0])
    def test_quadratic_weight_invariance_at_stationary_point(self, lam):
        assert criticality_residual(push_pull_1d(), lam, [1.0]) <= 1e-8


class TestMultiStart:
    def test_deterministic_for_fixed_seed(self):
        inst = line_instance()
        a = multi_start_solve(inst, n_starts=5, seed=7)
        b = multi_start_solve(inst, n_starts=5, seed=7)
        assert np.array_equal(a.final_x, b.final_x)
        assert a.final_value == b.final_value

    def test_finds_optimum(self):
        # the strips beyond the repulsion halfplane boundaries are flat local
        # minima at value -1, so some seeds legitimately stall there;
        # this seed reaches the global strip
        report = multi_start_solve(line_instance(), n_starts=5, seed=1)
        assert np.isclose(report.final_value, -2.0, atol=1e-5)

    def test_unbounded_constraint_needs_box(self):
        inst = push_pull_1d()
        with pytest.raises(ValueError):
            multi_start_solve(inst, n_starts=2, seed=0)
        report = multi_start_solve(
            inst, n_starts=3, seed=0, sample_box=(np.array([0.0]), np.array([5.0]))
        )
        assert np.isclose(report.final_value, -1.0, atol=1e-8)

    def test_never_worse_than_single_start(self):
        rng = np.random.default_rng(43)
        for _ in range(10):
            inst = random_instance(rng, 2, separated=True)
            multi = multi_start_solve(inst, n_starts=5, seed=11)
            single = multi_start_solve(inst, n_starts=1, seed=11)
            assert multi.final_value <= single.final_value + 1e-12

    @pytest.mark.parametrize("n_starts", [0, -1])
    def test_rejects_no_starts(self, n_starts):
        with pytest.raises(ValueError, match="at least one start"):
            multi_start_solve(line_instance(), n_starts=n_starts, seed=0)

    @pytest.mark.parametrize("kwargs, message", [
        ({"n_starts": 2.0}, "n_starts must be an integer, got 2.0"),
        ({"n_starts": 1.5}, "n_starts must be an integer, got 1.5"),
        ({"seed": -1}, "seed must be a non-negative integer, got -1"),
        ({"seed": 1.5}, "seed must be an integer, got 1.5"),
        ({"seed": None}, "seed must be an integer, got None"),
    ])
    def test_rejects_bad_counts_and_seeds(self, kwargs, message):
        kwargs = {"n_starts": 2, "seed": 0, **kwargs}
        with pytest.raises(ValueError, match=message):
            multi_start_solve(line_instance(), **kwargs)

    def test_numpy_integer_counts_accepted(self):
        report = multi_start_solve(line_instance(), n_starts=np.int64(2), seed=np.uint32(7))
        assert_same_report(report, multi_start_solve(line_instance(), n_starts=2, seed=7))

    def test_builds_each_batch_once(self, fixtures_dir, monkeypatch):
        inst = ProblemInstance(
            2,
            load_points_csv(fixtures_dir / "group_a.csv", shape="square", half_side=5.0),
            load_points_csv(fixtures_dir / "group_b.csv", shape="square", half_side=5.0),
            Ball([30.0, -160.0], 30.0),
        )
        builds = []
        original = model.SetBatch.__init__

        def counting_init(self, sets):
            builds.append(len(sets))
            original(self, sets)

        monkeypatch.setattr(model.SetBatch, "__init__", counting_init)
        report = multi_start_solve(inst, n_starts=3, seed=0)
        assert report.outer_iterations > 1
        assert sorted(builds) == [120, 1097]


def summary_cases(fixtures_dir):
    """(instance, start) pairs: random instances of each shape family, the
    line fixture, whose solve takes the dual route, and both CSV footprints."""
    rng = np.random.default_rng(2026)
    cases = []
    for kind in ("point", "ball", "box", "halfspace"):
        for _ in range(6):
            n = int(rng.integers(1, 4))
            attractions = [
                WeightedSet(random_set(rng, n, kind=kind), float(rng.uniform(0.5, 2.0)))
                for _ in range(int(rng.integers(1, 4)))
            ]
            repulsions = [
                WeightedSet(random_set(rng, n, kind=kind), float(rng.uniform(0.1, 1.0)))
                for _ in range(int(rng.integers(0, 3)))
            ]
            inst = ProblemInstance(n, attractions, repulsions, Ball(np.zeros(n), 3.0))
            cases.append((inst, inst.constraint.project(rng.normal(scale=2.0, size=n))))
    cases.append((load_instance(fixtures_dir / "line_between_halfplanes.json"), [3.0, 0.5]))
    for shape in ("point", "square"):
        cases.append((group_instance(fixtures_dir, shape), GROUP_START))
    return cases


class TestHandedOverSummaries:
    """Every value that ``dca_solve`` builds from a handed-over summary equals,
    bit for bit, the value computed afresh at its point."""

    @pytest.mark.parametrize("record", [False, True])
    def test_values_equal_fresh_evaluations(self, fixtures_dir, record):
        cfg = DcaConfig(record_trajectory=record)
        routes = set()
        for inst, x0 in summary_cases(fixtures_dir):
            report = dca_solve(inst, x0, cfg)
            routes.update(report.inner_methods_used)
            assert report.final_value == evaluate_objective(inst, report.final_x)
            assert report.criticality_residual == criticality_residual(
                inst, cfg.lam, report.final_x, cfg.inner
            )
            rows = report.trajectory or []
            for prev, row in zip([None] + rows, rows):
                assert row.f_value == evaluate_objective(inst, row.x)
                if prev is not None:  # the linearization from a fresh pass
                    y_prev, _ = dca_step(inst, cfg.lam, prev.x, cfg.inner)
                    assert row.y.tobytes() == y_prev.tobytes()
        assert routes == {"weiszfeld", "dual"}

    def test_objective_never_evaluated_apart(self, fixtures_dir, monkeypatch):
        def refuse(inst, x):
            raise AssertionError("evaluate_objective called")

        monkeypatch.setattr(dca, "evaluate_objective", refuse)
        cfg = DcaConfig(record_trajectory=True)
        dca_solve(group_instance(fixtures_dir, "square"), GROUP_START, cfg)

    def test_attraction_passes_one_per_map_after_the_first(self, fixtures_dir, monkeypatch):
        # a solve handed its start's summary passes the attraction batch once
        # per map after its first and once for its certificate, whose summary
        # the next solve takes over; besides these only new points (the
        # start and the tried candidates) are passed
        inst = group_instance(fixtures_dir, "square")
        passes, fresh, results = [], [], []
        projections, solve_inner, summarize = (
            model.SetBatch.projections, dca.solve_inner, dca._summarize
        )

        def counting_projections(batch, x):
            if batch is inst.attraction_batch:
                passes.append(x)
            return projections(batch, x)

        def recording_solve(prob, x, cfg, *, summary):
            results.append(solve_inner(prob, x, cfg, summary=summary))
            return results[-1]

        def counting_summarize(inst_, x, attraction=None):
            if attraction is None:
                fresh.append(x)
            return summarize(inst_, x, attraction)

        monkeypatch.setattr(model.SetBatch, "projections", counting_projections)
        monkeypatch.setattr(dca, "solve_inner", recording_solve)
        monkeypatch.setattr(dca, "_summarize", counting_summarize)
        report = dca_solve(inst, GROUP_START)
        assert len(results) == report.outer_iterations + 1
        assert {r.method_used for r in results} == {"weiszfeld"}
        assert len(passes) == sum(r.iterations for r in results) + len(fresh)
        assert len(fresh) < len(results)


def assert_same_report(a: SolveReport, b: SolveReport) -> None:
    """``a`` and ``b`` agree field by field, floats and arrays bit for bit."""
    assert a.final_x.tobytes() == b.final_x.tobytes()
    for name in ("final_value", "outer_iterations", "termination", "criticality_residual",
                 "inner_methods_used"):
        assert getattr(a, name) == getattr(b, name), name
    assert (a.trajectory is None) == (b.trajectory is None)
    for row_a, row_b in zip(a.trajectory or [], b.trajectory or [], strict=True):
        assert (row_a.k, row_a.f_value, row_a.step_norm) == (row_b.k, row_b.f_value, row_b.step_norm)
        assert row_a.x.tobytes() == row_b.x.tobytes()
        assert (row_a.y is None) == (row_b.y is None)
        assert row_a.y is None or row_a.y.tobytes() == row_b.y.tobytes()


class TestMultiStartResidual:
    """``multi_start_solve`` runs its starts without the criticality residual
    and solves for it once, for the start it returns."""

    @pytest.mark.parametrize("record", [False, True])
    def test_one_residual_solve_and_the_best_starts_report(self, fixtures_dir, monkeypatch, record):
        cfg = DcaConfig(record_trajectory=record)
        solves, starts = [], []
        solve_inner, solve = dca.solve_inner, dca.dca_solve

        def counting_solve(prob, x, cfg, **kwargs):
            solves.append(x)
            return solve_inner(prob, x, cfg, **kwargs)

        def recording_solve(inst, x0, cfg, **kwargs):
            report = solve(inst, x0, cfg, **kwargs)
            starts.append((np.array(x0), report))
            return report

        monkeypatch.setattr(dca, "solve_inner", counting_solve)
        monkeypatch.setattr(dca, "dca_solve", recording_solve)
        distinct_ends = 0
        for inst, _ in summary_cases(fixtures_dir):
            solves.clear()
            starts.clear()
            report = multi_start_solve(inst, cfg, n_starts=3, seed=5)
            assert len(starts) == 3  # each start is a dca_solve call
            assert len(solves) == sum(r.outer_iterations for _, r in starts) + 1
            # the first start of least value, then of least final point, wins
            x0, _ = min(starts, key=lambda s: (s[1].final_value, tuple(s[1].final_x)))
            assert_same_report(report, dca_solve(inst, x0, cfg))
            distinct_ends += len({r.final_x.tobytes() for _, r in starts}) > 1
        # starts that end apart tell the winner's residual from a loser's
        assert distinct_ends >= 10


class TestBadStarts:
    @pytest.mark.parametrize("x0, message", [
        ([float("nan"), 0.0], "x0 must be finite"),
        ([float("inf"), 0.0], "x0 must be finite"),
        ([1.0, 0.0, 0.0], "x0 must be a vector of the instance's dimension 2"),
        ([[1.0, 0.0]], "x0 must be a vector of the instance's dimension 2"),
    ])
    def test_dca_solve_names_x0(self, x0, message):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=message) as raised:
                dca_solve(line_instance(), x0)
        assert not isinstance(raised.value, NotInConstraint)

    def test_infeasible_start_still_not_in_constraint(self):
        with pytest.raises(NotInConstraint):
            dca_solve(line_instance(), [30.0, 0.0])

    @pytest.mark.parametrize("box, message", [
        (([float("nan"), -1.0], [1.0, 1.0]), "sample_box lower bound must be finite"),
        (([-1.0, -1.0], [1.0, float("inf")]), "sample_box upper bound must be finite"),
        (([-1.0, 2.0], [1.0, 1.0]), "sample_box lower bound .* exceeds upper bound"),
        (([-1.0], [1.0]), "sample_box lower bound must be a vector of the instance's dimension 2"),
        (([-1.0, -1.0], [1.0, 1.0, 1.0]), "sample_box upper bound must be a vector"),
        (([-1e308, -1.0], [1e308, 1.0]), "sample_box width must be finite"),
    ])
    def test_multi_start_names_sample_box(self, box, message):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=message):
                multi_start_solve(line_instance(), n_starts=2, seed=0, sample_box=box)

    def test_degenerate_sample_box_accepted(self):
        report = multi_start_solve(
            line_instance(), n_starts=2, seed=0, sample_box=([3.0, 0.5], [3.0, 0.5])
        )
        assert report.final_value == dca_solve(line_instance(), [3.0, 0.5]).final_value
