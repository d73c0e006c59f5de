import tracemalloc

import numpy as np
import pytest

from dcloc import (
    AxisBox,
    Ball,
    GridSpec,
    Halfspace,
    ProblemInstance,
    SetGroup,
    Singleton,
    WeightedSet,
    evaluate_objective,
    grid_search,
)
from dcloc import model, oracle
from dcloc.instance_io import load_points_csv
from dcloc.oracle import BudgetExceeded, EmptyIntersection
from conftest import random_instance, random_set

INF = np.inf


def tie_instance_1d():
    """Symmetric pair of attractors: any x in [-1, 1] is optimal."""
    return ProblemInstance(
        1,
        [WeightedSet(Singleton([-1.0]), 1.0), WeightedSet(Singleton([1.0]), 1.0)],
        [],
        AxisBox([-INF], [INF]),
    )


class TestGridSearch:
    def test_simple_minimum(self):
        inst = ProblemInstance(
            2,
            [WeightedSet(Singleton([0.5, 0.5]), 1.0)],
            [],
            Ball([0, 0], 2.0),
        )
        spec = GridSpec(np.array([-2.0, -2.0]), np.array([2.0, 2.0]), 81)
        result = grid_search(inst, spec)
        assert result.best_value <= result.spacing
        assert np.linalg.norm(result.best_x - [0.5, 0.5]) <= result.spacing * 2
        assert result.evaluations == 81**2
        assert np.isclose(result.spacing, 0.05)

    def test_tie_break_lexicographic(self):
        # the plateau of minimizers is [-1, 1]; the smallest grid point wins
        spec = GridSpec(np.array([-3.0]), np.array([3.0]), 7)
        result = grid_search(tie_instance_1d(), spec)
        assert result.best_value == 2.0
        assert result.best_x[0] == -1.0

    def test_projection_keeps_feasible(self):
        inst = ProblemInstance(
            2,
            [WeightedSet(Singleton([5.0, 0.0]), 1.0)],
            [],
            Ball([0, 0], 1.0),
        )
        spec = GridSpec(np.array([-10.0, -10.0]), np.array([10.0, 10.0]), 41)
        result = grid_search(inst, spec)
        assert inst.constraint.contains(result.best_x, 1e-9)
        assert np.allclose(result.best_x, [1.0, 0.0], atol=1e-9)
        assert np.isclose(result.best_value, 4.0, atol=1e-9)

    def test_budget_exceeded(self):
        inst = random_instance(np.random.default_rng(0), 3)
        spec = GridSpec(np.full(3, -1.0), np.full(3, 1.0), 1000)
        with pytest.raises(BudgetExceeded):
            grid_search(inst, spec)

    def test_high_dimension_rejected(self):
        inst = random_instance(np.random.default_rng(1), 5)
        spec = GridSpec(np.full(5, -1.0), np.full(5, 1.0), 3)
        with pytest.raises(BudgetExceeded):
            grid_search(inst, spec)

    def test_far_away_grid_rejected(self):
        inst = ProblemInstance(
            2,
            [WeightedSet(Singleton([0.0, 0.0]), 1.0)],
            [],
            Ball([100.0, 100.0], 1.0),
        )
        spec = GridSpec(np.array([-1.0, -1.0]), np.array([1.0, 1.0]), 11)
        with pytest.raises(EmptyIntersection):
            grid_search(inst, spec)

    def test_degenerate_spec_rejected(self):
        with pytest.raises(ValueError):
            GridSpec(np.array([0.0]), np.array([0.0]), 11)
        with pytest.raises(ValueError):
            GridSpec(np.array([0.0]), np.array([1.0]), 1)

    @pytest.mark.parametrize("points", [2.9, "7", 7.0, None])
    def test_non_integer_points_per_axis_rejected(self, points):
        with pytest.raises(ValueError, match="points_per_axis must be an integer"):
            GridSpec(np.zeros(2), np.ones(2), points)

    def test_integer_points_per_axis_kept(self):
        assert GridSpec(np.zeros(2), np.ones(2), np.int64(7)).points_per_axis == 7

    @pytest.mark.parametrize("lower, upper", [
        (0.0, 1.0),
        ([[0.0, 0.0]], [[1.0, 1.0]]),
        ([0.0, 0.0], [1.0, 1.0, 1.0]),
    ])
    def test_bounds_not_one_dimensional_rejected(self, lower, upper):
        with pytest.raises(ValueError, match="grid bounds must be 1-d arrays of one length"):
            GridSpec(lower, upper, 5)

    @pytest.mark.parametrize("axes", [1, 3])
    def test_spec_of_other_dimension_rejected(self, axes):
        inst = ProblemInstance(2, [WeightedSet(Singleton([0.5, 0.5]), 1.0)], [], Ball([0, 0], 2.0))
        spec = GridSpec(np.full(axes, -1.0), np.full(axes, 1.0), 5)
        with pytest.raises(ValueError, match=f"grid has {axes} axes, the instance has dimension 2"):
            grid_search(inst, spec)

    @pytest.mark.parametrize("lower, upper", [
        ([np.nan, 0.0], [1.0, 1.0]),
        ([-INF, 0.0], [1.0, 1.0]),
        ([0.0, 0.0], [1.0, INF]),
    ])
    def test_non_finite_bounds_rejected(self, lower, upper):
        with pytest.raises(ValueError, match="grid bounds must be finite"):
            GridSpec(np.array(lower), np.array(upper), 5)

    def test_minimum_below_all_samples(self):
        rng = np.random.default_rng(61)
        for _ in range(10):
            inst = random_instance(rng, 2)
            spec = GridSpec(np.full(2, -2.0), np.full(2, 2.0), 51)
            result = grid_search(inst, spec)
            for _ in range(200):
                x = inst.constraint.project(rng.uniform(-2, 2, size=2))
                # a grid point lies within spacing of x; Lipschitz bound
                L = float(np.sum(inst.attraction_weights))
                if inst.repulsions:
                    L += float(np.sum(inst.repulsion_weights))
                slack = L * result.spacing * np.sqrt(2)
                assert result.best_value <= evaluate_objective(inst, x) + slack + 1e-9


    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_chunked_matches_single_chunk(self, monkeypatch, n):
        # chunk boundaries must not change the minimum or the tie-break
        inst = random_instance(np.random.default_rng(70 + n), n)
        spec = GridSpec(np.full(n, -2.0), np.full(n, 2.0), 9)
        whole = grid_search(inst, spec)
        monkeypatch.setattr(oracle, "_CHUNK_ELEMENTS", 7)
        chunked = grid_search(inst, spec)
        assert chunked.best_value == whole.best_value
        assert np.array_equal(chunked.best_x, whole.best_x)
        assert chunked.evaluations == whole.evaluations == 9**n

    def test_peak_memory_bounded(self, fixtures_dir):
        # the boxes take the table path at the points the ball leaves in place
        peak = _fixture_grid_peak(fixtures_dir, general=False)
        assert peak <= 2 * 8 * oracle._CHUNK_ELEMENTS  # 2 MiB

    def test_peak_memory_bounded_on_general_path(self, fixtures_dir):
        # one ball among the attractions sends every point through
        # evaluate_objective_many
        peak = _fixture_grid_peak(fixtures_dir, general=True)
        assert peak <= 2 * 8 * oracle._CHUNK_ELEMENTS  # 2 MiB

    @pytest.mark.parametrize("shape", ["point", "square"])
    def test_blocks_match_one_block_at_fixture_scale(self, fixtures_dir, monkeypatch, shape):
        # the oracle_grid benchmark window over the fixture groups: several
        # blocks give the grid minimum and the values of one block bit for bit
        half_side = 5.0 if shape == "square" else 0.0
        inst = ProblemInstance(
            2,
            load_points_csv(fixtures_dir / "group_a.csv", shape=shape, half_side=half_side),
            load_points_csv(fixtures_dir / "group_b.csv", shape=shape, half_side=half_side),
            Ball([30.0, -160.0], 30.0),
        )
        spec = GridSpec(np.array([0.0, -190.0]), np.array([60.0, -130.0]), 40)
        axes = np.linspace(0.0, 60.0, 40), np.linspace(-190.0, -130.0, 40)
        grid = np.stack(np.meshgrid(*axes, indexing="ij"), -1).reshape(-1, 2)
        pts = inst.constraint.project_many(grid)
        assert model._CHUNK_ELEMENTS // (len(inst.attractions) * 2) < 1600
        blocked = grid_search(inst, spec), model.evaluate_objective_many(inst, pts)
        for module in (model, oracle):
            monkeypatch.setattr(module, "_CHUNK_ELEMENTS", 1 << 22)
        whole = grid_search(inst, spec), model.evaluate_objective_many(inst, pts)
        assert blocked[0].best_value == whole[0].best_value
        assert np.array_equal(blocked[0].best_x, whole[0].best_x)
        assert np.array_equal(blocked[1].view(np.uint64), whole[1].view(np.uint64))


def _fixture_grid_peak(fixtures_dir, general: bool) -> int:
    """Peak traced bytes of a 91 x 91 grid search over 1217 boxes (the
    fixture CSVs, square footprint), the last attraction replaced by a ball
    when ``general``: about 208 MiB in one chunk, bounded by the chunk size
    now.  The bound holds a tile's points and either the moved points' work
    array (one evaluation block) or its tables and block of lines."""
    attractions = load_points_csv(fixtures_dir / "group_a.csv", shape="square", half_side=5.0)
    if general:
        attractions = [*list(attractions)[:-1], WeightedSet(Ball([30.0, -160.0], 5.0), 1.0)]
    inst = ProblemInstance(
        2,
        attractions,
        load_points_csv(fixtures_dir / "group_b.csv", shape="square", half_side=5.0),
        Ball([30.0, -160.0], 30.0),
    )
    n_sets = len(inst.attractions) + len(inst.repulsions)
    assert n_sets == 1217
    assert inst.attraction_batch.separable != general
    # a 40 x 40 grid over an instance of this size now spans several blocks
    assert oracle._CHUNK_ELEMENTS // (len(inst.attractions) * 2) < 1600
    inst.attraction_batch, inst.repulsion_batch  # built outside the trace
    spec = GridSpec(np.array([0.0, -190.0]), np.array([60.0, -130.0]), 91)
    tracemalloc.start()
    try:
        result = grid_search(inst, spec)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert result.evaluations == 8281
    return peak


def _sets(rng, n, kind, count, as_group):
    """``count`` random singletons or boxes (with some degenerate sides), as
    a ``SetGroup`` of one weight or a list of weighted sets."""
    centers = rng.uniform(-3.0, 3.0, (count, n))
    if kind == "point":
        params = (centers,)
    else:
        half = rng.uniform(0.0, 1.0, (count, n)) * (rng.random((count, n)) < 0.8)
        params = (centers - half, centers + half)
    family = Singleton if kind == "point" else AxisBox
    if as_group:
        return SetGroup(family, params, float(rng.uniform(0.5, 2.0)))
    return [WeightedSet(family(*row), float(rng.uniform(0.5, 2.0))) for row in zip(*params)]


def _family_sets(rng, n, families, count):
    if families == "ball and boxes":  # not separable: the general path
        sets = _sets(rng, n, "box", count - 1, False)
        return sets + [WeightedSet(random_set(rng, n, kind="ball"), 1.0)]
    if families == "halfspace and points":
        sets = _sets(rng, n, "point", count - 1, False)
        return [WeightedSet(random_set(rng, n, kind="halfspace"), 0.5)] + sets
    if families == "mixed list":  # singletons and boxes interleaved
        sets = _sets(rng, n, "point", count // 2, False) + _sets(rng, n, "box", count // 2, False)
        return [sets[i] for i in rng.permutation(len(sets))]
    kind, form = families.split()
    return _sets(rng, n, kind, count, form == "group")


def _constraint(rng, n, moves, spacing):
    if moves == "none":
        return AxisBox(np.full(n, -INF), np.full(n, INF))
    if moves == "ball":
        return Ball(rng.uniform(-1.0, 1.0, n), 2.5)
    if moves == "halfspace":
        return Halfspace(rng.normal(size=n), 0.5)
    # a small ball between the grid points: every point moves
    return Ball(np.full(n, -3.0 + 0.5 * spacing), 0.25 * spacing)


# points per axis: grids of 301, 1369, 1331 and 1296 points, so that the
# last evaluation block of the whole grid is 5, 1 (a lone row), 3 and 0
# rows past whole row groups
_POINTS = {1: 301, 2: 37, 3: 11, 4: 6}


@pytest.mark.parametrize("moves", ["none", "ball", "halfspace", "all"])
@pytest.mark.parametrize("families", [
    "point group", "box group", "point list", "box list", "mixed list",
    "ball and boxes", "halfspace and points",
])
@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_grid_values_match_brute_force(monkeypatch, n, families, moves):
    """Every grid point's value, the minimum and its point equal, bit for bit,
    a brute-force search: ``evaluate_objective_many`` in one call over the
    whole projected grid, then the least value with the lexicographic
    tie-break.  This holds for the table path (singletons and boxes, as
    groups or lists, at the points the constraint leaves in place) and the
    general path (moved points, and batches holding a ball or a halfspace),
    and whatever the chunk size."""
    rng = np.random.default_rng([n, *families.encode(), *moves.encode()])
    p = _POINTS[n]
    spec = GridSpec(np.full(n, -3.0), np.full(n, 3.0), p)
    inst = ProblemInstance(
        n,
        _family_sets(rng, n, families, 120),
        _family_sets(rng, n, families, 40),
        _constraint(rng, n, moves, 6.0 / (p - 1)),
    )
    axes = [np.linspace(-3.0, 3.0, p)] * n
    grid = np.stack(np.meshgrid(*axes, indexing="ij"), -1).reshape(-1, n)
    proj = inst.constraint.project_many(grid)
    want = model.evaluate_objective_many(inst, proj)
    candidates = proj[want == want.min()]
    want_x = candidates[np.lexsort(candidates.T[::-1])[0]]
    separable = families not in ("ball and boxes", "halfspace and points")
    assert inst.attraction_batch.separable == separable

    seen, general_rows = [], []
    add, evaluate = oracle._Best.add, oracle.evaluate_objective_many

    def record(self, pts, proj, vals):
        seen.append((pts, vals))
        add(self, pts, proj, vals)

    def count(inst, pts):
        general_rows.append(len(pts))
        return evaluate(inst, pts)

    monkeypatch.setattr(oracle._Best, "add", record)
    monkeypatch.setattr(oracle, "evaluate_objective_many", count)
    for chunk in (1 << 17, 1 << 13, 1 << 10):
        monkeypatch.setattr(oracle, "_CHUNK_ELEMENTS", chunk)
        seen.clear()
        general_rows.clear()
        result = grid_search(inst, spec)
        assert np.float64(result.best_value).tobytes() == want.min().tobytes()
        assert result.best_x.tobytes() == want_x.tobytes()
        pts = np.vstack([pts for pts, _ in seen])
        vals = np.concatenate([vals for _, vals in seen])
        order = np.lexsort(pts.T[::-1])  # the grid's own row order
        assert pts[order].tobytes() == grid.tobytes()
        assert vals[order].tobytes() == want.tobytes()
        # a separable instance leaves to evaluate_objective_many only the
        # moved points, each call padded to whole row groups, and the ragged
        # last block of the whole grid
        moved = int(np.any(proj != grid, axis=1).sum())
        assert moved == {"none": 0, "all": p**n}.get(moves, moved)
        tail = p**n - oracle._ragged_tail(p**n, model._objective_block_rows(inst))
        if separable:
            assert moved <= sum(general_rows) <= moved + tail + 7 * len(general_rows)
        else:
            assert sum(general_rows) >= p**n
