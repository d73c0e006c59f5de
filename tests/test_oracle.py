import tracemalloc

import numpy as np
import pytest

from dcloc import (
    AxisBox,
    Ball,
    GridSpec,
    ProblemInstance,
    Singleton,
    WeightedSet,
    evaluate_objective,
    grid_search,
)
from dcloc import model, oracle
from dcloc.instance_io import load_points_csv
from dcloc.oracle import BudgetExceeded, EmptyIntersection
from conftest import random_instance

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
        # 1217 boxes (the fixture CSVs, square footprint) and 91 x 91 grid
        # points: about 208 MiB in one chunk, bounded by the chunk size now
        inst = ProblemInstance(
            2,
            load_points_csv(fixtures_dir / "group_a.csv", shape="square", half_side=5.0),
            load_points_csv(fixtures_dir / "group_b.csv", shape="square", half_side=5.0),
            Ball([30.0, -160.0], 30.0),
        )
        n_sets = len(inst.attractions) + len(inst.repulsions)
        assert n_sets == 1217
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
        # a box chunk's projections (2 coordinates) plus two (rows, sets) arrays
        assert peak <= 2 * 8 * oracle._CHUNK_ELEMENTS  # 64 MiB

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
