"""Brute-force verification oracle.

Exhaustive projected grid search.  This is a test instrument for desk-scale
problems, not a solver: the budget cap keeps accidental high-dimensional
grids from blowing up, and the result is deterministic including the
tie-break (lexicographically smallest minimizer).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .geometry import coordinate_norms
from .model import (
    _CHUNK_ELEMENTS,
    ProblemInstance,
    _block_rows,
    _row_blocks,
    evaluate_objective,  # noqa: F401  bench/tracing.py wraps it by this name
    evaluate_objective_many,
)

__all__ = [
    "GridSpec",
    "OracleResult",
    "BudgetExceeded",
    "EmptyIntersection",
    "grid_search",
]

# the most grid points one search may evaluate
_BUDGET = 10**7


class BudgetExceeded(ValueError):
    """Grid would require more evaluations than the configured budget."""


class EmptyIntersection(ValueError):
    """The grid region does not reach the constraint set."""


@dataclass
class GridSpec:
    lower: np.ndarray
    upper: np.ndarray
    points_per_axis: int

    def __post_init__(self):
        self.lower = np.asarray(self.lower, dtype=float)
        self.upper = np.asarray(self.upper, dtype=float)
        self.points_per_axis = int(self.points_per_axis)
        if self.points_per_axis < 2:
            raise ValueError("need at least two grid points per axis")
        if not (np.all(np.isfinite(self.lower)) and np.all(np.isfinite(self.upper))):
            raise ValueError("grid bounds must be finite")
        if np.any(self.lower >= self.upper):
            raise ValueError("grid requires lower < upper componentwise")


@dataclass
class OracleResult:
    best_x: np.ndarray
    best_value: float
    evaluations: int
    spacing: float


def grid_search(inst: ProblemInstance, grid: GridSpec) -> OracleResult:
    """Evaluate the objective at every grid point projected onto the
    constraint set and return the minimum.

    Projection-then-evaluate keeps feasibility exact even when the constraint
    slices the grid region.  Ties are broken by the lexicographically smallest
    minimizer.  Grid points are built and projected in chunks whose
    coordinates fill an eighth of ``model._CHUNK_ELEMENTS``, in whole row
    groups, so that the few arrays of a chunk's size stay below one block's
    work array.  Each chunk is one ``evaluate_objective_many`` call, which
    allocates its block work array once and evaluates the chunk in blocks,
    so memory stays bounded whatever the grid size.
    """
    n = inst.dimension
    if n > 4:
        raise BudgetExceeded("grid search is restricted to dimension <= 4")
    total = grid.points_per_axis**n
    if total > _BUDGET:
        raise BudgetExceeded(f"{total} evaluations exceed the budget {_BUDGET}")
    axes = [
        np.linspace(grid.lower[k], grid.upper[k], grid.points_per_axis)
        for k in range(n)
    ]
    spacing = float(max((hi - lo) / (grid.points_per_axis - 1)
                        for lo, hi in zip(grid.lower, grid.upper)))
    rows = _block_rows(_CHUNK_ELEMENTS // (8 * n))

    diag = float(np.linalg.norm(grid.upper - grid.lower))
    best_val = np.inf
    best_rows: list[np.ndarray] = []
    min_dist = np.inf
    for start, stop in _row_blocks(total, rows):
        block = _grid_rows(axes, start, stop)
        proj = inst.constraint.project_many(block)
        min_dist = min(min_dist, float(np.min(coordinate_norms(block.T, proj.T))))
        vals = evaluate_objective_many(inst, proj)
        lo = float(np.min(vals))
        if lo < best_val:
            best_val = lo
            best_rows = [proj[vals == lo]]
        elif lo == best_val:
            best_rows.append(proj[vals == lo])
    if min_dist > diag:
        raise EmptyIntersection("no grid point projects near the constraint set")
    candidates = np.vstack(best_rows)
    order = np.lexsort(candidates.T[::-1])
    best_x = candidates[order[0]]
    return OracleResult(
        best_x=best_x, best_value=best_val, evaluations=total, spacing=spacing
    )


def _grid_rows(axes: list[np.ndarray], start: int, stop: int) -> np.ndarray:
    """Rows ``start`` to ``stop - 1`` of the flattened "ij" meshgrid of ``axes``."""
    idx = np.unravel_index(np.arange(start, stop), [axis.size for axis in axes])
    return np.column_stack([axis[i] for axis, i in zip(axes, idx)])
