"""Brute-force verification oracle.

Exhaustive projected grid search.  This is a test instrument for desk-scale
problems, not a solver: the budget cap keeps accidental high-dimensional
grids from blowing up, and the result is deterministic including the
tie-break (lexicographically smallest minimizer).

Every grid point's value is the one ``evaluate_objective_many`` gives at its
projection, bit for bit, but most are not computed there.  When every set
in both batches is a singleton or an axis box (``SetBatch.separable``), a
squared distance is a sum of one term per coordinate, and the grid points
that the constraint's projection leaves in place are evaluated from
per-axis tables (``SetBatch.coordinate_terms``): the last axis's terms once
per tile of the grid, the leading coordinates' terms once per grid line,
and a block of lines' distances with one broadcast add, one ``sqrt`` and
one matrix-vector product per batch.  The points the projection moves, and
every point of a batch with a ball or a halfspace, go through
``evaluate_objective_many``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .geometry import coordinate_norms
from .inner import _require_integer
from .model import (
    _CHUNK_ELEMENTS,
    ProblemInstance,
    _block_rows,
    _whole_groups,
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
    """``points_per_axis`` evenly spaced points from ``lower[k]`` to
    ``upper[k]`` on every axis k; construction raises ``ValueError`` for a
    spec that names no such grid."""

    lower: np.ndarray
    upper: np.ndarray
    points_per_axis: int

    def __post_init__(self):
        self.lower = np.asarray(self.lower, dtype=float)
        self.upper = np.asarray(self.upper, dtype=float)
        self.points_per_axis = _require_integer("points_per_axis", self.points_per_axis)
        if self.lower.ndim != 1 or self.lower.shape != self.upper.shape:
            raise ValueError(
                "grid bounds must be 1-d arrays of one length, got shapes "
                f"{self.lower.shape} and {self.upper.shape}"
            )
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
    minimizer.  Each value is the one ``evaluate_objective_many`` gives at
    the point's projection, bit for bit (with OpenBLAS, whose kernels this
    was checked on).

    The grid is walked in tiles: a run of grid lines (the points that share
    all coordinates but the last) times a segment of the last axis, with at
    most as many points as fill an eighth of ``model._CHUNK_ELEMENTS`` with
    coordinates.  Each tile is built and projected at once.  The points the
    projection moves, or all of them when a set batch is not separable, are
    evaluated by one ``evaluate_objective_many`` call, whose work array is
    freed before the tables exist.  A separable instance's other points come
    from tables of its squared coordinate residuals (see the module
    docstring): a tile's tables and its block of lines' distances each fill
    at most half of ``_CHUNK_ELEMENTS``, and every matrix-vector product runs
    over whole groups of ``model._ROW_GROUP`` rows, padded by repeating a
    row, as in ``evaluate_objective_many``.  So memory stays bounded
    whatever the grid size.
    """
    n = inst.dimension
    if len(grid.lower) != n:
        raise ValueError(f"grid has {len(grid.lower)} axes, the instance has dimension {n}")
    if n > 4:
        raise BudgetExceeded("grid search is restricted to dimension <= 4")
    p = grid.points_per_axis
    total = p**n
    if total > _BUDGET:
        raise BudgetExceeded(f"{total} evaluations exceed the budget {_BUDGET}")
    axes = [np.linspace(grid.lower[k], grid.upper[k], p) for k in range(n)]
    spacing = float(max((hi - lo) / (p - 1) for lo, hi in zip(grid.lower, grid.upper)))

    batches = (
        (inst.attraction_batch, inst.attraction_weights),
        (inst.repulsion_batch, inst.repulsion_weights),
    )
    separable = all(batch.separable for batch, _ in batches)
    tile_rows = _block_rows(_CHUNK_ELEMENTS // (8 * n))
    seg = min(p, tile_rows)
    if separable:
        seg = min(seg, max(1, _CHUNK_ELEMENTS // 2 // sum(b.n_sets for b, _ in batches)))

    best = _Best()
    for lines, (a, b) in _tiles(p, n, seg, max(1, tile_rows // seg)):
        idx = np.unravel_index(lines, (p,) * (n - 1)) if n > 1 else ()
        lead = [axis[i] for axis, i in zip(axes, idx)]
        last = axes[-1][a:b]
        pts = np.empty((len(lines) * len(last), n))
        for k, coords in enumerate(lead):
            pts[:, k] = np.repeat(coords, len(last))
        pts[:, -1] = np.tile(last, len(lines))
        proj = inst.constraint.project_many(pts)
        moved = np.ones(len(pts), dtype=bool)
        if separable:  # one coordinate at a time: any(axis=1) over n is slow
            np.not_equal(proj[:, 0], pts[:, 0], out=moved)
            for k in range(1, n):
                moved |= proj[:, k] != pts[:, k]
        best.add(pts, proj, _tile_values(inst, batches, lead, last, proj, moved))

    if best.min_dist > float(np.linalg.norm(grid.upper - grid.lower)):
        raise EmptyIntersection("no grid point projects near the constraint set")
    candidates = np.vstack(best.rows)
    order = np.lexsort(candidates.T[::-1])
    return OracleResult(
        best_x=candidates[order[0]], best_value=best.value, evaluations=total, spacing=spacing
    )


class _Best:
    """The least value seen, every projected point that attains it, and
    the least distance from a grid point to its projection."""

    def __init__(self):
        self.value, self.rows, self.min_dist = np.inf, [], np.inf

    def add(self, pts: np.ndarray, proj: np.ndarray, vals: np.ndarray):
        self.min_dist = min(self.min_dist, float(np.min(coordinate_norms(pts.T, proj.T))))
        lo = float(np.min(vals))
        if lo < self.value:
            self.value, self.rows = lo, [proj[vals == lo]]
        elif lo == self.value:
            self.rows.append(proj[vals == lo])


def _tiles(p: int, n: int, seg: int, lines: int):
    """(line indices, (a, b)) of tiles covering the flattened "ij" grid of
    ``p**n`` points: runs of at most ``lines`` of its ``p**(n - 1)`` grid
    lines times segments [a, b) of at most ``seg`` points of the last axis."""
    count = p ** (n - 1)
    for a in range(0, p, seg):
        for first in range(0, count, lines):
            yield np.arange(first, min(first + lines, count)), (a, min(a + seg, p))


def _tile_values(inst, batches, lead: list, last: np.ndarray, proj: np.ndarray,
                 moved: np.ndarray) -> np.ndarray:
    """Objective values at the projections ``proj`` of a tile's grid points
    (see ``_table_values`` for ``lead`` and ``last``): the ``moved`` ones
    from ``evaluate_objective_many``, the others from the tables."""
    general = np.flatnonzero(moved)
    if len(general):  # before the tables exist
        general_vals = evaluate_objective_many(inst, proj[general])
    vals = np.empty(len(proj))
    if len(general) < len(proj):
        shape = (len(proj) // len(last), len(last))
        _table_values(batches, lead, last, ~moved.reshape(shape), vals.reshape(shape))
    if len(general):
        vals[general] = general_vals
    return vals


def _table_values(batches, lead: list, last: np.ndarray, unmoved: np.ndarray, out: np.ndarray):
    """Objective values of a tile's unmoved grid points into their entries
    of ``out``, from the per-axis tables.  Both ``unmoved`` and ``out`` have
    one row per grid line of the tile and one column per point of ``last``,
    the tile's segment of the last axis; ``lead`` holds the lines' leading
    coordinates.  A block of lines is computed over the columns from the
    first to the last of its unmoved points, so other entries of ``out``
    may be written too."""
    kept = np.flatnonzero(unmoved.any(axis=1))
    first = unmoved[kept].argmax(axis=1)
    stop = unmoved.shape[1] - unmoved[kept, ::-1].argmax(axis=1)
    seg = len(last)
    width = max(batch.n_sets for batch, _ in batches) or 1
    block = min(len(kept), max(1, _CHUNK_ELEMENTS // 2 // (seg * width)))
    padded = _whole_groups(block * seg)
    tabs = [batch.coordinate_terms(len(lead), last) for batch, _ in batches]
    work = np.empty(padded * width)
    vals = np.empty(padded)
    for start in range(0, len(kept), block):
        lines = kept[start:start + block]
        a, b = first[start:start + block].min(), stop[start:start + block].max()
        rows = len(lines) * (b - a)
        groups = _whole_groups(rows)
        for j, ((batch, weights), tab) in enumerate(zip(batches, tabs)):
            dists = work[:groups * batch.n_sets].reshape(groups, batch.n_sets)
            grid = dists[:rows].reshape(len(lines), b - a, batch.n_sets)
            if lead:
                terms = batch.coordinate_terms(0, lead[0][lines])
                for k in range(1, len(lead)):
                    terms += batch.coordinate_terms(k, lead[k][lines])
                np.add(terms[:, None], tab[a:b], out=grid)
            else:  # one grid line, and its terms are the table
                grid[...] = tab[a:b]
            np.sqrt(grid, out=grid)
            dists[rows:] = dists[rows - 1]
            if j == 0:
                np.matmul(dists, weights, out=vals[:groups])
            else:
                vals[:groups] -= dists @ weights
        out[lines, a:b] = vals[:rows].reshape(len(lines), b - a)
