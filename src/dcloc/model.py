"""Problem instances, objective evaluation and the existence classifier.

The objective is a weighted sum of distances to attraction sets minus a
weighted sum of distances to repulsion sets, minimized over a constraint set.
With negative weights present the problem is a d.c. program; the split into
two convex components (each augmented by a quadratic term) lives here as well.
"""

from __future__ import annotations

import itertools
import math
import operator
from collections.abc import Sequence
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .geometry import AxisBox, ConvexSet, Singleton, coordinate_norms, set_contains_set

__all__ = [
    "WeightedSet",
    "SetGroup",
    "ProblemInstance",
    "ExistenceReport",
    "SetBatch",
    "evaluate_objective",
    "evaluate_objective_many",
    "evaluate_split",
    "existence_classify",
    "ValidationError",
    "structural_problems",
    "require_valid",
    "validate_instance",
]


@dataclass(eq=False)
class WeightedSet:
    set: ConvexSet
    weight: float

    def __post_init__(self):
        self.weight = float(self.weight)
        if not math.isfinite(self.weight):
            raise ValueError(f"weight must be finite, got {self.weight}")

    def __eq__(self, other):
        if not isinstance(other, WeightedSet):
            return NotImplemented
        return self.weight == other.weight and self.set == other.set


class SetGroup(Sequence):
    """Read-only, array-backed sequence of weighted sets of one shape family
    (singletons or axis boxes) that share one weight.

    It holds the family's stacked ``_key()`` parameters with one row per set
    (``(m, n)`` points, or ``(m, n)`` lower and upper bounds) and checks them
    once, as arrays: the constructors' rules for the family (finite points;
    bounds not NaN, lower <= upper) and a finite weight.  Input that fails
    raises the error, with its message, that building the sets one by one
    raises first.  A ``WeightedSet`` is built only when one is read: an
    integer index builds that item through the ordinary constructors, and
    iteration builds the whole list once and keeps it.  ``model.SetBatch``
    takes the stacked parameters as they are.  A group equals any sequence of
    equal items.
    """

    _FAMILIES = (Singleton, AxisBox)

    def __init__(self, kind: type, params, weight: float):
        if kind not in self._FAMILIES:
            raise TypeError(f"no array-backed group of {kind.__name__} sets")
        params = tuple(_read_only(np.array(p, dtype=float)) for p in params)
        if len(params) != len(kind.__dataclass_fields__) or any(
            p.ndim != 2 or p.shape != params[0].shape for p in params
        ):
            raise ValueError(f"{kind.__name__} parameters need equal (m, n) shapes")
        self.kind, self.params, self.weight = kind, params, weight
        if not self._valid():
            for i in range(len(self)):  # raises the first set's or weight's error
                self[i]
        self.weight = float(weight)

    def _valid(self) -> bool:
        try:
            if not math.isfinite(float(self.weight)):
                return False
        except (TypeError, ValueError):
            return False
        if self.kind is Singleton:
            return bool(np.isfinite(self.params[0]).all())
        lower, upper = self.params
        # lower <= upper is False against NaN, so it settles both box rules
        return bool((lower <= upper).all())

    @property
    def dim(self) -> int:
        """The sets' dimension."""
        return self.params[0].shape[1]

    def __len__(self) -> int:
        return self.params[0].shape[0]

    def __getitem__(self, index: int) -> WeightedSet:
        i = range(len(self))[operator.index(index)]  # negative ones included
        return WeightedSet(self.kind(*(p[i] for p in self.params)), self.weight)

    @cached_property
    def _items(self) -> list[WeightedSet]:
        return [self[i] for i in range(len(self))]

    def __iter__(self):
        return iter(self._items)

    def __eq__(self, other):
        if not isinstance(other, Sequence):
            return NotImplemented
        return len(self) == len(other) and all(a == b for a, b in zip(self, other))

    def __repr__(self) -> str:
        return f"SetGroup({self.kind.__name__}, {len(self)} sets, dim={self.dim}, weight={self.weight})"


class SetBatch:
    """Vectorized projection/distance over a list of m convex sets.

    The batch is coordinate-major: it stacks each shape family's ``_key()``
    parameters with the set axis last, point-like parameters as C-contiguous
    ``(n, m_k)`` arrays and scalar ones as ``(m_k,)``, so that each
    ``_project_array`` call broadcasts over the family's sets in contiguous
    length-m_k loops, and projecting onto hundreds of sets costs one call
    per family.  Results carry the set axis last, in the original set order:
    ``(n, m)`` projections, ``(m,)`` and ``(N, m)`` distances.  A one-family
    batch returns the kernel's result as it is.  A family contiguous in the
    set order is addressed by a slice rather than an index array.  The
    stacked parameters are read-only, since a singleton family's kernel
    returns them as its projections.  ``sets`` is a sequence of convex sets
    or a ``SetGroup``, whose parameter rows are transposed into that layout
    without building a set.
    """

    def __init__(self, sets: Sequence[ConvexSet] | SetGroup):
        self.n_sets = len(sets)
        self._groups = []
        if isinstance(sets, SetGroup):
            self.dim = sets.dim
            params = tuple(_read_only(np.ascontiguousarray(p.T)) for p in sets.params)
            self._groups.append((sets.kind, slice(0, self.n_sets), params))
            return
        self.dim = sets[0].dim if sets else 0
        by_kind: dict[type, list[int]] = {}
        for idx, s in enumerate(sets):
            by_kind.setdefault(type(s), []).append(idx)
        for kind, indices in by_kind.items():
            if indices[-1] - indices[0] == len(indices) - 1:
                where = slice(indices[0], indices[-1] + 1)
            else:
                where = np.array(indices)
            # one key parameter at a time, streamed into (m_k, ...) rows and
            # transposed: a list of every member's key tuple, or np.stack's
            # view of every member's parameter, would outweigh the result
            params = []
            for j, value in enumerate(sets[indices[0]]._key()):
                rows = np.fromiter(
                    (sets[i]._key()[j] for i in indices),
                    np.dtype((float, np.shape(value))),
                    len(indices),
                )
                params.append(_read_only(np.ascontiguousarray(rows.T)))
            self._groups.append((kind, where, tuple(params)))

    def _assemble(self, block, shape: tuple, out: np.ndarray | None = None) -> np.ndarray:
        """Array of ``shape``, or ``out`` when given, whose last axis (one
        slot per set) is filled family by family from ``block(kind, where,
        params)``.  A family's values that the block computed in their own
        slot of ``out`` are left where they are."""
        if out is None:
            if len(self._groups) == 1:
                return block(*self._groups[0])
            out = np.empty(shape)
        for kind, where, params in self._groups:
            values = block(kind, where, params)
            if not np.may_share_memory(values, out):
                out[..., where] = values
        return out

    def projections(self, x: np.ndarray) -> np.ndarray:
        """(n, m) array with column i the projection of the point ``x`` onto set i."""
        col = x[:, None]
        return self._assemble(
            lambda kind, where, params: kind._project_array(col, *params),
            (len(x), self.n_sets),
        )

    def paired_projections(self, pts: np.ndarray) -> np.ndarray:
        """(n, m) array with column i the projection of ``pts[:, i]`` onto set i."""
        return self._assemble(
            lambda kind, where, params: kind._project_array(pts[:, where], *params),
            (len(pts), self.n_sets),
        )

    def selection_points(self) -> np.ndarray:
        """(n, m) array with column i set i's ``selection_point()``, bit for bit."""
        return self._assemble(
            lambda kind, where, params: kind._selection_array(*params),
            (self.dim, self.n_sets),
        )

    def distances(self, x: np.ndarray) -> np.ndarray:
        """(m,) distances from the point ``x`` to each set."""
        return coordinate_norms(x[:, None], self.projections(x))

    def distances_many(self, pts: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """(N, m) distances from each row of the (N, n) array ``pts`` to each set.

        ``out``, optional, is an (n, N, m) array to work in: each family's
        projections, differences and squares are formed in its slice of
        ``out`` and the distances are returned as ``out[0]``, so nothing of
        that size is allocated.  A family interleaved with others in the set
        order has no slice; its values are computed apart and copied in.
        """
        cols = pts.T[:, :, None]

        def block(kind, where, params):
            # point-like (n, m_k) parameters broadcast as (n, 1, m_k)
            params = (p[:, None] if p.ndim == 2 else p for p in params)
            work = out[..., where] if out is not None and type(where) is slice else None
            return coordinate_norms(cols, kind._project_array(cols, *params, out=work), out=work)

        return self._assemble(
            block, (pts.shape[0], self.n_sets), None if out is None else out[0]
        )


@dataclass(eq=False)
class ProblemInstance:
    """Weighted attraction/repulsion sets plus a constraint set.

    The set batches and weight arrays are built on first use and cached, so
    the sets and weights must not be changed after the instance is used.
    """

    dimension: int
    attractions: Sequence[WeightedSet]
    repulsions: Sequence[WeightedSet]
    constraint: ConvexSet

    def __eq__(self, other):
        if not isinstance(other, ProblemInstance):
            return NotImplemented
        return (
            self.dimension == other.dimension
            and self.attractions == other.attractions
            and self.repulsions == other.repulsions
            and self.constraint == other.constraint
        )

    @cached_property
    def attraction_batch(self) -> SetBatch:
        return _batch_of(self.attractions)

    @cached_property
    def repulsion_batch(self) -> SetBatch:
        return _batch_of(self.repulsions)

    @cached_property
    def attraction_weights(self) -> np.ndarray:
        return _weights_of(self.attractions)

    @cached_property
    def repulsion_weights(self) -> np.ndarray:
        return _weights_of(self.repulsions)


# A SetGroup hands its stacked parameters and its one weight to these two
# without building a set.

def _batch_of(weighted: Sequence[WeightedSet]) -> SetBatch:
    """The ``SetBatch`` of the sets of a weighted sequence."""
    return SetBatch(weighted if isinstance(weighted, SetGroup) else [w.set for w in weighted])


def _weights_of(weighted: Sequence[WeightedSet]) -> np.ndarray:
    """The weights of a weighted sequence, read-only: every user shares them."""
    if isinstance(weighted, SetGroup):
        return _read_only(np.full(len(weighted), weighted.weight))
    return _read_only(np.array([w.weight for w in weighted]))


def _read_only(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


def evaluate_objective(inst: ProblemInstance, x) -> float:
    """Weighted attraction distances minus weighted repulsion distances."""
    x = np.asarray(x, dtype=float)
    if x.shape != (inst.dimension,):
        raise ValueError(f"point of shape {x.shape} vs dimension {inst.dimension}")
    val = float(inst.attraction_weights @ inst.attraction_batch.distances(x))
    return val - float(inst.repulsion_weights @ inst.repulsion_batch.distances(x))


# Bulk evaluation works in blocks of rows, and a block's work array holds
# points x sets x dimension floats (for the wider of the two set batches).
# 2^17 floats are 1 MiB, half the 2 MiB per-core L2 cache of the Xeon it was
# tuned on, so every elementwise pass over a block runs in cache.  A sweep of
# 2^16 to 2^20 on the benchmark's oracle_grid workload (CHANGES.md) put the
# optimum here.  A block keeps at least _ROW_GROUP rows.
_CHUNK_ELEMENTS = 1 << 17

# Block lengths are whole multiples of this many rows.  OpenBLAS's
# matrix-vector product sums rows four at a time with one kernel and the
# rest with another, and numpy sends a one-row product to a third (a dot
# product), so blocks of whole groups, with a lone last row kept in the block
# before it, give every row the summation it has in one product over all
# rows: the values do not depend on the block size, bit for bit (a BLAS
# that splits one product over threads at other rows could still differ).
# Eight also covers kernels that take eight rows at a time.
_ROW_GROUP = 8


def _block_rows(rows: int) -> int:
    """``rows`` rounded down to whole row groups, and at least one group."""
    return max(_ROW_GROUP, rows - rows % _ROW_GROUP)


def _row_blocks(total: int, rows: int):
    """(start, stop) of consecutive blocks of ``rows`` of ``total`` rows; a
    lone last row joins the block before it, which then has ``rows + 1``."""
    start = 0
    while start < total:
        stop = start + rows
        if stop >= total - 1:
            stop = total
        yield start, stop
        start = stop


def evaluate_objective_many(inst: ProblemInstance, pts: np.ndarray) -> np.ndarray:
    """Objective values for an (N, n) array of points.

    The points are evaluated in blocks of rows.  A block has as many rows as
    fit ``_CHUNK_ELEMENTS`` points x sets x dimension, counting the wider of
    the attraction and repulsion batches, rounded down to whole groups of
    ``_ROW_GROUP`` rows.  One work array of that size is allocated per call,
    and every block's distances are computed in it, so each pass runs in
    cache and memory stays bounded whatever N is.  The values do not depend
    on the block size.
    """
    pts = np.asarray(pts, dtype=float)
    n = inst.dimension
    if pts.ndim != 2 or pts.shape[1] != n:
        raise ValueError(f"points of shape {pts.shape} vs dimension {n}")
    width = max(len(inst.attractions), len(inst.repulsions), 1)
    rows = _block_rows(_CHUNK_ELEMENTS // (width * n))
    work = np.empty(n * width * min(rows + 1, pts.shape[0]))
    vals = np.empty(pts.shape[0])
    for start, stop in _row_blocks(pts.shape[0], rows):
        _objective_rows(inst, pts[start:stop], work, vals[start:stop])
    return vals


def _objective_rows(inst: ProblemInstance, pts: np.ndarray, work: np.ndarray, out: np.ndarray):
    """Objective values of the rows of ``pts`` into ``out``, with the
    distances of each batch in turn computed in the flat array ``work``."""

    def distances(batch):
        shape = (inst.dimension, pts.shape[0], batch.n_sets)
        return batch.distances_many(pts, out=work[:math.prod(shape)].reshape(shape))

    np.matmul(distances(inst.attraction_batch), inst.attraction_weights, out=out)
    out -= distances(inst.repulsion_batch) @ inst.repulsion_weights


def evaluate_split(inst: ProblemInstance, lam: float, x) -> tuple[float, float]:
    """Values (g, h) of the two convex components at ``x``.

    g adds the constraint indicator (so g = +inf outside the constraint set);
    both components carry the quadratic term (lam/2)||x||^2, which cancels in
    the difference g - h = f on the constraint set.
    """
    x = np.asarray(x, dtype=float)
    quad = 0.5 * lam * float(x @ x)
    h = quad + float(inst.repulsion_weights @ inst.repulsion_batch.distances(x))
    if not inst.constraint.contains(x):
        return math.inf, h
    g = quad + float(inst.attraction_weights @ inst.attraction_batch.distances(x))
    return g, h


@dataclass
class ExistenceReport:
    """Outcome of the sufficient-condition screen for solution existence."""

    verdict: str  # exists | no_solution_unbounded_below | objective_bounded |
    #               no_solution_infimum_not_attained | unknown
    rule: str | None = None
    objective_bound: float | None = None
    imbalance: np.ndarray | None = None  # sum(alpha_i a_i) - sum(beta_j b_j)
    majority_index: int | None = None
    infimum: float | None = None


def _is_whole_space(S: ConvexSet) -> bool:
    return (
        isinstance(S, AxisBox)
        and np.all(np.isinf(S.lower))
        and np.all(np.isinf(S.upper))
    )


def _all_bounded(sets: list[WeightedSet]) -> bool:
    return all(w.set.bounding_radius() is not None for w in sets)


def existence_classify(inst: ProblemInstance) -> ExistenceReport:
    """Apply the sufficient existence/non-existence rules in a fixed order.

    The rules are sufficient, not necessary, so ``unknown`` is an honest
    verdict when none of them fires.  Independently of the verdict the report
    carries the majority index (a single attraction weight dominating all
    others forces solutions into that set) and, in the all-singleton
    equal-weight case, the imbalance vector whose norm gives the asymptotic
    objective level.
    """
    sum_a = float(np.sum(inst.attraction_weights))
    sum_b = float(np.sum(inst.repulsion_weights))
    weight_scale = max(sum_a, sum_b, 1.0)
    equal_weights = abs(sum_a - sum_b) <= 1e-12 * weight_scale

    report = ExistenceReport(verdict="unknown")

    # majority condition: needs the dominant set contained in the constraint
    for i0, w in enumerate(inst.attractions):
        rest = sum_a - w.weight + sum_b
        if w.weight > rest and set_contains_set(w.set, inst.constraint) is True:
            report.majority_index = i0
            break

    all_singletons = all(
        isinstance(w.set, Singleton) for w in itertools.chain(inst.attractions, inst.repulsions)
    )
    if all_singletons and equal_weights and inst.repulsions:
        report.imbalance = sum(
            w.weight * w.set.point for w in inst.attractions
        ) - sum(w.weight * w.set.point for w in inst.repulsions)

    if inst.constraint.bounding_radius() is not None:
        report.verdict = "exists"
        report.rule = "bounded_constraint"
        return report
    # dominance must clear the same tolerance that defines equal weights,
    # otherwise a rounding-level imbalance masks the balanced rules below
    if not equal_weights and sum_a > sum_b and _all_bounded(inst.attractions):
        report.verdict = "exists"
        report.rule = "dominant_attraction"
        return report
    if not equal_weights and sum_a < sum_b and _all_bounded(inst.repulsions):
        report.verdict = "no_solution_unbounded_below"
        report.rule = "dominant_repulsion"
        return report
    # the all-singleton no-attainment rule is a strict refinement of the
    # equal-weight boundedness rule, so it must be screened first
    if (
        all_singletons
        and equal_weights
        and len(inst.attractions) >= 2
        and len(inst.repulsions) == 1
        and _is_whole_space(inst.constraint)
    ):
        b = inst.repulsions[0].set.point
        directions = np.stack([w.set.point - b for w in inst.attractions])
        if np.linalg.matrix_rank(directions, tol=1e-9) == len(inst.attractions):
            report.verdict = "no_solution_infimum_not_attained"
            report.rule = "independent_singletons_equal_weights"
            report.infimum = -float(np.linalg.norm(report.imbalance))
            return report
    if equal_weights and _all_bounded(inst.attractions) and _all_bounded(inst.repulsions):
        r = max(w.set.bounding_radius() for w in inst.attractions)
        big_r = max(w.set.bounding_radius() for w in inst.repulsions)
        centers_b = sum(
            w.weight * float(np.linalg.norm(w.set.selection_point()))
            for w in inst.repulsions
        )
        centers_a = sum(
            w.weight * float(np.linalg.norm(w.set.selection_point()))
            for w in inst.attractions
        )
        report.verdict = "objective_bounded"
        report.rule = "equal_weights_all_bounded"
        # the two expressions bound opposite sides of the objective:
        # f <= centers_a + big_r * sum_b and f >= -(r * sum_a + centers_b),
        # so the magnitude certificate is their maximum
        report.objective_bound = max(r * sum_a + centers_b, centers_a + big_r * sum_b)
        return report

    return report


class ValidationError(ValueError):
    """Structurally parseable but semantically invalid instance."""


def structural_problems(inst: ProblemInstance) -> list[str]:
    """No attractions, nonpositive weights, and sets of the wrong dimension."""
    problems = []
    for label, group in (("attraction", inst.attractions), ("repulsion", inst.repulsions)):
        if isinstance(group, SetGroup) and group.weight > 0 and group.dim == inst.dimension:
            continue  # nothing to report set by set
        for i, w in enumerate(group):
            if not w.weight > 0:
                problems.append(f"{label} {i}: weight must be strictly positive")
            if w.set.dim != inst.dimension:
                problems.append(
                    f"{label} {i}: set dimension {w.set.dim} != instance "
                    f"dimension {inst.dimension}"
                )
    if inst.constraint.dim != inst.dimension:
        problems.append(
            f"constraint set dimension {inst.constraint.dim} != instance "
            f"dimension {inst.dimension}"
        )
    if not inst.attractions:
        problems.append("instance has no attraction sets")
    return problems


def require_valid(inst: ProblemInstance) -> ProblemInstance:
    """``inst``, or ValidationError naming all its structural problems."""
    problems = structural_problems(inst)
    if problems:
        raise ValidationError("; ".join(problems))
    return inst


def validate_instance(inst: ProblemInstance) -> list[str]:
    """Collect human-readable diagnostics; empty list means no findings.

    Structural problems stop the check.  Otherwise it reports the attraction
    sets that meet the constraint set, where the fixed-point inner solver may
    be inapplicable.
    """
    return structural_problems(inst) or _constraint_meetings(inst)


def _constraint_meetings(inst: ProblemInstance) -> list[str]:
    """``validate_instance``'s findings on a structurally valid instance: the
    attraction sets that meet the constraint set, found by at most 25 rounds
    of alternating projections run on all sets at once (they reach a common
    point when the sets meet).  A round that returns its input bit for bit
    is a fixed point, which every later round would repeat, so the rounds
    stop there."""
    batch = inst.attraction_batch
    project_constraint = inst.constraint.project_many
    # the start points as C-ordered (m, n) rows: on another layout a
    # halfspace constraint's sum over the coordinates may round differently
    q = project_constraint(np.ascontiguousarray(batch.selection_points().T)).T
    for _ in range(25):
        q_next = project_constraint(batch.paired_projections(q).T).T
        if np.array_equal(q_next.view(np.uint64), q.view(np.uint64)):
            break
        q = q_next
    gaps = coordinate_norms(q, batch.paired_projections(q))
    meets = gaps <= 1e-9 * (1.0 + coordinate_norms(q))  # membership_tol, set by set
    return [
        f"attraction {i} intersects the constraint set; the fixed-point "
        "inner solver may be inapplicable (certified dual fallback is used)"
        for i in np.flatnonzero(meets)
    ]
