import math
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dcloc import (
    AxisBox,
    Ball,
    Halfspace,
    ProblemInstance,
    Singleton,
    WeightedSet,
    evaluate_objective,
    evaluate_objective_many,
    evaluate_split,
    existence_classify,
    validate_instance,
)
from dcloc import model
from dcloc.dca import _repulsion_pass
from dcloc.geometry import coordinate_norms, membership_tol
from dcloc.inner import InnerProblem, phi, weiszfeld_map
from dcloc.instance_io import load_points_csv
from dcloc.model import SetBatch
from conftest import random_instance, random_set

INF = np.inf


def free_space(n):
    return AxisBox(np.full(n, -INF), np.full(n, INF))


def line_between_halfplanes(constraint=None):
    """Horizontal-line attractor between two repelling halfplanes."""
    return ProblemInstance(
        2,
        [WeightedSet(AxisBox([-INF, 0], [INF, 0]), 1.0)],
        [
            WeightedSet(Halfspace([0, 1], -1.0), 1.0),
            WeightedSet(Halfspace([0, -1], -1.0), 1.0),
        ],
        constraint or free_space(2),
    )


def halfline_attractor():
    return ProblemInstance(
        1,
        [WeightedSet(AxisBox([-INF], [0.0]), 2.0)],
        [WeightedSet(Singleton([1.0]), 1.0)],
        free_space(1),
    )


def mixed_line():
    return ProblemInstance(
        1,
        [WeightedSet(Singleton([-1.0]), 1.0), WeightedSet(AxisBox([2.0], [INF]), 2.0)],
        [WeightedSet(Singleton([0.0]), 1.0), WeightedSet(Singleton([1.0]), 1.0)],
        free_space(1),
    )


class TestEvaluateObjective:
    def test_line_between_halfplanes(self):
        assert evaluate_objective(line_between_halfplanes(), [3.0, 0.0]) == -2.0

    def test_halfline_attractor(self):
        # 2 * 0 - 11
        assert evaluate_objective(halfline_attractor(), [-10.0]) == -11.0

    def test_mixed_line_linear_tail(self):
        # on the ray attractor the objective is -x + 2
        assert evaluate_objective(mixed_line(), [3.0]) == -1.0

    def test_many_matches_scalar(self):
        inst = line_between_halfplanes()
        pts = np.array([[3.0, 0.0], [0.0, 0.5], [-1.0, 2.0]])
        many = evaluate_objective_many(inst, pts)
        for row, val in zip(pts, many):
            assert np.isclose(val, evaluate_objective(inst, row))

    def test_many_chunked_matches_single_chunk(self, monkeypatch):
        inst = random_instance(np.random.default_rng(71), 2)
        pts = np.random.default_rng(72).normal(size=(50, 2))
        whole = evaluate_objective_many(inst, pts)
        n_sets = len(inst.attractions) + len(inst.repulsions)
        monkeypatch.setattr(model, "_CHUNK_ELEMENTS", 7 * n_sets * 2)  # 7 points
        # the weighted sums may take another BLAS path per chunk: rounding only
        assert np.allclose(evaluate_objective_many(inst, pts), whole, rtol=1e-14, atol=1e-14)

    def test_many_peak_memory_bounded(self, fixtures_dir):
        # 8281 points over the 1217 fixture boxes: about 208 MiB unchunked
        inst = ProblemInstance(
            2,
            load_points_csv(fixtures_dir / "group_a.csv", shape="square", half_side=5.0),
            load_points_csv(fixtures_dir / "group_b.csv", shape="square", half_side=5.0),
            Ball([30.0, -160.0], 30.0),
        )
        assert len(inst.attractions) + len(inst.repulsions) == 1217
        inst.attraction_batch, inst.repulsion_batch  # built outside the trace
        axes = np.linspace(0.0, 60.0, 91), np.linspace(-190.0, -130.0, 91)
        pts = np.stack(np.meshgrid(*axes, indexing="ij"), -1).reshape(-1, 2)
        tracemalloc.start()
        try:
            vals = evaluate_objective_many(inst, pts)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert vals.shape == (8281,)
        assert peak <= 2 * 8 * model._CHUNK_ELEMENTS  # 64 MiB

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            evaluate_objective(mixed_line(), [1.0, 2.0])


class TestEvaluateSplit:
    def test_consistency_with_objective(self):
        inst = line_between_halfplanes()
        g, h = evaluate_split(inst, 2.0, np.array([3.0, 0.0]))
        assert g == 9.0  # 0 distance + (2/2)*9
        assert h == 11.0  # 1 + 1 + 9
        assert g - h == evaluate_objective(inst, [3.0, 0.0])

    def test_quadratic_vanishes_at_origin(self):
        inst = line_between_halfplanes()
        _, h = evaluate_split(inst, 1.0, np.zeros(2))
        assert h == 2.0  # only the repulsion distances

    def test_indicator_outside_constraint(self):
        inst = line_between_halfplanes(constraint=Ball([0, 0], 1.0))
        g, _ = evaluate_split(inst, 1.0, np.array([5.0, 0.0]))
        assert g == math.inf

    def test_split_identity_random(self):
        rng = np.random.default_rng(3)
        for _ in range(100):
            inst = random_instance(rng, int(rng.integers(1, 4)))
            lam = float(rng.uniform(0.1, 5.0))
            x = inst.constraint.project(rng.normal(size=inst.dimension))
            g, h = evaluate_split(inst, lam, x)
            assert np.isclose(g - h, evaluate_objective(inst, x), atol=1e-10)


class TestExistenceClassify:
    def test_unbounded_attractor_is_honest_unknown(self):
        # attraction weight dominates but one attraction set is unbounded:
        # no sufficient rule fires even though the true value is -inf
        report = existence_classify(halfline_attractor())
        assert report.verdict == "unknown"

    def test_equal_weight_singletons_bounded(self):
        inst = ProblemInstance(
            1,
            [WeightedSet(Singleton([-1.0]), 1.0)],
            [WeightedSet(Singleton([1.0]), 1.0)],
            free_space(1),
        )
        report = existence_classify(inst)
        assert report.verdict == "objective_bounded"
        assert report.objective_bound == 2.0
        assert np.allclose(report.imbalance, [-2.0])
        # the bound really holds
        xs = np.linspace(-50, 50, 10_001)[:, None]
        assert np.all(np.abs(evaluate_objective_many(inst, xs)) <= 2.0 + 1e-9)

    def test_independent_singletons_no_attainment(self):
        inst = ProblemInstance(
            2,
            [WeightedSet(Singleton([1.0, 0.0]), 1.0), WeightedSet(Singleton([0.0, 1.0]), 1.0)],
            [WeightedSet(Singleton([0.0, 0.0]), 2.0)],
            free_space(2),
        )
        report = existence_classify(inst)
        assert report.verdict == "no_solution_infimum_not_attained"
        assert np.isclose(report.infimum, -np.sqrt(2.0), atol=1e-12)
        # grid values approach the infimum from above
        u = np.array([1.0, 1.0]) / np.sqrt(2.0)
        vals = [evaluate_objective(inst, t * u) for t in (10.0, 100.0, 1000.0)]
        assert all(v > report.infimum for v in vals)
        assert vals[0] > vals[1] > vals[2]

    def test_bounded_constraint_exists(self):
        inst = line_between_halfplanes(constraint=Ball([0, 0], 10.0))
        report = existence_classify(inst)
        assert report.verdict == "exists"
        assert report.rule == "bounded_constraint"

    def test_dominant_attraction(self):
        inst = ProblemInstance(
            2,
            [WeightedSet(Singleton([1.0, 1.0]), 3.0)],
            [WeightedSet(Ball([0, 0], 1.0), 1.0)],
            free_space(2),
        )
        assert existence_classify(inst).verdict == "exists"

    def test_dominant_repulsion_unbounded_below(self):
        inst = ProblemInstance(
            2,
            [WeightedSet(Singleton([1.0, 1.0]), 1.0)],
            [WeightedSet(Ball([0, 0], 1.0), 3.0)],
            free_space(2),
        )
        assert existence_classify(inst).verdict == "no_solution_unbounded_below"

    def test_majority_index(self):
        inst = ProblemInstance(
            2,
            [
                WeightedSet(Singleton([0.5, 0.0]), 5.0),
                WeightedSet(Singleton([3.0, 0.0]), 1.0),
            ],
            [WeightedSet(Singleton([0.0, 3.0]), 1.0)],
            Ball([0, 0], 10.0),
        )
        assert existence_classify(inst).majority_index == 0


class TestAsymptotics:
    def test_imbalance_direction_limit(self):
        # all-singleton, equal weights, nonzero imbalance: f(T w_hat) -> -|w|
        inst = ProblemInstance(
            2,
            [WeightedSet(Singleton([1.0, 0.0]), 1.0), WeightedSet(Singleton([0.0, 1.0]), 1.0)],
            [WeightedSet(Singleton([-1.0, -1.0]), 2.0)],
            free_space(2),
        )
        report = existence_classify(inst)
        w = report.imbalance
        w_hat = w / np.linalg.norm(w)
        residuals = {
            T: abs(evaluate_objective(inst, T * w_hat) + np.linalg.norm(w))
            for T in (1e2, 1e3, 1e4)
        }
        C = residuals[1e2] * 1e2 * 2.0  # fitted at the smallest scale, slack 2x
        for T, res in residuals.items():
            assert res <= C / T

    def test_zero_imbalance_limit(self):
        inst = ProblemInstance(
            2,
            [WeightedSet(Singleton([1.0, 0.0]), 1.0), WeightedSet(Singleton([-1.0, 0.0]), 1.0)],
            [WeightedSet(Singleton([0.0, 0.0]), 2.0)],
            free_space(2),
        )
        report = existence_classify(inst)
        assert np.allclose(report.imbalance, 0.0)
        rng = np.random.default_rng(5)
        for _ in range(5):
            u = rng.normal(size=2)
            u /= np.linalg.norm(u)
            residuals = {T: abs(evaluate_objective(inst, T * u)) for T in (1e2, 1e3, 1e4)}
            C = residuals[1e2] * 1e2 * 2.0
            for T, res in residuals.items():
                assert res <= max(C, 1.0) / T


class TestLipschitz:
    def test_weighted_lipschitz_bound(self):
        rng = np.random.default_rng(17)
        for _ in range(100):
            inst = random_instance(rng, int(rng.integers(1, 4)))
            L = float(np.sum(inst.attraction_weights))
            if inst.repulsions:
                L += float(np.sum(inst.repulsion_weights))
            x = rng.normal(scale=3, size=inst.dimension)
            y = rng.normal(scale=3, size=inst.dimension)
            lhs = abs(evaluate_objective(inst, x) - evaluate_objective(inst, y))
            assert lhs <= L * np.linalg.norm(x - y) + 1e-10


@settings(max_examples=100, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), weight=st.floats(allow_nan=True, allow_infinity=True))
def test_weight_accepted_iff_finite(seed, weight):
    """``WeightedSet`` raises at construction exactly for a non-finite weight."""
    rng = np.random.default_rng(seed)
    s = random_set(rng, int(rng.integers(1, 4)))
    if math.isfinite(weight):
        assert WeightedSet(s, weight).weight == weight
    else:
        with pytest.raises(ValueError, match="weight must be finite"):
            WeightedSet(s, weight)


class TestValidateInstance:
    def test_separated_targets_clean(self):
        inst = ProblemInstance(
            2,
            [WeightedSet(Singleton([5.0, 0.0]), 1.0)],
            [],
            Ball([0, 0], 1.0),
        )
        assert validate_instance(inst) == []

    def test_attractor_equal_to_constraint_flagged(self):
        S = Ball([0, 0], 1.0)
        inst = ProblemInstance(2, [WeightedSet(S, 1.0)], [], S)
        diags = validate_instance(inst)
        assert any("intersects the constraint" in d for d in diags)

    def test_interleaved_families_exact_diagnostics(self):
        # each family at non-adjacent indices; 1, 4, 5 and 7 meet the disk
        sets = [
            Singleton([3.0, 0.0]),
            Ball([0.5, 0.0], 0.2),
            AxisBox([2.0, 2.0], [3.0, 3.0]),
            Halfspace([1.0, 0.0], -2.0),
            Singleton([0.0, 0.5]),
            AxisBox([-0.5, -3.0], [0.5, -0.5]),
            Ball([5.0, 5.0], 1.0),
            Halfspace([0.0, 1.0], 0.0),
        ]
        inst = ProblemInstance(2, [WeightedSet(S, 1.0) for S in sets], [], Ball([0, 0], 1.0))
        assert validate_instance(inst) == [
            f"attraction {i} intersects the constraint set; the fixed-point "
            "inner solver may be inapplicable (certified dual fallback is used)"
            for i in (1, 4, 5, 7)
        ]

    def test_zero_weight_flagged(self):
        inst = ProblemInstance(
            2, [WeightedSet(Singleton([5.0, 0.0]), 0.0)], [], Ball([0, 0], 1.0)
        )
        assert any("weight" in d for d in validate_instance(inst))


FAMILIES = ("point", "ball", "box", "halfspace")


def meetings_after_25_rounds(inst):
    """Reference for validate_instance on a valid instance: a fixed 25 rounds
    of alternating projections, then the membership test set by set."""
    batch = SetBatch([w.set for w in inst.attractions])
    project = inst.constraint.project_many
    q = project(np.array([w.set.selection_point() for w in inst.attractions])).T
    for _ in range(25):
        q = project(batch.paired_projections(q).T).T
    gaps = coordinate_norms(q, batch.paired_projections(q))
    return [
        f"attraction {i} intersects the constraint set; the fixed-point "
        "inner solver may be inapplicable (certified dual fallback is used)"
        for i in np.flatnonzero(gaps <= 1e-9 * (1.0 + coordinate_norms(q)))
    ]


@settings(max_examples=300, deadline=None)
@given(
    st.integers(0, 2**32 - 1),
    st.lists(st.integers(0, 3), min_size=4, max_size=4).filter(any),
    st.sampled_from(["ball", "box", "halfspace"]),
    st.booleans(),
)
def test_validate_early_stop_matches_25_rounds(seed, counts, constraint_kind, interleave):
    """Stopping the alternating projections at the first round that returns
    its input unchanged gives the diagnostics of all 25 rounds, for every
    attraction family under ball, box and halfspace constraints."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 4))
    sets = [random_set(rng, n, kind=k) for k, c in zip(FAMILIES, counts) for _ in range(c)]
    if interleave:
        sets = [sets[i] for i in rng.permutation(len(sets))]
    inst = ProblemInstance(
        n, [WeightedSet(S, 1.0) for S in sets], [], random_set(rng, n, kind=constraint_kind)
    )
    assert validate_instance(inst) == meetings_after_25_rounds(inst)


def fixture_groups(fixtures_dir, shape):
    half_side = 5.0 if shape == "square" else 0.0
    a, b = (
        load_points_csv(fixtures_dir / name, shape=shape, half_side=half_side)
        for name in ("group_a.csv", "group_b.csv")
    )
    return ProblemInstance(2, a, b, Ball([30.0, -160.0], 30.0))


@pytest.mark.parametrize("shape", ["point", "square"])
def test_validate_fixture_groups_match_25_rounds(fixtures_dir, shape):
    inst = fixture_groups(fixtures_dir, shape)
    assert validate_instance(inst) == meetings_after_25_rounds(inst)


def test_validate_point_group_stops_after_one_round(fixtures_dir, monkeypatch):
    """Projections onto singletons do not depend on the point, so the first
    round is already a fixed point: one round plus the final distances."""
    inst = fixture_groups(fixtures_dir, "point")
    calls = []
    paired = SetBatch.paired_projections

    def counted(self, pts):
        calls.append(pts.shape)
        return paired(self, pts)

    monkeypatch.setattr(SetBatch, "paired_projections", counted)
    validate_instance(inst)
    assert len(calls) == 2


@settings(max_examples=200, deadline=None)
@given(
    st.integers(0, 2**32 - 1),
    st.lists(st.integers(1, 3), min_size=4, max_size=4),
    st.booleans(),
)
def test_set_batch_matches_per_set_kernels(seed, counts, interleave):
    """Batch projections and distances, each set's project_many and the
    batch's paired projections agree with each set's own project, whether
    every family is a contiguous run (slice path) or interleaved (index path)."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 4))
    sets = [random_set(rng, n, kind=k) for k, c in zip(FAMILIES, counts) for _ in range(c)]
    if interleave:
        sets = [sets[i] for i in rng.permutation(len(sets))]
    batch = SetBatch(sets)
    for kind, where, _ in batch._groups:
        at = [i for i, s in enumerate(sets) if type(s) is kind]
        assert (type(where) is slice) == (at[-1] - at[0] == len(at) - 1)

    def close(got, want):
        return np.all(np.abs(got - want) <= 1e-12 * (1.0 + np.abs(want)))

    pts = rng.normal(scale=3.0, size=(int(rng.integers(1, 6)), n))
    for x in pts:
        assert close(batch.projections(x).T, np.array([s.project(x) for s in sets]))
        assert close(batch.distances(x), np.array([s.distance(x) for s in sets]))
    want_many = np.array([[s.distance(x) for s in sets] for x in pts])
    assert close(batch.distances_many(pts), want_many)
    for s in sets:
        assert close(s.project_many(pts), np.array([s.project(x) for x in pts]))
    paired = rng.normal(scale=3.0, size=(len(sets), n))
    want_paired = np.array([s.project(x) for s, x in zip(sets, paired)])
    assert close(batch.paired_projections(paired.T).T, want_paired)


class TestInstanceCache:
    def test_weights_cached_read_only(self):
        inst = line_between_halfplanes()
        assert inst.attraction_weights is inst.attraction_weights
        assert inst.repulsion_weights is inst.repulsion_weights
        with pytest.raises(ValueError):
            inst.repulsion_weights[0] = 5.0


@settings(max_examples=200, deadline=None)
@given(
    st.integers(0, 2**32 - 1),
    st.lists(st.integers(1, 3), min_size=4, max_size=4),
    st.lists(st.integers(0, 2), min_size=4, max_size=4),
    st.booleans(),
)
def test_batch_callers_match_scalar_reference(seed, counts, repulsion_counts, interleave):
    """The fixed-point map, the inner objective, the repulsion subgradient and
    bulk objective values, which all run on coordinate-major set batches,
    agree with references built from each set's scalar ``project``, whether
    every family is a contiguous run or interleaved.  Beside an empty
    repulsion list the objective and the split are the attraction part, bit
    for bit, and the repulsion subgradient is zero."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 4))

    def weighted(per_family):
        sets = [random_set(rng, n, kind=k) for k, c in zip(FAMILIES, per_family) for _ in range(c)]
        if interleave:
            sets = [sets[i] for i in rng.permutation(len(sets))]
        return [WeightedSet(s, float(rng.uniform(0.1, 3.0))) for s in sets]

    inst = ProblemInstance(n, weighted(counts), weighted(repulsion_counts), free_space(n))
    v, lam = rng.normal(scale=3.0, size=n), float(rng.uniform(0.1, 3.0))
    prob = InnerProblem.for_instance(inst, v, lam)

    def close(got, want):
        return np.all(np.abs(got - want) <= 1e-12 * (1.0 + np.abs(want)))

    def residuals(group, x):
        diff = np.array([x - w.set.project(x) for w in group]).reshape(-1, n)
        return diff, np.array([math.sqrt(d @ d) for d in diff])

    weights = np.array([w.weight for w in inst.attractions])
    pts = rng.normal(scale=3.0, size=(int(rng.integers(1, 6)), n))
    for x in pts:
        diff, dists = residuals(inst.attractions, x)
        assert close(phi(prob, x), 0.5 * prob.lam * (x @ x) - prob.v @ x + weights @ dists)
        tol = membership_tol(x)
        if np.any(dists <= tol):
            assert weiszfeld_map(prob, x) is None
        else:
            inv = weights / dists
            want = ((x - diff).T @ inv + prob.v) / (np.sum(inv) + prob.lam)
            assert close(weiszfeld_map(prob, x), want)
        diff, dists = residuals(inst.repulsions, x)
        want = sum(
            (w.weight / d) * r for w, r, d in zip(inst.repulsions, diff, dists) if d > tol
        )
        repulsion_sum, subgradient = _repulsion_pass(inst, x)
        assert close(subgradient, want + np.zeros(n))
        # the pass's distance sum is the repulsion part of evaluate_objective
        rep_part = float(inst.repulsion_weights @ inst.repulsion_batch.distances(x))
        assert np.float64(repulsion_sum).tobytes() == np.float64(rep_part).tobytes()
    want_many = np.array([
        sum(w.weight * w.set.distance(x) for w in inst.attractions)
        - sum(w.weight * w.set.distance(x) for w in inst.repulsions)
        for x in pts
    ])
    assert close(evaluate_objective_many(inst, pts), want_many)

    def bits(value):
        return np.float64(value).tobytes()

    alone = ProblemInstance(n, inst.attractions, [], free_space(n))
    batch, weights = alone.attraction_batch, alone.attraction_weights
    part_many = batch.distances_many(pts) @ weights
    assert evaluate_objective_many(alone, pts).tobytes() == part_many.tobytes()
    for x in pts:
        part, quad = float(weights @ batch.distances(x)), 0.5 * lam * float(x @ x)
        assert bits(evaluate_objective(alone, x)) == bits(part)
        g, h = evaluate_split(alone, lam, x)
        assert (bits(g), bits(h)) == (bits(quad + part), bits(quad))
        assert _repulsion_pass(alone, x)[1].tobytes() == np.zeros(n).tobytes()


@settings(max_examples=300, deadline=None)
@given(
    st.integers(0, 2**32 - 1),
    st.lists(st.integers(0, 3), min_size=4, max_size=4).filter(any),
    st.lists(st.integers(0, 2), min_size=4, max_size=4),
    st.booleans(),
    st.integers(1, 3),
    st.integers(0, 7),
    st.integers(0, 3),
    st.integers(0, 2**32 - 1),
)
def test_blocked_evaluation_matches_one_block(
    seed, counts, repulsion_counts, interleave, groups, spare, full_blocks, remainder
):
    """Bulk values computed in blocks equal the one-block values bit for bit
    and the per-point objective to 1e-12, for every family, contiguous or
    interleaved, with several blocks, a short last block, a lone last row
    or a single point; the stacked batch parameters stay read-only and
    unchanged."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 4))

    def weighted(per_family):
        sets = [random_set(rng, n, kind=k) for k, c in zip(FAMILIES, per_family) for _ in range(c)]
        if interleave:
            sets = [sets[i] for i in rng.permutation(len(sets))]
        return [WeightedSet(s, float(rng.uniform(0.1, 3.0))) for s in sets]

    inst = ProblemInstance(n, weighted(counts), weighted(repulsion_counts), free_space(n))
    width = max(len(inst.attractions), len(inst.repulsions))
    rows = groups * model._ROW_GROUP
    n_pts = max(1, full_blocks * rows + remainder % rows)
    pts = rng.normal(scale=3.0, size=(n_pts, n))
    batches = (inst.attraction_batch, inst.repulsion_batch)
    before = [[p.copy() for _, _, params in b._groups for p in params] for b in batches]

    # room for a few rows more than whole groups: the block keeps whole groups
    with mock.patch.object(model, "_CHUNK_ELEMENTS", (rows + spare) * width * n):
        blocked = evaluate_objective_many(inst, pts)
    with mock.patch.object(model, "_CHUNK_ELEMENTS", 1 << 40):
        whole = evaluate_objective_many(inst, pts)
    assert np.array_equal(blocked.view(np.uint64), whole.view(np.uint64))
    want = np.array([evaluate_objective(inst, x) for x in pts])
    assert np.all(np.abs(blocked - want) <= 1e-12 * (1.0 + np.abs(want)))
    for batch, saved in zip(batches, before):
        params = [p for _, _, params in batch._groups for p in params]
        assert not any(p.flags.writeable for p in params)
        assert all(np.array_equal(p, q) for p, q in zip(params, saved))
