"""Array-backed set groups (``model.SetGroup``) against plain lists of sets,
and the batch's stacked selection points against the per-set ones."""

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
    existence_classify,
    validate_instance,
)
from dcloc.cli import EXIT_OK, main
from dcloc.geometry import GeometryError
from dcloc.instance_io import instance_to_dict, load_points_csv
from dcloc.model import SetBatch, SetGroup

FOOTPRINTS = [("point", 0.0), ("square", 5.0)]


def as_list(group):
    """The same weighted sets, built one by one into a plain list."""
    return [
        WeightedSet(group.kind(*(np.array(p[i]) for p in group.params)), group.weight)
        for i in range(len(group))
    ]


def batch_bytes(batch):
    return [
        (kind, repr(where), [(p.shape, p.flags.c_contiguous, p.flags.writeable, p.tobytes())
                             for p in params])
        for kind, where, params in batch._groups
    ]


def report_fields(report):
    return {
        k: (v.tobytes() if isinstance(v, np.ndarray) else v) for k, v in vars(report).items()
    }


@pytest.mark.parametrize("shape,half_side", FOOTPRINTS)
def test_csv_solve_reads_groups_as_arrays(fixtures_dir, tmp_path, monkeypatch, shape, half_side):
    """A CSV solve reads its groups as arrays from load to report: it builds
    one set, the first attraction, for the instance's dimension."""
    built = []
    for cls in (Singleton, AxisBox, WeightedSet):
        def counted(self, original=cls.__post_init__):
            built.append(type(self).__name__)
            original(self)
        monkeypatch.setattr(cls, "__post_init__", counted)
    code = main([
        "solve", "--attractions-csv", str(fixtures_dir / "group_a.csv"),
        "--repulsions-csv", str(fixtures_dir / "group_b.csv"),
        "--csv-shape", shape, "--half-side", str(half_side or 5.0),
        "--constraint-ball", "30,-160,30", "--starts", "3", "--seed", "0",
        "--output", str(tmp_path / "report.json"),
    ])
    assert code == EXIT_OK
    assert built == ["Singleton" if shape == "point" else "AxisBox", "WeightedSet"]
    # the counters do count: reading a group builds its sets
    list(load_points_csv(fixtures_dir / "group_b.csv", shape=shape, half_side=half_side))
    assert len(built) == 2 + 2 * 120


def fixture_pair(fixtures_dir, shape, half_side, constraint):
    """The same instance with CSV groups and with lists of sets."""
    a, b = (
        load_points_csv(fixtures_dir / name, shape=shape, half_side=half_side)
        for name in ("group_a.csv", "group_b.csv")
    )
    assert isinstance(a, SetGroup) and isinstance(b, SetGroup)
    return (
        ProblemInstance(2, a, b, constraint),
        ProblemInstance(2, as_list(a), as_list(b), constraint),
    )


class TestGroupMatchesList:
    @pytest.mark.parametrize("shape,half_side", FOOTPRINTS)
    def test_batches_and_weights(self, fixtures_dir, shape, half_side):
        grouped, listed = fixture_pair(fixtures_dir, shape, half_side, Ball([30.0, -160.0], 30.0))
        for attr in ("attraction_batch", "repulsion_batch"):
            g, l = getattr(grouped, attr), getattr(listed, attr)
            assert (g.n_sets, g.dim) == (l.n_sets, l.dim)
            assert batch_bytes(g) == batch_bytes(l)
            assert g.selection_points().tobytes() == l.selection_points().tobytes()
        for attr in ("attraction_weights", "repulsion_weights"):
            g, l = getattr(grouped, attr), getattr(listed, attr)
            assert g.tobytes() == l.tobytes() and not g.flags.writeable

    @pytest.mark.parametrize("shape,half_side", FOOTPRINTS)
    @pytest.mark.parametrize("ball", [[30.0, -160.0, 30.0], [30.0, -120.0, 60.0]])
    def test_findings(self, fixtures_dir, shape, half_side, ball):
        grouped, listed = fixture_pair(fixtures_dir, shape, half_side, Ball(ball[:2], ball[2]))
        findings = validate_instance(grouped)
        assert findings == validate_instance(listed)
        assert bool(findings) == (ball[2] == 60.0)  # the wide ball meets attraction sets

    def test_findings_for_nonpositive_weights(self, fixtures_dir):
        a, b = (
            SetGroup(Singleton, load_points_csv(fixtures_dir / name).params, -1.0)
            for name in ("group_a.csv", "group_b.csv")
        )
        constraint = Ball([30.0, -160.0], 30.0)
        grouped = ProblemInstance(2, a, b, constraint)
        listed = ProblemInstance(2, as_list(a), as_list(b), constraint)
        findings = validate_instance(grouped)
        assert findings == validate_instance(listed)
        assert len(findings) == 1097 + 120
        assert findings[0] == "attraction 0: weight must be strictly positive"
        assert findings[-1] == "repulsion 119: weight must be strictly positive"

    def test_findings_for_wrong_dimension(self, fixtures_dir, tmp_path):
        wide = tmp_path / "wide.csv"
        wide.write_text("1,2,3\n4,5,6\n")
        a = load_points_csv(fixtures_dir / "group_a.csv")
        b = load_points_csv(wide)
        constraint = Ball([30.0, -160.0], 30.0)
        grouped = ProblemInstance(2, a, b, constraint)
        listed = ProblemInstance(2, as_list(a), as_list(b), constraint)
        assert validate_instance(grouped) == validate_instance(listed) == [
            "repulsion 0: set dimension 3 != instance dimension 2",
            "repulsion 1: set dimension 3 != instance dimension 2",
        ]

    @pytest.mark.parametrize("shape,half_side", FOOTPRINTS)
    def test_classifier_dict_and_equality(self, fixtures_dir, shape, half_side):
        grouped, listed = fixture_pair(fixtures_dir, shape, half_side, Ball([30.0, -160.0], 30.0))
        assert report_fields(existence_classify(grouped)) == report_fields(existence_classify(listed))
        assert instance_to_dict(grouped) == instance_to_dict(listed)
        assert grouped == listed and listed == grouped
        assert grouped.attractions == listed.attractions
        assert listed.attractions == grouped.attractions
        assert grouped.attractions != listed.repulsions
        assert listed.attractions[:-1] != grouped.attractions

    def test_sequence_operations(self, fixtures_dir):
        group = load_points_csv(fixtures_dir / "group_b.csv", shape="square", half_side=5.0)
        listed = as_list(group)
        assert len(group) == 120 and group.dim == 2
        assert group[-1] == listed[-1] and group[-120] == listed[0]
        with pytest.raises(IndexError):
            group[120]
        with pytest.raises(IndexError):
            group[-121]
        with pytest.raises(TypeError):
            group[3:9]
        assert list(reversed(group)) == listed[::-1]
        assert listed[5] in group and group.index(listed[5]) == 5

    def test_read_only(self, fixtures_dir):
        group = load_points_csv(fixtures_dir / "group_a.csv")
        for p in group.params:
            with pytest.raises(ValueError):
                p[0, 0] = 1.0
        assert next(iter(group)) is next(iter(group))  # iteration builds the list once


class TestGroupChecks:
    """A group raises what building its sets one by one raises first."""

    @pytest.mark.parametrize("kind,params,weight", [
        (Singleton, ([[1.0, 2.0], [np.nan, 0.0]],), 1.0),
        (Singleton, ([[1.0, 2.0], [3.0, np.inf]],), 1.0),
        (Singleton, ([[1.0, 2.0]],), np.inf),
        (Singleton, ([[1.0, np.nan]],), np.nan),
        (AxisBox, ([[0.0, 0.0], [1.0, 0.0]], [[1.0, 1.0], [0.0, 1.0]]), 1.0),
        (AxisBox, ([[0.0, np.nan]], [[1.0, 1.0]]), 1.0),
        (AxisBox, ([[0.0, 0.0], [-np.inf, 0.0]], [[1.0, 1.0], [np.nan, 1.0]]), 1.0),
        (AxisBox, ([[0.0, 0.0]], [[1.0, 1.0]]), np.nan),
        (AxisBox, ([[0.0, 0.0]], [[1.0, 1.0]]), "heavy"),
    ])
    def test_same_error(self, kind, params, weight):
        with pytest.raises((GeometryError, ValueError, TypeError)) as want:
            [WeightedSet(kind(*(np.array(p[i]) for p in params)), weight)
             for i in range(len(params[0]))]
        with pytest.raises(type(want.value)) as got:
            SetGroup(kind, params, weight)
        assert str(got.value) == str(want.value)

    def test_unbounded_boxes_and_int_weight(self):
        group = SetGroup(AxisBox, ([[-np.inf, 0.0]], [[np.inf, 0.0]]), 2)
        assert group.weight == 2.0 and type(group.weight) is float
        assert group[0] == WeightedSet(AxisBox([-np.inf, 0.0], [np.inf, 0.0]), 2.0)

    def test_refused_shapes(self):
        with pytest.raises(TypeError):
            SetGroup(Ball, ([[0.0, 0.0]], [1.0]), 1.0)
        with pytest.raises(ValueError):
            SetGroup(AxisBox, ([[0.0, 0.0]], [[1.0, 1.0, 1.0]]), 1.0)
        with pytest.raises(ValueError):
            SetGroup(Singleton, ([0.0, 0.0],), 1.0)


def random_sets(rng, family, count, n, unbounded):
    """``count`` sets of one family over magnitudes from 1e-3 to 1e3, with
    boxes of infinite bounds (in a share ``unbounded`` of the coordinates),
    degenerate faces, and halfspaces whose offsets are negative, zero or
    positive."""
    sets = []
    for _ in range(count):
        scale = 10.0 ** rng.uniform(-3, 3)
        a, b = scale * rng.normal(size=n), scale * rng.normal(size=n)
        if family == "point":
            sets.append(Singleton(a))
        elif family == "ball":
            sets.append(Ball(a, scale * rng.uniform(0.1, 2.0)))
        elif family == "box":
            lower, upper = np.minimum(a, b), np.maximum(a, b)
            flat = rng.random(n) < 0.15
            upper[flat] = lower[flat]
            lower[rng.random(n) < unbounded] = -np.inf
            upper[rng.random(n) < unbounded] = np.inf
            sets.append(AxisBox(lower, upper))
        else:
            offset = rng.choice([-1.0, 1.0, 0.0, -0.0]) * scale * rng.uniform(0.1, 2.0)
            sets.append(Halfspace(a, offset))
    return sets


def selection_rule(s):
    """A set's selection point computed by its own scalar methods."""
    if isinstance(s, Singleton):
        return s.point
    if isinstance(s, Ball):
        return s.center
    if isinstance(s, AxisBox) and s.is_bounded():
        return 0.5 * (s.lower + s.upper)
    return s.project(np.zeros(s.dim))


@settings(max_examples=400, deadline=None)
@given(
    st.integers(0, 2**32 - 1),
    st.lists(st.integers(0, 4), min_size=4, max_size=4).filter(any),
    st.integers(1, 6),
    st.booleans(),
    st.sampled_from([0.0, 0.3, 1.0]),
)
def test_selection_points_match_per_set(seed, counts, n, interleave, unbounded):
    """``SetBatch.selection_points`` is the stacked ``selection_point()`` of
    every set, bit for bit, for every family, contiguous or interleaved, and
    each is the family's rule: the point, the centre, a bounded box's
    midpoint, or the projection of the origin."""
    rng = np.random.default_rng(seed)
    sets = [
        s
        for family, count in zip(("point", "ball", "box", "halfspace"), counts)
        for s in random_sets(rng, family, count, n, unbounded)
    ]
    if interleave:
        sets = [sets[i] for i in rng.permutation(len(sets))]
    batch = SetBatch(sets)
    got = batch.selection_points()
    want = np.stack([s.selection_point() for s in sets], axis=1)
    assert got.shape == want.shape == (n, len(sets))
    assert got.tobytes() == want.tobytes()
    rule = np.stack([selection_rule(s) for s in sets], axis=1)
    assert want.tobytes() == rule.tobytes()
    for _, _, params in batch._groups:  # the stacked parameters are untouched
        assert all(not p.flags.writeable for p in params)
