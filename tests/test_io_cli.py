import csv
import json
import math
import warnings

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from dcloc import AxisBox, Ball, Halfspace, ProblemInstance, Singleton, WeightedSet
from dcloc import instance_io
from dcloc.cli import EXIT_OK, EXIT_SOLVER, EXIT_VALIDATION, main
from dcloc.instance_io import (
    ParseError,
    ValidationError,
    instance_from_dict,
    instance_to_dict,
    load_instance,
    load_points_csv,
    shape_from_dict,
    shape_to_dict,
    write_instance,
)

INF = np.inf


class TestShapeRoundTrip:
    @pytest.mark.parametrize("shape", [
        Singleton([1.0, -2.0]),
        Ball([0.0, 0.5], 2.5),
        AxisBox([-1.0, 0.0], [1.0, 3.0]),
        AxisBox([-INF, 0.0], [INF, 0.0]),
        Halfspace([0.0, 1.0], -1.0),
    ])
    def test_exact_round_trip(self, shape):
        doc = shape_to_dict(shape)
        json.dumps(doc)  # must be serializable as-is
        assert shape_from_dict(doc) == shape

    def test_unknown_kind(self):
        with pytest.raises(ParseError):
            shape_from_dict({"kind": "cone", "apex": [0, 0]})

    def test_missing_field(self):
        with pytest.raises(ParseError):
            shape_from_dict({"kind": "ball", "center": [0, 0]})


class TestInstanceRoundTrip:
    def make(self):
        return ProblemInstance(
            2,
            [WeightedSet(AxisBox([-INF, 0], [INF, 0]), 1.5)],
            [WeightedSet(Halfspace([0, 1], -1.0), 0.5)],
            Ball([0, 0], 10.0),
        )

    def test_dict_round_trip(self):
        inst = self.make()
        again = instance_from_dict(instance_to_dict(inst))
        assert again.dimension == inst.dimension
        assert [w.set for w in again.attractions] == [w.set for w in inst.attractions]
        assert [w.weight for w in again.repulsions] == [w.weight for w in inst.repulsions]
        assert again.constraint == inst.constraint

    def test_file_round_trip(self, tmp_path):
        path = tmp_path / "inst.json"
        write_instance(self.make(), path)
        again = load_instance(path)
        assert again.constraint == self.make().constraint
        # writing again yields byte-identical output (sorted keys)
        path2 = tmp_path / "inst2.json"
        write_instance(again, path2)
        assert path.read_text() == path2.read_text()

    def test_fixture_loads(self, fixtures_dir):
        inst = load_instance(fixtures_dir / "line_between_halfplanes.json")
        assert inst.dimension == 2
        assert inst.constraint == Ball([0, 0], 10.0)

    def test_invalid_json(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        with pytest.raises(ParseError):
            load_instance(path)

    def test_no_attractions(self):
        doc = {
            "dimension": 1,
            "attractions": [],
            "repulsions": [],
            "constraint": {"kind": "box", "lower": ["-inf"], "upper": ["inf"]},
        }
        with pytest.raises(ValidationError):
            instance_from_dict(doc)

    def test_nonpositive_weight(self):
        doc = {
            "dimension": 1,
            "attractions": [{"shape": {"kind": "point", "point": [0.0]}, "weight": 0.0}],
            "constraint": {"kind": "box", "lower": ["-inf"], "upper": ["inf"]},
        }
        with pytest.raises(ValidationError):
            instance_from_dict(doc)

    def test_dimension_mismatch(self):
        doc = {
            "dimension": 2,
            "attractions": [{"shape": {"kind": "point", "point": [0.0]}, "weight": 1.0}],
            "constraint": {
                "kind": "box", "lower": ["-inf", "-inf"], "upper": ["inf", "inf"],
            },
        }
        with pytest.raises(ValidationError):
            instance_from_dict(doc)


class TestLoadPointsCsv:
    def write_csv(self, path, rows, header=None):
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            if header:
                writer.writerow(header)
            writer.writerows(rows)

    def test_points_with_header(self, tmp_path):
        path = tmp_path / "pts.csv"
        self.write_csv(path, [[1.0, 2.0], [3.0, 4.0]], header=["lat", "lon"])
        sets = load_points_csv(path)
        assert len(sets) == 2
        assert sets[0].set == Singleton([1.0, 2.0])
        assert sets[0].weight == 1.0

    def test_points_without_header(self, tmp_path):
        path = tmp_path / "pts.csv"
        self.write_csv(path, [[1.0, 2.0]])
        assert len(load_points_csv(path)) == 1

    def test_squares(self, tmp_path):
        path = tmp_path / "pts.csv"
        self.write_csv(path, [[10.0, 20.0]])
        sets = load_points_csv(path, shape="square", half_side=5.0)
        assert sets[0].set == AxisBox([5.0, 15.0], [15.0, 25.0])

    def test_square_needs_half_side(self, tmp_path):
        path = tmp_path / "pts.csv"
        self.write_csv(path, [[0.0, 0.0]])
        with pytest.raises(ParseError):
            load_points_csv(path, shape="square")

    def test_bad_row_reported_with_number(self, tmp_path):
        path = tmp_path / "pts.csv"
        self.write_csv(path, [[1.0, 2.0], ["x", 4.0]], header=["a", "b"])
        with pytest.raises(ParseError, match="row 3"):
            load_points_csv(path)

    def test_empty_file(self, tmp_path):
        path = tmp_path / "pts.csv"
        path.write_text("")
        with pytest.raises(ParseError):
            load_points_csv(path)

    def test_bundled_fixtures(self, fixtures_dir):
        a = load_points_csv(fixtures_dir / "group_a.csv")
        b = load_points_csv(fixtures_dir / "group_b.csv")
        assert len(a) == 1097 and len(b) == 120
        assert all(s.set.dim == 2 for s in a)

    @pytest.mark.parametrize("name", ["group_a.csv", "group_b.csv"])
    def test_fixtures_read_as_one_array(self, fixtures_dir, name):
        # the bundled groups take the array path, not the row-by-row parse
        coords = instance_io._read_coordinates(fixtures_dir / name)
        want = row_loop_sets(fixtures_dir / name, "point", 0.0)
        assert coords.shape == (len(want), 2)
        assert coords.tobytes() == np.array([w.set.point for w in want]).tobytes()


def row_loop_sets(path, shape, half_side):
    """Reference CSV loader: every row converted on its own."""
    sets = []
    with open(path, newline="") as fh:
        for rownum, row in enumerate(csv.reader(fh), start=1):
            if not row or all(not c.strip() for c in row):
                continue
            try:
                values = [float(c) for c in row]
            except ValueError:
                if rownum == 1:
                    continue  # header row
                raise ParseError(f"{path}: non-numeric data at row {rownum}")
            if not all(map(math.isfinite, values)):
                raise ParseError(f"{path}: non-finite coordinate at row {rownum}")
            if sets and len(values) != sets[0].set.dim:
                raise ParseError(
                    f"{path}: row {rownum} has {len(values)} coordinates, "
                    f"the first data row has {sets[0].set.dim}"
                )
            coords = np.array(values)
            if shape == "point":
                s = Singleton(coords)
            else:
                s = AxisBox(coords - half_side, coords + half_side)
            sets.append(WeightedSet(s, 1.0))
    if not sets:
        raise ParseError(f"{path}: no data rows")
    return sets


NUMBER_CELLS = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False).map(repr),
    st.integers(-10**6, 10**6).map(str),
    st.sampled_from(["1e3", "-.5", "+2.", "-0", "1E-3", "007"]),
)
ODD_CELLS = st.sampled_from(
    ["nan", "inf", "-Infinity", "x", "lat", "#", "#1", "1#2", "", " ", "1_0", '"', "1 2", "0x1"]
)


@st.composite
def csv_cells(draw):
    text = draw(NUMBER_CELLS if draw(st.integers(0, 29)) else ODD_CELLS)
    pad = st.sampled_from(["", "", "", " ", "\t"])
    text = draw(pad) + text + draw(pad)
    if draw(st.integers(0, 3)) == 0:
        text = f'"{text}"'
    if draw(st.integers(0, 29)) == 0:
        text = " " + text  # a quote after a space is a literal character
    return text


@st.composite
def csv_texts(draw):
    """CSV point-group texts: mostly well formed, with headers, blank and
    whitespace-only rows, CRLF line ends, quoted and padded numbers, and now
    and then a non-finite, non-numeric or '#' cell, a row with '#' where a
    comment would start, a ragged row, a trailing comma or an empty file."""
    if draw(st.integers(0, 19)) == 0:
        return ""
    dim = draw(st.integers(1, 3))
    lines = []
    if draw(st.booleans()):
        lines.append(draw(st.sampled_from(
            ["lat,lon", "x", '"lat","lon"', "a,b,c", "#lat,lon", "1,lon", "lat,"]
        )))
    for _ in range(draw(st.integers(0, 8))):
        kind = draw(st.integers(0, 19))
        if kind == 0:
            lines.append(draw(st.sampled_from(["", " ", "\t", " , ", ",", '""'])))
            continue
        width = dim if kind > 1 else draw(st.integers(1, 4))
        line = ",".join(draw(csv_cells()) for _ in range(width))
        if kind == 2:
            line = draw(st.sampled_from(["#", "# ", ""])) + line + draw(st.sampled_from(["#", " # x"]))
        lines.append(line + ("," if draw(st.integers(0, 29)) == 0 else ""))
    eol = draw(st.sampled_from(["\n", "\r\n"]))
    return eol.join(lines) + (eol if draw(st.booleans()) else "")


def outcome(load):
    """The sets a loader returns, bit for bit, or its ParseError message."""
    try:
        sets = load()
    except ParseError as exc:
        return "error", str(exc)
    return "sets", [
        (type(w.set), w.weight, [np.asarray(p).tobytes() for p in w.set._key()]) for w in sets
    ]


@settings(max_examples=400, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(csv_texts(), st.sampled_from(["point", "square"]))
def test_csv_loader_matches_row_loop(tmp_path, text, shape):
    """load_points_csv returns the row loop's sets, bit for bit, or raises
    its ParseError message, on any CSV text, and warns about none of them."""
    path = tmp_path / "group.csv"
    with open(path, "w", newline="") as fh:
        fh.write(text)
    half_side = 0.5 if shape == "square" else 0.0
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = outcome(lambda: load_points_csv(path, shape=shape, half_side=half_side))
    assert got == outcome(lambda: row_loop_sets(path, shape, half_side))


class TestCliSolve:
    def test_instance_solve_to_file(self, fixtures_dir, tmp_path):
        out = tmp_path / "report.json"
        code = main([
            "solve",
            "--instance", str(fixtures_dir / "line_between_halfplanes.json"),
            "--starts", "5", "--seed", "1",
            "--output", str(out),
        ])
        assert code == EXIT_OK
        doc = json.loads(out.read_text())
        assert np.isclose(doc["final_value"], -2.0, atol=1e-5)
        assert doc["prng"] == "philox" and doc["seed"] == 1

    def test_deterministic_reports(self, fixtures_dir, tmp_path):
        outs = []
        for name in ("a.json", "b.json"):
            out = tmp_path / name
            main([
                "solve",
                "--instance", str(fixtures_dir / "line_between_halfplanes.json"),
                "--starts", "3", "--seed", "9",
                "--output", str(out),
            ])
            outs.append(out.read_text())
        assert outs[0] == outs[1]

    def test_explicit_start_and_trajectory(self, fixtures_dir, tmp_path):
        out = tmp_path / "report.json"
        traj = tmp_path / "traj.csv"
        code = main([
            "solve",
            "--instance", str(fixtures_dir / "line_between_halfplanes.json"),
            "--x0", "3,0.5",
            "--trajectory", str(traj),
            "--output", str(out),
        ])
        assert code == EXIT_OK
        with open(traj, newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["k", "x_1", "x_2", "f", "step_norm"]
        assert [float(c) for c in rows[1][:3]] == [0.0, 3.0, 0.5]
        final = json.loads(out.read_text())
        assert np.isclose(float(rows[-1][3]), final["final_value"], atol=1e-9)

    def test_csv_group_solve(self, fixtures_dir, tmp_path):
        out = tmp_path / "report.json"
        code = main([
            "solve",
            "--attractions-csv", str(fixtures_dir / "group_a.csv"),
            "--repulsions-csv", str(fixtures_dir / "group_b.csv"),
            "--constraint-ball", "30,-160,30",
            "--seed", "0",
            "--output", str(out),
        ])
        assert code == EXIT_OK
        doc = json.loads(out.read_text())
        assert len(doc["final_x"]) == 2

    def test_missing_input_is_validation_error(self, capsys):
        assert main(["solve"]) == EXIT_VALIDATION
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("starts", ["0", "-2"])
    def test_no_starts_is_validation_error(self, fixtures_dir, capsys, starts):
        code = main([
            "solve",
            "--instance", str(fixtures_dir / "line_between_halfplanes.json"),
            "--starts", starts,
        ])
        assert code == EXIT_VALIDATION
        assert "--starts must be at least 1" in capsys.readouterr().err

    @pytest.mark.parametrize("rows, ball, message", [
        ("1,2\n3,4,5\n", "0,0,10", "row 2 has 3 coordinates, the first data row has 2"),
        ("1,2\n3,4\n", "0,10", "constraint set dimension 1 != instance dimension 2"),
        ("1,2\nnan,4\n", "0,0,10", "non-finite coordinate at row 2"),
        ("1,2\n3,inf\n", "0,0,10", "non-finite coordinate at row 2"),
        ("1,2\n3,4\n", "0,0,nan", "non-finite value in coordinate list"),
        ("1,2\n3,4\n", "0,0,-1", "ball radius must be positive"),
    ])
    def test_bad_csv_input_is_validation_error(self, tmp_path, capsys, rows, ball, message):
        path = tmp_path / "a.csv"
        path.write_text(rows)
        code = main(["solve", "--attractions-csv", str(path), "--constraint-ball", ball])
        assert code == EXIT_VALIDATION
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize("shape, weight, message", [
        ({"kind": "point", "point": [0.0, float("nan")]}, 1.0, "point coordinates must be finite"),
        ({"kind": "ball", "center": [0.0, 0.0], "radius": float("inf")}, 1.0,
         "ball radius must be finite"),
        ({"kind": "halfspace", "normal": [0.0, 1.0], "offset": float("-inf")}, 1.0,
         "halfspace offset must be finite"),
        ({"kind": "box", "lower": ["nan", 0.0], "upper": [1.0, 1.0]}, 1.0,
         "box bounds must not be NaN"),
        ({"kind": "point", "point": [5.0, 0.0]}, float("inf"), "weight must be finite"),
        # squared norms that underflow to 0 or a subnormal, or overflow
        ({"kind": "halfspace", "normal": [9.48e-288, 0.0], "offset": 0.0}, 1.0,
         "halfspace normal has squared norm 0.0"),
        ({"kind": "halfspace", "normal": [1e-160, 0.0], "offset": 0.0}, 1.0,
         "halfspace normal has squared norm 1e-320"),
        ({"kind": "halfspace", "normal": [1e200, 0.0], "offset": 0.0}, 1.0,
         "halfspace normal has squared norm inf"),
    ])
    def test_non_finite_json_is_validation_error(self, tmp_path, capsys, shape, weight, message):
        doc = {
            "dimension": 2,
            "attractions": [{"shape": shape, "weight": weight}],
            "constraint": {"kind": "ball", "center": [0.0, 0.0], "radius": 1.0},
        }
        path = tmp_path / "inst.json"
        path.write_text(json.dumps(doc))  # NaN and Infinity literals
        code = main(["solve", "--instance", str(path), "--x0", "0,0"])
        assert code == EXIT_VALIDATION
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize("x0, message", [
        ("3,0.5,1", "--x0 has 3 coordinates, the instance has dimension 2"),
        ("3", "--x0 has 1 coordinates, the instance has dimension 2"),
        ("3,nan", "non-finite value in coordinate list"),
    ])
    def test_bad_start_is_validation_error(self, fixtures_dir, capsys, x0, message):
        code = main([
            "solve",
            "--instance", str(fixtures_dir / "line_between_halfplanes.json"),
            "--x0", x0,
        ])
        assert code == EXIT_VALIDATION
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize("option, message", [
        (["--lambda", "0"], "lambda must be finite and positive"),
        (["--lambda", "nan"], "lambda must be finite and positive"),
        (["--max-outer", "0"], "max_outer must be at least 1"),
        (["--outer-tol", "nan"], "outer_step_tol must be finite"),
        (["--inner-iters", "0"], "max_iters must be at least 1"),
        (["--inner-tol", "-1"], "step_tol must be finite"),
    ])
    def test_bad_solver_option_is_validation_error(self, fixtures_dir, capsys, option, message):
        code = main([
            "solve",
            "--instance", str(fixtures_dir / "line_between_halfplanes.json"),
            *option,
        ])
        assert code == EXIT_VALIDATION
        err = capsys.readouterr().err
        assert "bad solver option" in err and message in err

    def test_inner_method_option_is_gone(self, fixtures_dir, capsys):
        # one inner route remains, so argparse refuses the option (exit 2)
        with pytest.raises(SystemExit) as stop:
            main([
                "solve",
                "--instance", str(fixtures_dir / "line_between_halfplanes.json"),
                "--inner-method", "auto",
            ])
        assert stop.value.code == EXIT_VALIDATION
        assert "--inner-method" in capsys.readouterr().err

    def test_infeasible_start_is_solver_error(self, fixtures_dir, capsys):
        code = main([
            "solve",
            "--instance", str(fixtures_dir / "line_between_halfplanes.json"),
            "--x0", "50,50",
        ])
        assert code == EXIT_SOLVER


class TestCliExistence:
    def test_no_attainment_fixture(self, fixtures_dir, capsys):
        code = main([
            "existence",
            "--instance", str(fixtures_dir / "independent_singletons.json"),
        ])
        assert code == EXIT_OK
        doc = json.loads(capsys.readouterr().out)
        assert doc["verdict"] == "no_solution_infimum_not_attained"
        assert np.isclose(doc["infimum"], -np.sqrt(2.0), atol=1e-12)

    def test_bounded_constraint_fixture(self, fixtures_dir, capsys):
        code = main([
            "existence",
            "--instance", str(fixtures_dir / "line_between_halfplanes.json"),
        ])
        assert code == EXIT_OK
        assert json.loads(capsys.readouterr().out)["verdict"] == "exists"


class TestCliClassify:
    def test_probe_points(self, fixtures_dir, capsys):
        code = main([
            "classify",
            "--instance", str(fixtures_dir / "segment_vs_point.json"),
            "--point", "2,0",
        ])
        assert code == EXIT_OK
        doc = json.loads(capsys.readouterr().out)
        assert doc["stationary"] is True and doc["critical"] is True
        assert np.allclose(doc["witness"], [1.0, 0.0])

    def test_wrong_shape_count(self, fixtures_dir, capsys):
        code = main([
            "classify",
            "--instance", str(fixtures_dir / "line_between_halfplanes.json"),
            "--point", "0,0",
        ])
        assert code == EXIT_VALIDATION


class TestCliOracle:
    def test_grid_agrees_with_solver(self, fixtures_dir, capsys):
        code = main([
            "oracle",
            "--instance", str(fixtures_dir / "line_between_halfplanes.json"),
            "--grid=-10..10@201",
        ])
        assert code == EXIT_OK
        doc = json.loads(capsys.readouterr().out)
        assert np.isclose(doc["best_value"], -2.0, atol=doc["spacing"])
        assert doc["evaluations"] == 201**2

    def test_bad_grid_spec(self, fixtures_dir, capsys):
        code = main([
            "oracle",
            "--instance", str(fixtures_dir / "line_between_halfplanes.json"),
            "--grid", "banana",
        ])
        assert code == EXIT_VALIDATION

    @pytest.mark.parametrize("grid, message", [
        ("nan..1@5", "grid bounds must be finite"),
        ("-inf..1@5", "grid bounds must be finite"),
        ("0..inf@5", "grid bounds must be finite"),
        ("1..0@5", "lower < upper"),
        ("0..1@1", "at least two grid points"),
    ])
    def test_bad_grid_bounds_are_validation_errors(self, fixtures_dir, capsys, grid, message):
        code = main([
            "oracle",
            "--instance", str(fixtures_dir / "line_between_halfplanes.json"),
            f"--grid={grid}",
        ])
        assert code == EXIT_VALIDATION
        assert message in capsys.readouterr().err


class TestCliGen:
    def test_deterministic_and_loadable(self, tmp_path):
        d1 = tmp_path / "one"
        d2 = tmp_path / "two"
        d1.mkdir(); d2.mkdir()
        for d in (d1, d2):
            assert main([
                "gen", "--seed", "5", "--out-dir", str(d),
                "--group-a", "40", "--group-b", "10",
            ]) == EXIT_OK
        assert (d1 / "group_a.csv").read_text() == (d2 / "group_a.csv").read_text()
        assert (d1 / "group_b.csv").read_text() == (d2 / "group_b.csv").read_text()
        assert len(load_points_csv(d1 / "group_a.csv")) == 40
        assert len(load_points_csv(d1 / "group_b.csv")) == 10
