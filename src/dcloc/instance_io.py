"""Reading and writing problem instances and point groups.

Instance files are JSON documents::

    {
      "dimension": 2,
      "attractions": [{"shape": {"kind": "point", "point": [0, 0]}, "weight": 1.0}],
      "repulsions":  [{"shape": {"kind": "ball", "center": [1, 1], "radius": 2}, "weight": 1.0}],
      "constraint":  {"kind": "box", "lower": ["-inf", "-inf"], "upper": ["inf", "inf"]}
    }

Shape kinds are point / ball / box / halfspace; box bounds accept the string
literals "-inf" and "inf".  CSV point groups are one coordinate tuple per
row, optional header (detected by a non-numeric first row).
"""

from __future__ import annotations

import csv
import json
import math
from pathlib import Path

import numpy as np

from .geometry import AxisBox, Ball, ConvexSet, Halfspace, Singleton
from .model import ProblemInstance, SetGroup, ValidationError, WeightedSet, require_valid

__all__ = [
    "ParseError",
    "ValidationError",
    "load_instance",
    "write_instance",
    "instance_to_dict",
    "instance_from_dict",
    "load_points_csv",
]


class ParseError(ValueError):
    """Malformed instance or CSV file, or a NaN or infinity where none is allowed."""


def _bound(value) -> float:
    if value == "inf":
        return math.inf
    if value == "-inf":
        return -math.inf
    return float(value)


def _bound_to_json(value: float):
    if value == math.inf:
        return "inf"
    if value == -math.inf:
        return "-inf"
    return value


def shape_from_dict(d: dict) -> ConvexSet:
    try:
        kind = d["kind"]
        if kind == "point":
            return Singleton(np.asarray(d["point"], dtype=float))
        if kind == "ball":
            return Ball(np.asarray(d["center"], dtype=float), float(d["radius"]))
        if kind == "box":
            return AxisBox(
                np.array([_bound(v) for v in d["lower"]]),
                np.array([_bound(v) for v in d["upper"]]),
            )
        if kind == "halfspace":
            return Halfspace(np.asarray(d["normal"], dtype=float), float(d["offset"]))
    except (KeyError, TypeError, ValueError) as exc:
        raise ParseError(f"bad shape {d!r}: {exc}") from exc
    raise ParseError(f"unknown shape kind {kind!r}")


def shape_to_dict(s: ConvexSet) -> dict:
    if isinstance(s, Singleton):
        return {"kind": "point", "point": s.point.tolist()}
    if isinstance(s, Ball):
        return {"kind": "ball", "center": s.center.tolist(), "radius": s.radius}
    if isinstance(s, AxisBox):
        return {
            "kind": "box",
            "lower": [_bound_to_json(v) for v in s.lower],
            "upper": [_bound_to_json(v) for v in s.upper],
        }
    if isinstance(s, Halfspace):
        return {"kind": "halfspace", "normal": s.normal.tolist(), "offset": s.offset}
    raise TypeError(f"unsupported set type {type(s).__name__}")


def instance_from_dict(doc: dict) -> ProblemInstance:
    try:
        dimension = int(doc["dimension"])
        attractions = [
            WeightedSet(shape_from_dict(e["shape"]), float(e["weight"]))
            for e in doc["attractions"]
        ]
        repulsions = [
            WeightedSet(shape_from_dict(e["shape"]), float(e["weight"]))
            for e in doc.get("repulsions", [])
        ]
        constraint = shape_from_dict(doc["constraint"])
    except (KeyError, TypeError, ValueError) as exc:
        if isinstance(exc, ParseError):
            raise
        raise ParseError(f"bad instance document: {exc}") from exc
    return require_valid(ProblemInstance(dimension, attractions, repulsions, constraint))


def instance_to_dict(inst: ProblemInstance) -> dict:
    return {
        "dimension": inst.dimension,
        "attractions": [
            {"shape": shape_to_dict(w.set), "weight": w.weight}
            for w in inst.attractions
        ],
        "repulsions": [
            {"shape": shape_to_dict(w.set), "weight": w.weight}
            for w in inst.repulsions
        ],
        "constraint": shape_to_dict(inst.constraint),
    }


def load_instance(path) -> ProblemInstance:
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except json.JSONDecodeError as exc:
        raise ParseError(f"{path}: invalid JSON at line {exc.lineno}: {exc.msg}") from exc
    return instance_from_dict(doc)


def write_instance(inst: ProblemInstance, path) -> None:
    Path(path).write_text(
        json.dumps(instance_to_dict(inst), indent=2, sort_keys=True) + "\n"
    )


def load_points_csv(path, shape: str = "point", half_side: float = 0.0) -> SetGroup:
    """One set of weight 1 per CSV row: singletons, or axis boxes of the
    given half side centered at the rows, as a read-only ``SetGroup``, which
    builds no set until one is read.

    Row 1 is a header when it is non-numeric; blank rows are skipped, ``#``
    starts no comment and cells may be quoted.  Well-formed finite input is
    read as one array; any other input goes through a row-by-row parse,
    which raises ``ParseError`` naming the first bad row.
    """
    if shape not in ("point", "square"):
        raise ParseError(f"unknown csv shape {shape!r}")
    if shape == "square" and not 0 < half_side < math.inf:
        raise ParseError("square shape needs a positive finite half side")
    coords = _read_coordinates(path)
    if coords is None:
        coords = _parse_rows(path)
    if shape == "point":
        return SetGroup(Singleton, (coords,), 1.0)
    return SetGroup(AxisBox, (coords - half_side, coords + half_side), 1.0)


def _is_blank(row: list[str]) -> bool:
    return all(not c.strip() for c in row)


def _read_coordinates(path) -> np.ndarray | None:
    """The data rows of a CSV point group as one (rows, dimension) array, or
    None for input that ``_parse_rows`` must judge: a file without data rows,
    a non-numeric cell after row 1, a ragged row or a non-finite value."""
    with open(path, newline="") as fh:
        # the header rule and the blank rows before the first data row are
        # settled row by row; loadtxt then reads from that row on, so it never
        # meets an input without data, on which it would warn
        start = 0
        for rownum, row in enumerate(csv.reader(iter(fh.readline, "")), start=1):
            if not _is_blank(row) and (rownum > 1 or _is_numeric(row)):
                break
            start = fh.tell()
        else:
            return None
        fh.seek(start)
        try:
            coords = np.loadtxt(fh, delimiter=",", comments=None, ndmin=2, quotechar='"')
        except ValueError:
            return None
    return coords if np.isfinite(coords).all() else None


def _is_numeric(row: list[str]) -> bool:
    try:
        for c in row:
            float(c)
    except ValueError:
        return False
    return True


def _parse_rows(path) -> np.ndarray:
    """The data rows as one (rows, dimension) array, converted one row at a
    time; raises ParseError naming the first bad row: a non-numeric cell
    after row 1, a non-finite value, or a length other than the first data
    row's."""
    rows: list[list[float]] = []
    with open(path, newline="") as fh:
        for rownum, row in enumerate(csv.reader(fh), start=1):
            if _is_blank(row):
                continue
            try:
                values = [float(c) for c in row]
            except ValueError:
                if rownum == 1:
                    continue  # header row
                raise ParseError(f"{path}: non-numeric data at row {rownum}")
            if not all(map(math.isfinite, values)):
                raise ParseError(f"{path}: non-finite coordinate at row {rownum}")
            if rows and len(values) != len(rows[0]):
                raise ParseError(
                    f"{path}: row {rownum} has {len(values)} coordinates, "
                    f"the first data row has {len(rows[0])}"
                )
            rows.append(values)
    if not rows:
        raise ParseError(f"{path}: no data rows")
    return np.array(rows)
