"""The benchmark's workloads, their seeded inputs and the checks on every result.

Each workload generates its inputs from the workload seed, builds what it
needs during set-up and then serves requests ``request(i)``; request ``i``
uses entry ``i % pool_size`` of a seeded pool of per-request parameters, so a
long run repeats requests and ``check`` can require identical outputs for
identical requests.  The checks use only the benchmark's own numpy code
(``own_objective`` and friends), never a value the solver computed, apart from
the result under test.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import math
import time
from pathlib import Path

import numpy as np

import dcloc
from dcloc import cli, dca, instance_io, oracle

GROUP_A, GROUP_B = 1097, 120
CENTER, RADIUS = np.array([30.0, -160.0]), 30.0
HALF_SIDE = 5.0
VALUE_RTOL = 1e-9  # reported value vs the benchmark's own objective at the same point
REFERENCE_RTOL = 1e-6  # reported value vs the reference optimum


def request_rng(seed: int) -> np.random.Generator:
    # a key distinct from the one used for the CSV groups
    return np.random.Generator(np.random.Philox(key=[seed, 1]))


def generate_groups(seed: int) -> tuple[np.ndarray, np.ndarray]:
    """Two point groups with the sizes and regions of ``dcloc gen``."""
    rng = np.random.Generator(np.random.Philox(key=[seed, 0]))
    group_a = np.column_stack(
        [rng.uniform(25.0, 49.0, GROUP_A), rng.uniform(-124.0, -67.0, GROUP_A)]
    )
    half = GROUP_B // 2
    island = np.column_stack([rng.uniform(19.0, 22.0, half), rng.uniform(-160.0, -154.0, half)])
    north = np.column_stack(
        [rng.uniform(55.0, 71.0, GROUP_B - half), rng.uniform(-165.0, -130.0, GROUP_B - half)]
    )
    return group_a, np.vstack([island, north])


def write_points(path: Path, pts: np.ndarray) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["lat", "lon"])
        writer.writerows([repr(float(c)) for c in row] for row in pts)


# ---- the benchmark's own geometry --------------------------------------------


class OwnSets:
    """Unit-weight boxes (points have lo == hi) and halfspaces {x : n.x <= c}."""

    def __init__(self, lo, hi, normals=np.empty((0, 2)), offsets=np.empty(0)):
        self.lo, self.hi = np.asarray(lo, float), np.asarray(hi, float)
        self.normals, self.offsets = np.asarray(normals, float), np.asarray(offsets, float)

    def distance_sum(self, x: np.ndarray) -> np.ndarray:
        """Sum of distances from each row of ``x`` to all the sets."""
        gap = np.maximum(np.maximum(self.lo - x[:, None], x[:, None] - self.hi), 0.0)
        total = np.sqrt(np.einsum("nmd,nmd->nm", gap, gap)).sum(axis=1)
        excess = np.maximum(x @ self.normals.T - self.offsets, 0.0)
        return total + (excess / np.linalg.norm(self.normals, axis=1)).sum(axis=1)


def own_objective(x: np.ndarray, attract: OwnSets, repel: OwnSets) -> np.ndarray:
    x = np.atleast_2d(np.asarray(x, float))
    out = np.empty(x.shape[0])
    for s in range(0, x.shape[0], 256):
        rows = x[s : s + 256]
        out[s : s + 256] = attract.distance_sum(rows) - repel.distance_sum(rows)
    return out


def project_ball(x: np.ndarray, center: np.ndarray, radius: float) -> np.ndarray:
    d = x - center
    norm = np.linalg.norm(d, axis=-1, keepdims=True)
    return center + d * np.minimum(1.0, radius / np.maximum(norm, 1e-300))


def in_ball(x, center, radius) -> bool:
    x = np.asarray(x, float)
    # dcloc's membership tolerance: 1e-9 * (1 + |x|)
    return bool(np.linalg.norm(x - center) <= radius + 1e-9 * (1.0 + np.linalg.norm(x)))


def reference_minimum(attract: OwnSets, repel: OwnSets) -> float:
    """Global minimum over the constraint ball: a 121x121 grid projected onto
    the ball, then a projected coordinate pattern search from the best point."""
    axes = [np.linspace(c - RADIUS, c + RADIUS, 121) for c in CENTER]
    grid = project_ball(np.stack(np.meshgrid(*axes, indexing="ij"), -1).reshape(-1, 2), CENTER, RADIUS)
    vals = own_objective(grid, attract, repel)
    x, val = grid[np.argmin(vals)], float(vals.min())
    step = RADIUS / 60
    while step > 1e-11:
        trials = project_ball(x + step * np.array([[1, 0], [-1, 0], [0, 1], [0, -1]]), CENTER, RADIUS)
        tvals = own_objective(trials, attract, repel)
        if tvals.min() < val:
            x, val = trials[np.argmin(tvals)], float(tvals.min())
        else:
            step *= 0.5
    return val


def close(a: float, b: float, rtol: float) -> bool:
    return abs(a - b) <= rtol * (1.0 + abs(b))


# ---- reference kernels ---------------------------------------------------------
# Fixed work, independent of dcloc, timed next to every request: a request's
# time over the kernel's time tracks the code rather than the host's speed.

_SMALL = (np.array([0.3, -0.7]), np.array([-1.0, -1.0]), np.array([1.0, 1.0]))
_BULK = (np.linspace(0.0, 1.0, 400).reshape(200, 2), np.linspace(-1.0, 2.0, 2434).reshape(1217, 2))


def small_ops_seconds() -> float:
    """300 tiny numpy operations driven from Python, like the solver's loops."""
    x, lo, hi = _SMALL
    t0 = time.perf_counter()
    for k in range(300):
        np.linalg.norm(x - np.clip(x + 1e-3 * k, lo, hi))
    return time.perf_counter() - t0


def bulk_seconds() -> float:
    """One (200 x 1217 x 2) distance evaluation, like a chunk of the oracle."""
    p, q = _BULK
    t0 = time.perf_counter()
    np.linalg.norm(p[:, None, :] - q[None], axis=2).sum()
    return time.perf_counter() - t0


# ---- workloads ---------------------------------------------------------------


class Workload:
    name = ""
    pool_size = 0  # distinct requests before the sequence repeats
    trace_size = 0  # requests of one traced pass (the first entries of the pool)
    center, radius = CENTER, RADIUS  # the constraint ball
    reference_seconds = staticmethod(small_ops_seconds)

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.workdir = workdir
        self.pool = self.make_pool(request_rng(seed))
        self.digests: dict[int, object] = {}

    def make_pool(self, rng: np.random.Generator) -> list:
        return [int(s) for s in rng.integers(0, 2**31, self.pool_size)]

    def set_up(self) -> None:
        """Generate and write the inputs and build the instance."""
        raise NotImplementedError

    def load(self):
        """The ``instance_io`` part of set-up, traced on its own."""
        raise NotImplementedError

    def prepare_reference(self) -> None:
        """Untimed: the reference values the checks compare against."""

    def request(self, i: int):
        raise NotImplementedError

    def problems(self, i: int, out) -> list[str]:
        """Problems with one output; the default reads a ``SolveReport``."""
        return self.solution_problems(out.final_x, out.final_value)

    def digest(self, out) -> object:
        return out.final_x.tobytes(), out.final_value

    def solution_problems(self, x, value: float) -> list[str]:
        found = []
        if not in_ball(x, self.center, self.radius):
            found.append(f"point {list(x)} is outside the constraint ball")
        own = float(own_objective(x, self.attract, self.repel)[0])
        if not close(value, own, VALUE_RTOL):
            found.append(f"value {value!r} != recomputed objective {own!r}")
        if not close(value, self.reference, REFERENCE_RTOL):
            found.append(f"value {value!r} is not the reference minimum {self.reference!r}")
        return found

    def check(self, i: int, out) -> list[str]:
        """Every problem found with the output of request ``i``."""
        try:
            found = self.problems(i, out)
        except Exception as exc:  # a malformed output is a failed request
            return [f"check raised {type(exc).__name__}: {exc}"]
        first = self.digests.setdefault(i % self.pool_size, self.digest(out))
        if self.digest(out) != first:
            found.append("output differs from an earlier run of the same request")
        return found


class _TwoGroupInputs(Workload):
    """Shared by the workloads that read the generated CSV groups."""

    shape = "point"

    def write_inputs(self) -> None:
        self.group_a, self.group_b = generate_groups(self.seed)
        self.workdir.mkdir(parents=True, exist_ok=True)
        self.csv_a, self.csv_b = self.workdir / "group_a.csv", self.workdir / "group_b.csv"
        write_points(self.csv_a, self.group_a)
        write_points(self.csv_b, self.group_b)

    def load(self):
        half = HALF_SIDE if self.shape == "square" else 0.0
        a = instance_io.load_points_csv(self.csv_a, shape=self.shape, half_side=half)
        b = instance_io.load_points_csv(self.csv_b, shape=self.shape, half_side=half)
        return dcloc.ProblemInstance(2, a, b, dcloc.Ball(CENTER, RADIUS))

    def set_up(self) -> None:
        self.write_inputs()
        self.inst = self.load()

    def own_sets(self):
        half = HALF_SIDE if self.shape == "square" else 0.0
        return (OwnSets(self.group_a - half, self.group_a + half),
                OwnSets(self.group_b - half, self.group_b + half))

    def prepare_reference(self) -> None:
        self.attract, self.repel = self.own_sets()
        self.reference = reference_minimum(self.attract, self.repel)


class TwoGroup(_TwoGroupInputs):
    """Three-start solve of the square-footprint instance (1097 + 120 boxes)."""

    name, pool_size, trace_size, shape = "two_group", 64, 8, "square"

    def request(self, i):
        return dca.multi_start_solve(self.inst, n_starts=3, seed=self.pool[i % self.pool_size])


class CliCsv(_TwoGroupInputs):
    """``dcloc solve`` in process on the generated CSVs (point footprint)."""

    name, pool_size, trace_size, shape = "cli_csv", 16, 4, "point"

    def set_up(self):
        self.write_inputs()

    def argv(self, i):
        return ["solve", "--attractions-csv", str(self.csv_a), "--repulsions-csv", str(self.csv_b),
                "--csv-shape", "point", "--constraint-ball", "30,-160,30", "--starts", "3",
                "--seed", str(self.pool[i % self.pool_size])]

    def request(self, i):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = cli.main(self.argv(i))
        return code, buf.getvalue()

    def digest(self, out):
        return out

    def problems(self, i, out):
        code, text = out
        if code != 0:
            return [f"exit code {code}"]
        doc = json.loads(text)
        return self.solution_problems(np.array(doc["final_x"]), doc["final_value"])


class OracleGrid(_TwoGroupInputs):
    """``grid_search`` on the point-footprint instance, 40x40 shifted grids."""

    name, pool_size, trace_size, shape = "oracle_grid", 32, 16, "point"
    window = (np.array([0.0, -190.0]), np.array([60.0, -130.0]))
    points_per_axis = 40
    reference_seconds = staticmethod(bulk_seconds)

    def make_pool(self, rng):
        return list(rng.uniform(-3.0, 3.0, (self.pool_size, 2)))

    def grid(self, i):
        shift = self.pool[i % self.pool_size]
        return self.window[0] + shift, self.window[1] + shift

    def request(self, i):
        lo, hi = self.grid(i)
        return oracle.grid_search(self.inst, oracle.GridSpec(lo, hi, self.points_per_axis))

    def prepare_reference(self):
        self.attract, self.repel = self.own_sets()
        self.grid_minimum = {}  # pool entry -> own minimum over its projected grid

    def digest(self, out):
        return out.best_x.tobytes(), out.best_value

    def own_grid_minimum(self, i):
        lo, hi = self.grid(i)
        axes = [np.linspace(a, b, self.points_per_axis) for a, b in zip(lo, hi)]
        pts = np.stack(np.meshgrid(*axes, indexing="ij"), -1).reshape(-1, 2)
        pts = project_ball(pts, self.center, self.radius)
        return float(own_objective(pts, self.attract, self.repel).min())

    def problems(self, i, out):
        key = i % self.pool_size
        if key not in self.grid_minimum:
            self.grid_minimum[key] = self.own_grid_minimum(i)
        own_min = self.grid_minimum[key]
        found = []
        if not in_ball(out.best_x, self.center, self.radius):
            found.append(f"best_x {list(out.best_x)} is outside the constraint ball")
        if not close(out.best_value, own_min, VALUE_RTOL):
            found.append(f"best_value {out.best_value!r} != own grid minimum {own_min!r}")
        own = float(own_objective(out.best_x, self.attract, self.repel)[0])
        if not close(out.best_value, own, VALUE_RTOL):
            found.append(f"best_value {out.best_value!r} != objective at best_x {own!r}")
        return found


LINE_INSTANCE = {
    "dimension": 2,
    "attractions": [{"shape": {"kind": "box", "lower": ["-inf", 0], "upper": ["inf", 0]},
                     "weight": 1.0}],
    "repulsions": [
        {"shape": {"kind": "halfspace", "normal": [0, 1], "offset": -1.0}, "weight": 1.0},
        {"shape": {"kind": "halfspace", "normal": [0, -1], "offset": -1.0}, "weight": 1.0},
    ],
    "constraint": {"kind": "ball", "center": [0, 0], "radius": 10.0},
}


class LineFallback(Workload):
    """Five-start solve of the line between two repelling halfplanes.

    f(x) = |x_2| - 2 on the strip |x_2| < 1 and f = -1 (flat) outside it, so
    the global minimum is -2 on the line.  Starts are drawn in the strip
    (``sample_box``): from there every start reaches the line and takes the
    subgradient fallback, which is the path this workload measures.  A start
    in the flat region is already a critical point, ends at -1 after a
    couple of milliseconds and would make the latency bimodal.
    """

    name, pool_size, trace_size = "line_fallback", 16, 2
    center, radius = np.zeros(2), 10.0
    sample_box = (np.array([-10.0, -1.0]), np.array([10.0, 1.0]))
    reference = -2.0  # the global minimum

    def load(self):
        return instance_io.load_instance(self.path)

    def set_up(self):
        self.workdir.mkdir(parents=True, exist_ok=True)
        self.path = self.workdir / "line.json"
        self.path.write_text(json.dumps(LINE_INSTANCE))
        self.inst = self.load()

    def prepare_reference(self):
        self.attract = OwnSets([[-math.inf, 0.0]], [[math.inf, 0.0]])
        self.repel = OwnSets(np.empty((0, 2)), np.empty((0, 2)), [[0, 1], [0, -1]], [-1.0, -1.0])

    def request(self, i):
        return dca.multi_start_solve(self.inst, n_starts=5, seed=self.pool[i % self.pool_size],
                                     sample_box=self.sample_box)


WORKLOADS = {w.name: w for w in (TwoGroup, LineFallback, CliCsv, OracleGrid)}
