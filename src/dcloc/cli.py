"""Command-line front end.

Subcommands:

* ``solve``     -- run the d.c. solver on a JSON instance (or CSV point groups)
* ``existence`` -- run the existence classifier
* ``classify``  -- stationarity/criticality of a point (two-set instances)
* ``oracle``    -- brute-force grid search
* ``gen``       -- generate a seeded synthetic two-group point fixture

Exit codes: 0 success, 2 validation/parse failure, 3 solver failure.  All
randomness derives from ``--seed`` through the counter-based Philox generator,
which is recorded in the report.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys

import numpy as np

from . import analysis, dca, instance_io, oracle
from .geometry import Ball, GeometryError
from .inner import InnerConfig, NotInConstraint
from .model import ProblemInstance, _constraint_meetings, existence_classify, require_valid
from .model import validate_instance  # noqa: F401  bench/tracing.py wraps it by this name

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_SOLVER = 3


def _parse_point(text: str) -> np.ndarray:
    try:
        point = np.array([float(t) for t in text.split(",")])
    except ValueError:
        raise instance_io.ParseError(f"bad coordinate list {text!r}")
    if not np.all(np.isfinite(point)):
        raise instance_io.ParseError(f"non-finite value in coordinate list {text!r}")
    return point


def _parse_grid(text: str) -> tuple[float, float, int]:
    # format: "lo..hi@m"
    try:
        span, m = text.split("@")
        lo, hi = span.split("..")
        lo, hi, m = float(lo), float(hi), int(m)
    except ValueError:
        raise instance_io.ParseError(f"bad grid spec {text!r}, expected lo..hi@m")
    return lo, hi, m


def _emit(doc: dict, output: str | None) -> None:
    text = json.dumps(doc, indent=2, sort_keys=True) + "\n"
    if output:
        with open(output, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _load_solve_instance(args) -> ProblemInstance:
    if args.instance:
        return instance_io.load_instance(args.instance)
    if not args.attractions_csv:
        raise instance_io.ParseError(
            "provide --instance or --attractions-csv"
        )

    def load(path):
        return instance_io.load_points_csv(path, shape=args.csv_shape, half_side=args.half_side)

    attractions = load(args.attractions_csv)
    repulsions = load(args.repulsions_csv) if args.repulsions_csv else []
    if not args.constraint_ball:
        raise instance_io.ParseError("CSV input needs --constraint-ball cx,...,r")
    parts = _parse_point(args.constraint_ball)
    try:
        constraint = Ball(parts[:-1], parts[-1])
    except GeometryError as exc:
        raise instance_io.ParseError(f"bad --constraint-ball: {exc}") from exc
    dim = attractions[0].set.dim
    return require_valid(ProblemInstance(dim, attractions, repulsions, constraint))


def _write_trajectory(path: str, trajectory, dim: int) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["k"] + [f"x_{i + 1}" for i in range(dim)] + ["f", "step_norm"])
        for pt in trajectory:
            writer.writerow(
                [pt.k] + [repr(float(c)) for c in pt.x] + [repr(pt.f_value), repr(pt.step_norm)]
            )


def _cmd_solve(args) -> int:
    if args.starts < 1:
        raise instance_io.ValidationError(f"--starts must be at least 1, got {args.starts}")
    inst = _load_solve_instance(args)
    # the loaders have checked the structure; only the constraint meetings remain
    warnings = _constraint_meetings(inst)
    try:
        cfg = dca.DcaConfig(
            lam=args.lam,
            max_outer=args.max_outer,
            outer_step_tol=args.outer_tol,
            inner=InnerConfig(max_iters=args.inner_iters, step_tol=args.inner_tol),
            record_trajectory=args.trajectory is not None,
        )
    except ValueError as exc:
        raise instance_io.ValidationError(f"bad solver option: {exc}") from exc
    if args.starts > 1 or args.x0 is None:
        report = dca.multi_start_solve(
            inst, cfg, n_starts=args.starts, seed=args.seed
        )
    else:
        x0 = _parse_point(args.x0)
        if x0.shape != (inst.dimension,):
            raise instance_io.ValidationError(
                f"--x0 has {x0.size} coordinates, the instance has dimension {inst.dimension}"
            )
        report = dca.dca_solve(inst, x0, cfg)
    if args.trajectory and report.trajectory is not None:
        _write_trajectory(args.trajectory, report.trajectory, inst.dimension)
    _emit(
        {
            "final_x": report.final_x.tolist(),
            "final_value": report.final_value,
            "outer_iterations": report.outer_iterations,
            "termination": report.termination,
            "criticality_residual": report.criticality_residual,
            "inner_methods_used": report.inner_methods_used,
            "seed": args.seed,
            "prng": "philox",
            "warnings": warnings,
        },
        args.output,
    )
    return EXIT_OK


def _cmd_existence(args) -> int:
    inst = instance_io.load_instance(args.instance)
    report = existence_classify(inst)
    _emit(
        {
            "verdict": report.verdict,
            "rule": report.rule,
            "objective_bound": report.objective_bound,
            "imbalance": None
            if report.imbalance is None
            else report.imbalance.tolist(),
            "majority_index": report.majority_index,
            "infimum": report.infimum,
        },
        args.output,
    )
    return EXIT_OK


def _cmd_classify(args) -> int:
    inst = instance_io.load_instance(args.instance)
    if len(inst.attractions) != 1 or len(inst.repulsions) != 1:
        raise instance_io.ValidationError(
            "classification needs exactly one attraction and one repulsion set"
        )
    special = analysis.SpecialInstance(
        omega=inst.attractions[0].set,
        theta=inst.repulsions[0].set,
        alpha=inst.attractions[0].weight,
        beta=inst.repulsions[0].weight,
    )
    result = analysis.classify_point(special, _parse_point(args.point), tol=args.tol)
    _emit(
        {
            "stationary": result.stationary,
            "critical": result.critical,
            "witness": None if result.witness is None else result.witness.tolist(),
        },
        args.output,
    )
    return EXIT_OK


def _cmd_oracle(args) -> int:
    inst = instance_io.load_instance(args.instance)
    lo, hi, m = _parse_grid(args.grid)
    try:
        spec = oracle.GridSpec(
            lower=np.full(inst.dimension, lo),
            upper=np.full(inst.dimension, hi),
            points_per_axis=m,
        )
    except ValueError as exc:
        raise instance_io.ParseError(f"bad grid spec {args.grid!r}: {exc}") from exc
    result = oracle.grid_search(inst, spec)
    _emit(
        {
            "best_x": result.best_x.tolist(),
            "best_value": result.best_value,
            "evaluations": result.evaluations,
            "spacing": result.spacing,
        },
        args.output,
    )
    return EXIT_OK


def _cmd_gen(args) -> int:
    """Write two CSV point groups mimicking a mainland/offshore split."""
    rng = np.random.Generator(np.random.Philox(args.seed))
    group_a = np.column_stack(
        [rng.uniform(25.0, 49.0, args.group_a), rng.uniform(-124.0, -67.0, args.group_a)]
    )
    half = args.group_b // 2
    island = np.column_stack(
        [rng.uniform(19.0, 22.0, half), rng.uniform(-160.0, -154.0, half)]
    )
    north = np.column_stack(
        [
            rng.uniform(55.0, 71.0, args.group_b - half),
            rng.uniform(-165.0, -130.0, args.group_b - half),
        ]
    )
    group_b = np.vstack([island, north])
    for name, pts in (("group_a.csv", group_a), ("group_b.csv", group_b)):
        path = f"{args.out_dir}/{name}"
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["lat", "lon"])
            for row in pts:
                writer.writerow([repr(float(c)) for c in row])
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dcloc",
        description="Location solver for weighted attraction/repulsion distance sums",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    solve = sub.add_parser("solve", help="run the d.c. solver")
    solve.add_argument("--instance", help="JSON instance file")
    solve.add_argument("--attractions-csv", help="CSV of attraction points")
    solve.add_argument("--repulsions-csv", help="CSV of repulsion points")
    solve.add_argument(
        "--csv-shape", choices=["point", "square"], default="point",
        help="shape built around each CSV row",
    )
    solve.add_argument("--half-side", type=float, default=5.0)
    solve.add_argument("--constraint-ball", help="cx,...,r ball constraint for CSV input")
    solve.add_argument("--lambda", dest="lam", type=float, default=1.0)
    solve.add_argument(
        "--max-outer", type=int, default=200,
        help="budget of inner solves, refused extrapolations included",
    )
    solve.add_argument("--outer-tol", type=float, default=1e-8)
    solve.add_argument("--inner-iters", type=int, default=1000)
    solve.add_argument("--inner-tol", type=float, default=1e-10)
    solve.add_argument("--starts", type=int, default=1)
    solve.add_argument("--seed", type=int, default=0)
    solve.add_argument("--x0", help="comma-separated start point")
    solve.add_argument("--trajectory", help="write trajectory CSV (accepted iterates) here")
    solve.add_argument("--output", help="report path (stdout if omitted)")
    solve.set_defaults(func=_cmd_solve)

    existence = sub.add_parser("existence", help="existence classifier")
    existence.add_argument("--instance", required=True)
    existence.add_argument("--output")
    existence.set_defaults(func=_cmd_existence)

    classify = sub.add_parser("classify", help="classify a candidate point")
    classify.add_argument("--instance", required=True)
    classify.add_argument("--point", required=True, help="comma-separated coordinates")
    classify.add_argument("--tol", type=float, default=1e-9)
    classify.add_argument("--output")
    classify.set_defaults(func=_cmd_classify)

    oracle_cmd = sub.add_parser("oracle", help="brute-force grid search")
    oracle_cmd.add_argument("--instance", required=True)
    oracle_cmd.add_argument("--grid", required=True, help='grid spec "lo..hi@m"')
    oracle_cmd.add_argument("--output")
    oracle_cmd.set_defaults(func=_cmd_oracle)

    gen = sub.add_parser("gen", help="generate synthetic point-group CSVs")
    gen.add_argument("--seed", type=int, default=0)
    gen.add_argument("--out-dir", required=True)
    gen.add_argument("--group-a", type=int, default=1097)
    gen.add_argument("--group-b", type=int, default=120)
    gen.set_defaults(func=_cmd_gen)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (instance_io.ParseError, instance_io.ValidationError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except (NotInConstraint, oracle.BudgetExceeded, oracle.EmptyIntersection, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_SOLVER


if __name__ == "__main__":
    sys.exit(main())
