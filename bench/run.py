"""dcloc benchmark: one seeded workload, a closed loop with one client.

    python3 bench/run.py --workload two_group --seed 1 --seconds 20 --trace 0

Run it from the root of a dcloc checkout; it imports dcloc from ``src/``.
``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
metrics of a separate traced run.  The last line of standard output is one
JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``.  See bench/README.md.
"""

from __future__ import annotations

import argparse
import gzip
import json
import os
import platform
import statistics
import sys
import time
import tracemalloc
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / "bench" / "out"
WORKLOAD_NAMES = ("two_group", "line_fallback", "cli_csv", "oracle_grid")
SETUP_REPEATS = 5
MIN_REQUESTS = 5
# the traced layers must account for the traced request: sum of self times / wall
MIN_ATTRIBUTED = 0.95
BLAS_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")

UNITS = {"setup_s": "s", "request_rel.p50": "ratio", "request_rel.p90": "ratio",
         "peak_mib": "MiB", "request_ms.p50": "ms", "request_ms.p90": "ms",
         "requests_per_s": "1/s", "failed_frac": "fraction"}


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=float)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def unit_of(name: str) -> str:
    if name in UNITS:
        return UNITS[name]
    suffix = name.rsplit("_", 1)[-1]
    return {"ms": "ms", "us": "us", "frac": "fraction"}.get(suffix, "count")


class Runner:
    """Issues requests, times them and keeps every output for the checks."""

    def __init__(self, workload):
        self.wl = workload
        self.records: list[tuple[int, object, list[str]]] = []  # (request, output, problems)

    def call(self, i: int):
        try:
            out = self.wl.request(i)
        except Exception as exc:  # a request that raises counts as failed
            self.records.append((i, None, [f"raised {type(exc).__name__}: {exc}"]))
            return None
        self.records.append((i, out, []))
        return out

    def loop(self, n_distinct: int, seconds: float, after=None,
             whole_passes: bool = False) -> list[float]:
        """Closed loop over requests 0 .. n_distinct - 1, cycled, for
        ``seconds``; ``after(i, latency)`` runs after the i-th request.
        Returns the latencies."""
        latencies = []
        clock = time.perf_counter
        deadline = clock() + seconds
        i = 0
        while i < MIN_REQUESTS or (whole_passes and i % n_distinct) or clock() < deadline:
            t0 = clock()
            self.call(i % n_distinct)
            latencies.append(clock() - t0)
            if after is not None:
                after(i, latencies[-1])
            i += 1
        return latencies

    def check_all(self) -> list[str]:
        """Run the workload's checks on every output; one line per problem."""
        for i, out, problems in self.records:
            if out is not None:
                problems += self.wl.check(i, out)
        return [f"request {i}: {p}" for i, _, problems in self.records for p in problems]

    def failed(self) -> int:
        return sum(bool(problems) for _, _, problems in self.records)


def percentile(values: list[float], q: int) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def traced_run(runner, wl, seconds, tracing):
    """Untraced then traced passes over the first ``trace_size`` requests."""
    plain = runner.loop(wl.trace_size, seconds / 2)
    tracer = tracing.Tracer()
    totals: dict[str, float] = {}
    first_pass: list[list[list]] = []  # spans of the first pass, one list per request
    attributed = []
    with tracing.installed(tracer):
        wl.load()
        setup_load = tracing.tally(tracer.take(), tracer.meta)

        def after(i, wall):
            spans = tracer.take()
            if i < wl.trace_size:
                first_pass.append(spans)
            own = sum(tracing.self_times(spans))
            attributed.append(own / wall)
            if not MIN_ATTRIBUTED <= own / wall <= 1.0 + 1e-9:
                runner.records[-1][2].append(
                    f"layer self times {own:.6f} s vs traced request {wall:.6f} s")
            for key, value in tracing.tally(spans, tracer.meta).items():
                totals[key] = totals.get(key, 0.0) + value
            tracer.request = i + 1

        tracer.request = 0
        traced = runner.loop(wl.trace_size, seconds / 2, after, whole_passes=True)
    metrics = tracing.layer_metrics(totals, len(traced))
    if not totals.get("n.instance_io.load"):
        # requests do not load; report the load done in set-up instead
        metrics["instance_io.load_ms"] = setup_load.get("t.instance_io.load", 0.0) * 1e3
    metrics["trace.overhead_frac"] = statistics.median(traced) / statistics.median(plain) - 1.0
    metrics["trace.attributed_frac"] = statistics.fmean(attributed)
    metrics["trace.request_ms"] = statistics.median(traced) * 1e3
    OUT.mkdir(parents=True, exist_ok=True)
    path = OUT / f"{wl.name}-seed{wl.seed}-spans.tsv.gz"
    with gzip.open(path, "wt", compresslevel=1) as fh:
        fh.write("request\tspan\tparent\tlayer\tname\tstart_s\tend_s\n")
        for spans in first_pass:
            for k, (name, start, end, parent, request, _) in enumerate(spans):
                fh.write(f"{request}\t{k}\t{parent}\t{tracer.meta[name][0]}\t{name}\t"
                         f"{start!r}\t{end!r}\n")
    samples = {"untraced_requests": len(plain), "traced_requests": len(traced)}
    return metrics, samples


def main(argv=None) -> int:
    args = parse_args(argv)
    src = ROOT / "src"
    if not (src / "dcloc" / "__init__.py").is_file():
        print(f"error: no dcloc sources at {src}; run from a dcloc checkout", file=sys.stderr)
        return 2
    for var in BLAS_THREAD_VARS:  # one thread: set before numpy is imported
        os.environ[var] = "1"
    sys.path.insert(0, str(src))
    import numpy

    import dcloc
    if Path(dcloc.__file__).resolve().parent != (src / "dcloc").resolve():
        print(f"error: imported dcloc from {dcloc.__file__}, not {src}", file=sys.stderr)
        return 2
    import tracing
    from workloads import WORKLOADS

    wl = WORKLOADS[args.workload](args.seed, OUT / f"{args.workload}-seed{args.seed}")
    runner = Runner(wl)
    setup_times = []

    def set_up():
        t0 = time.perf_counter()
        wl.set_up()
        runner.call(0)  # warm-up request
        setup_times.append(time.perf_counter() - t0)

    set_up()
    wl.prepare_reference()
    shown = {}  # printed and stored, but not in the result's metrics
    if args.trace:
        metrics, samples = traced_run(runner, wl, args.seconds, tracing)
        timeline = {"setup_s": setup_times}
    else:
        tracemalloc.start()
        runner.call(0)
        peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
        # the remaining set-ups are spread over the run, so that their median
        # sees the same machine as the requests
        interval = args.seconds / SETUP_REPEATS
        next_setup = time.perf_counter() + interval
        relative = []  # request time over the mean reference kernel time around it
        before = wl.reference_seconds()

        def between(i, latency):
            nonlocal before, next_setup
            after = wl.reference_seconds()
            relative.append(latency / (0.5 * (before + after)))
            before = after
            if len(setup_times) < SETUP_REPEATS and time.perf_counter() >= next_setup:
                set_up()
                next_setup += interval
                before = wl.reference_seconds()

        latencies = runner.loop(wl.pool_size, args.seconds, between)
        metrics = {
            "setup_s": statistics.median(setup_times),
            "request_rel.p50": statistics.median(relative),
            "request_rel.p90": percentile(relative, 90),
            "peak_mib": peak / 2**20,
        }
        # raw latencies follow the host's speed, which changed by up to 1.6x
        # between runs (bench/README.md), so they are shown without a bound
        shown.update({
            "request_ms.p50": statistics.median(latencies) * 1e3,
            "request_ms.p90": percentile(latencies, 90) * 1e3,
            "requests_per_s": len(latencies) / sum(latencies),
        })
        samples = {"setup": len(setup_times), "timed_requests": len(latencies), "peak_requests": 1}
        timeline = {"setup_s": setup_times, "request_s": latencies, "request_rel": relative}

    failures = runner.check_all()
    failed = runner.failed()
    attempted = len(runner.records)
    shown["failed_frac"] = failed / attempted
    env = {"nproc": len(os.sched_getaffinity(0)), "cpu": cpu_model(),
           "python": platform.python_version(), "numpy": numpy.__version__,
           "blas_threads": os.environ["OPENBLAS_NUM_THREADS"], "workload": args.workload,
           "seed": args.seed, "seconds": args.seconds, "trace": args.trace, **samples}
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": {k: {"value": v, "unit": unit_of(k)} for k, v in metrics.items()}}

    OUT.mkdir(parents=True, exist_ok=True)
    (OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps({"env": env, "failures": failures, **result, "shown": shown,
                    "timeline": timeline}) + "\n")
    for line in failures[:10]:
        print(f"FAILED {line}", file=sys.stderr)
    print("# env " + " ".join(f"{k}={v}" for k, v in env.items()))
    for name, value in {**metrics, **shown}.items():
        print(f"{args.workload:14s} {name:28s} {value:14.6g} {unit_of(name)}")
    print(f"{args.workload:14s} failed {failed} of {attempted} requests")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
