"""Self-tests of the benchmark: python3 -m pytest bench/test_bench.py"""

import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import dcloc  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


def test_same_seed_writes_identical_csvs(tmp_path):
    texts = []
    for seed, sub in ((7, "a"), (7, "b"), (8, "c")):
        wl = workloads.CliCsv(seed, tmp_path / sub)
        wl.set_up()
        texts.append((wl.csv_a.read_bytes(), wl.csv_b.read_bytes()))
    assert texts[0] == texts[1]
    assert texts[0][0] != texts[2][0] and texts[0][1] != texts[2][1]
    group_a, group_b = workloads.generate_groups(7)
    assert group_a.shape == (1097, 2) and group_b.shape == (120, 2)


def test_perturbed_solution_counts_as_failed(tmp_path):
    wl = workloads.LineFallback(3, tmp_path)
    wl.set_up()
    wl.prepare_reference()
    good = SimpleNamespace(final_x=np.array([3.0, 0.0]), final_value=-2.0)
    runner = run.Runner(wl)
    runner.records = [
        (0, good, []),
        (1, SimpleNamespace(final_x=good.final_x, final_value=-2.0 + 1e-6), []),  # off the objective
        (2, SimpleNamespace(final_x=np.array([3.0, 1.5]), final_value=-1.0), []),  # a worse critical point
        (3, SimpleNamespace(final_x=np.array([10.5, 0.0]), final_value=-2.0), []),  # infeasible
        (16, SimpleNamespace(final_x=np.array([4.0, 0.0]), final_value=-2.0), []),  # repeat of 0, differs
        (5, None, ["raised RuntimeError: boom"]),
    ]
    problems = runner.check_all()
    assert runner.failed() == 5
    assert not runner.records[0][2]
    assert any("differs" in p for p in runner.records[4][2]), problems


def test_perturbed_oracle_result_counts_as_failed(tmp_path):
    wl = workloads.OracleGrid(2, tmp_path)
    wl.set_up()
    wl.prepare_reference()
    out = wl.request(0)
    assert wl.check(0, out) == []
    bumped = SimpleNamespace(best_x=out.best_x, best_value=out.best_value * (1 + 1e-7))
    # grid minimum, objective at best_x and the earlier output of the same request
    assert len(wl.check(wl.pool_size, bumped)) == 3


def _span(name, start, end, parent):
    return [name, start, end, parent, 0, None]


def test_self_time_arithmetic_on_nested_spans():
    spans = [
        _span("root", 0.0, 10.0, -1),
        _span("a", 1.0, 4.0, 0),
        _span("a.child", 2.0, 3.0, 1),
        _span("b", 5.0, 9.0, 0),
    ]
    assert tracing.self_times(spans) == [3.0, 2.0, 1.0, 4.0]
    meta = {"root": ("dca", "dca.multi_start"), "a": ("inner", "inner.solve"),
            "a.child": ("model", "model.projections"), "b": ("inner", "inner.solve")}
    t = tracing.tally(spans, meta)
    assert (t["self.dca"], t["self.inner"], t["self.model"]) == (3.0, 6.0, 1.0)
    assert t["self.dca"] + t["self.inner"] + t["self.model"] == 10.0
    assert (t["n.inner.solve"], t["t.inner.solve"]) == (2, 7.0)


def test_self_time_takes_the_union_of_overlapping_children():
    spans = [
        _span("root", 0.0, 10.0, -1),
        _span("late", 6.0, 12.0, 0),  # listed first, overlaps the next, overruns the parent
        _span("early", 2.0, 8.0, 0),
    ]
    assert tracing.self_times(spans)[0] == 2.0


def test_tracer_records_a_solve_and_restores_the_originals():
    original = dcloc.dca.multi_start_solve
    original_project = vars(dcloc.geometry.Ball)["project"]
    inst = dcloc.ProblemInstance(
        2,
        [dcloc.WeightedSet(dcloc.Singleton([3.0, 0.0]), 2.0)],
        [dcloc.WeightedSet(dcloc.Ball([0.0, 0.0], 0.5), 1.0)],
        dcloc.Ball([0.0, 0.0], 5.0),
    )
    tracer = tracing.Tracer()
    with tracing.installed(tracer):
        assert dcloc.dca.multi_start_solve is not original
        dcloc.dca.multi_start_solve(inst, n_starts=2, seed=0)
    assert dcloc.dca.multi_start_solve is original
    assert vars(dcloc.geometry.Ball)["project"] is original_project
    spans = tracer.take()
    root = [s for s in spans if s[3] == -1]
    assert len(root) == 1 and root[0][0] == "dca.multi_start_solve"
    assert abs(sum(tracing.self_times(spans)) - (root[0][2] - root[0][1])) < 1e-9
    m = tracing.layer_metrics(tracing.tally(spans, tracer.meta), 1)
    assert m["dca.starts"] == 2 and m["inner.solves"] >= 2 and m["dca.starts_at_best_frac"] > 0
