"""Tests of the benchmark's own checks, generators and tracer.

    python3 -m pytest perfbench/test_perfbench.py -q
"""

from __future__ import annotations

import contextlib
import io
import sys
import warnings
from pathlib import Path
from types import SimpleNamespace

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import numpy as np  # noqa: E402
import pytest  # noqa: E402

import arcipm.solver  # noqa: E402
import checks  # noqa: E402
import instances  # noqa: E402
import layers  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from arcipm import cli, kkt, step  # noqa: E402
from run import Run, tail  # noqa: E402


def cli_summary(name, trace_path):
    printed = io.StringIO()
    with warnings.catch_warnings(), contextlib.redirect_stdout(printed):
        warnings.simplefilter("ignore", RuntimeWarning)
        cli.main([str(HERE.parent / "problems" / f"{name}.prob"), "--trace", str(trace_path)])
    return printed.getvalue()


def solved(instance):
    final = []
    report = arcipm.solver.solve(instance.program, observer=lambda k, it, sel: final.append(it))
    assert report.status is arcipm.solver.SolverStatus.CONVERGED
    return final[-1]


def test_summary_check_accepts_a_matching_run(tmp_path):
    trace = tmp_path / "trace.csv"
    assert checks.check_summary("ex1", cli_summary("ex1", trace), trace) == []


def test_summary_check_rejects_wrong_status_and_wrong_point(tmp_path):
    trace = tmp_path / "trace.csv"
    text = cli_summary("ex1", trace)
    assert checks.check_summary("ex1", text.replace("Converged", "MaxIter"), trace)
    assert checks.check_summary("ex1", text.replace("x = (1, 1)", "x = (1.02, 1)"), trace)
    assert checks.check_summary("ex1", text.replace("obj = -13", "obj = -12.99"), trace)


def test_summary_check_rejects_a_short_trace(tmp_path):
    trace = tmp_path / "trace.csv"
    text = cli_summary("ex1", trace)
    lines = trace.read_text().splitlines(keepends=True)
    trace.write_text("".join(lines[:-1]))
    assert checks.check_summary("ex1", text, trace)


def test_summary_check_fails_the_known_misses(tmp_path):
    trace = tmp_path / "trace.csv"
    assert checks.check_summary("ex7", cli_summary("ex7", trace), trace)


@pytest.mark.parametrize("build", [lambda rng: instances.boxqp_dense(rng, 4), instances.many_rows])
def test_certificate_accepts_solver_answer_and_rejects_tampering(build):
    instance = build(np.random.default_rng(7))
    last = solved(instance)
    assert checks.kkt_certificate(instance, last.x, last.y, last.w) == []

    nudged = last.x.copy()
    nudged[0] += 1e-3
    assert checks.kkt_certificate(instance, nudged, last.y, last.w)

    flipped = last.w.copy()
    biggest = int(np.argmax(flipped))
    flipped[biggest] = -flipped[biggest]
    assert checks.kkt_certificate(instance, last.x, last.y, flipped)


def test_generators_repeat_per_seed_and_start_infeasible():
    one = instances.many_rows(np.random.default_rng(3))
    two = instances.many_rows(np.random.default_rng(3))
    assert np.array_equal(one.q, two.q) and np.array_equal(one.a_ineq, two.a_ineq)
    assert one.program.n + one.program.m + 3 * one.program.p == 329
    assert np.any(one.b_ineq > 0.0) and np.all(np.abs(one.b_eq) > 0.0)

    box = instances.boxqp_dense(np.random.default_rng(3), 6)
    assert box.program.p == 12 and np.all(np.linalg.eigvalsh(box.q) > 0.0)


def test_tracer_restores_every_binding_even_after_an_error():
    before = spans.current_bindings()
    original_at = kkt.Iterate.__dict__["at"]
    with pytest.raises(RuntimeError):
        with spans.Tracer():
            assert kkt.Iterate.__dict__["at"] is not original_at
            raise RuntimeError("boom")
    after = spans.current_bindings()
    assert all(now is then for now, then in zip(after, before))
    assert step.bisect_sigma.__name__ == "bisect_sigma"


def test_spans_nest_and_self_times_add_up():
    instance = instances.boxqp_dense(np.random.default_rng(1), 2)
    tracer = spans.Tracer()
    tracer.begin_solve(0)
    with tracer:
        arcipm.solver.solve(instance.program)
    tracer.begin_solve(-1)
    names = [span[0] for span in tracer.spans]
    root = names.index("solver.solve")
    assert tracer.spans[root][3] == -1
    assert all(span[3] >= root for span in tracer.spans[root + 1 :])
    assert names.count("kkt.lu_solve") == 3 * names.count("kkt.solve_directions")
    own = tracer.self_times()
    assert min(own) >= 0
    assert sum(own) == tracer.spans[root][2] - tracer.spans[root][1]
    assert set(tracer.solve_ids()) == {0}


def test_layer_metrics_cover_the_solve():
    instance = instances.many_rows(np.random.default_rng(2))
    tracer = spans.Tracer()
    tracer.begin_solve(0)
    with tracer:
        report = arcipm.solver.solve(instance.program)
    tracer.begin_solve(-1)
    root = tracer.spans[0]
    solve = {"solve_id": 0, "wall_s": (root[2] - root[1]) * 1e-9, "iterations": report.iterations,
             "size": (4, 1, 108), "program": instance.program}
    metrics = layers.layer_metrics(tracer, [solve], solve["wall_s"])
    assert metrics["solver.coverage"][0] == pytest.approx(1.0)
    assert metrics["kkt.dim"][0] == 329
    assert metrics["solver.iterations"][0] == report.iterations
    assert metrics["autodiff.passes"][0] == 10


def test_tail_is_the_slowest_sample_with_ten_beyond():
    values = list(range(1, 41))
    assert tail(values) == (30, 75.0)
    assert tail(values[:12])[1] == 50.0


def test_scaled_walls_use_the_reference_samples_around_and_inside_each_solve():
    run = Run(runner=workloads.ManyRows(0, HERE / "out"))
    run.nominal_ms = 4.0
    run.walls = [1.0, 2.0, 3.0]
    run.references = [4.0, 8.0, 8.0, 8.0]  # before each solve, and one after the last
    run.inner_references = [[], [], [2.0, 2.0, 2.0, 2.0, 2.0]]
    # solve 0: median of 4, 8, 8 = 8; solve 1: of 4, 8, 8, 8 = 8;
    # solve 2: of 8, 8, 8 and the five inner 2s = 2
    assert run.scaled_walls() == [0.5, 1.0, 6.0]


def test_probe_samples_at_most_once_per_interval_and_is_not_timed(monkeypatch):
    run = Run(runner=workloads.ManyRows(0, HERE / "out"))
    clock = iter([10.0, 10.05, 10.3, 10.5, 10.55])
    monkeypatch.setattr("run.time", SimpleNamespace(perf_counter=lambda: next(clock)))
    monkeypatch.setattr("run.PROBE_INTERVAL_S", 0.1)
    run.reference_ms = lambda: 1.0
    run._last_probe = 10.0
    run.probe()  # 0 s since the last sample: skipped
    run.probe()  # 0.05 s: skipped
    run.probe()  # 0.3 s: sampled, ends at 10.5
    run.probe()  # 0.05 s since then: skipped
    assert run._inner == [1.0]
    assert run._probe_s == pytest.approx(0.2)
