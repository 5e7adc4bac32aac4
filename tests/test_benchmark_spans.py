"""The benchmark's per-layer spans still record on the paths the solver runs.

``perfbench/spans.py`` times each layer by rebinding solver names; a span
whose name is no longer called on the workloads' path records nothing, and
a layer metric that is a median of its spans is then NaN, which the
benchmark's closing JSON line refuses.  The first test runs the workloads'
kinds of solve under the tracer and checks that every rebound name
records; the second runs each workload's traced benchmark run end to end.
"""

import json
import math
import subprocess
import sys
from collections import Counter

import numpy as np
import pytest

import arcipm.solver
from arcipm import SolverStatus, cli
from conftest import PERFBENCH_DIR, PROBLEM_DIR, perfbench_module

# Rebound names that no solve calls: solve() keeps the arc_point import only
# for the tracer, and select_step reads MuPredictor, not mu_coefficients.
# ROADMAP item 27 reads the benchmark's layers from elsewhere and then drops both.
SILENT = {"step.arc_point", "step.mu_coefficients"}


def test_every_rebound_name_records_a_span(tmp_path, capsys):
    spans = perfbench_module("spans")
    instances = perfbench_module("instances")
    rng = np.random.default_rng(0)
    programs = [instances.many_rows(rng).program, instances.boxqp_dense(rng, 4).program]
    with spans.Tracer() as tracer:
        for k in range(1, 9):
            trace = tmp_path / f"ex{k}.csv"
            assert cli.main([str(PROBLEM_DIR / f"ex{k}.prob"), "--trace", str(trace)]) == 0
        for program in programs:
            # looked up at call time, as the QP workloads do
            assert arcipm.solver.solve(program).status is SolverStatus.CONVERGED
    capsys.readouterr()
    recorded = Counter(span[0] for span in tracer.spans)
    names = {name for _, _, name, _ in spans.targets()}
    assert names - set(recorded) == SILENT


@pytest.mark.parametrize(
    ("workload", "seed"),
    [
        pytest.param("samples", 1, id="samples"),
        pytest.param("boxqp_dense", 1, id="boxqp_dense"),
        pytest.param("many_rows", 1, id="many_rows"),
        # no timed solve of these passes reached golden_min_bu under the
        # paper's rule from the balanced start, so step.golden_ms was NaN
        pytest.param("boxqp_dense", 5, id="boxqp_dense-seed5"),
        pytest.param("many_rows", 8, id="many_rows-seed8"),
    ],
)
def test_traced_benchmark_run_exits_zero_with_finite_metrics(workload, seed):
    # one pass of each workload, about a second; output goes to the
    # benchmark's git-ignored out/ directory
    command = [sys.executable, str(PERFBENCH_DIR / "run.py"), "--workload", workload,
               "--seed", str(seed), "--seconds", "0", "--trace", "1"]
    done = subprocess.run(command, cwd=PERFBENCH_DIR.parent, capture_output=True, text=True, timeout=600)
    assert done.returncode == 0, done.stderr[-2000:]
    result = json.loads(done.stdout.splitlines()[-1])
    assert result["correct"] is True
    assert result["metrics"]
    not_finite = {name: metric["value"] for name, metric in result["metrics"].items()
                  if not math.isfinite(metric["value"])}
    assert not not_finite
