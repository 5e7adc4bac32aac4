"""tools/ab_pairs.py on two stand-in trees whose benchmark prints fixed results."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parent.parent / "tools" / "ab_pairs.py"

# A stand-in for perfbench/run.py: an env line, then one JSON line whose
# solves_per_s is the seed plus an offset, and whose "correct" flag is fixed
# per tree; at the seed ``crash`` it exits 3 after a line on stderr instead.
# With --trace 1 the JSON line holds per-layer metrics instead: LAYERS plus
# the offset, a raw time, and a NaN step.alpha_mean; with ``trace_crash`` set
# the traced run exits 4.
FAKE_RUN = """\
import json, sys
seed = int(sys.argv[sys.argv.index("--seed") + 1])
traced = sys.argv[sys.argv.index("--trace") + 1] == "1"
if seed == {crash} or (traced and {trace_crash}):
    print("Traceback (most recent call last):", file=sys.stderr)
    print("ValueError: layer metric is NaN", file=sys.stderr)
    sys.exit(4 if traced else 3)
print("env " + json.dumps({{"python": "3", "blas_threads": 1, "seed": seed}}))
if traced:
    layers = {{name: value + {offset} for name, value in {layers}.items()}}
    layers.update({{"step.alpha_mean": float("nan"), "step.select_ms": 0.1}})
    metrics = {{name: {{"value": value}} for name, value in layers.items()}}
else:
    metrics = {{"solves_per_s": {{"value": seed + {offset}}}}}
print(json.dumps({{"correct": {correct}, "metrics": metrics}}))
"""

# The traced stand-in's layer values, before its offset.
LAYERS = {"autodiff.share": 0.25, "kkt.share": 0.5, "step.share": 0.125, "solver.iterations": 12.0,
          "solver.coverage": 0.875, "step.affine_share": 0.0, "step.accept_ratio": 1.0,
          "kkt.lu_solves_per_iter": 3.0}


def make_tree(root: Path, name: str, correct: bool, offset: float, crash: int | None = None,
              trace_crash: bool = False) -> Path:
    tree = root / name
    (tree / "perfbench").mkdir(parents=True)
    (tree / "perfbench" / "run.py").write_text(
        FAKE_RUN.format(correct=correct, offset=offset, crash=crash, trace_crash=trace_crash, layers=LAYERS))
    declared = {"end_to_end": [{"name": "solves_per_s", "unit": "1/s", "better": "higher", "bound": 0.25}]}
    (tree / "BENCHMARK.json").write_text(json.dumps(declared))
    return tree


def run_tool(before: Path, after: Path, *extra: str, seeds: str = "1-4"):
    return subprocess.run(
        [sys.executable, str(TOOL), str(before), str(after), "--workload", "w", "--seeds", seeds,
         "--seconds", "0", *extra],
        capture_output=True,
        text=True,
        check=False,
    )


def metric_row(stdout: str) -> list[str]:
    return next(line for line in stdout.splitlines() if line.startswith("solves_per_s")).split()


def test_correct_runs_exit_zero_with_the_gain_verdict(tmp_path):
    done = run_tool(make_tree(tmp_path, "before", True, 0.0), make_tree(tmp_path, "after", True, 5.0))
    assert done.returncode == 0, done.stderr
    assert "4/4  yes" in done.stdout
    # the medians are 2.5 and 7.5: the after median is 200% above the before median
    assert metric_row(done.stdout)[-4:] == ["+200.0%", "4/4", "yes", "no"]


def test_an_incorrect_run_prints_the_table_then_exits_one(tmp_path):
    done = run_tool(make_tree(tmp_path, "before", True, 0.0), make_tree(tmp_path, "after", False, 5.0))
    assert done.returncode == 1
    assert "4/4  yes" in done.stdout
    assert "after seed 1" in done.stderr and "before seed" not in done.stderr


def test_an_after_median_worse_by_more_than_the_bound_is_flagged(tmp_path):
    # the before median is 2.5, so the bound of 0.25 allows an after median down to 1.875
    before = make_tree(tmp_path, "before", True, 0.0)
    for name, offset, beyond in (("within", -0.5, "no"), ("beyond", -1.0, "yes")):
        done = run_tool(before, make_tree(tmp_path, name, True, offset))
        assert done.returncode == 0, done.stderr
        assert metric_row(done.stdout)[-4:] == [f"{100 * offset / 2.5:+.1f}%", "0/4", "no", beyond]


def test_a_run_that_exits_non_zero_leaves_its_pair_out_then_exits_one(tmp_path):
    before = make_tree(tmp_path, "before", True, 0.0)
    done = run_tool(before, make_tree(tmp_path, "after", True, 5.0, crash=2))
    assert done.returncode == 1
    # the table covers seeds 1, 3 and 4: before 1, 3, 4 against after 6, 8, 9
    assert "3 complete pairs" in done.stdout
    assert metric_row(done.stdout)[1] == "3" and metric_row(done.stdout)[4] == "8"
    assert "3/3  yes" in done.stdout
    assert "after seed 2 (exit 3: ValueError: layer metric is NaN)" in done.stderr
    assert "before seed" not in done.stderr and "Traceback" not in done.stderr


def test_fewer_than_two_complete_pairs_print_no_table(tmp_path):
    done = run_tool(make_tree(tmp_path, "before", True, 0.0, crash=2),
                    make_tree(tmp_path, "after", True, 5.0), seeds="1-2")
    assert done.returncode == 1
    assert "solves_per_s" not in done.stdout
    assert "1 of 2 pairs complete" in done.stderr and "before seed 2 (exit 3" in done.stderr


def test_record_writes_one_entry_per_workload_into_one_file(tmp_path):
    before = make_tree(tmp_path, "before", True, 0.0)
    after = make_tree(tmp_path, "after", True, 5.0, crash=3)
    path = tmp_path / "BENCH_test.json"
    for workload in ("w", "v", "w"):
        done = subprocess.run(
            [sys.executable, str(TOOL), str(before), str(after), "--workload", workload,
             "--seeds", "1-4", "--seconds", "0", "--record", str(path)],
            capture_output=True, text=True, check=False,
        )
        assert done.returncode == 1  # the crash at seed 3
    # strict JSON: no NaN or Infinity
    entries = json.loads(path.read_text(), parse_constant=lambda name: pytest.fail(name))["entries"]
    assert [entry["workload"] for entry in entries] == ["v", "w"]
    entry = entries[1]
    assert set(entry) == {"workload", "seeds", "seconds", "trees", "host",
                          "failed_runs", "incorrect_runs", "metrics", "layers"}
    # the seeds of the complete pairs
    assert entry["seeds"] == [1, 2, 4] and entry["seconds"] == 0
    assert entry["failed_runs"] == ["after seed 3 (exit 3: ValueError: layer metric is NaN)"]
    assert entry["incorrect_runs"] == []
    # the stand-in trees are no checkouts
    assert entry["trees"] == {side: {"head": None, "uncommitted_changes": None} for side in ("before", "after")}
    assert set(entry["host"]) == {"python", "numpy", "scipy", "cpu_count", "blas_threads"}
    assert entry["host"]["blas_threads"] == 1
    row = entry["metrics"]["solves_per_s"]
    assert row["before"] == {"median": 2.0, "q1": 1.5, "q3": 3.0, "values": [1, 2, 4]}
    assert row["after"]["values"] == [6, 7, 9]
    assert (row["unit"], row["better"], row["wins"], row["gain"], row["beyond_bound"]) == ("1/s", "higher", 3, True, False)
    assert row["change_pct"] == 250.0


def test_record_stores_the_scale_free_layer_metrics_of_one_traced_run_per_tree(tmp_path):
    before = make_tree(tmp_path, "before", True, 0.0)
    after = make_tree(tmp_path, "after", True, 5.0)
    path = tmp_path / "BENCH_test.json"
    done = run_tool(before, after, "--record", str(path), seeds="3-4")
    assert done.returncode == 0, done.stderr
    assert "traced run before seed 3 --trace 1 done" in done.stdout
    # strict JSON: the stand-in's NaN is written as null
    entry = json.loads(path.read_text(), parse_constant=lambda name: pytest.fail(name))["entries"][0]
    layers = entry["layers"]
    assert layers["seed"] == 3
    expected = {**LAYERS, "step.alpha_mean": None}
    assert layers["before"] == expected
    assert layers["after"] == {name: None if value is None else value + 5.0 for name, value in expected.items()}
    # the raw time is left out
    assert "step.select_ms" not in layers["after"]
    assert entry["failed_runs"] == [] and entry["incorrect_runs"] == []


def test_a_traced_run_that_exits_non_zero_is_named_and_exits_one(tmp_path):
    before = make_tree(tmp_path, "before", True, 0.0)
    after = make_tree(tmp_path, "after", False, 5.0, trace_crash=True)
    path = tmp_path / "BENCH_test.json"
    done = run_tool(before, after, "--record", str(path), seeds="1-2")
    assert done.returncode == 1
    assert "after seed 1 --trace 1 (exit 4: ValueError: layer metric is NaN)" in done.stderr
    entry = json.loads(path.read_text())["entries"][0]
    assert entry["failed_runs"] == ["after seed 1 --trace 1 (exit 4: ValueError: layer metric is NaN)"]
    # the after tree's plain runs report correct: false; its traced run never finished
    assert entry["incorrect_runs"] == ["after seed 1", "after seed 2"]
    assert entry["layers"]["after"] is None and entry["layers"]["before"]["kkt.share"] == 0.5
