"""tools/ab_pairs.py on two stand-in trees whose benchmark prints fixed results."""

import json
import subprocess
import sys
from pathlib import Path

TOOL = Path(__file__).resolve().parent.parent / "tools" / "ab_pairs.py"

# A stand-in for perfbench/run.py: one JSON line whose solves_per_s is the
# seed plus an offset, and whose "correct" flag is fixed per tree.
FAKE_RUN = """\
import json, sys
seed = int(sys.argv[sys.argv.index("--seed") + 1])
print(json.dumps({{"correct": {correct}, "metrics": {{"solves_per_s": {{"value": seed + {offset}}}}}}}))
"""


def make_tree(root: Path, name: str, correct: bool, offset: float) -> Path:
    tree = root / name
    (tree / "perfbench").mkdir(parents=True)
    (tree / "perfbench" / "run.py").write_text(FAKE_RUN.format(correct=correct, offset=offset))
    declared = {"end_to_end": [{"name": "solves_per_s", "better": "higher", "bound": 0.25}]}
    (tree / "BENCHMARK.json").write_text(json.dumps(declared))
    return tree


def run_tool(before: Path, after: Path):
    return subprocess.run(
        [sys.executable, str(TOOL), str(before), str(after), "--workload", "w", "--seeds", "1-4", "--seconds", "0"],
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
