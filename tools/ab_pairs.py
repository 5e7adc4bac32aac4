#!/usr/bin/env python3
"""Alternating A/B pairs of benchmark runs on two source trees.

    python3 tools/ab_pairs.py BEFORE_TREE AFTER_TREE --workload many_rows \\
        --seeds 30-39 --seconds 25

Each seed is one pair: ``perfbench/run.py --trace 0`` runs once in each
tree, with the tree that goes first alternating from pair to pair.  For
every end-to-end metric that BEFORE_TREE's ``BENCHMARK.json`` declares,
the tool prints each side's median and quartiles, how far the after median
moved as a percentage of the before median, and how many pairs the after
side won (ties count for neither side).  A gain is claimed only when
the after side wins at least nine tenths of the pairs and the medians
differ by more than the before side's interquartile range.  The last
column is the rule a change that claims no gain is held to: the after
median is worse than the before median by more than the metric's
``bound``, a fraction of the before median.  When any run
reports ``"correct": false``, the tool still prints the table, then names
those runs and exits with status 1, so no gain rests on an incorrect run.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path


def seed_list(text: str) -> list[int]:
    """'30-39' or '1,4,9' (or a mix) as a list of seeds."""
    seeds = []
    for part in text.split(","):
        first, _, last = part.partition("-")
        seeds += range(int(first), int(last or first) + 1)
    return seeds


def run_once(tree: Path, workload: str, seed: int, seconds: float) -> tuple[dict, bool]:
    """(end-to-end metric values, whether the run reports its results correct)."""
    command = [sys.executable, "perfbench/run.py", "--workload", workload,
               "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    done = subprocess.run(command, cwd=tree, capture_output=True, text=True, check=True)
    result = json.loads(done.stdout.strip().splitlines()[-1])
    return {name: entry["value"] for name, entry in result["metrics"].items()}, bool(result["correct"])


def quartiles(values: list[float]) -> tuple[float, float, float]:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, median, q3


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("before", type=Path)
    parser.add_argument("after", type=Path)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=seed_list, required=True, help="e.g. 30-39 or 1,4,9")
    parser.add_argument("--seconds", type=float, default=25.0)
    args = parser.parse_args(argv)
    if len(args.seeds) < 2:
        parser.error("need at least two pairs")

    declared = json.loads((args.before / "BENCHMARK.json").read_text())["end_to_end"]
    runs = {"before": [], "after": []}
    incorrect = []
    for index, seed in enumerate(args.seeds):
        order = ("before", "after") if index % 2 == 0 else ("after", "before")
        for side in order:
            metrics, correct = run_once(getattr(args, side), args.workload, seed, args.seconds)
            runs[side].append(metrics)
            if not correct:
                incorrect.append(f"{side} seed {seed}")
        print(f"pair {index + 1}/{len(args.seeds)} (seed {seed}, {order[0]} first) done", flush=True)

    pairs = len(args.seeds)
    print(f"\n{args.workload}: {pairs} pairs at --seconds {args.seconds:g}, seeds {args.seeds}")
    print(f"{'metric':14s} {'before median [q1, q3]':>30s} {'after median [q1, q3]':>30s}"
          f"  {'change':>8s}  wins  gain  beyond bound")
    for metric in declared:
        name, higher = metric["name"], metric["better"] == "higher"
        before = [run[name] for run in runs["before"]]
        after = [run[name] for run in runs["after"]]
        wins = sum((a > b) if higher else (a < b) for a, b in zip(after, before))
        b1, b_med, b3 = quartiles(before)
        a1, a_med, a3 = quartiles(after)
        moved = (a_med - b_med) if higher else (b_med - a_med)
        gain = wins >= 0.9 * pairs and moved > b3 - b1
        worse = -moved > metric["bound"] * abs(b_med)
        change = f"{100.0 * (a_med - b_med) / abs(b_med):+.1f}%" if b_med else "n/a"
        print(f"{name:14s} {b_med:12.4g} [{b1:.4g}, {b3:.4g}] {a_med:12.4g} [{a1:.4g}, {a3:.4g}]"
              f"  {change:>8s}  {wins:2d}/{pairs}  {'yes' if gain else 'no '}  {'yes' if worse else 'no'}")
        print(f"{'':14s} before {', '.join(f'{v:.4g}' for v in before)}")
        print(f"{'':14s} after  {', '.join(f'{v:.4g}' for v in after)}")
    if incorrect:
        print(f"\nerror: runs reporting correct: false: {', '.join(incorrect)}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
