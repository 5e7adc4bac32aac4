#!/usr/bin/env python3
"""Alternating A/B pairs of benchmark runs on two source trees.

    python3 tools/ab_pairs.py BEFORE_TREE AFTER_TREE --workload many_rows \\
        --seeds 30-39 --seconds 25 [--record BENCH_x.json]

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
``bound``, a fraction of the before median.

A run that exits with a non-zero status has failed: its pair is left out
of the medians and the wins, and the table covers the complete pairs
(at least two are needed).  When any run failed or reports
``"correct": false``, the tool still prints the table, then names those
runs on standard error, each failed one with its exit status and the last
line of its standard error, and exits with status 1, so no gain rests on
an incorrect or missing run.

``--record FILE`` also runs ``perfbench/run.py --trace 1`` once in each
tree at the first seed, then writes the comparison into the JSON trajectory
file FILE, creating it or replacing its entry for the same workload and
keeping the others.  A traced run that exits non-zero or reports
``"correct": false`` is named like a plain one, with ``--trace 1`` after
its seed, and the tool exits with status 1.  The file is one object,
``{"entries": [ENTRY, ...]}``, and each ENTRY is::

    {"workload": str, "seeds": [int], "seconds": float,
     "trees": {"before": TREE, "after": TREE},
     "host": {"python": str, "numpy": str, "scipy": str,
              "cpu_count": int, "blas_threads": int | null},
     "failed_runs": [str], "incorrect_runs": [str],
     "metrics": {NAME: {"unit": str, "better": "higher" | "lower",
                        "before": SIDE, "after": SIDE, "change_pct": float | null,
                        "wins": int, "gain": bool, "beyond_bound": bool}},
     "layers": {"seed": int, "before": LAYERS | null, "after": LAYERS | null}}

    TREE = {"head": str | null, "uncommitted_changes": bool | null}
    SIDE = {"median": float, "q1": float, "q3": float, "values": [float]}
    LAYERS = {LAYER_NAME: float | null}

``seeds`` are those of the complete pairs.  ``head`` is the tree's
``git rev-parse HEAD``, null outside a checkout, and ``uncommitted_changes``
whether ``git status --porcelain`` lists anything.  The versions and CPU
count are this interpreter's, which runs both trees' benchmarks;
``blas_threads`` is the thread pin a run reports on its ``env`` line.
``values`` are in pair order, and ``change_pct`` is the after median's
move as a percentage of the before median.  ``layers`` holds, for each
tree, the traced run's values of the scale-free per-layer metrics in
``LAYER_METRICS`` (shares, counts and ratios), each null where the run
reports it as NaN or not at all; a side is null when its traced run exits
non-zero.  The per-layer times are left out, since they are raw and
follow the host's speed, and so are the metrics that no longer measure
what their names say: ``autodiff.passes`` (n(n+1)/2 per call, not a
count of walks), ``kkt.dim`` (n + m + 3p, not the factored n + m),
``step.mu_coeff_calls_per_iter`` (a function the solver no longer
calls), ``step.backtracks_per_iter`` (angles the screen skips count too)
and ``trace_overhead_share`` (unscaled walls, so host drift outweighs
the tracing).  The file is written without NaN or infinity.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import statistics
import subprocess
import sys
from importlib import metadata
from pathlib import Path

# The per-layer metrics --record stores from one traced run per tree.
LAYER_METRICS = (
    "autodiff.share", "kkt.share", "step.share", "solver.iterations", "solver.coverage",
    "step.affine_share", "step.accept_ratio", "step.alpha_mean", "kkt.lu_solves_per_iter",
)


def seed_list(text: str) -> list[int]:
    """'30-39' or '1,4,9' (or a mix) as a list of seeds."""
    seeds = []
    for part in text.split(","):
        first, _, last = part.partition("-")
        seeds += range(int(first), int(last or first) + 1)
    return seeds


def run_once(tree: Path, workload: str, seed: int, seconds: float, trace: int = 0) -> dict | str:
    """The run's result, or for a run that exits non-zero, its exit status and last error line.

    The result is the ``metrics`` values by name, the ``correct`` flag and
    the ``env`` object the run prints (empty if it prints none).
    """
    command = [sys.executable, "perfbench/run.py", "--workload", workload,
               "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    done = subprocess.run(command, cwd=tree, capture_output=True, text=True, check=False)
    if done.returncode != 0:
        last = (done.stderr.strip().splitlines() or ["(no standard error)"])[-1]
        return f"exit {done.returncode}: {last}"
    lines = done.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    env = next((json.loads(line[4:]) for line in lines if line.startswith("env ")), {})
    return {
        "metrics": {name: entry["value"] for name, entry in result["metrics"].items()},
        "correct": bool(result["correct"]),
        "env": env,
    }


def finite_or_none(value):
    """``value`` if it is a finite number, else None."""
    return value if isinstance(value, (int, float)) and math.isfinite(value) else None


def quartiles(values: list[float]) -> tuple[float, float, float]:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, median, q3


def compare(metric: dict, before: list[float], after: list[float]) -> dict:
    """One declared metric over the complete pairs: both sides, the wins and the two verdicts."""
    higher = metric["better"] == "higher"
    wins = sum((a > b) if higher else (a < b) for a, b in zip(after, before))
    b1, b_med, b3 = quartiles(before)
    a1, a_med, a3 = quartiles(after)
    moved = (a_med - b_med) if higher else (b_med - a_med)
    return {
        "unit": metric.get("unit", ""),
        "better": metric["better"],
        "before": {"median": b_med, "q1": b1, "q3": b3, "values": before},
        "after": {"median": a_med, "q1": a1, "q3": a3, "values": after},
        "change_pct": 100.0 * (a_med - b_med) / abs(b_med) if b_med else None,
        "wins": wins,
        "gain": wins >= 0.9 * len(before) and moved > b3 - b1,
        "beyond_bound": -moved > metric["bound"] * abs(b_med),
    }


def print_table(workload: str, seconds: float, seeds: list[int], compared: dict) -> None:
    pairs = len(seeds)
    print(f"\n{workload}: {pairs} complete pairs at --seconds {seconds:g}, seeds {seeds}")
    print(f"{'metric':14s} {'before median [q1, q3]':>30s} {'after median [q1, q3]':>30s}"
          f"  {'change':>8s}  wins  gain  beyond bound")
    for name, row in compared.items():
        before, after = row["before"], row["after"]
        change = "n/a" if row["change_pct"] is None else f"{row['change_pct']:+.1f}%"
        print(f"{name:14s} {before['median']:12.4g} [{before['q1']:.4g}, {before['q3']:.4g}]"
              f" {after['median']:12.4g} [{after['q1']:.4g}, {after['q3']:.4g}]"
              f"  {change:>8s}  {row['wins']:2d}/{pairs}  {'yes' if row['gain'] else 'no '}"
              f"  {'yes' if row['beyond_bound'] else 'no'}")
        print(f"{'':14s} before {', '.join(f'{v:.4g}' for v in before['values'])}")
        print(f"{'':14s} after  {', '.join(f'{v:.4g}' for v in after['values'])}")


def git_state(tree: Path) -> dict:
    """The tree's HEAD commit and whether it has uncommitted changes; nulls outside a checkout."""
    def git(*args):
        try:
            done = subprocess.run(["git", *args], cwd=tree, capture_output=True, text=True, check=False)
        except OSError:  # no git on this host
            return None
        return done.stdout if done.returncode == 0 else None

    head = git("rev-parse", "HEAD")
    if head is None:
        return {"head": None, "uncommitted_changes": None}
    return {"head": head.strip(), "uncommitted_changes": bool(git("status", "--porcelain"))}


def record(path: Path, entry: dict) -> None:
    """Write ``entry`` into the trajectory file, in place of one for the same workload."""
    entries = json.loads(path.read_text())["entries"] if path.exists() else []
    entries = [kept for kept in entries if kept["workload"] != entry["workload"]] + [entry]
    path.write_text(json.dumps({"entries": entries}, indent=1, allow_nan=False) + "\n")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("before", type=Path)
    parser.add_argument("after", type=Path)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=seed_list, required=True, help="e.g. 30-39 or 1,4,9")
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--record", type=Path, help="JSON trajectory file to write or extend")
    args = parser.parse_args(argv)
    if len(args.seeds) < 2:
        parser.error("need at least two pairs")

    declared = json.loads((args.before / "BENCHMARK.json").read_text())["end_to_end"]
    complete = []  # (seed, {side: result}) of the pairs whose runs both finished
    failed, incorrect = [], []
    for index, seed in enumerate(args.seeds):
        order = ("before", "after") if index % 2 == 0 else ("after", "before")
        results = {}
        for side in order:
            result = run_once(getattr(args, side), args.workload, seed, args.seconds)
            if isinstance(result, str):
                failed.append(f"{side} seed {seed} ({result})")
                continue
            results[side] = result
            if not result["correct"]:
                incorrect.append(f"{side} seed {seed}")
        if len(results) == 2:
            complete.append((seed, results))
        print(f"pair {index + 1}/{len(args.seeds)} (seed {seed}, {order[0]} first) done", flush=True)

    if args.record is not None:
        layers = {"seed": args.seeds[0]}
        for side in ("before", "after"):
            run = f"{side} seed {args.seeds[0]} --trace 1"
            result = run_once(getattr(args, side), args.workload, args.seeds[0], args.seconds, trace=1)
            if isinstance(result, str):
                failed.append(f"{run} ({result})")
                layers[side] = None
                continue
            if not result["correct"]:
                incorrect.append(run)
            layers[side] = {name: finite_or_none(result["metrics"].get(name)) for name in LAYER_METRICS}
            print(f"traced run {run} done", flush=True)

    if len(complete) >= 2:
        compared = {}
        for metric in declared:
            name = metric["name"]
            before, after = ([results[side]["metrics"][name] for _, results in complete]
                             for side in ("before", "after"))
            compared[name] = compare(metric, before, after)
        seeds = [seed for seed, _ in complete]
        print_table(args.workload, args.seconds, seeds, compared)
        if args.record is not None:
            env = complete[0][1]["before"]["env"]
            record(args.record, {
                "workload": args.workload,
                "seeds": seeds,
                "seconds": args.seconds,
                "trees": {"before": git_state(args.before), "after": git_state(args.after)},
                "host": {
                    "python": platform.python_version(),
                    "numpy": metadata.version("numpy"),
                    "scipy": metadata.version("scipy"),
                    "cpu_count": os.cpu_count(),
                    "blas_threads": env.get("blas_threads"),
                },
                "failed_runs": failed,
                "incorrect_runs": incorrect,
                "metrics": compared,
                "layers": layers,
            })
    else:
        print(f"error: {len(complete)} of {len(args.seeds)} pairs complete, too few for a table",
              file=sys.stderr)
    if failed:
        print(f"\nerror: runs that exited non-zero: {'; '.join(failed)}", file=sys.stderr)
    if incorrect:
        print(f"\nerror: runs reporting correct: false: {', '.join(incorrect)}", file=sys.stderr)
    return 1 if failed or incorrect or len(complete) < 2 else 0


if __name__ == "__main__":
    sys.exit(main())
