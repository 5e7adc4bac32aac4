#!/usr/bin/env python3
"""Solver benchmark: solve one workload's seeded cases, check every answer.

    python3 perfbench/run.py --workload samples --seed 1 --seconds 20 --trace 0

Run from the repository root.  Workloads are ``samples`` (ex1–ex8 through
the command line), ``boxqp_dense`` (seeded dense box QPs, n = 2..10) and
``many_rows`` (seeded n = 4 QPs with 108 rows and one equality); see
``workloads.py``; ``--seconds`` sets how many whole passes over the cases
a run makes.  With ``--trace 0`` the run reports the end-to-end
metrics; with ``--trace 1`` each pass is solved once plain and once under
the span tracer, and the run reports per-layer metrics from the traced
solves.  The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.

Every end-to-end time is scaled to a fixed machine speed: a fixed reference
computation (``reference.py``) runs before each solve and every 0.03 s inside
the QP solves, and a solve's wall time is multiplied by
``nominal_ms / (median reference time around it)``.  On a shared host the
speed of the same code moves by up to 2x within minutes; the scaled times
move by a few percent.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import warnings
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SOURCE = ROOT / "src"
OUT = HERE / "out"

# BLAS threads per process: the matrices are small, and one thread keeps
# run-to-run timing steady.
BLAS_THREADS = 1
# Fresh processes timed for setup_s; the median is reported.
SETUP_REPEATS = 5
SETUP_TIMEOUT_S = 120
# The tail is the slowest solve that still has this many slower ones.
TAIL_BEYOND = 10
# On a machine much slower than the one pass_seconds was measured on, a run
# starts no new pass once it has taken this many times --seconds.
OVERRUN = 1.5
# A solve's machine speed is the median of the reference samples taken
# inside it and of this many on each side of it (the ones taken just before
# and just after it included).
SPEED_WINDOW = 2
# Inside a solve that reports its iterations, a reference sample is taken at
# the first iteration at least this long after the previous sample; the
# samples' time is taken out of the solve's wall time.  The host's speed can
# change several times a second: with samples every 0.1 s, two many_rows
# runs of one seed in one process came out 18% apart, with these 1-2%.
PROBE_INTERVAL_S = 0.03
# Reference samples taken after set-up in each set-up probe.
SETUP_REFERENCE_SAMPLES = 9


def _load_workloads():
    """Import the solver from this checkout's ``src`` and the workload module."""
    if not (SOURCE / "arcipm" / "__init__.py").is_file():
        raise SystemExit(f"error: no arcipm sources under {SOURCE}")
    sys.path.insert(0, str(SOURCE))
    import workloads

    import arcipm

    if Path(arcipm.__file__).resolve().parent != SOURCE / "arcipm":
        raise SystemExit(f"error: imported arcipm from {arcipm.__file__}, not from {SOURCE}")
    return workloads


def setup_probe(workload: str, seed: int, seconds: float) -> tuple[float, float]:
    """Seconds to import arcipm and build every case of one run, and the
    median reference time (ms) measured right after in the same process."""
    begin = time.perf_counter()
    workloads = _load_workloads()
    runner = workloads.WORKLOADS[workload](seed, OUT)
    runner.build(pass_count(runner, seconds))
    elapsed = time.perf_counter() - begin
    runner.reference()  # warm-up
    return elapsed, statistics.median(runner.reference() for _ in range(SETUP_REFERENCE_SAMPLES))


def pass_count(runner, seconds: float) -> int:
    return max(1, round(seconds / runner.pass_seconds))


def measure_setup(workload: str, seed: int, seconds: float) -> list[tuple[float, float]]:
    """(set-up s, reference ms) in ``SETUP_REPEATS`` fresh interpreters, one after another."""
    command = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
               "--workload", workload, "--seed", str(seed), "--seconds", repr(seconds)]
    times = []
    for _ in range(SETUP_REPEATS):
        done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True,
                              timeout=SETUP_TIMEOUT_S, check=True)
        elapsed, reference_ms = done.stdout.split()[-2:]
        times.append((float(elapsed), float(reference_ms)))
    return times


def tail(values):
    """(value, percentile) of the slowest sample with TAIL_BEYOND samples beyond it.

    Falls back to the median when there are too few samples for that.
    """
    ordered = sorted(values)
    rank = len(ordered) - TAIL_BEYOND
    if rank < (len(ordered) + 1) // 2:
        return statistics.median(ordered), 50.0
    return ordered[rank - 1], 100.0 * rank / len(ordered)


class Run:
    """The timed loop over whole passes, with its per-solve records."""

    def __init__(self, runner, tracer=None):
        self.reference_ms = runner.reference
        self.nominal_ms = runner.reference.nominal_ms
        self.runner = runner
        self.tracer = tracer
        self.walls = []
        # plain runs: a reference sample before each solve and one after the
        # last, and the samples taken inside each solve
        self.references = []
        self.inner_references = []
        self._inner = []
        self._probe_s = 0.0
        self._last_probe = 0.0
        self.failed = 0
        self.failures = []
        self.fingerprints = {}
        self.consistent = True
        self.traced = []  # one dict per traced solve, see layers.layer_metrics
        self.untraced_wall = 0.0

    def attempt(self, case, traced: bool):
        runner, tracer = self.runner, self.tracer
        solve_id = len(self.walls)
        plain = tracer is None
        if plain:
            self.references.append(self.reference_ms())
            self._inner, self._probe_s = [], 0.0
        if traced:
            tracer.begin_solve(solve_id)
            tracer.install()
        begin = self._last_probe = time.perf_counter()
        try:
            result = runner.solve(case, self.probe if plain else None)
            error = None
        except Exception as err:  # a raising solve is a failed solve
            result, error = None, f"{type(err).__name__}: {err}"
        finally:
            wall = time.perf_counter() - begin
            if traced:
                tracer.restore()
                tracer.begin_solve(-1)
        if plain:
            wall -= self._probe_s
            self.inner_references.append(self._inner)
        self.walls.append(wall)
        if error is not None:
            outcome_problems, iterations = [error], 0
        else:
            outcome = runner.check(case, result)
            outcome_problems, iterations = outcome.problems, outcome.iterations
            # the same case must give the same answer every time, traced or not
            key = id(case)
            first = self.fingerprints.setdefault(key, outcome.fingerprint)
            self.consistent &= first == outcome.fingerprint
        if outcome_problems:
            self.failed += 1
            self.failures.append(outcome_problems)
        if traced:
            program = case.program
            self.traced.append({"solve_id": solve_id, "wall_s": wall, "iterations": iterations,
                                "size": (program.n, program.m, program.p), "program": program})
        elif self.tracer is not None:
            self.untraced_wall += wall

    def probe(self):
        """Called once per solver iteration: take a reference sample if
        ``PROBE_INTERVAL_S`` has passed since the last one."""
        now = time.perf_counter()
        if now - self._last_probe < PROBE_INTERVAL_S:
            return
        self._inner.append(self.reference_ms())
        self._last_probe = time.perf_counter()
        self._probe_s += self._last_probe - now

    def loop(self, passes: int, seconds: float):
        """Solve ``passes`` whole passes; returns how many were made."""
        deadline = time.perf_counter() + OVERRUN * seconds
        for index in range(passes):
            if index and time.perf_counter() > deadline:
                return index
            cases = self.runner.next_pass(index)
            if self.tracer is None:
                for case in cases:
                    self.attempt(case, traced=False)
            else:
                # each pass plain and traced, alternating which goes first
                for traced in (index % 2 == 1, index % 2 == 0):
                    for case in cases:
                        self.attempt(case, traced)
        if self.tracer is None:
            self.references.append(self.reference_ms())
        return passes

    def scaled_walls(self) -> list[float]:
        """Each plain solve's wall time at the reference machine speed, in s.

        The speed of solve i is the median of the reference samples taken
        inside it and within ``SPEED_WINDOW`` solves of it; references[i] is
        taken just before solve i and references[i + 1] just after.
        """
        scaled = []
        for index, (wall, inner) in enumerate(zip(self.walls, self.inner_references)):
            window = self.references[max(0, index + 1 - SPEED_WINDOW) : index + 1 + SPEED_WINDOW]
            scaled.append(wall * self.nominal_ms / statistics.median(window + inner))
        return scaled


def end_to_end(run, setup_times):
    """End-to-end metrics; every time is scaled to the reference machine speed."""
    passed = len(run.walls) - run.failed
    scaled = run.scaled_walls()
    tail_s, tail_pct = tail(scaled)
    rss_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    setup_scaled = [elapsed * run.nominal_ms / reference_ms for elapsed, reference_ms in setup_times]
    return {
        "solves_per_s": (passed / sum(scaled), "1/s"),
        "solve_ms_p50": (statistics.median(scaled) * 1e3, "ms"),
        "solve_ms_tail": (tail_s * 1e3, "ms"),
        "pass_share": (passed / len(run.walls), "share"),
        "setup_s": (statistics.median(setup_scaled), "s"),
        "peak_rss_mb": (rss_kib / 1024.0, "MB"),
    }, f"tail at p{tail_pct:.1f} of {len(run.walls)} solves"


def environment(seed: int) -> dict:
    import numpy
    import scipy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "blas_threads": BLAS_THREADS,
        "seed": seed,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("samples", "boxqp_dense", "many_rows"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    # numpy is first imported below, so the cap applies here and in the probes
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(BLAS_THREADS)
    OUT.mkdir(exist_ok=True)

    if args.setup_probe:
        print(*map(repr, setup_probe(args.workload, args.seed, args.seconds)))
        return 0

    workloads = _load_workloads()
    import spans

    setup_times = [] if args.trace else measure_setup(args.workload, args.seed, args.seconds)
    warnings.simplefilter("ignore", RuntimeWarning)
    originals = spans.current_bindings()
    runner = workloads.WORKLOADS[args.workload](args.seed, OUT)
    passes = pass_count(runner, args.seconds)
    tracer = spans.Tracer() if args.trace else None
    if tracer is not None:
        passes = (passes + 1) // 2  # each pass is solved twice
    if tracer is None:
        runner.build(passes)
    else:
        with tracer:
            runner.build(passes)

    run = Run(runner, tracer)
    begin = time.perf_counter()
    passes = run.loop(passes, args.seconds)
    elapsed = time.perf_counter() - begin

    print("env " + json.dumps(environment(args.seed)))
    print(f"workload {args.workload}: {passes} passes in {elapsed:.1f} s, {len(run.walls)} solves, "
          f"{run.failed} failed, answers reproducible: {run.consistent}")
    for problems in sorted({"; ".join(problems) for problems in run.failures}):
        print("  failed: " + problems)

    if tracer is None:
        metrics, note = end_to_end(run, setup_times)
        walls, scaled = sum(run.walls), sum(run.scaled_walls())
        print(f"  setup runs (s, reference ms): {', '.join(f'{t:.4f} {r:.3f}' for t, r in setup_times)}; {note}")
        print(f"  reference: median {statistics.median(run.references):.3f} ms (nominal {run.nominal_ms} ms); "
              f"solves took {walls:.2f} s of wall time, {scaled:.2f} s at the reference speed")
    else:
        import layers

        if not isinstance(runner, workloads.Samples):
            cli_probe(workloads, tracer)
        metrics = layers.layer_metrics(tracer, run.traced, run.untraced_wall)
        spans_path = OUT / f"spans-{args.workload}.csv"
        tracer.write(spans_path)
        print(f"  {len(tracer.spans)} spans written to {spans_path.relative_to(ROOT)}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:28s} {value:14.6g} {unit}")

    restored = all(now is before for now, before in zip(spans.current_bindings(), originals))
    if not restored:
        print("  tracer left a rebound attribute behind")
    print(json.dumps({
        "correct": run.consistent and restored,
        "attempted": len(run.walls),
        "failed": run.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }, allow_nan=False))
    return 0


def cli_probe(workloads, tracer):
    """Run ex1–ex8 through the command line once, traced, outside the solve ids.

    The QP workloads build from arrays and never call the command line, so
    their cli and expr figures come from this pass.
    """
    probe = workloads.Samples(0, OUT)
    probe.build(1)
    with tracer:
        for case in probe.cases:
            probe.solve(case)


if __name__ == "__main__":
    sys.exit(main())
