"""Spans around the solver's public bindings, recorded from outside.

:class:`Tracer` rebinds module and class attributes of ``arcipm`` to thin
wrappers for the length of a ``with`` block and puts the originals back on
exit.  No solver source changes: every call the solver makes through one
of the rebound names is timed, so each span covers exactly one call into a
layer.  Spans stay in memory until :meth:`Tracer.write` is called once at
the end of a run.
"""

from __future__ import annotations

import csv
import time
from collections import Counter

from arcipm import cli, kkt, program, solver, step

# Span names whose return values are kept, so step statistics (sigma,
# alpha, backtracks) can be read without an observer.
KEEP_RESULTS = ("step.select_step",)


def targets():
    """(owner, attribute, span name, layer) for every rebound binding.

    The owner is the module or class whose attribute the solver looks up at
    call time; a function imported into two modules is rebound in both.
    """
    return [
        (cli, "main", "cli.main", "cli"),
        (cli, "parse_problem_text", "cli.parse_problem_text", "cli"),
        (cli, "_write_trace", "cli.write_trace", "cli"),
        (cli, "parse_expression", "expr.parse_expression", "expr"),
        (cli, "fold_bounds", "program.fold_bounds", "program"),
        (program.ConvexProgram, "__post_init__", "program.validate", "program"),
        (cli, "solve", "solver.solve", "solver"),
        (solver, "solve", "solver.solve", "solver"),
        (solver, "evaluate", "autodiff.evaluate", "autodiff"),
        (kkt, "value_gradient_hessian", "autodiff.value_gradient_hessian", "autodiff"),
        (kkt.Iterate, "at", "kkt.iterate_at", "kkt"),
        (solver, "assemble_newton_matrix", "kkt.assemble_newton_matrix", "kkt"),
        (solver, "solve_directions", "kkt.solve_directions", "kkt"),
        (kkt, "lu_solve", "kkt.lu_solve", "kkt"),
        (solver, "kkt_norm", "kkt.kkt_norm", "kkt"),
        (solver, "true_stationarity_norm", "kkt.true_stationarity_norm", "kkt"),
        (solver, "select_step", "step.select_step", "step"),
        (solver, "arc_point", "step.arc_point", "step"),
        (step, "arc_point", "step.arc_point_candidate", "step"),
        (step, "bisect_sigma", "step.bisect_sigma", "step"),
        (step, "golden_min_bu", "step.golden_min_bu", "step"),
        (step, "alpha_tilde", "step.alpha_tilde", "step"),
        (step, "mu_coefficients", "step.mu_coefficients", "step"),
    ]


def current_bindings() -> list:
    """What each rebound attribute holds right now, in ``targets()`` order."""
    return [owner.__dict__[attribute] for owner, attribute, _, _ in targets()]


class Tracer:
    """Records nested spans while installed; restores every binding on exit.

    A span is the tuple (name, start_ns, end_ns, parent), where parent is
    the index of the enclosing span or -1.  Spans are appended in call
    order, so the caller marks where each solve begins with
    :meth:`begin_solve` and a solve's spans are one contiguous run.
    """

    def __init__(self):
        self.spans: list[tuple | None] = []
        self.layer_of: dict[str, str] = {}
        # (span index, return value) for each name in KEEP_RESULTS
        self.results: dict[str, list] = {name: [] for name in KEEP_RESULTS}
        self.errors: Counter = Counter()
        self._marks: list[tuple[int, int]] = []
        self._stack = [-1]
        self._saved: list[tuple[object, str, object]] = []

    def begin_solve(self, solve_id: int):
        """Spans opened from now on belong to ``solve_id`` (-1: to no solve)."""
        self._marks.append((len(self.spans), solve_id))

    def solve_ids(self) -> list[int]:
        """The solve id of every span, from the marks set by :meth:`begin_solve`."""
        ids = [-1] * len(self.spans)
        bounds = self._marks + [(len(self.spans), -1)]
        for (first, solve_id), (last, _) in zip(bounds, bounds[1:]):
            ids[first:last] = [solve_id] * (last - first)
        return ids

    def _wrap(self, func, name: str):
        spans, stack, errors = self.spans, self._stack, self.errors
        clock = time.perf_counter_ns

        def traced(*args, **kwargs):
            parent = stack[-1]
            index = len(spans)
            stack.append(index)
            spans.append(None)
            start = clock()
            try:
                return func(*args, **kwargs)
            except Exception as err:
                errors[(name, type(err).__name__)] += 1
                raise
            finally:
                spans[index] = (name, start, clock(), parent)
                stack.pop()

        if name not in self.results:
            return traced
        results = self.results[name]

        def kept(*args, **kwargs):
            index = len(spans)
            out = traced(*args, **kwargs)
            results.append((index, out))
            return out

        return kept

    def install(self):
        if self._saved:
            raise RuntimeError("tracer is already installed")
        for owner, attribute, name, layer in targets():
            self.layer_of[name] = layer
            original = owner.__dict__[attribute]
            if isinstance(original, classmethod):
                replacement = classmethod(self._wrap(original.__func__, name))
            else:
                replacement = self._wrap(original, name)
            self._saved.append((owner, attribute, original))
            setattr(owner, attribute, replacement)

    def restore(self):
        while self._saved:
            owner, attribute, original = self._saved.pop()
            setattr(owner, attribute, original)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.restore()
        return False

    def self_times(self) -> list[int]:
        """Per span, its duration minus the durations of its direct children."""
        own = [end - start for _, start, end, _ in self.spans]
        for _, start, end, parent in self.spans:
            if parent >= 0:
                own[parent] -= end - start
        return own

    def write(self, path):
        """Write every span as one CSV row: name, layer, start, end, parent, solve id."""
        with open(path, "w", newline="") as handle:
            writer = csv.writer(handle)
            writer.writerow(["index", "name", "layer", "start_ns", "end_ns", "parent", "solve_id"])
            for index, ((name, start, end, parent), solve_id) in enumerate(
                zip(self.spans, self.solve_ids())
            ):
                writer.writerow([index, name, self.layer_of[name], start, end, parent, solve_id])
