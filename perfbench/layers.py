"""Per-layer metrics from the spans of a traced run.

Layers are the modules of ``arcipm``; ``spans.targets`` maps each rebound
binding to one.  A layer's self time is its spans' durations minus the
parts covered by their child spans, so the self times of all layers inside
a solve add up to that solve's wall time less the benchmark's own call.
Solver, kkt, step and autodiff figures use only spans of the timed solves;
cli, expr and program figures use every span, set-up included, since those
layers mostly run while problems are built.
"""

from __future__ import annotations

import statistics
from collections import Counter, defaultdict

from arcipm.expr import Add, Const, Div, Exp, Log, Mul, Neg, Pow, Sub, Var

_MS = 1e-6  # nanoseconds to milliseconds


def count_nodes(node) -> int:
    """Number of nodes in an expression tree."""
    match node:
        case Const() | Var():
            return 1
        case Neg(child=c) | Log(child=c) | Exp(child=c):
            return 1 + count_nodes(c)
        case Pow(base=b):
            return 1 + count_nodes(b)
        case Add(left=a, right=b) | Sub(left=a, right=b) | Mul(left=a, right=b) | Div(left=a, right=b):
            return 1 + count_nodes(a) + count_nodes(b)
    raise TypeError(f"not an expression node: {node!r}")


def _median(values) -> float:
    return statistics.median(values) if values else float("nan")


def layer_metrics(tracer, solves, untraced_wall_s: float) -> dict[str, tuple[float, str]]:
    """Name -> (value, unit) for every per-layer metric.

    ``solves`` lists the traced solves as dicts with ``solve_id``, ``wall_s``,
    ``iterations``, ``size`` (n, m, p) and ``program``; ``untraced_wall_s`` is
    the wall time of the same solves run with the tracer removed.
    """
    by_id = {solve["solve_id"]: solve for solve in solves}
    wall_ns = sum(solve["wall_s"] for solve in solves) * 1e9
    iterations = sum(solve["iterations"] for solve in solves)

    inside_dur = defaultdict(list)
    inside_self = defaultdict(list)
    all_dur = defaultdict(list)
    all_self = defaultdict(list)
    layer_self = Counter()
    iterate_ends = defaultdict(list)
    passes = 0
    solve_ids = tracer.solve_ids()
    for (name, start, end, _), own, solve_id in zip(tracer.spans, tracer.self_times(), solve_ids):
        all_dur[name].append(end - start)
        all_self[name].append(own)
        if solve_id not in by_id:
            continue
        inside_dur[name].append(end - start)
        inside_self[name].append(own)
        layer_self[tracer.layer_of[name]] += own
        if name == "kkt.iterate_at":
            iterate_ends[solve_id].append(end)
        elif name == "autodiff.value_gradient_hessian":
            n = by_id[solve_id]["size"][0]
            passes += n * (n + 1) // 2

    iteration_ns = [
        later - earlier
        for ends in iterate_ends.values()
        for earlier, later in zip(ends, ends[1:])
    ]
    selections = [out for index, out in tracer.results["step.select_step"] if solve_ids[index] in by_id]
    vgh_calls = len(inside_dur["autodiff.value_gradient_hessian"])
    directions = len(inside_dur["kkt.solve_directions"])
    cli_calls = len(all_dur["cli.main"])
    builds = len(all_dur["program.validate"])
    diag_ns = sum(inside_dur["kkt.kkt_norm"]) + sum(inside_dur["kkt.true_stationarity_norm"])

    def share(layer):
        return layer_self[layer] / wall_ns

    def per(numerator, denominator):
        return numerator / denominator if denominator else float("nan")

    return {
        "autodiff.vgh_ms": (_median(inside_dur["autodiff.value_gradient_hessian"]) * _MS, "ms"),
        "autodiff.share": (share("autodiff"), "share"),
        "autodiff.passes": (per(passes, vgh_calls), "count"),
        "kkt.iterate_ms": (_median(inside_self["kkt.iterate_at"]) * _MS, "ms"),
        "kkt.assemble_ms": (_median(inside_dur["kkt.assemble_newton_matrix"]) * _MS, "ms"),
        "kkt.solve_ms": (_median(inside_dur["kkt.solve_directions"]) * _MS, "ms"),
        "kkt.share": (share("kkt"), "share"),
        "kkt.dim": (statistics.fmean(n + m + 3 * p for n, m, p in (s["size"] for s in solves)), "count"),
        "kkt.lu_solves_per_iter": (per(len(inside_dur["kkt.lu_solve"]), directions), "count"),
        "kkt.singular": (tracer.errors[("kkt.solve_directions", "SingularKKTError")], "count"),
        "kkt.diag_ms": (per(diag_ns, iterations) * _MS, "ms"),
        "step.select_ms": (_median(inside_dur["step.select_step"]) * _MS, "ms"),
        "step.bisect_ms": (_median(inside_dur["step.bisect_sigma"]) * _MS, "ms"),
        "step.golden_ms": (_median(inside_dur["step.golden_min_bu"]) * _MS, "ms"),
        "step.share": (share("step"), "share"),
        "step.affine_share": (per(sum(sel.sigma == 0.0 for sel in selections), len(selections)), "share"),
        "step.backtracks_per_iter": (per(sum(sel.backtracks for sel in selections), len(selections)), "count"),
        "step.accept_ratio": (per(len(selections), len(inside_dur["step.arc_point_candidate"])), "share"),
        "step.mu_coeff_calls_per_iter": (per(len(inside_dur["step.mu_coefficients"]), iterations), "count"),
        "step.alpha_mean": (per(sum(sel.alpha for sel in selections), len(selections)), "rad"),
        "solver.iterations": (per(iterations, len(solves)), "count"),
        "solver.iter_ms_p50": (_median(iteration_ns) * _MS, "ms"),
        "solver.self_ms": (per(layer_self["solver"], iterations) * _MS, "ms"),
        "solver.coverage": (sum(layer_self.values()) / wall_ns, "share"),
        "trace_overhead_share": (wall_ns / (untraced_wall_s * 1e9) - 1.0, "share"),
        "cli.parse_ms": (_median(all_dur["cli.parse_problem_text"]) * _MS, "ms"),
        "cli.self_ms": (
            per(sum(all_self["cli.main"]) + sum(all_self["cli.write_trace"]), cli_calls) * _MS,
            "ms",
        ),
        "expr.parse_ms": (_median(all_dur["expr.parse_expression"]) * _MS, "ms"),
        "expr.nodes": (statistics.fmean(count_nodes(s["program"].objective) for s in solves), "count"),
        "program.build_ms": (
            per(sum(all_dur["program.validate"]) + sum(all_dur["program.fold_bounds"]), builds) * _MS,
            "ms",
        ),
    }
