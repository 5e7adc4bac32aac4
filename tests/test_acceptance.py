"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -rA`` to see the per-criterion
lines alongside the test verdicts.
"""

import math
import time
import zlib

import numpy as np

from arcipm import SolverConfig, SolverStatus, default_start, gradient, hessian, solve
from arcipm.kkt import (
    Blocks,
    duality_measure,
    stationarity,
)
from arcipm.step import alpha_limits, alpha_tilde, arc_point, mu_coefficients
from conftest import (
    REFERENCE,
    SAMPLING_BOX,
    load_problem,
    newton_directions,
    random_box_qp,
    run_recorded,
    step_limits,
    synthetic_step_pair,
    sz_directions,
    sz_iterate,
)
from oracles import enumerate_kkt, scan_alpha
from test_autodiff import fd_gradient, fd_hessian

HALF_PI = math.pi / 2.0


def report_line(number, title, failures):
    verdict = "PASS" if not failures else "FAIL"
    print(f"ACCEPTANCE {number} ({title}): {verdict}")
    for item in failures:
        print(f"    - {item}")


def test_criterion_1_reference_fixtures():
    failures = []
    # two scores for a candidate step rule (ROADMAP item 1): the iteration gap
    # over all samples, and x1 + x2 on the samples whose end point depends on
    # the path, where the reference keeps the capacity slack near its start
    kk_gap, capacity = 0, []
    for name, (x_ref, obj_ref, kk_ref) in REFERENCE.items():
        program, start = load_problem(name)
        begin = time.perf_counter()
        report = solve(program, SolverConfig(), default_start(program, start))
        elapsed = time.perf_counter() - begin
        dx = float(np.max(np.abs(report.x - np.array(x_ref))))
        dobj = abs(report.objective - obj_ref)
        detail = (
            f"{name}: x={np.round(report.x, 4).tolist()} dx={dx:.1e} dobj={dobj:.1e} "
            f"kk={report.iterations} (reference {kk_ref}) t={elapsed:.2f}s"
        )
        print("    " + detail)
        kk_gap += abs(report.iterations - kk_ref)
        if name in ("ex5", "ex6", "ex7"):
            capacity.append(f"{name} {report.x[0] + report.x[1]:.3f} (reference {sum(x_ref):.3f})")
        if report.status is not SolverStatus.CONVERGED:
            failures.append(f"{name}: status {report.status.value}")
        if dx > 1e-2:
            failures.append(f"{name}: solution off by {dx:.2e} (limit 1e-2)")
        if dobj > 1e-3:
            failures.append(f"{name}: objective off by {dobj:.2e} (limit 1e-3)")
        if report.iterations > 2 * kk_ref:
            failures.append(f"{name}: {report.iterations} iterations > 2x reference {kk_ref}")
        if elapsed > 1.0:
            failures.append(f"{name}: took {elapsed:.2f}s (limit 1s)")
    print(f"    sum |kk - reference| over ex1-ex8: {kk_gap}")
    print("    x1 + x2: " + ", ".join(capacity))
    report_line(1, "reference fixtures", failures)
    assert not failures, failures


def test_criterion_2_residual_proportionality(fixture_runs):
    failures = []
    for name, (program, run) in fixture_runs.items():
        first = run.iterates[0]
        re0, ri0 = np.linalg.norm(first.r_e), np.linalg.norm(first.r_i)
        product = 1.0
        for before, after, sel in zip(run.iterates, run.iterates[1:], run.selections[1:]):
            product *= 1.0 - math.sin(sel.alpha)
            # equality and inequality residuals are linear: the cumulative
            # ratio is testable directly
            for label, norm0, now in (
                ("r_E", re0, np.linalg.norm(after.r_e)),
                ("r_I", ri0, np.linalg.norm(after.r_i)),
            ):
                if norm0 == 0.0:
                    ok = now <= 1e-12
                elif product > 0.0:
                    # absolute term covers roundoff once the ratio reaches
                    # the float noise floor of the fresh residual
                    ok = abs(now / norm0 - product) <= 1e-6 * product + 1e-14
                else:
                    ok = now <= 1e-9 * norm0
                if not ok:
                    failures.append(f"{name}: {label} ratio broke at nu={product:.3e}")
                    break
            # the gradient-model residual shrinks exactly in the metric of
            # the Hessian the step was computed with
            shrink = 1.0 - math.sin(sel.alpha)
            predicted = before.r_c * shrink
            actual = stationarity(program, before.hess.dot(after.x), after.y, after.z)
            if np.linalg.norm(actual - predicted) > 1e-8 * (1.0 + np.linalg.norm(before.r_c)):
                failures.append(f"{name}: r_C recursion broke")
                break
    report_line(2, "residual proportionality", failures)
    assert not failures, failures


def test_criterion_3_invariant_suite(fixture_runs):
    failures = []
    theta = SolverConfig().theta

    def check_run(label, run):
        previous = None
        for it in run.iterates:
            if not (np.all(it.s > 0.0) and np.all(it.z > 0.0)):
                failures.append(f"{label}: positivity broke")
                return
            if float(np.min(it.s * it.z)) < theta * it.mu * (1.0 - 1e-9):
                failures.append(f"{label}: centrality broke")
                return
            if previous is not None and not it.mu < previous:
                failures.append(f"{label}: duality measure failed to decrease")
                return
            previous = it.mu

    for name, (program, run) in fixture_runs.items():
        check_run(name, run)
    rng = np.random.default_rng(987654321)
    for index in range(50):
        program = random_box_qp(rng, max_n=6, with_eq=index % 5 == 0)
        run = run_recorded(program, default_start(program))
        if run.report.status is not SolverStatus.CONVERGED:
            failures.append(f"qp{index}: status {run.report.status.value}")
            continue
        check_run(f"qp{index}", run)
    report_line(3, "positivity/centrality/monotonicity", failures)
    assert not failures, failures


def _limit_through_alpha_tilde(entry, sigma, role):
    """Route one component tuple through the slack or the dual block."""
    current, rate, p_coef, q_coef, floor = entry
    neutral = (10.0, 0.0, 0.0, 0.0)
    if role == "s":
        s = np.array([current]); z = np.array([neutral[0]])
        sdot, ps, qs = np.array([rate]), np.array([p_coef]), np.array([q_coef])
        zdot = pz = qz = np.zeros(1)
        phi, psi = floor, 1e-6
    else:
        z = np.array([current]); s = np.array([neutral[0]])
        zdot, pz, qz = np.array([rate]), np.array([p_coef]), np.array([q_coef])
        sdot = ps = qs = np.zeros(1)
        phi, psi = 1e-6, floor
    directions = sz_directions((sdot, ps, qs), (zdot, pz, qz))
    return alpha_tilde(step_limits(sz_iterate(s, z), directions, phi, psi)[0], sigma)


def test_criterion_4_angle_limits_match_grid_oracle():
    failures = []
    rng = np.random.default_rng(24680)
    patterns = {
        "1": (0, 1), "1neg": (0, -1), "2": (1, 0), "2neg": (-1, 0),
        "3": (1, 1), "4": (1, -1), "5": (-1, -1), "6": (-1, 1), "7": (0, 0),
    }
    step_count = int(math.ceil(HALF_PI / 1e-4)) + 1
    cell = HALF_PI / (step_count - 1)
    exercised = {}
    total = 0
    for case, (rate_sign, second_sign) in patterns.items():
        for role in ("s", "z"):
            for _ in range(12):
                sigma = rng.uniform(0.0, 1.0)
                floor = rng.uniform(0.01, 1.0)
                current = floor + rng.uniform(0.01, 3.0)
                rate = rate_sign * rng.uniform(0.05, 4.0)
                second = second_sign * rng.uniform(0.05, 4.0)
                p_coef = rng.normal()
                q_coef = second - p_coef * sigma
                entry = (current, rate, p_coef, q_coef, floor)
                direct = float(alpha_limits(*entry)(sigma))
                routed = _limit_through_alpha_tilde(entry, sigma, role)
                reference = scan_alpha(current, rate, p_coef, q_coef, floor, sigma)
                total += 1
                exercised[f"{case}{role}"] = exercised.get(f"{case}{role}", 0) + 1
                if abs(direct - reference) > cell * 1.001:
                    failures.append(
                        f"case {case}/{role}: analytic {direct:.6f} vs scan {reference:.6f}"
                    )
                if direct != routed:
                    failures.append(f"case {case}/{role}: block routing changed the limit")
    if total < 200:
        failures.append(f"only {total} tuples exercised")
    if any(count < 5 for count in exercised.values()):
        failures.append("some case exercised fewer than 5 times")
    print(f"    {total} tuples over {len(exercised)} case/role labels")
    report_line(4, "angle limits vs grid scan", failures)
    assert not failures, failures


def test_criterion_5_duality_measure_identity():
    failures = []
    rng = np.random.default_rng(1357911)
    for index in range(100):
        iterate, directions = synthetic_step_pair(rng, p=int(rng.integers(1, 9)))
        sigma = rng.uniform(0.0, 1.0)
        alpha = rng.uniform(0.0, HALF_PI)
        candidate = Blocks.of(arc_point(iterate, directions, sigma, alpha), 2, 0, iterate.p)
        a_u, b_u = mu_coefficients(iterate, directions, alpha)
        curvature = Blocks.of(directions.p_dir * sigma + directions.q_dir, 2, 0, iterate.p)
        omc = 2.0 * math.sin(0.5 * alpha) ** 2
        lhs = iterate.p * duality_measure(candidate.s, candidate.z)
        rhs = a_u * sigma + b_u + float(curvature.s @ curvature.z) * omc**2
        if abs(lhs - rhs) > 1e-8 * (1.0 + abs(lhs)):
            failures.append(f"tuple {index}: |lhs - rhs| = {abs(lhs - rhs):.2e}")
    report_line(5, "duality-measure expansion identity", failures)
    assert not failures, failures


def test_criterion_6_derivative_checks():
    failures = []
    for name in sorted(REFERENCE):
        program, _ = load_problem(name)
        rng = np.random.default_rng(zlib.crc32(name.encode()))
        box = SAMPLING_BOX[name]
        for _ in range(20):
            x = np.array([rng.uniform(lo, hi) for lo, hi in box])
            grad = gradient(program.objective, x)
            ref_g = fd_gradient(program.objective, x)
            if np.max(np.abs(grad - ref_g)) > 1e-5 * (1.0 + np.max(np.abs(ref_g))):
                failures.append(f"{name}: gradient mismatch at {x.tolist()}")
                break
            hess = hessian(program.objective, x)
            ref_h = fd_hessian(program.objective, x)
            if np.max(np.abs(hess - ref_h)) > 1e-4 * (1.0 + np.max(np.abs(ref_h))):
                failures.append(f"{name}: Hessian mismatch at {x.tolist()}")
                break
            if not np.array_equal(hess, hess.T):
                failures.append(f"{name}: Hessian not exactly symmetric at {x.tolist()}")
                break

    # arc derivative checks at angle zero
    program, start = load_problem("ex1")
    iterate = default_start(program, start)
    directions = newton_directions(program, iterate)
    h = 1e-4
    for sigma in (0.0, 0.5, 1.0):
        hi = arc_point(iterate, directions, sigma, h)
        lo = arc_point(iterate, directions, sigma, -h)
        mid = iterate.vec
        tangent = -directions.vdot
        curvature = directions.p_dir * sigma + directions.q_dir
        first = (hi - lo) / (2.0 * h)
        second = (hi - 2.0 * mid + lo) / h**2
        if np.max(np.abs(first - tangent)) > 1e-3 * (1.0 + np.max(np.abs(tangent))):
            failures.append(f"arc first derivative mismatch at sigma={sigma}")
        if np.max(np.abs(second - curvature)) > 1e-3 * (1.0 + np.max(np.abs(curvature))):
            failures.append(f"arc second derivative mismatch at sigma={sigma}")
    report_line(6, "derivative checks", failures)
    assert not failures, failures


def test_criterion_7_oracle_equivalence_on_qps():
    failures = []
    rng = np.random.default_rng(555444333)
    for index in range(25):
        program = random_box_qp(rng, max_n=6)
        report = solve(program, SolverConfig(), default_start(program))
        if report.status is not SolverStatus.CONVERGED:
            failures.append(f"qp{index}: status {report.status.value}")
            continue
        candidates = enumerate_kkt(program)
        if not candidates:
            failures.append(f"qp{index}: oracle found no first-order points")
            continue
        best = min(float(np.max(np.abs(report.x - c))) for c in candidates)
        if best > 1e-4:
            failures.append(f"qp{index}: nearest oracle candidate {best:.2e} away")
    report_line(7, "oracle equivalence on box QPs", failures)
    assert not failures, failures


def test_criterion_8_complexity_covered_by_property_suites(fixture_runs):
    # the asymptotic iteration bound is not measurable at this scale; its
    # observable consequences are per-step duality decrease and step sizes
    # bounded away from zero, both checked on every fixture run
    failures = []
    for name, (program, run) in fixture_runs.items():
        alphas = [sel.alpha for sel in run.selections[1:]]
        if not alphas or min(alphas) <= 0.0:
            failures.append(f"{name}: nonpositive step angle")
        drops = [
            after.mu / before.mu for before, after in zip(run.iterates, run.iterates[1:])
        ]
        if any(ratio >= 1.0 for ratio in drops):
            failures.append(f"{name}: duality measure failed to decrease")
        print(
            f"    {name}: min alpha {min(alphas):.2e}, max mu ratio {max(drops):.6f}, "
            f"iterations {len(alphas)}"
        )
    report_line(8, "complexity bound via property suites (no asymptotic fit)", failures)
    assert not failures, failures
