"""Correctness checks that never use the solver's own derivatives.

``check_summary`` applies the reference-fixture rule to the text the
command line prints and to the CSV trace it writes.  ``kkt_certificate``
checks a QP answer against the generator's own Q, A and b together with the
final multipliers.  Each returns a list of problems; empty means the
answer passed.
"""

from __future__ import annotations

import csv
import re

import numpy as np

# Solution, objective and iteration count of the original implementation on
# problems/exK.prob; the same table pins criterion 1 in tests/conftest.py.
REFERENCE = {
    "ex1": ((1.0, 1.0), -13.0, 68),
    "ex2": ((2.0, 1.0), 70.9733, 66),
    "ex3": ((1.0, 2.0), 23.5, 69),
    "ex4": ((2.0, 2.0), 31.6355, 69),
    "ex5": ((4.9271, 5.0595), 17.1360, 57),
    "ex6": ((4.9924, 4.9924), 7.4773, 56),
    "ex7": ((2.0006, 7.9767), 3.9948, 59),
    "ex8": ((5.0, 3.0, 5.0), -2.7726, 44),
}
X_TOLERANCE = 1e-2
OBJ_TOLERANCE = 1e-3
TRACE_COLUMNS = 11

# KKT certificate tolerance, relative to the scale of the data; the solver
# stops once the stacked optimality residual is below 1e-6.
CERTIFICATE_TOLERANCE = 1e-5

_SUMMARY = re.compile(
    r"x = \((?P<x>[^)]*)\)\n"
    r"obj = (?P<obj>\S+)\n"
    r"kk = (?P<kk>\d+)\n"
    r"infe = (?P<infe>\S+)\n"
    r"status = (?P<status>\S+)\n$"
)


def parse_summary(text: str):
    """(x, objective, iterations, status) from the command-line summary."""
    match = _SUMMARY.fullmatch(text)
    if match is None:
        raise ValueError(f"unrecognised summary: {text!r}")
    x = np.array([float(tok) for tok in match["x"].split(",")])
    return x, float(match["obj"]), int(match["kk"]), match["status"]


def check_summary(name: str, text: str, trace_path) -> list[str]:
    """Reference rule on the printed summary plus the shape of the CSV trace."""
    try:
        x, obj, kk, status = parse_summary(text)
    except ValueError as err:
        return [str(err)]
    x_ref, obj_ref, _ = REFERENCE[name]
    problems = []
    if status != "Converged":
        problems.append(f"{name}: status {status}")
    if x.shape != (len(x_ref),):
        problems.append(f"{name}: {x.size} coordinates, expected {len(x_ref)}")
    else:
        dx = float(np.max(np.abs(x - np.array(x_ref))))
        if dx > X_TOLERANCE:
            problems.append(f"{name}: x off by {dx:.3g}")
    dobj = abs(obj - obj_ref)
    if dobj > OBJ_TOLERANCE:
        problems.append(f"{name}: objective off by {dobj:.3g}")
    with open(trace_path, newline="") as handle:
        rows = list(csv.reader(handle))
    if len(rows) != kk + 2:
        problems.append(f"{name}: trace has {len(rows) - 1} rows, expected kk + 1 = {kk + 1}")
    if any(len(row) != TRACE_COLUMNS for row in rows):
        problems.append(f"{name}: trace rows must have {TRACE_COLUMNS} columns")
    return problems


def kkt_certificate(instance, x, y, w) -> list[str]:
    """First-order certificate of min ½xᵀQx s.t. A_eq x = b_eq, A_ineq x >= b_ineq.

    Stationarity Qx + A_eqᵀy - A_ineqᵀw = 0, primal feasibility, w >= 0 and
    complementarity w_i (a_i x - b_i) = 0, each to a tolerance scaled by
    the data.  For a convex QP these make x a global minimizer.
    """
    q, a_eq, b_eq, a_ineq, b_ineq = (
        instance.q, instance.a_eq, instance.b_eq, instance.a_ineq, instance.b_ineq
    )
    scale = 1.0 + max(np.abs(q).max(), np.abs(a_ineq).max(), np.abs(b_ineq).max())
    tol = CERTIFICATE_TOLERANCE * scale
    problems = []
    stationarity = q @ x + a_eq.T @ y - a_ineq.T @ w
    if np.max(np.abs(stationarity)) > tol * (1.0 + np.max(np.abs(w))):
        problems.append(f"stationarity residual {np.max(np.abs(stationarity)):.3g}")
    if a_eq.shape[0] and np.max(np.abs(a_eq @ x - b_eq)) > tol:
        problems.append(f"equality residual {np.max(np.abs(a_eq @ x - b_eq)):.3g}")
    row_slack = a_ineq @ x - b_ineq
    if np.min(row_slack) < -tol:
        problems.append(f"inequality violated by {-np.min(row_slack):.3g}")
    if np.min(w) < -tol:
        problems.append(f"negative multiplier {np.min(w):.3g}")
    if np.max(np.abs(w * row_slack)) > tol:
        problems.append(f"complementarity gap {np.max(np.abs(w * row_slack)):.3g}")
    return problems
