"""Arc evaluation and the simultaneous centering/step-size selection.

The next iterate is searched along the ellipse

    v(sigma, alpha) = v - vdot*sin(alpha) + (p*sigma + q)*(1 - cos(alpha)),

with alpha in (0, pi/2].  It is evaluated on the flat (x, y, s, z)
vectors of the iterate and the directions (see :mod:`arcipm.kkt`), so a
candidate point costs a handful of whole-vector operations, and the
accepted one becomes the next iterate's vector as it is.  Each slack and
dual component has a closed-form largest angle that keeps it above a
positive floor; :func:`alpha_limits` derives it and evaluates it for all
2p components at once, the last 2p entries of each flat vector.  A
bisection over sigma maximizes the smallest limit, exploiting that each
component limit is monotone in sigma with the sign of its p-coefficient.
A predictor of the updated duality measure, built from three dot products
of the directions, decides when pure affine stepping (sigma = 0) is
preferable and where along the arc it is best.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .kkt import Blocks, Iterate, NewtonDirections

HALF_PI = 0.5 * math.pi

# Slack used when checking candidate components against their floors; the
# closed-form angles are exact only up to roundoff of the trajectory.
FLOOR_SLACK = 1e-10

# Golden-section interval tolerance for the sigma = 0 branch.
GOLDEN_TOLERANCE = 1e-4

_INV_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0

# Residual factor after a full-angle step has wiped it out: the smallest
# positive normal float.
RESIDUAL_FLOOR = float(np.finfo(float).tiny)


class StepFailureError(RuntimeError):
    """No acceptable step length was found above the angle floor."""


@dataclass(frozen=True)
class StepSelection:
    """Chosen centering weight and angle, with selection diagnostics.

    ``point`` is the accepted candidate: the flat (x, y, s, z) arc point
    at (sigma, alpha) that passed every step condition, which the next
    iterate keeps as its ``vec``.  It is left out of comparisons and the
    repr.
    """

    sigma: float
    alpha: float
    alpha_tilde: float
    a_u: float
    b_u: float
    backtracks: int
    point: np.ndarray = field(compare=False, repr=False)


def _one_minus_cos(alpha: float) -> float:
    # stable for small angles
    return 2.0 * math.sin(0.5 * alpha) ** 2


def arc_point(iterate: Iterate, directions: NewtonDirections, sigma: float, alpha: float) -> np.ndarray:
    """Candidate point on the ellipse at angle alpha, as one flat (x, y, s, z) vector."""
    sin_a = math.sin(alpha)
    omc = _one_minus_cos(alpha)
    vdot, p_vec, q_vec = directions.vdot_vec, directions.p_vec, directions.q_vec
    return iterate.vec - vdot * sin_a + (p_vec * sigma + q_vec) * omc


def update_nu(nu: float, alpha: float) -> float:
    """Shrink the cumulative residual factor by (1 - sin(alpha)).

    At alpha = pi/2 the factor hits zero exactly, which means the linear
    residuals have been wiped out; the run continues from
    :data:`RESIDUAL_FLOOR` so the slack floors stay well defined.
    """
    return nu * (1.0 - math.sin(alpha)) or RESIDUAL_FLOOR


def floors(s, z, nu: float, rho: float):
    """Positive floors (phi, psi) for the slack and dual blocks."""
    phi = min(rho * float(s.min()), nu)
    psi = min(rho * float(z.min()), nu)
    return phi, psi


def alpha_limits(current, rate, p_coef, q_coef, floor, sigma: float) -> np.ndarray:
    """Largest angles keeping component trajectories above their floors.

    Elementwise over arrays, each trajectory is ``current - rate*sin(a) +
    second*(1 - cos(a))`` with ``second = p_coef*sigma + q_coef``, and the
    answer is the largest angle in [0, pi/2] below which it never dips
    under ``floor``.  With ``margin = current - floor``, ``top = margin +
    second`` and ``R = hypot(rate, second)``, the trajectory minus the
    floor is ``top - R*sin(a + asin(second/R))``, which gives three cases:

    * ``margin < 0``: the component is already below its floor; 0.
    * ``rate > 0``: pi/2 if ``top >= R``, else
      ``min(pi/2, asin(top/R) - asin(second/R))``.
    * ``rate <= 0``: pi/2 if ``top >= 0``, else
      ``min(pi/2, pi - asin(-top/R) - asin(-second/R))``, which is
      ``acos(top/second)`` when rate = 0.
    """
    return _limits_in_sigma(current, rate, p_coef, q_coef, floor)(sigma)


def _limits_in_sigma(current, rate, p_coef, q_coef, floor):
    """:func:`alpha_limits` as a function of sigma, its sigma-free work done once.

    A component binds (its limit is below pi/2) when ``top`` is under a
    threshold: R if rate > 0, 0 if rate <= 0, and -inf below the floor, so
    those never bind.  A binding component has ``|top| <= R`` and ``R > 0``;
    the others are divided by infinity instead, which keeps every arcsine
    argument in range without a warning.  Because asin is odd, the rate <= 0
    angle ``pi - asin(-top/R) - asin(-second/R)`` is ``pi + asin(top/R) +
    asin(second/R)``, so both cases are ``offset + lead + sign*phase``.
    """
    margin = current - floor
    rising = rate > 0.0
    usable = margin >= 0.0
    rising_usable = rising & usable
    low = np.where(usable, 0.0, -math.inf)
    offset = np.where(rising, 0.0, math.pi)
    sign = np.where(rising, -1.0, 1.0)
    unbound = np.where(usable, HALF_PI, 0.0)

    def limits(sigma: float) -> np.ndarray:
        second = p_coef * sigma + q_coef
        top = margin + second
        radius = np.hypot(rate, second)
        binds = top < np.where(rising_usable, radius, low)
        safe = np.where(binds, radius, math.inf)
        lead = np.arcsin(top / safe)
        phase = np.arcsin(second / safe)
        angle = offset + lead + sign * phase
        return np.where(binds, np.minimum(angle, HALF_PI), unbound)

    return limits


def component_alpha_limit(
    current: float, rate: float, p_coef: float, q_coef: float, floor: float, sigma: float
) -> float:
    """:func:`alpha_limits` for a single component."""
    return float(alpha_limits(current, rate, p_coef, q_coef, floor, sigma))


def _components(iterate: Iterate, directions: NewtonDirections, phi: float, psi: float):
    """(current, rate, p_coef, q_coef, floor) arrays over the slack then dual entries."""
    # s and z are the last 2p entries of every flat vector
    sz_at = iterate.vec.size - 2 * iterate.p
    return (
        iterate.vec[sz_at:],
        directions.vdot_vec[sz_at:],
        directions.p_vec[sz_at:],
        directions.q_vec[sz_at:],
        np.repeat((phi, psi), iterate.p),
    )


def alpha_tilde(
    iterate: Iterate, directions: NewtonDirections, phi: float, psi: float, sigma: float
) -> float:
    """Positivity limit: the smallest per-component angle over both blocks."""
    return float(alpha_limits(*_components(iterate, directions, phi, psi), sigma).min())


@dataclass(frozen=True)
class MuPredictor:
    """Predictor of the updated duality measure, from three dot products.

    For fixed directions, a_u and b_u are trigonometric polynomials in
    alpha whose coefficients are p*mu and the products below, so those are
    taken once instead of at every evaluated angle.
    """

    p_mu: float
    mixed: float  # zdot.ps + sdot.pz
    tangent: float  # zdot.sdot
    cross: float  # sdot.qz + zdot.qs

    @classmethod
    def of(cls, iterate: Iterate, directions: NewtonDirections) -> MuPredictor:
        sdot, zdot = directions.vdot.s, directions.vdot.z
        ps, pz = directions.p_dir.s, directions.p_dir.z
        qs, qz = directions.q_dir.s, directions.q_dir.z
        return cls(
            iterate.p * iterate.mu,
            float(zdot @ ps + sdot @ pz),
            float(zdot @ sdot),
            float(sdot @ qz + zdot @ qs),
        )

    def at(self, alpha: float):
        """(a_u, b_u) at angle alpha."""
        sin_a = math.sin(alpha)
        omc = _one_minus_cos(alpha)
        return self.p_mu * omc - self.mixed * sin_a * omc, self.b_u(alpha)

    def b_u(self, alpha: float) -> float:
        """b_u alone at angle alpha."""
        sin_a = math.sin(alpha)
        omc = _one_minus_cos(alpha)
        return self.p_mu * (1.0 - sin_a) - (self.tangent * omc**2 + self.cross * sin_a * omc)


def mu_coefficients(iterate: Iterate, directions: NewtonDirections, alpha: float):
    """Predictor coefficients (a_u, b_u) of the updated duality measure.

    The predicted product is (a_u*sigma + b_u)/p; it omits the nonnegative
    quadratic term sddot's zddot (1-cos)^2, so the exact value from
    :func:`mu_exact` is what acceptance decisions use.
    """
    return MuPredictor.of(iterate, directions).at(alpha)


def mu_exact(candidate: Blocks) -> float:
    """Duality measure of a candidate point, computed from its own blocks."""
    return float(candidate.s @ candidate.z) / candidate.s.size


def bisect_sigma(
    iterate: Iterate,
    directions: NewtonDirections,
    phi: float,
    psi: float,
    sigma_min: float,
    sigma_max: float,
    tol: float,
):
    """Bisection for the centering weight maximizing the positivity limit.

    Components whose p-coefficient is positive have limits that grow with
    sigma, negative ones shrink.  When the smallest limit over the
    shrinking group strictly exceeds the smallest over the growing group,
    the bottleneck grows with sigma and the lower bound moves up;
    otherwise (ties included) the upper bound moves down.  Empty groups
    count as an infinite minimum.
    """
    current, rate, p_coef, q_coef, floor = _components(iterate, directions, phi, psi)
    limits_at = _limits_in_sigma(current, rate, p_coef, q_coef, floor)
    shrinks, grows = p_coef < 0.0, p_coef > 0.0
    lower, upper = sigma_min, sigma_max
    sigma = 0.5 * (lower + upper)
    limits = None
    while upper - lower > tol:
        sigma = 0.5 * (lower + upper)
        limits = limits_at(sigma)
        shrinking = limits.min(where=shrinks, initial=math.inf)
        growing = limits.min(where=grows, initial=math.inf)
        if shrinking > growing:
            lower = sigma
        else:
            upper = sigma
    if limits is None:  # the interval started within the tolerance
        limits = limits_at(sigma)
    return sigma, float(limits.min())


def golden_min_bu(predictor: MuPredictor, alpha_cap: float) -> float:
    """Golden-section minimizer of the predictor's b_u over [0, alpha_cap]."""
    if alpha_cap <= 0.0:
        return 0.0

    objective = predictor.b_u
    lo, hi = 0.0, alpha_cap
    width = hi - lo
    inner_lo = hi - _INV_GOLDEN * width
    inner_hi = lo + _INV_GOLDEN * width
    f_lo, f_hi = objective(inner_lo), objective(inner_hi)
    while hi - lo > GOLDEN_TOLERANCE:
        if f_lo < f_hi:
            hi, inner_hi, f_hi = inner_hi, inner_lo, f_lo
            inner_lo = hi - _INV_GOLDEN * (hi - lo)
            f_lo = objective(inner_lo)
        else:
            lo, inner_lo, f_lo = inner_lo, inner_hi, f_hi
            inner_hi = lo + _INV_GOLDEN * (hi - lo)
            f_hi = objective(inner_hi)
    return 0.5 * (lo + hi)


def _acceptable(candidate: Blocks, mu_new: float, mu_old: float, phi: float, psi: float, theta: float) -> bool:
    # a NaN minimum fails these comparisons, so the candidate is rejected
    s_min, z_min = candidate.s.min(), candidate.z.min()
    if not (s_min > 0.0 and z_min > 0.0):
        return False
    if s_min < phi - FLOOR_SLACK or z_min < psi - FLOOR_SLACK:
        return False
    if (candidate.s * candidate.z).min() < theta * mu_new * (1.0 - FLOOR_SLACK):
        return False
    return mu_new < mu_old


def select_step(
    iterate: Iterate,
    directions: NewtonDirections,
    phi: float,
    psi: float,
    config,
) -> StepSelection:
    """Pick (sigma, alpha) and backtrack until every step condition holds.

    When the mixed tangent/centering products make the duality-measure
    predictor increase with sigma, centering is switched off and the angle
    comes from minimizing b_u under the sigma = 0 positivity cap; otherwise
    sigma and its positivity limit come from the bisection.  From that
    limit, alpha shrinks geometrically until the candidate keeps both
    blocks above their floors, stays inside the centrality region, and
    strictly decreases the duality measure.
    """
    predictor = MuPredictor.of(iterate, directions)
    if predictor.mixed < 0.0:
        sigma = 0.0
        cap = alpha_tilde(iterate, directions, phi, psi, sigma)
        tilde = golden_min_bu(predictor, cap)
    else:
        sigma, tilde = bisect_sigma(
            iterate, directions, phi, psi, config.sigma_min, config.sigma_max, config.bisect_tol
        )

    alpha = tilde
    backtracks = 0
    while alpha > config.alpha_floor:
        point = arc_point(iterate, directions, sigma, alpha)
        candidate = Blocks.of(point, directions.n, directions.m, directions.p)
        mu_new = mu_exact(candidate)
        if _acceptable(candidate, mu_new, iterate.mu, phi, psi, config.theta):
            a_u, b_u = predictor.at(alpha)
            return StepSelection(sigma, alpha, tilde, a_u, b_u, backtracks, point)
        alpha *= config.backtrack
        backtracks += 1
    raise StepFailureError(
        f"no acceptable angle above {config.alpha_floor:.1e} "
        f"(sigma={sigma:.3f}, positivity limit {tilde:.3e})"
    )
