"""Arc evaluation and the simultaneous centering/step-size selection.

The next iterate is searched along the ellipse

    v(sigma, alpha) = v - vdot*sin(alpha) + (p*sigma + q)*(1 - cos(alpha)),

with alpha in (0, pi/2].  It is evaluated on the flat (x, y, s, z)
vectors of the iterate and the directions (see :mod:`arcipm.kkt`), so a
candidate point costs a handful of whole-vector operations, and the
accepted one becomes the next iterate's vector as it is.

Everything else the step rule reads is the (s, z) part of the arc, which
:func:`sz_tails` takes once per iteration: the last 2p entries of the
iterate and its three directions, as one (4, 2p) block.  Each slack and
dual component has a closed-form largest angle that keeps it above its
floor, which :func:`select_step` sets below it; :func:`alpha_limits`
derives it for all 2p components at once, as a function of sigma, and
that one function serves both the positivity cap :func:`alpha_tilde` and
the bisection :func:`bisect_sigma`.  The bisection returns the midpoint of
its last step without deciding a move: with neither half wider than the
tolerance, either move would end it.

Along the ellipse s'z is a polynomial in sigma, sin(alpha) and
1 - cos(alpha).  :class:`MuPredictor` takes its coefficients from the same
block: p*mu and six products of the direction tails.  Its part linear in
sigma, (a_u*sigma + b_u)/p, predicts the updated duality measure, and
:meth:`MuPredictor.along` is the one evaluator of s'z along the arc.  The
loops over angles, :func:`golden_min_bu`, the product of
:meth:`MuPredictor.along` and :func:`arc_point`, form sin(alpha) and
1 - cos(alpha) = 2 sin(alpha/2)^2 inline, with one expression everywhere,
so no angle costs a Python call beyond ``math.sin``.

A step rule yields (sigma, cap, angles) sequences, and :func:`select_step`
takes the first angle that passes the paper's step conditions: floors,
centrality and a falling duality measure.  The two rules differ in their
sequences and their (theta, rho) alone: the paper's
:func:`candidate_steps` runs with the config's, and the library's
:func:`mehrotra_steps`, for ``solve()`` given no start, with
theta = rho = 0, which leaves positivity and a falling measure as its
only tests.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .kkt import Iterate, NewtonDirections, duality_measure, reduce_min

HALF_PI = 0.5 * math.pi

# Slack used when checking candidate components against their floors; the
# closed-form angles are exact only up to roundoff of the trajectory.
FLOOR_SLACK = 1e-10

# Golden-section interval tolerance for the sigma_min sequence.
GOLDEN_TOLERANCE = 1e-4

# Width of the sigma interval at which the bisection stops, the factor that
# shrinks a rejected angle, and the angle below which backtracking gives up.
BISECT_TOLERANCE = 1e-2
BACKTRACK_FACTOR = 0.8
ALPHA_FLOOR = 1e-8

_INV_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0

# Residual factor after a full-angle step has wiped it out: the smallest
# positive normal float.
RESIDUAL_FLOOR = float(np.finfo(float).tiny)

# Machine epsilon, the unit of the angle screen's roundoff margin.
EPSILON = float(np.finfo(float).eps)


class StepFailureError(RuntimeError):
    """No acceptable step length was found above the angle floor."""


@dataclass(frozen=True)
class StepSelection:
    """Chosen centering weight and angle, with the cap and backtrack count.

    ``point`` is the accepted candidate: the flat (x, y, s, z) arc point
    at (sigma, alpha) that passed every step condition, which the next
    iterate keeps as its ``vec``.  It is left out of comparisons and the
    repr.
    """

    sigma: float
    alpha: float
    alpha_tilde: float  # the cap of the sequence the accepted angle came from
    backtracks: int  # candidates passed over before it, skipped or built
    point: np.ndarray = field(compare=False, repr=False)


def arc_point(iterate: Iterate, directions: NewtonDirections, sigma: float, alpha: float) -> np.ndarray:
    """Candidate point on the ellipse at angle alpha, as one flat (x, y, s, z) vector."""
    sin_a = math.sin(alpha)
    omc = 2.0 * math.sin(0.5 * alpha) ** 2
    vdot, p_dir, q_dir = directions
    return iterate.vec - vdot * sin_a + (p_dir * sigma + q_dir) * omc


def update_nu(nu: float, alpha: float) -> float:
    """Shrink the cumulative residual factor by (1 - sin(alpha)).

    At alpha = pi/2 the factor hits zero exactly, which means the linear
    residuals have been wiped out; the run continues from
    :data:`RESIDUAL_FLOOR` so the slack floors stay well defined.  The
    floor raises no warning: the trace's ``nu`` column is where it is seen.
    """
    return nu * (1.0 - math.sin(alpha)) or RESIDUAL_FLOOR


def floors(s, z, nu: float, rho: float):
    """Floors (phi, psi) for the slack and dual blocks: rho times the
    smallest slack or dual, capped at nu.

    They are positive for rho > 0 and exactly 0 at rho = 0, the library
    rule's value, since s, z and nu are positive.
    """
    phi = min(rho * float(reduce_min(s)), nu)
    psi = min(rho * float(reduce_min(z)), nu)
    return phi, psi


def alpha_limits(current, rate, p_coef, q_coef, floor):
    """Largest angles keeping component trajectories above their floors, per sigma.

    Elementwise over arrays, each trajectory is ``current - rate*sin(a) +
    second*(1 - cos(a))`` with ``second = p_coef*sigma + q_coef``.  The
    returned function maps sigma to the largest angles in [0, pi/2] below
    which the trajectories never dip under ``floor``; the sigma-free work
    is done once, here.  With ``margin = current - floor``, ``top = margin
    + second`` and ``R = hypot(rate, second)``, the trajectory minus the
    floor is ``top - R*sin(a + asin(second/R))``, which gives two cases:

    * ``rate > 0``: pi/2 if ``top >= R``, else
      ``min(pi/2, asin(top/R) - asin(second/R))``.
    * ``rate <= 0``: pi/2 if ``top >= 0``, else
      ``min(pi/2, pi - asin(-top/R) - asin(-second/R))``, which is
      ``acos(top/second)`` when rate = 0.

    A component binds (its limit is below pi/2) when ``top`` is under a
    threshold: R if rate > 0, 0 if rate <= 0.  A binding component has
    ``|top| <= R`` and ``R > 0``; the others are divided by infinity
    instead, which keeps every arcsine argument in range without a warning.
    Because asin is odd, the rate <= 0 angle ``pi - asin(-top/R) -
    asin(-second/R)`` is ``pi + asin(top/R) + asin(second/R)``, so both
    cases are ``offset + lead + sign*phase``.

    Every margin must be nonnegative, as the floors of :func:`select_step`
    make it; a negative or NaN margin raises ``ValueError``.
    """
    margin = current - floor
    # negated, so that a NaN margin is rejected too
    if not reduce_min(margin) >= 0.0:
        raise ValueError("a component starts below its floor, or its margin is NaN")
    rising = rate > 0.0
    offset = np.where(rising, 0.0, math.pi)
    sign = np.where(rising, -1.0, 1.0)

    def limits(sigma: float) -> np.ndarray:
        second = p_coef * sigma + q_coef
        top = margin + second
        radius = np.hypot(rate, second)
        binds = top < np.where(rising, radius, 0.0)
        safe = np.where(binds, radius, math.inf)
        lead = np.arcsin(top / safe)
        phase = np.arcsin(second / safe)
        angle = offset + lead + sign * phase
        return np.where(binds, np.minimum(angle, HALF_PI), HALF_PI)

    return limits


def sz_tails(iterate: Iterate, directions: NewtonDirections) -> np.ndarray:
    """The (s, z) tails of the iterate and its directions as one (4, 2p) block.

    Rows: the iterate, the tangent, p_dir, q_dir.  Columns: s then z, the
    last 2p entries of each flat vector.
    """
    tail = slice(-2 * iterate.p, None)
    vdot, p_dir, q_dir = directions
    return np.array((iterate.vec[tail], vdot[tail], p_dir[tail], q_dir[tail]))


def alpha_tilde(limits, sigma: float) -> float:
    """Positivity limit: the smallest per-component angle of :func:`alpha_limits` at sigma."""
    return float(reduce_min(limits(sigma)))


@dataclass(frozen=True, slots=True)
class MuPredictor:
    """s'z along the arc, from p*mu and six products taken once per iteration.

    With sdd = p_s*sigma + q_s and zdd = p_z*sigma + q_z, the arc point's
    product is

        s'z - (sdot.z + s.zdot) sin + (sdd.z + s.zdd) (1-cos) + sdot.zdot sin^2
            - (sdot.zdd + sdd.zdot) sin (1-cos) + sdd.zdd (1-cos)^2.

    The Newton product rows z*sdot + s*zdot = s*z, z*p_s + s*p_z = mu and
    z*q_s + s*q_z = -2 sdot*zdot turn it into a_u*sigma + b_u +
    sdd.zdd (1-cos)^2, where a_u and b_u are trigonometric polynomials in
    alpha with coefficients p*mu, ``mixed``, ``tangent`` and ``cross``, and
    sdd.zdd is quadratic in sigma.  Without the sdd.zdd term, which takes
    either sign, (a_u*sigma + b_u)/p predicts the updated duality measure;
    :func:`golden_min_bu` minimizes b_u and :func:`mu_coefficients` gives
    both.  :meth:`along` forms the sigma-only coefficients of the product
    once per sigma and returns it as a function of alpha, which
    :func:`select_step` calls for each angle of a sequence.

    The rows hold to a few ulps per component, however accurate the LU
    solve is, because :func:`arcipm.kkt.solve_directions` back-substitutes
    dz = (r_z - z*ds)/s.  ``margin``, (4p + 64) machine epsilons times
    sum(|s| + |sdot| + |p_s| + |q_s|) * (|z| + |zdot| + |p_z| + |q_z|),
    bounds that error and the roundoff against the arc point's own s'z at
    angles in [0, pi/2] and sigma in [0, 1].
    """

    p_mu: float
    mixed: float  # zdot.ps + sdot.pz
    tangent: float  # zdot.sdot
    cross: float  # sdot.qz + zdot.qs
    pp: float  # ps.pz
    pq: float  # ps.qz + qs.pz
    qq: float  # qs.qz
    margin: float

    @classmethod
    def of(cls, tails: np.ndarray, mu: float) -> MuPredictor:
        """The coefficients from the :func:`sz_tails` block and the duality measure mu.

        All six come from one 3x3 product of the direction tails, whose
        entry (i, j) is s_i.z_j over (sdot, p_s, q_s) and (zdot, p_z, q_z),
        and ``margin`` from one absolute sum down the block.
        """
        p = tails.shape[1] // 2
        s_part, z_part = tails[:, :p], tails[:, p:]
        # @, not .dot: on these strided views .dot takes another OpenBLAS
        # path, and its bits differ from matmul's at p = 16
        (tangent, sdot_pz, sdot_qz), (ps_zdot, pp, ps_qz), (qs_zdot, qs_pz, qq) = (
            s_part[1:] @ z_part[1:].T
        ).tolist()
        size = np.add.reduce(np.abs(tails), axis=0)
        return cls(
            p * mu,
            ps_zdot + sdot_pz,
            tangent,
            sdot_qz + qs_zdot,
            pp,
            ps_qz + qs_pz,
            qq,
            (4 * p + 64) * EPSILON * float(size[:p].dot(size[p:])),
        )

    def along(self, sigma: float):
        """alpha -> s'z of the arc point at (sigma, alpha), by powers of sin and 1-cos.

        The coefficients that depend on sigma alone are formed here, once,
        and each angle's sin and 1 - cos inline.
        """
        p_mu = self.p_mu
        by_sin_omc = sigma * self.mixed + self.cross
        by_omc2 = sigma * (sigma * self.pp + self.pq) + self.qq - self.tangent
        sin = math.sin

        def product(alpha: float) -> float:
            sin_a = sin(alpha)
            omc = 2.0 * sin(0.5 * alpha) ** 2
            return p_mu * (1.0 - sin_a + sigma * omc) - by_sin_omc * sin_a * omc + by_omc2 * omc * omc

        return product


def mu_coefficients(iterate: Iterate, directions: NewtonDirections, alpha: float):
    """Predictor coefficients (a_u, b_u) of the updated duality measure.

    The predicted measure is (a_u*sigma + b_u)/p.  It omits the term
    sddot'zddot (1-cos)^2, whose sign varies from iteration to iteration
    (:meth:`MuPredictor.along` keeps it), so acceptance decisions use the
    exact value from :func:`arcipm.kkt.duality_measure`.
    """
    predictor = MuPredictor.of(sz_tails(iterate, directions), iterate.mu)
    sin_a = math.sin(alpha)
    omc = 2.0 * math.sin(0.5 * alpha) ** 2
    a_u = predictor.p_mu * omc - predictor.mixed * sin_a * omc
    b_u = predictor.p_mu * (1.0 - sin_a) - (predictor.tangent * omc**2 + predictor.cross * sin_a * omc)
    return a_u, b_u


def bisect_sigma(limits, p_coef, sigma_min: float, sigma_max: float):
    """Bisection for the centering weight maximizing the positivity limit.

    ``limits`` is the function of :func:`alpha_limits` and ``p_coef`` its
    sigma coefficients.  Components whose p-coefficient is positive have
    limits that grow with sigma, negative ones shrink.  When the smallest
    limit over the shrinking group strictly exceeds the smallest over the
    growing group, the bottleneck grows with sigma and the lower bound
    moves up; otherwise (ties included) the upper bound moves down.  Empty
    groups count as an infinite minimum.  Once a bound has moved and left
    the interval no wider than :data:`BISECT_TOLERANCE`, the last midpoint
    tried and its smallest limit are returned.  When neither half of the
    interval is wider than that, either move ends the search, so the
    midpoint is returned without deciding the move, and the group masks
    are built only when a move must be decided.
    """
    lower, upper = sigma_min, sigma_max
    groups = None
    while True:
        sigma = 0.5 * (lower + upper)
        angles = limits(sigma)
        # the widths the test below would see after either move; negated, so
        # that a NaN bound stops here too
        if not (upper - sigma > BISECT_TOLERANCE or sigma - lower > BISECT_TOLERANCE):
            return sigma, float(reduce_min(angles))
        if groups is None:
            groups = p_coef < 0.0, p_coef > 0.0
        shrinks, grows = groups
        shrinking = reduce_min(angles, where=shrinks, initial=math.inf)
        growing = reduce_min(angles, where=grows, initial=math.inf)
        if shrinking > growing:
            lower = sigma
        else:
            upper = sigma
        # negated, so that a NaN width stops too
        if not upper - lower > BISECT_TOLERANCE:
            return sigma, float(reduce_min(angles))


def golden_min_bu(predictor: MuPredictor, alpha_cap: float) -> float:
    """Golden-section minimizer of the predictor's b_u over [0, alpha_cap].

    b_u(alpha) = p*mu (1 - sin) - tangent (1-cos)^2 - cross sin (1-cos).
    Each pass forms it inline at the one inner point that has no value
    yet: the lower and then the upper one at the start, after that the
    point each shrink adds.  The interval's width is tested before that
    point's value is formed, so every value formed is compared: once the
    interval is no wider than :data:`GOLDEN_TOLERANCE`, its midpoint is
    returned.
    """
    p_mu, tangent, cross = predictor.p_mu, predictor.tangent, predictor.cross
    sin = math.sin
    lo, hi = 0.0, alpha_cap
    width = hi - lo
    # negated, so that a NaN cap returns at once too
    if not width > GOLDEN_TOLERANCE:
        return 0.5 * (lo + hi)
    inner_lo = hi - _INV_GOLDEN * width
    inner_hi = lo + _INV_GOLDEN * width
    at_lo, f_hi = True, None
    while True:
        alpha = inner_lo if at_lo else inner_hi
        sin_a = sin(alpha)
        omc = 2.0 * sin(0.5 * alpha) ** 2
        value = p_mu * (1.0 - sin_a) - (tangent * omc**2 + cross * sin_a * omc)
        if at_lo:
            f_lo = value
        else:
            f_hi = value
        if f_hi is None:
            at_lo = False
            continue
        at_lo = f_lo < f_hi
        if at_lo:
            hi, inner_hi, f_hi = inner_hi, inner_lo, f_lo
            inner_lo = hi - _INV_GOLDEN * (hi - lo)
        else:
            lo, inner_lo, f_lo = inner_lo, inner_hi, f_hi
            inner_hi = lo + _INV_GOLDEN * (hi - lo)
        if not hi - lo > GOLDEN_TOLERANCE:
            return 0.5 * (lo + hi)


def _acceptable(s, z, mu_new: float, mu_old: float, phi: float, psi: float, theta: float) -> bool:
    # a NaN minimum fails these comparisons, so the candidate is rejected
    s_min, z_min = reduce_min(s), reduce_min(z)
    if not (s_min > 0.0 and z_min > 0.0):
        return False
    if s_min < phi - FLOOR_SLACK or z_min < psi - FLOOR_SLACK:
        return False
    if reduce_min(s * z) < theta * mu_new * (1.0 - FLOOR_SLACK):
        return False
    # a measure that underflows to 0 while s and z stay positive leaves the
    # next iterate no scale: the trace row divides by it
    return 0.0 < mu_new < mu_old


def candidate_angles(cap: float, start: float):
    """The angles of one sequence of a step rule, in order.

    First the positivity cap and its shrinks ``cap * BACKTRACK_FACTOR**k``
    while they stay above ``start``, then ``start`` and its shrinks while
    they stay above :data:`ALPHA_FLOOR`.  With ``start = cap`` this is plain
    backtracking from the cap.
    """
    alpha = cap
    while alpha > start and alpha > ALPHA_FLOOR:
        yield alpha
        alpha *= BACKTRACK_FACTOR
    alpha = start
    while alpha > ALPHA_FLOOR:
        yield alpha
        alpha *= BACKTRACK_FACTOR


def candidate_steps(limits, p_coef, predictor: MuPredictor, config):
    """The paper's rule: at most two (sigma, cap, angles) sequences.

    ``limits`` and ``p_coef`` are the angle-limit function of
    :func:`alpha_limits` and its sigma coefficients, which both sequences
    share.  A mixed tangent/centering product that is not positive makes
    the predictor's a_u = (1 - cos)(p*mu - mixed*sin) positive at every
    angle, so centering can only raise the predicted duality measure.
    Then the first sequence has the least centering, sigma =
    ``config.sigma_min``, the cap :func:`alpha_tilde` at that sigma, and
    the angles
    ``candidate_angles(cap, golden_min_bu(predictor, cap))``: the cap's
    shrinks down to the golden-section minimizer of b_u, then that
    minimizer and its shrinks.  Centering comes next, or first otherwise:
    :func:`bisect_sigma` picks the sigma whose smallest component limit is
    largest, that limit is the cap, and the angles back off plainly from
    it, ``candidate_angles(cap, cap)``.
    """
    if predictor.mixed <= 0.0:
        sigma = config.sigma_min
        cap = alpha_tilde(limits, sigma)
        yield sigma, cap, candidate_angles(cap, golden_min_bu(predictor, cap))
    sigma, cap = bisect_sigma(limits, p_coef, config.sigma_min, config.sigma_max)
    yield sigma, cap, candidate_angles(cap, cap)


def mehrotra_steps(limits, p_coef, predictor: MuPredictor, config):
    """The library's rule: one sequence, with Mehrotra's sigma bounding the bisection.

    ``limits`` keep s and z positive only.  The cube of the duality measure
    predicted at the golden-section minimizer of b_u on the least-centering
    arc, over the current one, is Mehrotra's sigma (S. Mehrotra, SIAM J.
    Optim. 1992); :func:`bisect_sigma` picks sigma below it, and the angles
    back off plainly from 0.99 of that sigma's cap.
    """
    sigma_min = config.sigma_min
    affine = predictor.along(sigma_min)(golden_min_bu(predictor, alpha_tilde(limits, sigma_min)))
    bound = min(max((affine / predictor.p_mu) ** 3, sigma_min), config.sigma_max)
    sigma, cap = bisect_sigma(limits, p_coef, sigma_min, bound)
    yield sigma, cap, candidate_angles(0.99 * cap, 0.99 * cap)


def select_step(iterate: Iterate, directions: NewtonDirections, config, mehrotra=False) -> StepSelection:
    """Take the first angle of the step rule's sequences that passes every step condition.

    Each path chooses only its rule, theta and rho: the paper's rule,
    :func:`candidate_steps`, with ``config.theta`` and ``config.rho``, or,
    with ``mehrotra``, the library's rule, :func:`mehrotra_steps`, with
    theta = rho = 0.  The floors (phi, psi) of the slack and dual blocks
    come from :func:`floors` at that rho, so they are 0 for the library
    rule, and at theta = 0 the centrality test min(s*z) >= theta*mu
    rejects no positive point.  Every floor lies below every component it
    bounds, because :func:`floors` gives at most rho times the smallest
    slack or dual, with rho < 1, and the iterate's s and z are positive;
    so :func:`alpha_limits` sees no negative margin.

    A rule is a generator of sequences ``(sigma, cap, angles)``: a centering
    weight, the positivity cap :func:`alpha_tilde` at it, and the angles
    tried there, in order.  It is lazy, so a sequence's sigma is found only
    once the sequences before it are used up.  The :func:`sz_tails` block
    is read once, and the angle-limit function and the
    :class:`MuPredictor` built from it serve the whole selection.
    :meth:`MuPredictor.along` is taken once per sequence, at its sigma; an
    angle whose s'z along the arc exceeds p*mu by more than the predictor's
    margin surely fails the duality-measure test, so it is skipped without
    building its point; a NaN product skips nothing.  The first other angle
    whose arc point keeps both blocks above their floors, stays inside the
    centrality region, and strictly decreases the duality measure without
    reaching 0 is taken, and ``backtracks`` counts the angles passed over
    before it, across sequences.  When every sequence is used up,
    :class:`StepFailureError` names the sigma and cap of the last.
    """
    p = iterate.p
    tails = sz_tails(iterate, directions)
    rule, theta, rho = (mehrotra_steps, 0.0, 0.0) if mehrotra else (candidate_steps, config.theta, config.rho)
    phi, psi = floors(iterate.s, iterate.z, iterate.nu, rho)
    limits = alpha_limits(*tails, np.array((phi, psi)).repeat(p))
    predictor = MuPredictor.of(tails, iterate.mu)
    ceiling = predictor.p_mu + predictor.margin
    backtracks = 0
    for sigma, cap, angles in rule(limits, tails[2], predictor, config):
        along = predictor.along(sigma)
        for alpha in angles:
            # negated, so that a NaN product builds its point
            if not along(alpha) > ceiling:
                point = arc_point(iterate, directions, sigma, alpha)
                s, z = point[-2 * p : -p], point[-p:]
                mu_new = duality_measure(s, z)
                if _acceptable(s, z, mu_new, iterate.mu, phi, psi, theta):
                    return StepSelection(sigma, alpha, cap, backtracks, point)
            backtracks += 1
    raise StepFailureError(
        f"no acceptable angle above {ALPHA_FLOOR:.1e} "
        f"(sigma={sigma:.3f}, positivity limit {cap:.3e})"
    )
