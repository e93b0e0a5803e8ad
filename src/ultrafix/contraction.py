"""Banach fixed-point iteration with a priori/a posteriori certificates.

The stopping rule is driven by the a priori bound theta^n/(1-theta) * d0, so
the returned precision claim holds even without observing convergence.  On
the ultrametric side admissibility is sharpened from d0 <= (1-theta)r to
d0 <= r: the iteration displacements form a max-telescoping sequence, so the
orbit never leaves the closed ball.

Ultrametric problems can instead be solved by Newton steps
(`newton_fixed_point`), whose digits are proven a posteriori from the
residual of a closing Banach step and capped by the same a priori bound.
Each Newton step works at the digits it can use, which double from step to
step; only the last ones run at full precision.  A step solves
(I - Dg(x)) s = g(x) - x by one elimination, with no inverse formed, and
over Q_p the a priori exponents are integers from the numerators and
denominators of theta and d0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

from .calculus import (
    MapSpec,
    eval_map,
    jacobian,
    lipschitz_bound,
    telescoped_lipschitz,
)
from .errors import (
    DimensionMismatch,
    DomainEscape,
    NotAContraction,
    NotAdmissible,
    NotAFixedPoint,
    PrecisionExhausted,
    SchemaError,
)
from .field import (
    FieldDescriptor,
    PadicScalar,
    abs_upper_bound,
    floor_log,
    int_floor_log,
    num_str,
    rational_abs,
    rational_valuation,
    truncate_precision,
    valuation_abs,
)
from .linalg import (
    Ball,
    Operator,
    Vector,
    neumann_invert,
    operator_norm,
    solve_exact,
    vec_norm,
)


@dataclass(frozen=True)
class ContractionProblem:
    """A candidate self-map of a ball with contraction constant theta."""

    f: MapSpec
    domain: Ball
    theta: Fraction
    x0: tuple

    def __post_init__(self):
        object.__setattr__(self, "theta", Fraction(self.theta))
        object.__setattr__(self, "x0", tuple(Fraction(v) for v in self.x0))
        if self.f.domain_dim != self.f.codomain_dim:
            raise DimensionMismatch("fixed points need a self-map candidate")
        if self.domain.dim != self.f.domain_dim:
            raise DimensionMismatch("ball dimension mismatch")
        if not 0 <= self.theta < 1:
            raise NotAContraction(f"theta = {num_str(self.theta)} is not in [0, 1)")
        if not self.domain.contains_rational(self.x0):
            raise NotAdmissible("x0 is outside the domain ball")

    @property
    def descriptor(self) -> FieldDescriptor:
        return self.domain.descriptor

    def initial_displacement(self) -> Fraction:
        """d(f(x0), x0), exactly."""
        return self._d0

    @cached_property
    def _d0(self) -> Fraction:
        fx0 = eval_map(self.f, self.x0)
        return max(rational_abs(a - b, self.descriptor) for a, b in zip(fx0, self.x0))

    @cached_property
    def rounding_bound(self) -> Fraction:
        """What the doubles of a real solve can add to its a priori bound.

        With u = 2^-53, the start x0 is rounded by at most u|x0|.  An output
        with t monomials of degree at most d is evaluated with one rounding
        for each coefficient, d products per monomial and t - 1 additions,
        so it is off by at most gamma_K * sum(|c| s^|a|), K = d + t and
        gamma_K = K u / (1 - K u) (Higham, Accuracy and Stability of
        Numerical Algorithms, ch. 3), where s bounds every coordinate of the
        iterates: the ball's extent plus the slack of its membership test.
        The errors of the evaluations are contracted by theta from step to
        step, so together they stay below delta / (1 - theta), delta the
        largest of those output bounds.  Zero on ultrametric fields.
        """
        desc = self.descriptor
        if desc.ultrametric:
            return Fraction(0)
        ball = self.domain
        u = Fraction(1, 2**53)
        slack = Fraction(desc.tolerance) * max(1, ball.radius)
        s = max(abs(c) for c in ball.center_exact) + ball.radius + slack
        delta = Fraction(0)
        for monomials in self.f.outputs:
            K = len(monomials) + max((sum(exps) for exps, _ in monomials), default=0)
            size = sum(abs(c) * s ** sum(exps) for exps, c in monomials)
            delta = max(delta, K * u / (1 - K * u) * size)
        return u * max(abs(v) for v in self.x0) + delta / (1 - self.theta)


@dataclass
class FixedPointReport:
    fixed_point: Vector
    iterations: int
    trace: list[Vector]
    apriori_bounds: list[Fraction]
    achieved_distance: object
    theta: Fraction
    initial_distance: Fraction
    step_distances: list
    error_bound: Fraction
    """What the solve certifies for |fixed_point - x*|, never above the
    target: the a priori bound after `iterations` steps (a p-power on
    ultrametric fields), plus the rounding bound of a real solve; 0 for a
    real target of 0, which only the exact fixed point meets."""


def admissible(problem: ContractionProblem) -> bool:
    """Is the orbit guaranteed to stay inside the domain ball?"""
    d0 = problem.initial_displacement()
    r = problem.domain.radius
    if problem.descriptor.ultrametric:
        return d0 <= r if problem.domain.closed else d0 < r
    slack = (1 - problem.theta) * r
    return d0 <= slack if problem.domain.closed else d0 < slack


MAX_STEPS = 100_000


def _power_exponent(theta: Fraction, d0: Fraction, n: int, p: int, geometric: bool = False):
    """f with p^f the largest p-power <= theta^n d0, or <= theta^n d0 /
    (1 - theta) when `geometric`; None when that value is 0.

    Worked out in integers from the numerators and denominators of theta
    and d0: theta^n d0 / (1 - theta) = a^n c b / (b^n d (b - a)) for
    theta = a/b and d0 = c/d, and no Fraction is formed.
    """
    a, b = theta.numerator, theta.denominator
    num = a**n * d0.numerator
    if not num:
        return None
    den = b**n * d0.denominator
    if geometric:
        num, den = num * b, den * (b - a)
    return int_floor_log(num, den, p)


def _certified_bound(
    theta: Fraction, d0: Fraction, n: int, descriptor: FieldDescriptor
) -> Fraction:
    """The a priori bound theta^n d0 / (1 - theta) after n steps.

    Padic bounds are rounded down to the largest p-power <= bound: absolute
    values lie in the value group, so that power is all the bound certifies.
    """
    if descriptor.ultrametric:
        f = _power_exponent(theta, d0, n, descriptor.prime, geometric=True)
        return Fraction(0) if f is None else valuation_abs(descriptor.prime, -f)
    return theta**n * d0 / (1 - theta)


def _step_count(
    theta: Fraction, d0: Fraction, target: Fraction, descriptor: FieldDescriptor
) -> int:
    """Least n with _certified_bound(n) <= target.

    The bound B theta^n, B = d0 / (1 - theta), does not increase with n, so
    n is estimated in floats from the logarithms of the numerators and
    denominators, then confirmed exactly: reached(n) and not reached(n - 1),
    walking by one while the estimate is off.  A padic bound is rounded down
    to a p-power, so it reaches the target once B theta^n < p^(f + 1), with
    p^f the largest p-power <= target.  Raises NotAContraction when the
    least n exceeds MAX_STEPS.
    """

    def reached(n: int) -> bool:
        return _certified_bound(theta, d0, n, descriptor) <= target

    if d0 == 0 or reached(0):
        return 0
    if target < 0 or (target == 0 and theta > 0):
        # theta^n d0 > 0 for every n when theta > 0, and a bound is never negative
        raise NotAContraction(f"a priori bound cannot reach {num_str(target)}: it stays positive")
    if theta == 0:
        return 1
    n = _estimated_steps(theta, d0 / (1 - theta), target, descriptor)
    while not reached(n):
        if n >= MAX_STEPS:
            raise NotAContraction(
                f"a priori bound cannot reach {num_str(target)} in reasonable time"
            )
        n += 1
    while n > 1 and reached(n - 1):
        n -= 1
    return n


def _log(q: Fraction) -> float:
    """ln q of a positive rational whose parts may be past float range."""
    return math.log(q.numerator) - math.log(q.denominator)


def _estimated_steps(theta: Fraction, start: Fraction, target: Fraction, descriptor) -> int:
    """The n in [1, MAX_STEPS] at which start * theta^n crosses the target,
    in floats.

    -ln theta is taken as log1p((1 - theta)/theta) when theta is near 1,
    where the difference of two logarithms would cancel.
    """
    if descriptor.ultrametric:
        log_target = (floor_log(target, descriptor.prime) + 1) * math.log(descriptor.prime)
    else:
        log_target = _log(target)
    shrink = math.log1p((1 - theta) / theta) if theta > Fraction(1, 2) else -_log(theta)
    estimate = (_log(start) - log_target) / shrink if shrink > 0 else math.inf
    return MAX_STEPS if estimate >= MAX_STEPS else max(1, math.ceil(estimate))


def default_target_precision(descriptor: FieldDescriptor) -> Fraction:
    if descriptor.ultrametric:
        return Fraction(1, descriptor.prime**descriptor.precision)
    return Fraction(descriptor.tolerance)


def _target(target_precision, descriptor: FieldDescriptor) -> Fraction:
    if target_precision is None:
        return default_target_precision(descriptor)
    return Fraction(target_precision)


def _plan(problem: ContractionProblem, target_precision) -> tuple:
    """(theta, d0, target, steps) of an admissible problem.

    steps is the least n whose a priori bound clears the target, less the
    rounding bound on real fields.  Raises NotAdmissible, NotAContraction
    when the target is out of reach, or PrecisionExhausted when a positive
    real target is not above the rounding bound.
    """
    if not admissible(problem):
        d0, radius = num_str(problem.initial_displacement()), num_str(problem.domain.radius)
        raise NotAdmissible(
            f"d(f(x0), x0) = {d0} exceeds the admissible displacement for radius {radius}",
            d0=d0, radius=radius, theta=num_str(problem.theta),
        )
    desc = problem.descriptor
    theta, d0 = problem.theta, problem.initial_displacement()
    target = _target(target_precision, desc)
    reach = target
    if not desc.ultrametric and target > 0:
        rounding = problem.rounding_bound
        if rounding >= target:
            raise PrecisionExhausted(
                f"real target {num_str(target)} is not above the rounding bound "
                f"{num_str(rounding)} of the solve",
                target=num_str(target),
                rounding=num_str(rounding),
            )
        reach = target - rounding
    return theta, d0, target, _step_count(theta, d0, reach, desc)


def planned_steps(problem: ContractionProblem, target_precision=None) -> int:
    """The steps iterate_fixed_point plans for the problem, before taking
    any; it raises what iterate_fixed_point would raise first."""
    return _plan(problem, target_precision)[3]


def _check_step(k: int, step, bound: Fraction, ultrametric: bool, slack: float = 0.0) -> None:
    """Step k of a contraction moves at most its a priori bound theta^k d0.

    A real step, the rounded difference of two doubles each within the
    rounding bound R of the exact orbit, may pass it by slack = 2R and a
    relative 2^-51 (its own rounding and that of the sum), and by 1e-12."""
    violated = step > bound if ultrametric else step > (float(bound) + slack) * (1 + 2**-51) + 1e-12
    if violated:
        size, bound = num_str(step), num_str(bound)
        raise DomainEscape(
            f"step {k} of size {size} exceeds its a priori bound {bound}: "
            "the supplied contraction constant is wrong",
            step=str(k), size=size, bound=bound,
        )


def _domain_escape(what: str, x: Vector, ball: Ball, step: int):
    """Iterate `step` left the domain ball: raise with its distance from
    the centre and the radius.  The closing Banach step after k Newton
    steps is step k + 1."""
    if ball.descriptor.ultrametric:
        distance = vec_norm(x - ball.center)
    else:
        distance = max(abs(a - c) for a, c in zip(x.to_rationals(), ball.center_exact))
    distance, radius = num_str(distance), num_str(ball.radius)
    raise DomainEscape(
        f"{what} left the domain ball: distance {distance} from the centre, radius {radius}",
        step=str(step), distance=distance, radius=radius,
    )


def _residual_escape(residual, target: Fraction):
    """The final residual of a solve missed its target."""
    residual, target = num_str(residual), num_str(target)
    raise DomainEscape(
        f"residual {residual} above target {target}: contraction claim failed",
        residual=residual, target=target,
    )


def _check_exact_real(problem: ContractionProblem, x: Vector) -> None:
    """A real target 0 claims x is the fixed point itself.  _step_count lets
    it through only when theta = 0 or d0 = 0, and then the fixed point is
    g(x0) exactly, so the doubles of x must equal it."""
    exact = eval_map(problem.f, problem.x0)
    got = x.to_rationals()
    if got != exact:
        raise PrecisionExhausted(
            "a real target of 0 claims the exact fixed point g(x0), "
            "which the iterate's doubles do not hold",
            value=[num_str(v) for v in got],
            exact=[num_str(v) for v in exact],
        )


def iterate_fixed_point(
    problem: ContractionProblem, target_precision=None
) -> FixedPointReport:
    """Iterate x -> f(x) until the a priori bound clears target_precision.

    Padic targets are value-group elements (default p^-N); real targets are
    absolute tolerances (default the field tolerance).
    """
    theta, d0, target, steps = _plan(problem, target_precision)
    desc = problem.descriptor

    x = Vector.from_rationals(problem.x0, desc)
    trace = [x]
    bounds: list[Fraction] = []
    distances = []
    slack = 2 * float(problem.rounding_bound)
    for k in range(steps):
        nxt = eval_map(problem.f, x)
        if not problem.domain.contains_tracked(nxt):
            _domain_escape(f"iterate {k + 1}", nxt, problem.domain, k + 1)
        step = vec_norm(nxt - x)
        bound = theta**k * d0
        _check_step(k, step, bound, desc.ultrametric, slack)
        distances.append(step)
        bounds.append(bound)
        trace.append(nxt)
        prev, x = x, nxt
        if desc.ultrametric and (nxt - prev).is_zero():
            # tracked digits can no longer change; further steps are no-ops
            break
    achieved = distances[-1] if distances else (Fraction(0) if desc.ultrametric else 0.0)
    guarantee = _certified_bound(theta, d0, len(trace) - 1, desc) + problem.rounding_bound
    if desc.ultrametric and d0 > 0:
        if guarantee > 0:
            exponent = -rational_valuation(guarantee, desc.prime)
            x = Vector(tuple(truncate_precision(c, exponent) for c in x.components))
    if not desc.ultrametric and target == 0:
        _check_exact_real(problem, x)
        guarantee = Fraction(0)
    residual = vec_norm(eval_map(problem.f, x) - x)
    if desc.ultrametric:
        fixed_ok = residual <= target
    else:
        fixed_ok = residual <= (1 + float(theta)) * float(target) + desc.tolerance
    if not fixed_ok:
        _residual_escape(residual, target)
    return FixedPointReport(
        fixed_point=x,
        iterations=len(trace) - 1,
        trace=trace,
        apriori_bounds=bounds,
        achieved_distance=achieved,
        theta=theta,
        initial_distance=d0,
        step_distances=distances,
        error_bound=guarantee,
    )


NEWTON_STEPS_PER_DIM = 8
"""Newton pays once the Banach step count exceeds this many steps per variable.

A Newton step costs about n + 1 map evaluations and an n x n elimination,
a Banach step one evaluation.  With Newton forced on every p-adic solve of
the `request_mix` benchmark rounds (seeds 77, 78, 5 and 7, rounds 0-2, 708
operations; minimum of 7 runs on a 2-core x86_64 VM, Python 3.11), its
p-adic `invert` requests take 1.8x as long and its p-adic `implicit`
requests 1.1-1.15x, the whole mix about 18% longer; the threshold stays.
"""


def newton_pays(problem: ContractionProblem, target_precision=None) -> bool:
    """Should an ultrametric problem be solved by newton_fixed_point?

    Decided from what is known before any step: the Banach step count
    exceeds NEWTON_STEPS_PER_DIM * n exactly when the a priori bound after
    that many steps still misses the target, so one bound decides it.
    """
    desc = problem.descriptor
    if not desc.ultrametric:
        return False
    target = _target(target_precision, desc)
    limit = NEWTON_STEPS_PER_DIM * problem.domain.dim
    d0 = problem.initial_displacement()
    return _certified_bound(problem.theta, d0, limit, desc) > target


def _at_width(x: Vector, width) -> Vector:
    """x at absolute precision `width`, or x itself once that drops none of
    its known digits (a component knows at most val + N; an all-zero x
    counts as known to N, as a point of valuation 0 would be)."""
    desc = x.descriptor
    top = max((c.prec for c in x.components if c.val is not None), default=desc.precision)
    if width >= top:
        return x
    return Vector(tuple(truncate_precision(c, width) for c in x.components))


def _exact(x: Vector) -> Vector:
    """x read as the exact point its known digits spell, known to full
    precision: a Newton iterate is a point like any other, whatever precision
    the step that made it worked at, and a later step may read more of its
    digits than that step knew."""
    desc = x.descriptor
    mod = desc.prime**desc.precision
    return Vector(
        tuple(
            desc.zero() if c.val is None else PadicScalar(desc, c.val, c.unit, c.val + desc.precision, mod)
            for c in x.components
        )
    )


def _identity_minus(jac: Operator, one) -> Operator:
    """I - J from J's entries: one - a on the diagonal, -a off it, the
    values Operator.identity - J would give."""
    return Operator(tuple(
        tuple(one - a if i == j else -a for j, a in enumerate(row))
        for i, row in enumerate(jac.entries)
    ))


def newton_fixed_point(problem: ContractionProblem, target_precision=None) -> Vector:
    """The fixed point of an ultrametric contraction by Newton steps.

    Iterates x -> x + s, s solving (I - Dg(x)) s = g(x) - x by one
    elimination (no inverse is formed), until g(x) - x is zero at
    full precision, at most as many steps as iterate_fixed_point would take,
    with its admissibility, domain, per-step and residual checks.  The
    digits are proven a posteriori: on an ultrametric ball |x - x*| <=
    |g(x) - x|, and the closing Banach step g(x) is no farther from x*.  The
    result is g(x) truncated to the weaker of that bound and the a priori
    bound of iterate_fixed_point, so it never claims more digits than it
    proves or than the Banach iteration would.

    Precision doubling (von zur Gathen & Gerhard, Modern Computer Algebra,
    ch. 9): step k evaluates g and Dg at x truncated to an absolute working
    precision W_k, so its evaluations and elimination run on about W_k
    digits, and the iterate it makes is read as the exact point its digits
    spell, to be truncated again by the next step.  With p^-e_j the largest
    p-power <= theta^j d0, W_0 = max(3, e_1 + 2); a step whose residual has
    valuation v leaves x right to about 2v digits, and the next step to 4v,
    so W_(k+1) = max(W_k, 4v + 2, e_(k+2) + 2): the e term keeps the next
    step's residual inside its a priori bound (Caruso, Roe & Vaccon,
    "Tracking p-adic precision", 2014, on the digits a lift certifies).  A
    residual that is zero at W_k only says x is right to W_k digits: W
    doubles and the step is taken again, which counts as no step.  So does
    a step that comes out short of W_k digits, because products of values
    above 1 lost some: it is taken again that many digits wider.  Once W_k
    drops none of x's digits, for the last step the a priori cap allows,
    and for the closing Banach step and the posterior bound, g is evaluated
    at full precision on x as tracked.
    """
    desc = problem.descriptor
    if not desc.ultrametric:
        raise SchemaError("Newton steps are certified on ultrametric fields only")
    theta, d0, target, steps = _plan(problem, target_precision)
    f, p = problem.f, desc.prime
    x = Vector.from_rationals(problem.x0, desc)
    bound = _certified_bound(theta, d0, steps, desc)
    if steps:
        one = desc.one()

        def apriori_exponent(j: int):
            """e_j; infinite once theta^j d0 is 0 (theta = 0)."""
            e = _power_exponent(theta, d0, j, p)
            return math.inf if e is None else -e

        e_k, e_next = apriori_exponent(0), apriori_exponent(1)
        width, lost, k = max(3, e_next + 2), 0, 0
        while True:  # each pass takes one step, or widens W and tries again
            xw = x if k == steps - 1 else _at_width(x, width + lost)
            gx = eval_map(f, xw)
            residual = gx - xw
            if residual.is_zero():
                if xw is x:
                    break
                width *= 2
                continue
            step = solve_exact(_identity_minus(jacobian(f, xw), one), residual)
            moved = x + step
            if xw is not x:
                short = width - min(c.prec for c in moved.components)
                if short > 0:
                    lost += short
                    continue
                moved = _exact(moved)
            # I - Dg(x) is an isometry, so the step is as long as g(x) - x;
            # |step| = p^-v is within theta^k d0 exactly when v >= e_k, and
            # only a step past it builds the Fractions _check_step reports
            step_val = min((c.val for c in step.components if c.val is not None), default=None)
            if step_val is not None and step_val < e_k:
                _check_step(k, valuation_abs(p, step_val), theta**k * d0, True)
            x = moved
            k += 1
            e_k, e_next = e_next, apriori_exponent(k + 1)
            if not problem.domain.contains_tracked(x):
                _domain_escape(f"Newton iterate {k}", x, problem.domain, k)
            if k == steps:
                gx = eval_map(f, x)
                break
            v = min(c.val for c in residual.components if c.val is not None)
            width = max(width, 4 * v + 2, e_next + 2)
        if not problem.domain.contains_tracked(gx):
            _domain_escape("the closing Banach step", gx, problem.domain, k + 1)
        # |g(x) - x*| <= |x - x*| <= |g(x) - x| for any contraction, whatever theta
        posterior = max(abs_upper_bound(c) for c in (gx - x).components)
        bound = max(posterior, bound)
        x = gx
    if bound > 0:
        exponent = -floor_log(bound, desc.prime)
        x = Vector(tuple(truncate_precision(c, exponent) for c in x.components))
    residual = vec_norm(eval_map(f, x) - x)
    if residual > target:
        _residual_escape(residual, target)
    return x


def lipschitz_theta(f: MapSpec, ball: Ball) -> Fraction:
    """Contraction constant from the coefficient-telescoped Lipschitz bound."""
    theta = lipschitz_bound(f, ball)
    if theta >= 1:
        raise NotAContraction(f"Lipschitz bound {num_str(theta)} is not below 1")
    return theta


def uniform_family_check(f: MapSpec, p_ball: Ball, u_ball: Ball) -> Fraction:
    """A single bound on the state-direction Lipschitz constant, uniform over
    the parameter ball.  Values below 1 certify a uniform family of
    contractions; a returned value >= 1 reports failure."""
    if p_ball.descriptor != u_ball.descriptor:
        raise DimensionMismatch("parameter and state balls live in different fields")
    mp, mu = p_ball.dim, u_ball.dim
    if f.domain_dim != mp + mu:
        raise DimensionMismatch("map does not split as parameter x state")
    sups = p_ball.coordinate_sups() + u_ball.coordinate_sups()
    return telescoped_lipschitz(f, sups, range(mp, mp + mu), p_ball.descriptor)


def _joint_point(f: MapSpec, p, x_p: Vector) -> tuple:
    """The components of (p, x_p); p may be a Vector or rationals."""
    desc = x_p.descriptor
    p_comps = (
        p.components
        if isinstance(p, Vector)
        else Vector.from_rationals(tuple(p), desc).components
    )
    if f.domain_dim != len(p_comps) + x_p.dim:
        raise DimensionMismatch("map does not split as parameter x state")
    return p_comps + x_p.components


def partial_jacobians(f: MapSpec, p, x_p: Vector) -> tuple[Operator, Operator]:
    """(d_p f, d_x f) at (p, x_p), evaluated in the field."""
    rows = jacobian(f, _joint_point(f, p, x_p)).entries
    mp = f.domain_dim - x_p.dim
    beta1 = Operator(tuple(row[:mp] for row in rows))
    beta2 = Operator(tuple(row[mp:] for row in rows))
    return beta1, beta2


def fixed_point_derivative(f: MapSpec, p, x_p: Vector) -> Operator:
    """Derivative of the fixed point with respect to the parameter:
    (id - d_x f)^{-1} composed with d_p f at (p, x_p)."""
    beta1, beta2 = partial_jacobians(f, p, x_p)
    value = eval_map(f, Vector(_joint_point(f, p, x_p)))
    residual = value - x_p
    if not residual.is_zero():
        raise NotAFixedPoint(f"residual norm {num_str(vec_norm(residual))} at tracked precision")
    if operator_norm(beta2) >= 1:
        raise NotAContraction(f"state Jacobian has norm {num_str(operator_norm(beta2))} >= 1")
    inv, _ = neumann_invert(beta2)
    return inv.compose(beta1)
