"""Banach fixed-point iteration with a priori/a posteriori certificates.

The step count is planned from the a priori bound theta^n/(1-theta) * d0.
Over Q_p admissibility is sharpened from d0 <= (1-theta)r to d0 <= r: the
iteration displacements form a max-telescoping sequence, so the orbit never
leaves the closed ball.

A real solve iterates in doubles and certifies its answer, not its orbit.
A double is an exact rational, and a point x of the ball is within
|g(x) - x| / (1 - theta) of the fixed point of a theta-contraction g (Rump,
"Verification methods", Acta Numerica 19, 2010), so the close evaluates
that bound exactly, with `eval_map` on the rationals of x, the last iterate
that lies in the ball.  The plan aims the a priori bound at half the
target; the other half is room for the drift of the doubles, and an answer
whose exact bound misses the target is refused with PrecisionExhausted.

Over Q_p no solve runs tracked arithmetic.  A solve that returns its answer
alone (`newton_fixed_point`) takes Newton steps, and the report of
`iterate_fixed_point`, which prints Banach steps, takes Banach steps.  Both
run on integers modulo p^W in the frame X = p^s x, where every point of the
ball is p-integral: one value sweep (`calculus.modular_sweep`) gives g(X)
for a Banach step, and a Newton step adds Dg(X) and one
`linalg.modular_solve` of (I - Dg) s = g(X) - X on unit pivots, its W
doubling from step to step up to the full width of the iterate.  A residual
of valuation v is divided by p^v before either step is solved, so the solve
runs to the W - v digits the step depends on.  Both end in one a posteriori
close, in integers: as |x - x*| <= |g(x) - x| for any contraction of an
ultrametric ball, the exact valuation of g(X) - X at the last iterate, or a
full-width pass that finds g(X) = X mod p^W, proves the answer's digits,
capped by the a priori bound of the planned steps; a measured residual
above the target is refused.  An answer-only solve stops on its Taylor
floor: the Taylor remainder of its last step bounds the residual of the
new iterate from below (see `_padic_solve`), and once that floor proves
every digit the close could return, the solve answers with the new
iterate and measures no residual; until then, the next pass searches each
residual's valuation from the floor up.  PadicScalars are built for the
answer and the report alone.
Each solve plans once, in exponents of p: every distance lies in the value
group, so a theta-contraction is a p^-t-contraction, p^-t the largest
p-power <= theta, and the step count, every a priori bound and the cap are
integer sums of t and the floor logarithms of d0 and d0 / (1 - theta)
(`_Exponents`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import accumulate, repeat
from operator import mul

from .calculus import (
    MapSpec,
    _frame_table,
    eval_map,
    jacobian,
    lipschitz_bound,
    modular_sweep,
    telescoped_lipschitz,
)
from .errors import (
    DimensionMismatch,
    DomainEscape,
    NotAContraction,
    NewtonFloorBroken,
    NotAdmissible,
    NotAFixedPoint,
    PrecisionExhausted,
    SchemaError,
    SingularMatrix,
)
from .field import (
    FieldDescriptor,
    _padic_make,
    _rational,
    floor_log,
    int_floor_log,
    int_valuation,
    num_str,
    padic_scalar,
    rational_abs,
    rational_valuation,
    unit_inverse,
    valuation_abs,
)
from .linalg import (
    Ball,
    Operator,
    Vector,
    modular_solve,
    neumann_invert,
    operator_norm,
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
        object.__setattr__(self, "theta", _rational(self.theta, "theta"))
        object.__setattr__(self, "x0", tuple(_rational(v, "x0") for v in self.x0))
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


@dataclass
class FixedPointReport:
    fixed_point: Vector
    """The last iterate of `trace`.  Over the reals it is the last iterate
    of the orbit that lies in the ball, and the report ends at it; over Q_p
    every iterate of the trace carries the digits the close proves, at most
    N per coordinate."""
    iterations: int
    trace: list[Vector]
    apriori_bounds: list[Fraction]
    achieved_distance: object
    theta: Fraction
    initial_distance: Fraction
    step_distances: list
    error_bound: Fraction
    """What the solve certifies for |fixed_point - x*|.  Over Q_p it is the
    p-power the close proves, the weakest of the residual |g(x) - x| of the
    last iterate, the a priori bound of the planned steps (0 when x0 is the
    fixed point) and p^-C, C the width min(v_i) + N to which x carries its
    digits.  So it lies above a target finer than those N digits, which is
    not refused: 5 + x^2 over Q5 at N = 4 on B[0, 1/5] with target 5^-12
    answers 4 digits with bound 5^-5.  Over the reals it is the exact bound
    |g(x) - x| / (1 - theta) of the returned point x, never above the
    target, which it meets at 0 only when x is the fixed point."""


def admissible(problem: ContractionProblem) -> bool:
    """Is the orbit guaranteed to stay inside the domain ball?"""
    d0 = problem.initial_displacement()
    r = problem.domain.radius
    if problem.descriptor.ultrametric:
        return d0 <= r if problem.domain.closed else d0 < r
    slack = (1 - problem.theta) * r
    return d0 <= slack if problem.domain.closed else d0 < slack


MAX_STEPS = 100_000


def _over_budget(target: Fraction, steps=None) -> NotAContraction:
    """The error of a target whose a priori bound needs more than MAX_STEPS
    steps; `steps` is the least count, when it is known."""
    details = {"target": num_str(target), "budget": str(MAX_STEPS)}
    if steps is not None:
        details["steps"] = str(steps)
    return NotAContraction(
        f"a priori bound cannot reach {details['target']} in reasonable time", **details
    )


def _stays_positive(target: Fraction) -> NotAContraction:
    """The error of a target of 0 or below that a positive bound never
    reaches: theta^n d0 > 0 for every n when theta > 0."""
    return NotAContraction(f"a priori bound cannot reach {num_str(target)}: it stays positive")


def _searched_steps(theta: Fraction, d0: Fraction, target: Fraction) -> int:
    """Least n with theta^n d0 / (1 - theta) <= target, the step count of a
    real plan, searched.

    The bound B theta^n, B = d0 / (1 - theta), does not increase with n, so
    n is estimated in floats from the logarithms of the numerators and
    denominators, then confirmed exactly: reached(n) and not reached(n - 1),
    walking by one while the estimate is off.
    """

    def reached(n: int) -> bool:
        return theta**n * d0 / (1 - theta) <= target

    if d0 == 0 or reached(0):
        return 0
    if target < 0 or (target == 0 and theta > 0):
        raise _stays_positive(target)
    if theta == 0:
        return 1
    n = _estimated_steps(theta, d0 / (1 - theta), target)
    while not reached(n):
        if n >= MAX_STEPS:
            raise _over_budget(target)
        n += 1
    while n > 1 and reached(n - 1):
        n -= 1
    return n


class _Exponents:
    """The a priori bounds of an ultrametric problem as exponents of p.

    Every distance lies in the value group, so a theta-contraction is a
    p^-t-contraction, p^-t the largest p-power <= theta: |g(x) - g(y)| /
    |x - y| is a p-power <= theta.  Step j then moves at most p^(L0 - t j),
    and the a priori bound after n steps is the largest p-power <= p^-tn d0
    / (1 - theta), p^(L1 - t n), where L0 and L1 are the floor logarithms
    of d0 and d0 / (1 - theta), each taken once: the step count, every a
    priori bound and the cap are integer sums (Caruso, "Computations with
    p-adic numbers", 2017, on precision as integer exponents).  A
    certificate's nonzero theta is a p-power, whose plan the rounding
    leaves as it was; a supplied theta that is not one plans as the
    p-power below it.  theta = 0 has t None: step 0 moves at most d0, and
    every later bound is 0.  At d0 = 0, L0 and L1 are None and every bound
    is 0.
    """

    def __init__(self, theta: Fraction, d0: Fraction, descriptor: FieldDescriptor):
        p, (a, b) = descriptor.prime, (theta.numerator, theta.denominator)
        self.prime, self.t = p, -int_floor_log(a, b, p) if a else None
        self.l0 = self.l1 = None
        if d0:
            c, d = d0.numerator, d0.denominator
            self.l0, self.l1 = int_floor_log(c, d, p), int_floor_log(c * b, d * (b - a), p)

    def _exponent(self, log, j: int):
        """t j - log, the exponent of the bound p^(log - t j); infinite once
        that bound is 0."""
        if log is None or (j and self.t is None):
            return math.inf
        return self.t * j - log if j else -log

    def apriori(self, j: int):
        """e_j, with p^-e_j the a priori bound of step j."""
        return self._exponent(self.l0, j)

    def cap(self, n: int):
        """c, with p^-c the a priori bound after n steps."""
        return self._exponent(self.l1, n)

    def steps(self, target: Fraction) -> int:
        """Least n with p^-cap(n) <= target: with p^F the largest p-power <=
        target, n = max(0, ceil((L1 - F) / t)), at most 1 when theta = 0 and
        0 when d0 = 0.  Raises NotAContraction for a target of 0 or below,
        which no bound of theta > 0 reaches, and for a count above
        MAX_STEPS, with that count."""
        if self.l1 is None:
            return 0
        if target <= 0:
            if target or self.t is not None:
                raise _stays_positive(target)
            return 1
        short = self.l1 - floor_log(target, self.prime)
        if short <= 0 or self.t is None:
            return int(short > 0)
        n = -(-short // self.t)
        if n > MAX_STEPS:
            raise _over_budget(target, n)
        return n


def _log(q: Fraction) -> float:
    """ln q of a positive rational whose parts may be past float range."""
    return math.log(q.numerator) - math.log(q.denominator)


def _estimated_steps(theta: Fraction, start: Fraction, target: Fraction) -> int:
    """The n in [1, MAX_STEPS] at which start * theta^n crosses the real
    target, in floats.

    -ln theta is taken as log1p((1 - theta)/theta) when theta is near 1,
    where the difference of two logarithms would cancel.
    """
    shrink = math.log1p((1 - theta) / theta) if theta > Fraction(1, 2) else -_log(theta)
    estimate = (_log(start) - _log(target)) / shrink if shrink > 0 else math.inf
    return MAX_STEPS if estimate >= MAX_STEPS else max(1, math.ceil(estimate))


def default_target_precision(descriptor: FieldDescriptor) -> Fraction:
    if descriptor.ultrametric:
        return Fraction(1, descriptor.prime**descriptor.precision)
    return Fraction(descriptor.tolerance)


def _admitted_target(problem: ContractionProblem, target_precision) -> Fraction:
    """The target of a problem, once it is admissible; raises NotAdmissible."""
    if not admissible(problem):
        d0, radius = num_str(problem.initial_displacement()), num_str(problem.domain.radius)
        raise NotAdmissible(
            f"d(f(x0), x0) = {d0} exceeds the admissible displacement for radius {radius}",
            d0=d0, radius=radius, theta=num_str(problem.theta),
        )
    if target_precision is None:
        return default_target_precision(problem.descriptor)
    return Fraction(target_precision)


def _plan(problem: ContractionProblem, target_precision) -> tuple:
    """(theta, d0, target, steps) of an admissible real problem.

    steps is the least n whose a priori bound clears half the target: the
    other half is room for the drift of the doubles, which the exact close
    measures.  Raises NotAdmissible, or NotAContraction when the target is
    out of reach.
    """
    target = _admitted_target(problem, target_precision)
    theta, d0 = problem.theta, problem.initial_displacement()
    return theta, d0, target, _searched_steps(theta, d0, target / 2)


def _check_step(k: int, step: Fraction, bound: Fraction) -> None:
    """Step k of an ultrametric contraction moves at most its a priori bound
    p^-e_k (`_Exponents.apriori`)."""
    if step > bound:
        size, bound = num_str(step), num_str(bound)
        raise DomainEscape(
            f"step {k} of size {size} exceeds its a priori bound {bound}: "
            "the supplied contraction constant is wrong",
            step=str(k), size=size, bound=bound,
        )


def _sup_distance(xs, ys) -> Fraction:
    """max |x_i - y_i| of two real points given as rationals."""
    return max(abs(a - b) for a, b in zip(xs, ys))


def _domain_escape(what: str, distance, ball: Ball, step: int):
    """Iterate `step` left the domain ball: raise with its distance from
    the centre and the radius.  The closing Banach step after k Newton
    steps is step k + 1."""
    distance, radius = num_str(distance), num_str(ball.radius)
    raise DomainEscape(
        f"{what} left the domain ball: distance {distance} from the centre, radius {radius}",
        step=str(step), distance=distance, radius=radius,
    )


def _exact_close(problem: ContractionProblem, trace: list[Vector], target: Fraction) -> tuple:
    """(n, B) for a real solve: n the index of x, the last iterate of the
    trace that lies in the ball, checked exactly, and B = |g(x) - x| /
    (1 - theta) its certified bound, computed exactly from the rationals of
    its doubles.

    The bound holds for x in the ball when g is a theta-contraction of it;
    theta is tested on x = x_m and the iterate before it,
    |g(x_m) - g(x_(m-1))| <= theta |x_m - x_(m-1)|.  An iterate past the
    last one in the ball lies outside it only within the tolerance of each
    step's membership test (a fixed point on the sphere, say).  A trace with
    no iterate in the ball, or a failed theta test, raises DomainEscape, and
    a bound above the target PrecisionExhausted, so a target of 0 is met
    only by a residual of exactly 0.
    """
    f, ball, theta = problem.f, problem.domain, problem.theta
    last = n = len(trace) - 1
    while not ball.contains_rational(x := trace[n].to_rationals()):
        if not n:
            x = trace[last].to_rationals()
            _domain_escape(f"iterate {last}", _sup_distance(x, ball.center_exact), ball, last)
        n -= 1
    gx = eval_map(f, x)
    if n:
        prev = trace[n - 1].to_rationals()
        moved, image = _sup_distance(x, prev), _sup_distance(gx, eval_map(f, prev))
        if image > theta * moved:
            moved, image, theta = num_str(moved), num_str(image), num_str(theta)
            raise DomainEscape(
                f"g moves iterates {n - 1} and {n}, {moved} apart, to {image} apart: "
                f"the supplied contraction constant {theta} is wrong",
                step=str(n), distance=moved, image_distance=image, theta=theta,
            )
    bound = _sup_distance(gx, x) / (1 - theta)
    if bound > target:
        raise PrecisionExhausted(
            f"real target {num_str(target)} is not met: the answer's doubles "
            f"certify {num_str(bound)}",
            target=num_str(target), bound=num_str(bound),
        )
    return n, bound


def iterate_fixed_point(
    problem: ContractionProblem, target_precision=None, check_plan=None
) -> FixedPointReport:
    """Iterate x -> f(x) until the a priori bound clears target_precision,
    half of it over the reals, where `_exact_close` then certifies the answer.
    Over Q_p the steps run on integer residues (`_padic_solve`).

    Padic targets are value-group elements (default p^-N); real targets are
    absolute tolerances (default the field tolerance).  `check_plan`, when
    given, is called with the planned step count before the first step, so
    that a caller can refuse a plan (the CLI's report budget) without
    planning twice.
    """
    if problem.descriptor.ultrametric:
        return _padic_solve(problem, target_precision, report=True, check_plan=check_plan)
    theta, d0, target, steps = _plan(problem, target_precision)
    if check_plan is not None:
        check_plan(steps)
    ball = problem.domain
    trace = [Vector.from_rationals(problem.x0, problem.descriptor)]
    for k in range(steps):
        x = eval_map(problem.f, trace[-1])
        if not ball.contains_tracked(x):
            _domain_escape(f"iterate {k + 1}", _sup_distance(x.to_rationals(), ball.center_exact), ball, k + 1)
        trace.append(x)
    # the answer may be an earlier iterate: the report ends at it
    n, guarantee = _exact_close(problem, trace, target)
    del trace[n + 1:]
    distances = [vec_norm(b - a) for a, b in zip(trace, trace[1:])]
    return _report(trace, distances, theta, d0, guarantee)


def _report(trace, distances, theta: Fraction, d0: Fraction, bound: Fraction) -> FixedPointReport:
    """The report of a solve whose iterates are `trace`, the last one its
    answer."""
    n = len(distances)
    # the a priori bounds theta^k d0, k < n, each one product from the last
    bounds = list(accumulate(repeat(theta, n - 1), mul, initial=d0))[:n]
    return FixedPointReport(
        fixed_point=trace[-1],
        iterations=n,
        trace=trace,
        apriori_bounds=bounds,
        achieved_distance=distances[-1] if distances else Fraction(0),
        theta=theta,
        initial_distance=d0,
        step_distances=distances,
        error_bound=bound,
    )


def _frame(problem: ContractionProblem):
    """The integer frame of an ultrametric problem: (s, k, centre).

    s >= 0 is the least integer that makes p^s x p-integral at every point
    x of the ball, so that the frame point X = p^s x is an integer known
    modulo a power of p.  A frame point is inside the ball when
    X = centre mod p^k, centre being p^s times the ball's centre."""
    ball, p = problem.domain, problem.descriptor.prime
    k = -rational_valuation(ball.radius, p) + (0 if ball.closed else 1)
    least = min([k] + [rational_valuation(c, p) for c in ball.center_exact if c])
    s = max(0, -least)
    k += s
    return s, k, [_frame_residue(c, s, k, p) for c in ball.center_exact]


def _frame_residue(q: Fraction, s: int, k: int, p: int) -> int:
    """p^s q mod p^k, for a rational q with p^s q p-integral."""
    num, den = q.numerator, q.denominator
    if not num or k <= 0:
        return 0
    vd = int_valuation(den, p)
    num = num * p ** (s - vd) if s >= vd else num // p ** (vd - s)
    mod = p**k
    return num * unit_inverse(den // p**vd % mod, p, k) % mod


def _widths(xs, s: int, N: int, p: int) -> tuple:
    """(C, K) of the frame point xs, whose coordinate of valuation v_i knows
    N digits, up to p^(v_i + N): every coordinate knows its digits to the
    width C = min(v_i) + N, and the width K = max(v_i) + N drops none of
    them.  An all-zero point counts as known to N, as a point of valuation
    0 would be."""
    vals = [int_valuation(c, p) for c in xs if c] or [s]
    return min(vals) + N, max(vals) + N


def _least_valuation(values, p: int):
    """The least valuation of the nonzero integers among values, None when
    all are zero."""
    return min((int_valuation(c, p) for c in values if c), default=None)


def _newton_pass(problem: ContractionProblem, s: int, xs, width: int, k: int, newton: bool, floor: int):
    """One pass at the frame point xs (iterate k), modulo p^width:
    (v, xs + step) with v the valuation of the residual g(x) - x and the
    step solving (I - Dg(x)) step = g(x) - x, or None when the residual is
    zero mod p^width.  A Banach pass (`newton` false) leaves Dg out, so that
    its step is g(x) - x and xs + step is g(x).  I - Dg(x) is an isometry,
    so the step has valuation v as well: it is p^v times the solution for
    the residual over p^v, which `modular_solve` (or, Banach, one
    `unit_inverse` per row) finds modulo p^(width - v).  At the top of the
    Newton schedule, where v nears the width, that is a few digits.

    The values and Jacobian rows come from one `modular_sweep`; an output
    with guard digits d is divided by p^d.  Row i of the system is scaled by
    the unit part u_i of the output's denominator, so that no inverse of it
    is formed.  An output that is not p-integral in the frame puts g(x)
    outside the ball, and a Jacobian entry that is not p-integral, or a
    system with no unit pivot, shows |Dg(x)| >= 1: both raise DomainEscape.

    `floor` is a valuation the residual is known to reach, the Taylor floor
    of a Newton iterate (see `_padic_solve`), else 0: the residues are
    divided by p^floor once, and v is searched on the quotients, which are
    almost always units.  A residue that p^floor does not divide raises
    NewtonFloorBroken, with the floor and the width: the floor's proof
    failed, not the request.
    """
    p = problem.descriptor.prime
    mod = p**width
    rows, rhs, outside, steep = [], [], [], False
    for i, (u, d, value, row) in enumerate(modular_sweep(problem.f, p, s, xs, width, jacobian=newton)):
        if d:
            scale = p**d
            if value % scale:
                outside.append(int_valuation(value, p) - d)
            value //= scale
            if newton:
                steep = steep or any(a % scale for a in row)
                row = [a // scale for a in row]
        rhs.append((value - u * xs[i]) % mod)
        if newton:
            row[i] -= u
            rows.append([-a for a in row])
        else:  # row i of the system is u_i e_i: keep u_i
            rows.append(u)
    if outside:
        what = f"g(Newton iterate {k})" if newton else f"iterate {k + 1}"
        _domain_escape(what, valuation_abs(p, min(outside) - s), problem.domain, k + 1)
    if steep:
        _not_contracting(problem, k)
    low = min(floor, width)
    if low:
        unit = p**low
        parts = [divmod(b, unit) for b in rhs]
        if any(r for _, r in parts):
            raise NewtonFloorBroken(
                f"a residual at Newton iterate {k} is not divisible by p^{floor} modulo p^{width}",
                step=str(k), floor=str(floor), width=str(width),
            )
        rhs = [q for q, _ in parts]
    rest = _least_valuation(rhs, p)
    if rest is None:
        return None
    if rest:
        unit = p**rest
        rhs = [b // unit for b in rhs]
    v = low + rest
    scale, digits = p**v, width - v
    if newton:
        try:
            step = modular_solve(rows, rhs, p, digits)
        except SingularMatrix:
            _not_contracting(problem, k)
    else:
        step = [b * unit_inverse(u, p, digits) for u, b in zip(rows, rhs)]
    return v, [(a + scale * b) % mod for a, b in zip(xs, step)]


def _not_contracting(problem: ContractionProblem, k: int):
    """I - Dg(x) at Newton iterate k is singular mod p: no contraction of
    constant theta < 1 has |Dg(x)| >= 1."""
    theta = num_str(problem.theta)
    raise DomainEscape(
        f"I - Dg(x) at Newton iterate {k} has no unit pivot: |Dg(x)| >= 1, so "
        f"the supplied contraction constant {theta} is wrong",
        step=str(k), theta=theta,
    )


def _answer(xs, s: int, exponent: int, desc: FieldDescriptor) -> Vector:
    """The frame point xs as the point x = xs / p^s, its digits below
    p^exponent kept.  No coordinate may keep more than N digits."""
    top = exponent + s
    cut = desc.prime**top if top > 0 else 1
    return Vector(tuple(padic_scalar(desc, _padic_make(desc, -s, c % cut, exponent, cut)) for c in xs))


def _residual(problem: ContractionProblem, s: int, xs, width: int) -> int:
    """The least valuation of g(X) - X at the frame point xs, width when it
    is zero modulo p^width, from one value-only `modular_sweep`; an output
    whose frame denominator holds p^d is compared as p^d (g(X) - X)."""
    p = problem.descriptor.prime
    found = []
    for x, (u, d, value, _) in zip(xs, modular_sweep(problem.f, p, s, xs, width, jacobian=False)):
        r = (value - u * p**d * x) % p ** (width + d)
        if r:
            found.append(int_valuation(r, p) - d)
    return min(found, default=width)


def _newton_close(problem: ContractionProblem, frame, xs, k: int, moved, cap, target: Fraction) -> int:
    """The exponent e of the bound p^-e that a p-adic solve, Newton or
    Banach, proves for its last frame point xs, iterate k, worked out in
    integers: its answer is x = xs / p^s to its digits below p^e.

    x carries its digits to the width C = min(v_i) + N, v_i the valuations
    of its coordinates.  `moved` is a valuation g(X) - X reaches at xs:
    the width of a full-width pass that found g(X) = X, or the Taylor floor
    of the Newton step that reached xs; or None after the last planned
    step: then it comes from one more sweep modulo p^C.
    A residual above the target is refused.  On an ultrametric ball
    |g(x) - x*| <= |x - x*| <= |g(x) - x| for any contraction, whatever
    theta, so g(x), which must lie in the ball, agrees with x to the digits
    of the weakest of that posterior bound, C and the a priori bound p^-cap
    (cap infinite for a bound of 0).
    """
    desc = problem.descriptor
    p = desc.prime
    s, depth = frame[:2]
    proven = _widths(xs, s, desc.precision, p)[0]
    if moved is None:
        moved = _residual(problem, s, xs, proven)
    # X passed the membership check (x0 its exact one), so g(X) lies in
    # the ball unless g(X) - X has a valuation below the ball's depth
    if moved < proven:
        if moved < depth:
            _domain_escape("the closing Banach step", valuation_abs(p, moved - s), problem.domain, k + 1)
        if (residual := valuation_abs(p, moved - s)) > target:
            residual, target = num_str(residual), num_str(target)
            raise DomainEscape(
                f"residual {residual} above target {target}: contraction claim failed",
                residual=residual, target=target,
            )
        proven = moved
    return min(proven - s, cap)


def newton_fixed_point(problem: ContractionProblem, target_precision=None) -> Vector:
    """The fixed point of an ultrametric contraction by Newton steps: the
    answer of every p-adic solve that builds no report (`local_invert`,
    `solve_implicit`), where iterate_fixed_point builds the report of the
    Banach steps.

    Iterates x -> x + s, s solving (I - Dg(x)) s = g(x) - x, until the
    Taylor floor of the last step (see `_padic_solve`), a valuation the
    residual g(x) - x is proven to reach, proves every digit the close
    could return, or the residual is zero at full precision, at most as
    many steps as iterate_fixed_point would take, with its admissibility,
    domain, per-step and residual checks and its close.  The result is x truncated
    to the weaker of the posterior bound |g(x) - x| and the a priori bound
    of iterate_fixed_point, so it never claims more digits than it proves
    or than the Banach iteration would.

    Every pass works on integers modulo p^W (von zur Gathen & Gerhard,
    Modern Computer Algebra, ch. 9): one `modular_sweep` gives g(X) and
    Dg(X) mod p^W at the frame point X = p^s x, and one `modular_solve` the
    step, to the W - v digits a residual of valuation v leaves it.  The
    working width doubles from step to step.  With p^-e_j the a priori
    bound of step j (`_Exponents.apriori`), W_0 = max(3, e_1 + 2); a step
    whose residual has valuation v leaves x right to about 2v digits, and
    the next step to 4v, so W_(k+1) = max(W_k, 4v + 2, e_(k+2) + 2): the e term
    keeps the next step's residual inside its a priori bound (Caruso, Roe &
    Vaccon, "Tracking p-adic precision", 2014, on the digits a lift
    certifies).  A residual that is zero at W_k only says x is right to W_k
    digits: W doubles and the step is taken again, which counts as no step.
    Once W_k drops none of the digits of x, a coordinate of valuation v
    knowing N digits up to p^(v + N), and for the last step the a priori
    cap allows, the pass runs at that full width.
    """
    if not problem.descriptor.ultrametric:
        raise SchemaError("Newton steps are certified on ultrametric fields only")
    return _padic_solve(problem, target_precision)


def _padic_solve(problem: ContractionProblem, target_precision, report: bool = False, check_plan=None):
    """The fixed point of an ultrametric contraction, on integer residues:
    its answer, by Newton passes, or with `report` the report of the Banach
    iteration, whose steps the report prints.

    The plan is made once, in exponents (`_Exponents`): the step count, the
    a priori exponent e_k of each step and the cap; `check_plan`, when
    given, is called with the step count before the first pass.

    The iterate is the exact frame point X = p^s x (see `_frame`), x0 the
    point its N digits spell.  A Banach pass is X -> g(X) modulo the full
    width of X, which drops none of its digits; a pass at full width whose
    result's valuation raises that width runs again that much wider.  Each
    new iterate is checked for membership as v_p(X - centre) >= k, then its
    step against its a priori bound p^-e_k: a step of valuation v is within
    it when v >= e_k + s.  Both are comparisons of integers; a valuation of
    X - centre is taken only to report an escape.  The solve ends after
    its planned steps, once a pass at full width finds g(X) = X (a Banach
    report counts that pass as a step of size 0), or, answering alone, on
    its Taylor floor (below), and closes in integers (`_newton_close`): its
    digits are proven a posteriori, as on an ultrametric ball
    |x - x*| <= |g(x) - x|, capped by the a priori bound p^-cap of the
    planned steps.  The close proves at most p^-min(C_k - s, cap) of
    iterate k, C_k its carried width, so once a residual v at x_k reaches
    min(C_k, s + cap), the close of any later iterate returns the digits
    the close of x_k would: every later step moves x by at most p^-(v - s),
    later residuals are no larger (the map contracts) and
    C_(k+1) >= min(C_k, v + N).  An answer-only solve therefore need not
    stop on a measured residual: it stops on the Taylor floor below.

    A Newton solve bounds the next residual before it measures it.  A pass
    modulo p^W at X finds S with (I - DG(X)) S = G(X) - X mod p^W and
    v_p(S) >= v, v the residual's valuation, and X' = X + S mod p^W.  In
    the frame u_i p^(d_i) G_i is an integer polynomial (`_frame_table`), so
    its Taylor terms of degree >= 2 in S have valuation >= 2v, and the pass
    cancels the terms of degree <= 1 modulo p^W: v_p(G(X') - X') >= floor
    = min(W, 2v) - guard, guard the largest d_i.  The proof uses no
    contraction property, so a wrong theta cannot break it.  Once the new
    iterate x_(k+1) has passed its membership and step checks, the solve
    ends when floor >= min(C_(k+1), s + cap), not below the ball's depth,
    and closes x_(k+1) with the floor for its residual: the close returns
    what the measured residual, which is no smaller, would give, as both
    are >= min(C_(k+1), s + cap); that also spares the sweep after the
    last planned step.  Otherwise the next pass divides its residues by
    p^floor and searches their valuations from there (`_newton_pass`).
    PadicScalars are built for the answer and the report's iterates alone,
    to the digits the close proves (Caruso, "Computations with p-adic
    numbers", 2017, on fixed-point against tracked arithmetic).  At d0 = 0,
    x0 is the answer, exactly.
    """
    target = _admitted_target(problem, target_precision)
    desc = problem.descriptor
    theta, d0 = problem.theta, problem.initial_displacement()
    plan = _Exponents(theta, d0, desc)
    steps = plan.steps(target)
    if check_plan is not None:
        check_plan(steps)
    if not d0:
        x = Vector.from_rationals(problem.x0, desc)
        return _report([x], [], theta, d0, Fraction(0)) if report else x
    newton = not report
    p, N = desc.prime, desc.precision
    frame = s, depth, centre = _frame(problem)
    inside = p**depth
    xs = [_frame_residue(c, s, rational_valuation(c, p) + s + N, p) if c else 0 for c in problem.x0]
    orbit, sizes = [xs], []
    e_k, e_next = plan.apriori(0), plan.apriori(1)
    width, k, met = max(3, e_next + 2) if newton else math.inf, 0, False
    name = "Newton iterate" if newton else "iterate"
    carried, known = _widths(xs, s, N, p)  # known: the full width of xs
    cap = plan.cap(steps)
    # the most the close can prove of x_k is p^-min(C_k - s, cap): a
    # residual of valuation v >= min(C_k, s + cap) proves it
    reach = s + cap
    moved = None  # a valuation g(X) - X reaches at xs, measured or proven
    guard, floor = _frame_table(problem.f, p, s)[0], 0  # floor: the Taylor floor at xs
    while k < steps:  # each pass takes one step, or widens W and tries again
        at_full = k == steps - 1 or width + s >= known
        pass_width = known if at_full else width + s
        got = _newton_pass(problem, s, xs, pass_width, k, newton, floor)
        while got is not None and (widths := _widths(got[1], s, N, p))[1] > pass_width and at_full:
            pass_width = widths[1]
            got = _newton_pass(problem, s, xs, pass_width, k, newton, floor)
        if got is None:
            if met := at_full:
                moved = pass_width
                break
            width *= 2
            continue
        v, ys = got
        off = [(a - c) % inside for a, c in zip(ys, centre)]
        if any(off):
            escape = _least_valuation(off, p)
            _domain_escape(f"{name} {k + 1}", valuation_abs(p, escape - s), problem.domain, k + 1)
        # only a step past its bound builds the Fractions _check_step reports
        if v < e_k + s:
            _check_step(k, valuation_abs(p, v - s), valuation_abs(p, e_k))
        xs = ys
        carried, known = widths
        k += 1
        if report:
            orbit.append(xs)
            sizes.append(v)
        else:
            floor = max(0, min(pass_width, 2 * v) - guard)
            if floor >= min(carried, max(reach, depth)):
                # the floor proves what a measured residual would, so no
                # pass measures it; below the ball's depth it would not
                # show that g(X) stays in the ball
                moved = floor
                break
        e_k, e_next = e_next, plan.apriori(k + 1)
        width = max(width, 4 * (v - s) + 2, e_next + 2)
    exponent = _newton_close(problem, frame, xs, k, moved, cap, target)
    if newton:
        return _answer(xs, s, exponent, desc)
    trace = [_answer(c, s, min(exponent, _widths(c, s, N, p)[0] - s), desc) for c in orbit + [xs] * met]
    distances = [valuation_abs(p, v - s) for v in sizes] + [Fraction(0)] * met
    return _report(trace, distances, theta, d0, valuation_abs(p, exponent))


def lipschitz_theta(f: MapSpec, ball: Ball, supplied=None) -> Fraction:
    """Contraction constant from the coefficient-telescoped Lipschitz bound,
    or the supplied theta once that bound does not exceed it."""
    bound = lipschitz_bound(f, ball)
    if supplied is not None:
        if bound > supplied:
            bound, theta = num_str(bound), num_str(Fraction(supplied))
            raise NotAContraction(
                f"Lipschitz bound {bound} exceeds the supplied theta {theta}",
                lipschitz=bound, theta=theta,
            )
        return Fraction(supplied)
    if bound >= 1:
        raise NotAContraction(f"Lipschitz bound {num_str(bound)} is not below 1")
    return bound


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


def _tracked_parts(f: MapSpec, p, x_p: Vector) -> tuple[Vector, Operator, Operator]:
    """(f, d_p f, d_x f) at (p, x_p), the joint point embedded once in the
    field; p may be a Vector or rationals."""
    if not isinstance(p, Vector):
        p = Vector.from_rationals(tuple(p), x_p.descriptor)
    mp = p.dim
    if f.domain_dim != mp + x_p.dim:
        raise DimensionMismatch("map does not split as parameter x state")
    point = Vector(p.components + x_p.components)
    rows = jacobian(f, point).entries
    beta1 = Operator(tuple(row[:mp] for row in rows))
    beta2 = Operator(tuple(row[mp:] for row in rows))
    return eval_map(f, point), beta1, beta2


def fixed_point_derivative(f: MapSpec, p, x_p: Vector) -> Operator:
    """Derivative of the fixed point with respect to the parameter:
    (id - d_x f)^{-1} composed with d_p f at (p, x_p)."""
    value, beta1, beta2 = _tracked_parts(f, p, x_p)
    residual = value - x_p
    if not residual.is_zero():
        raise NotAFixedPoint(f"residual norm {num_str(vec_norm(residual))} at tracked precision")
    if operator_norm(beta2) >= 1:
        raise NotAContraction(f"state Jacobian has norm {num_str(operator_norm(beta2))} >= 1")
    inv, _ = neumann_invert(beta2)
    return inv.compose(beta1)
