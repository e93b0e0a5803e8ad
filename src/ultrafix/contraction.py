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

Over Q_p no solve runs tracked arithmetic.  Banach steps and Newton steps
(`newton_fixed_point`) both run on integers modulo p^W in the frame
X = p^s x, where every point of the ball is p-integral: one value sweep
(`calculus.modular_sweep`) gives g(X) for a Banach step, and a Newton step
adds Dg(X) and one `linalg.modular_solve` of (I - Dg) s = g(X) - X on unit
pivots, its W doubling from step to step up to the full width of the
iterate.  Both end in one a posteriori close, in integers: as
|x - x*| <= |g(x) - x| for any contraction of an ultrametric ball, the
exact valuation of g(X) - X at the last iterate, or a full-width pass that
finds g(X) = X mod p^W, proves the answer's digits, capped by the a priori
bound of the planned steps; a measured residual above the target is
refused.
PadicScalars are built for the answer and the report alone.  The a priori
exponents are integers from the numerators and denominators of theta and
d0.
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
    NotAdmissible,
    NotAFixedPoint,
    PrecisionExhausted,
    SchemaError,
    SingularMatrix,
)
from .field import (
    FieldDescriptor,
    _padic_make,
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
    """What the solve certifies for |fixed_point - x*|, never above the
    target: over Q_p the p-power the close proves, the weaker of the
    residual |g(x) - x| of the last iterate and the a priori bound of the
    planned steps (0 when x0 is the fixed point); over the reals the exact
    bound |g(x) - x| / (1 - theta) of the returned point x, which meets a
    target of 0 only when x is the fixed point."""


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

    steps is the least n whose a priori bound clears the target, over the
    reals half of it: the other half is room for the drift of the doubles,
    which the exact close measures.  Raises NotAdmissible, or
    NotAContraction when the target is out of reach.
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
    reach = target if desc.ultrametric else target / 2
    return theta, d0, target, _step_count(theta, d0, reach, desc)


def planned_steps(problem: ContractionProblem, target_precision=None) -> int:
    """The steps iterate_fixed_point plans for the problem, before taking
    any; it raises what iterate_fixed_point would raise first."""
    return _plan(problem, target_precision)[3]


def _check_step(k: int, step: Fraction, bound: Fraction) -> None:
    """Step k of an ultrametric contraction moves at most its a priori bound
    theta^k d0."""
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
    problem: ContractionProblem, target_precision=None
) -> FixedPointReport:
    """Iterate x -> f(x) until the a priori bound clears target_precision,
    half of it over the reals, where `_exact_close` then certifies the answer.
    Over Q_p the steps run on integer residues (`_padic_solve`).

    Padic targets are value-group elements (default p^-N); real targets are
    absolute tolerances (default the field tolerance).
    """
    if problem.descriptor.ultrametric:
        return _padic_solve(problem, target_precision, newton=False)
    theta, d0, target, steps = _plan(problem, target_precision)
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


NEWTON_STEPS_PER_DIM = 8
"""Newton pays once the Banach step count exceeds this many steps per variable.

A Newton pass costs one modular sweep of g and Dg and an n x n elimination
modulo p^W, a Banach step one value sweep modulo the full width of the
iterate.  On seeded inversion problems of the benchmark's shape over Q3, Q5
and Q7 (18 per row, minimum of 5 runs on a 2-core x86_64 VM, Python 3.11),
Newton takes this share of the Banach time: N = 4 (3 Banach steps) 0.96-0.97x
for n = 1 and 1.16-1.17x for n = 2; N = 16 (15 steps) 0.46-0.47x and
0.53-0.54x; N = 32 (31 steps) 0.26-0.27x and 0.33-0.34x; N = 128 (127
steps) 0.08x and 0.09x.  With Newton forced on every p-adic solve of the
`request_mix` benchmark rounds (seeds 77, 78, 5 and 7, rounds 0-2, 708
operations; minimum of 5 runs), every output is byte-identical, its p-adic
`invert` and `implicit` requests take 0.95x as long and the whole mix
0.99x.  Both solvers close the same way, so the threshold moves time, not
digits.
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


def _known_width(xs, s: int, N: int, p: int) -> int:
    """The frame width that drops none of the digits of the point xs: a
    coordinate of valuation v knows N digits, up to p^(v + N); an all-zero
    point counts as known to N, as a point of valuation 0 would be."""
    return max((int_valuation(c, p) for c in xs if c), default=s) + N


def _carried_width(xs, s: int, N: int, p: int) -> int:
    """The width C = min(v_i) + N to which every coordinate of the frame
    point xs, of valuation v_i, knows its digits."""
    return min((int_valuation(c, p) for c in xs if c), default=s) + N


def _least_valuation(values, p: int):
    """The least valuation of the nonzero integers among values, None when
    all are zero."""
    return min((int_valuation(c, p) for c in values if c), default=None)


def _newton_pass(problem: ContractionProblem, s: int, xs, width: int, k: int, newton: bool):
    """One pass at the frame point xs (iterate k), modulo p^width:
    (v, xs + step) with v the valuation of the residual g(x) - x and the
    step solving (I - Dg(x)) step = g(x) - x, or None when the residual is
    zero mod p^width.  A Banach pass (`newton` false) leaves Dg out, so that
    its step is g(x) - x and xs + step is g(x).  I - Dg(x) is an isometry,
    so the step has valuation v as well.

    The values and Jacobian rows come from one `modular_sweep`; an output
    with guard digits d is divided by p^d.  Row i of the system is scaled by
    the unit part u_i of the output's denominator, so that no inverse of it
    is formed.  An output that is not p-integral in the frame puts g(x)
    outside the ball, and a Jacobian entry that is not p-integral, or a
    system with no unit pivot, shows |Dg(x)| >= 1: both raise DomainEscape.
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
    v = _least_valuation(rhs, p)
    if v is None:
        return None
    if newton:
        try:
            step = modular_solve(rows, rhs, p, width)
        except SingularMatrix:
            _not_contracting(problem, k)
    else:
        step = [b * unit_inverse(u, p, width) for u, b in zip(rows, rhs)]
    return v, [(a + b) % mod for a, b in zip(xs, step)]


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


def _residual(problem: ContractionProblem, s: int, xs, width: int):
    """The least valuation of g(X) - X at the frame point xs, None when it
    is zero modulo p^width, from one value-only `modular_sweep`; an output
    whose frame denominator holds p^d is compared as p^d (g(X) - X)."""
    p = problem.descriptor.prime
    found = []
    for x, (u, d, value, _) in zip(xs, modular_sweep(problem.f, p, s, xs, width, jacobian=False)):
        r = (value - u * p**d * x) % p ** (width + d)
        if r:
            found.append(int_valuation(r, p) - d)
    return min(found, default=None)


def _newton_close(problem: ContractionProblem, frame, xs, k: int, met: bool, cap, target: Fraction) -> int:
    """The exponent e of the bound p^-e that a p-adic solve, Newton or
    Banach, proves for its last frame point xs, iterate k, worked out in
    integers: its answer is x = xs / p^s to its digits below p^e.

    x carries its digits to the width C = min(v_i) + N, v_i the valuations
    of its coordinates.  When `met`, the last pass found g(X) = X modulo a
    width of at least C; otherwise the exact valuation of g(X) - X modulo
    p^C comes from one more sweep, and a residual above the target is
    refused.  On an ultrametric ball |g(x) - x*| <= |x - x*| <= |g(x) - x|
    for any contraction, whatever theta, so g(x), which must lie in the
    ball, agrees with x to the digits of the weaker of that posterior bound
    and the a priori bound p^-cap (cap None for a bound of 0).
    """
    desc = problem.descriptor
    p = desc.prime
    s, depth = frame[:2]
    proven = _carried_width(xs, s, desc.precision, p)
    # X passed the membership check (x0 its exact one), so g(X) lies in
    # the ball unless g(X) - X has a valuation below the ball's depth
    moved = None if met else _residual(problem, s, xs, proven)
    if moved is not None:
        if moved < depth:
            _domain_escape("the closing Banach step", valuation_abs(p, moved - s), problem.domain, k + 1)
        if (residual := valuation_abs(p, moved - s)) > target:
            residual, target = num_str(residual), num_str(target)
            raise DomainEscape(
                f"residual {residual} above target {target}: contraction claim failed",
                residual=residual, target=target,
            )
        proven = moved
    return proven - s if cap is None else min(proven - s, -cap)


def newton_fixed_point(problem: ContractionProblem, target_precision=None) -> Vector:
    """The fixed point of an ultrametric contraction by Newton steps.

    Iterates x -> x + s, s solving (I - Dg(x)) s = g(x) - x, until g(x) - x
    is zero at full precision, at most as many steps as iterate_fixed_point
    would take, with its admissibility, domain, per-step and residual
    checks and its close (`_padic_solve`).  The result is g(x) truncated
    to the weaker of the posterior bound |g(x) - x| and the a priori bound
    of iterate_fixed_point, so it never claims more digits than it proves
    or than the Banach iteration would.

    Every pass works on integers modulo p^W (von zur Gathen & Gerhard,
    Modern Computer Algebra, ch. 9): one `modular_sweep` gives g(X) and
    Dg(X) mod p^W at the frame point X = p^s x, and one `modular_solve` the
    step.  The working width doubles from step to step.  With p^-e_j the
    largest p-power <= theta^j d0, W_0 = max(3, e_1 + 2); a step whose
    residual has valuation v leaves x right to about 2v digits, and the
    next step to 4v, so W_(k+1) = max(W_k, 4v + 2, e_(k+2) + 2): the e term
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
    return _padic_solve(problem, target_precision, newton=True)


def _padic_solve(problem: ContractionProblem, target_precision, newton: bool):
    """The fixed point of an ultrametric contraction, by Newton passes (the
    answer) or by Banach passes (the report), on integer residues.

    The iterate is the exact frame point X = p^s x (see `_frame`), x0 the
    point its N digits spell.  A Banach pass is X -> g(X) modulo the full
    width of X, which drops none of its digits; a pass at full width whose
    result's valuation raises that width runs again that much wider.  Each
    new iterate is checked for membership as v_p(X - centre) >= k, then its
    step against the a priori bound theta^k d0 = p^-e_k: a step of valuation
    v is within it when v >= e_k + s.  The solve ends after its planned
    steps, or once a pass at full width finds g(X) = X (a Banach report
    counts that pass as a step of size 0), and closes in integers
    (`_newton_close`): its digits are proven a posteriori, as on an
    ultrametric ball |x - x*| <= |g(x) - x|, capped by the a priori bound
    of the planned steps.  PadicScalars are built for the answer and the
    report's iterates alone, to the digits the close proves (Caruso,
    "Computations with p-adic numbers", 2017, on fixed-point against
    tracked arithmetic).  At d0 = 0, x0 is the answer, exactly.
    """
    theta, d0, target, steps = _plan(problem, target_precision)
    desc = problem.descriptor
    if not d0:
        x = Vector.from_rationals(problem.x0, desc)
        return x if newton else _report([x], [], theta, d0, Fraction(0))
    p, N = desc.prime, desc.precision

    def apriori_exponent(j: int):
        """e_j; infinite once theta^j d0 is 0 (theta = 0)."""
        e = _power_exponent(theta, d0, j, p)
        return math.inf if e is None else -e

    frame = s, depth, centre = _frame(problem)
    inside = p**depth
    xs = [_frame_residue(c, s, rational_valuation(c, p) + s + N, p) if c else 0 for c in problem.x0]
    orbit, sizes = [xs], []
    e_k, e_next = apriori_exponent(0), apriori_exponent(1)
    width, k, met = max(3, e_next + 2) if newton else math.inf, 0, False
    name = "Newton iterate" if newton else "iterate"
    known = _known_width(xs, s, N, p)  # the full width of xs
    while k < steps:  # each pass takes one step, or widens W and tries again
        at_full = k == steps - 1 or width + s >= known
        pass_width = known if at_full else width + s
        got = _newton_pass(problem, s, xs, pass_width, k, newton)
        while got is not None and (known := _known_width(got[1], s, N, p)) > pass_width and at_full:
            pass_width = known
            got = _newton_pass(problem, s, xs, pass_width, k, newton)
        if got is None:
            if met := at_full:
                break
            width *= 2
            continue
        v, xs = got
        escape = _least_valuation([(a - c) % inside for a, c in zip(xs, centre)], p)
        if escape is not None:
            _domain_escape(f"{name} {k + 1}", valuation_abs(p, escape - s), problem.domain, k + 1)
        # only a step past its bound builds the Fractions _check_step reports
        if v < e_k + s:
            _check_step(k, valuation_abs(p, v - s), theta**k * d0)
        orbit.append(xs)
        sizes.append(v)
        k += 1
        e_k, e_next = e_next, apriori_exponent(k + 1)
        width = max(width, 4 * (v - s) + 2, e_next + 2)
    cap = _power_exponent(theta, d0, steps, p, geometric=True)
    exponent = _newton_close(problem, frame, xs, k, met, cap, target)
    if newton:
        return _answer(xs, s, exponent, desc)
    trace = [_answer(c, s, min(exponent, _carried_width(c, s, N, p) - s), desc) for c in orbit + [xs] * met]
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
