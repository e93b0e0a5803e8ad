import math
import random
from fractions import Fraction

import pytest

from ultrafix import (
    Ball,
    ContractionProblem,
    DomainEscape,
    FieldDescriptor,
    MapSpec,
    NotAContraction,
    NotAdmissible,
    NotAFixedPoint,
    SchemaError,
    Vector,
    admissible,
    certify,
    embed_rational,
    fixed_point_derivative,
    iterate_fixed_point,
    lipschitz_theta,
    uniform_family_check,
    vec_norm,
)
from ultrafix import calculus, contraction, field
from ultrafix.calculus import _frame_table, compose, quotient_map, eval_map, jacobian, substitute_prefix
from ultrafix.contraction import (
    MAX_STEPS,
    NEWTON_STEPS_PER_DIM,
    _certified_bound,
    _check_step,
    _plan,
    _power_exponent,
    _step_count,
    default_target_precision,
    newton_fixed_point,
    newton_pays,
)
from ultrafix.errors import PrecisionExhausted, SingularMatrix
from ultrafix.field import (
    PadicScalar,
    _padic_make,
    abs_upper_bound,
    field_abs,
    floor_log,
    frac_str,
    int_valuation,
    num_str,
    padic_scalar,
    padic_sub_product,
    rational_valuation,
    valuation_abs,
)
from ultrafix.implicit import build_window
from ultrafix.inverse import inversion_step_map
from ultrafix import linalg
from ultrafix.linalg import Operator, invert_exact


def poly(m, *outputs):
    return MapSpec.from_coefficients(m, outputs)


HALF_PLUS_ONE = poly(1, [(Fraction(1, 2), (1,)), (1, (0,))])  # x/2 + 1
FIVE_PLUS_SQ = poly(1, [(5, (0,)), (1, (2,))])  # 5 + x^2
FIVE_PLUS_5SQ = poly(1, [(5, (0,)), (5, (2,))])  # 5 + 5x^2


def test_admissible_examples(q5, real):
    prob = ContractionProblem(HALF_PLUS_ONE, Ball(real, (0,), 4), Fraction(1, 2), (0,))
    assert admissible(prob)
    padic = ContractionProblem(FIVE_PLUS_SQ, Ball(q5, (0,), Fraction(1, 5)), Fraction(1, 5), (0,))
    assert admissible(padic)
    # the general metric-space criterion would reject the same data
    assert not Fraction(1, 5) <= (1 - Fraction(1, 5)) * Fraction(1, 5)


def test_padic_golden_fixed_point(q5):
    # oracle: the solutions of x^2 - x + 5 = 0 mod 5^4 inside the ball
    roots = [x for x in range(5**4) if (x * x - x + 5) % 5**4 == 0 and x % 5 == 0]
    assert roots == [280]
    prob = ContractionProblem(FIVE_PLUS_SQ, Ball(q5, (0,), Fraction(1, 5)), Fraction(1, 5), (0,))
    report = iterate_fixed_point(prob)
    got = report.fixed_point.components[0]
    assert got.to_rational() % 5**4 == 280
    assert got.prec == 4
    assert got.digit_list() == [1, 1, 2]  # unit digits of 280 = 5 * 56


def test_real_fixed_point(real):
    prob = ContractionProblem(HALF_PLUS_ONE, Ball(real, (0,), 4), Fraction(1, 2), (0,))
    report = iterate_fixed_point(prob, Fraction(1, 10**9))
    assert report.fixed_point.components[0].value == pytest.approx(2.0, abs=1e-8)
    assert 28 <= report.iterations <= 35


def test_constant_map(real):
    const = poly(1, [(3, (0,))])
    prob = ContractionProblem(const, Ball(real, (0,), 4), Fraction(0), (0,))
    report = iterate_fixed_point(prob)
    assert report.fixed_point.components[0].value == 3.0
    assert report.iterations == 1


def test_trace_obeys_stepwise_bounds(q5, real):
    cases = [
        ContractionProblem(FIVE_PLUS_SQ, Ball(q5, (0,), Fraction(1, 5)), Fraction(1, 5), (5,)),
        ContractionProblem(HALF_PLUS_ONE, Ball(real, (0,), 4), Fraction(1, 2), (1,)),
        ContractionProblem(
            poly(2, [(5, (0, 0)), (5, (1, 1))], [(25, (0, 0)), (5, (2, 0))]),
            Ball(q5, (0, 0), Fraction(1, 5)),
            Fraction(1, 5),
            (0, 0),
        ),
    ]
    for prob in cases:
        report = iterate_fixed_point(prob)
        desc = prob.descriptor
        theta, d0 = report.theta, report.initial_distance
        slack = Fraction(0) if desc.ultrametric else Fraction(1, 10**12)
        # consecutive steps against theta^k d0
        for k, step in enumerate(report.step_distances):
            assert Fraction(step) <= theta**k * d0 + slack
        # pairwise discrete tail bound on the whole trace
        for n in range(len(report.trace)):
            for k in range(len(report.trace) - n):
                d = vec_norm(report.trace[n + k] - report.trace[n])
                bound = theta**n * (1 - theta**k) / (1 - theta) * d0
                assert Fraction(d) <= bound + slack
        # distance from every prefix to the returned fixed point
        x = report.fixed_point
        for n in range(len(report.trace)):
            d = vec_norm(report.trace[n] - x)
            bound = theta**n / (1 - theta) * d0
            assert Fraction(d) <= bound + max(slack, Fraction(2, 10**9))


def test_padic_trace_keeps_each_iterate_to_its_digits():
    # 25x from 1 over Q5 at N = 3: the close proves 5^-4 for the last
    # iterate 625, which carries 7 digits, but the first iterate 1 knows 3
    desc = FieldDescriptor.padic(5, 3)
    problem = ContractionProblem(poly(1, [(25, (1,))]), Ball(desc, (0,), 1), Fraction(1, 25), (1,))
    report = iterate_fixed_point(problem)
    assert report.error_bound == Fraction(1, 5**4)
    assert [_digits(x) for x in report.trace] == [[(0, 1, 3)], [(2, 1, 4)], [(None, 0, 4)]]
    assert report.fixed_point is report.trace[-1]


def test_uniqueness_from_two_starts(q5):
    ball = Ball(q5, (0,), Fraction(1, 5))
    a = iterate_fixed_point(ContractionProblem(FIVE_PLUS_SQ, ball, Fraction(1, 5), (0,)))
    b = iterate_fixed_point(ContractionProblem(FIVE_PLUS_SQ, ball, Fraction(1, 5), (10,)))
    for u, v in zip(a.fixed_point.components, b.fixed_point.components):
        assert u == v


def test_not_admissible(real):
    far = poly(1, [(Fraction(1, 2), (1,)), (10, (0,))])
    prob = ContractionProblem(far, Ball(real, (0,), 4), Fraction(1, 2), (0,))
    assert not admissible(prob)
    with pytest.raises(NotAdmissible) as err:
        iterate_fixed_point(prob)
    assert err.value.details == {"d0": "10/1", "radius": "4/1", "theta": "1/2"}


def test_wrong_theta_detected(real):
    # claiming theta = 1/10 for x -> x/2 + 1: g halves the distance of the
    # last two iterates, 2 - 2^-9 and 2 - 2^-10, where 1/10 claims a tenth
    prob = ContractionProblem(HALF_PLUS_ONE, Ball(real, (0,), 4), Fraction(1, 10), (0,))
    with pytest.raises(DomainEscape) as err:
        iterate_fixed_point(prob)
    assert err.value.details == {"step": "10", "distance": "1/512", "image_distance": "1/1024", "theta": "1/10"}


def test_theta_from_lipschitz(q5):
    ball = Ball(q5, (0,), Fraction(1, 5))
    assert lipschitz_theta(FIVE_PLUS_SQ, ball) == Fraction(1, 5)
    with pytest.raises(NotAContraction):
        lipschitz_theta(poly(1, [(3, (1,))]), Ball(q5, (0,), Fraction(1)))


def test_uniform_family_examples(q5, real):
    f = poly(2, [(1, (1, 0)), (Fraction(1, 2), (0, 1))])
    assert uniform_family_check(f, Ball(real, (0,), 1), Ball(real, (0,), 1)) == Fraction(1, 2)
    f5 = poly(2, [(1, (1, 0)), (5, (0, 1))])
    assert uniform_family_check(f5, Ball(q5, (0,), 1), Ball(q5, (0,), 1)) == Fraction(1, 5)
    fq = poly(2, [(1, (1, 0)), (1, (0, 2))])
    theta = uniform_family_check(fq, Ball(real, (0,), 1), Ball(real, (0,), 1))
    assert theta == 2  # >= 1 reports failure


def test_fixed_point_derivative_real(real):
    f = poly(2, [(1, (1, 0)), (Fraction(1, 2), (0, 1))])
    x_p = Vector.from_rationals((2,), real)
    D = fixed_point_derivative(f, (1,), x_p)
    assert D.entries[0][0].value == pytest.approx(2.0, rel=1e-12)


def test_fixed_point_derivative_padic_geometric(q5):
    # phi(p) = p + 5 phi(p) so phi'(p) = (1-5)^{-1}; oracle: 4 * value = -1 mod 5^4
    f = poly(2, [(1, (1, 0)), (5, (0, 1))])
    x_p = Vector.from_rationals((Fraction(-1, 4),), q5)
    D = fixed_point_derivative(f, (1,), x_p)
    got = D.entries[0][0]
    assert (4 * got.to_rational() + 1) % 5**4 == 0
    assert got.digit_list() == [1, 1, 1, 1]


def test_fixed_point_derivative_zero_parameter_block(real):
    f = poly(2, [(Fraction(1, 2), (0, 1))])  # no parameter dependence
    x_p = Vector.from_rationals((0,), real)
    D = fixed_point_derivative(f, (3,), x_p)
    assert D.entries[0][0].value == 0.0


def test_fixed_point_derivative_rejects_non_fixed_point(real):
    f = poly(2, [(1, (1, 0)), (Fraction(1, 2), (0, 1))])
    with pytest.raises(NotAFixedPoint):
        fixed_point_derivative(f, (1,), Vector.from_rationals((5,), real))


def test_derivative_matches_resolve_quotient(real):
    # well-scaled: modest curvature, contraction constant comfortably below 1
    from ultrafix.calculus import substitute_prefix

    f = poly(2, [(1, (1, 0)), (Fraction(1, 2), (0, 1)), (Fraction(1, 20), (0, 2))])
    ball = Ball(real, (0,), 1)

    def solve(p):
        prob = ContractionProblem(substitute_prefix(f, (p,)), ball, Fraction(3, 5), (0,))
        return iterate_fixed_point(prob, Fraction(1, 10**13)).fixed_point

    p = Fraction(1, 8)
    x_p = solve(p)
    D = fixed_point_derivative(f, (p,), x_p)
    t = Fraction(1, 10**6)
    x_t = solve(p + t)
    quotient = (x_t.components[0].value - x_p.components[0].value) / float(t)
    assert quotient == pytest.approx(D.entries[0][0].value, rel=1e-5)


def test_quotient_relation_on_family(real):
    # the re-solved parameter quotient is a fixed point of the partial quotient map
    f = poly(2, [(1, (1, 0)), (Fraction(1, 2), (0, 1)), (Fraction(1, 20), (0, 2))])
    from ultrafix.calculus import substitute_prefix

    ball = Ball(real, (0,), 1)

    def solve(p):
        prob = ContractionProblem(substitute_prefix(f, (p,)), ball, Fraction(3, 5), (0,))
        return iterate_fixed_point(prob, Fraction(1, 10**13)).fixed_point.components[0].value

    qmap = quotient_map(f)  # variables (p, x, q, w, t)
    rng = random.Random(6)
    for _ in range(10):
        p = Fraction(rng.randint(-2, 2), 8)
        q = Fraction(rng.randint(1, 3), 4)
        t = Fraction(1, 64)
        phi_p = solve(p)
        phi_t = solve(p + t * q)
        w = (phi_t - phi_p) / float(t)
        lhs = eval_map(
            qmap,
            tuple(
                embed_rational(Fraction(v), 1, real) if isinstance(v, Fraction) else v
                for v in (p, Fraction(phi_p), q, Fraction(w), t)
            ),
        )
        assert lhs[0].value == pytest.approx(w, rel=1e-6, abs=1e-6)


def test_quotient_relation_on_family_padic(q5_deep):
    from ultrafix.calculus import substitute_prefix

    f = poly(2, [(1, (1, 0)), (5, (0, 1)), (5**6, (0, 2))])
    ball = Ball(q5_deep, (0,), 1)

    def solve(p):
        member = substitute_prefix(f, (p,))
        prob = ContractionProblem(member, ball, Fraction(1, 5), (0,))
        return iterate_fixed_point(prob).fixed_point.components[0]

    qmap = quotient_map(f)  # variables (p, x, q, w, t)
    rng = random.Random(8)
    for _ in range(5):
        p = Fraction(rng.randint(-4, 4) or 1)
        q = Fraction(rng.randint(1, 4))
        t = Fraction(25)
        phi_p = solve(p)
        phi_t = solve(p + t * q)
        w = (phi_t - phi_p) / q5_deep.from_rational(t)
        point = (
            q5_deep.from_rational(p),
            phi_p,
            q5_deep.from_rational(q),
            w,
            q5_deep.from_rational(t),
        )
        rhs = eval_map(qmap, point)
        assert (rhs[0] - w).is_zero()


def test_iterates_stay_inside_declared_ball(q5):
    prob = ContractionProblem(FIVE_PLUS_SQ, Ball(q5, (0,), Fraction(1, 5)), Fraction(1, 5), (0,))
    report = iterate_fixed_point(prob)
    for iterate in report.trace:
        assert prob.domain.contains_tracked(iterate)


def _linear_scan_steps(theta, d0, target, desc, cap):
    """Reference: the step count found by trying n = 0, 1, 2, ... in turn."""

    def certified(n):
        bound = theta**n * d0 / (1 - theta)
        if not desc.ultrametric:
            return bound
        if bound <= 0:
            return Fraction(0)
        power = Fraction(1)
        while power > bound:
            power /= desc.prime
        while power * desc.prime <= bound:
            power *= desc.prime
        return power

    steps = 0
    if d0 > 0:
        while certified(steps) > target:
            steps += 1
            if steps > cap:
                return None
    return steps


def test_step_count_matches_linear_scan(q5, real):
    rng = random.Random(31)
    for desc in (q5, FieldDescriptor.padic(7, 4), real):
        for _ in range(100):
            theta = Fraction(rng.randint(0, 19), 20)
            d0 = Fraction(rng.randint(0, 40), rng.randint(1, 40))
            target = Fraction(rng.randint(1, 9), 10 ** rng.randint(0, 25))
            want = _linear_scan_steps(theta, d0, target, desc, cap=2000)
            assert want is not None
            assert _step_count(theta, d0, target, desc) == want, (theta, d0, target, desc)


@pytest.mark.parametrize("kind", ["padic", "real"])
def test_step_count_cap_boundary(kind):
    # theta = 1/2: the bound after n steps is d0 * 2^(1-n), a 2-power for these d0,
    # so the least n with bound <= target is exactly k for d0 = target * 2^(k-1)
    desc = FieldDescriptor.padic(2, 4) if kind == "padic" else FieldDescriptor.real()
    half, target = Fraction(1, 2), Fraction(1, 1024)
    for k in (MAX_STEPS - 1, MAX_STEPS):
        assert _step_count(half, target * 2 ** (k - 1), target, desc) == k
    with pytest.raises(NotAContraction, match="cannot reach 1/1024 in reasonable time"):
        _step_count(half, target * 2**MAX_STEPS, target, desc)


def test_nonpositive_target_fails_at_once(q5, real):
    cases = [
        ContractionProblem(FIVE_PLUS_SQ, Ball(q5, (0,), Fraction(1, 5)), Fraction(1, 5), (0,)),
        ContractionProblem(HALF_PLUS_ONE, Ball(real, (0,), 4), Fraction(1, 2), (0,)),
    ]
    for prob in cases:
        for target in (0, Fraction(-1, 5)):
            with pytest.raises(NotAContraction, match="stays positive"):
                iterate_fixed_point(prob, target)
    # theta = 0 reaches a zero bound after one step, as before
    const = ContractionProblem(poly(1, [(3, (0,))]), Ball(real, (0,), 4), Fraction(0), (0,))
    assert iterate_fixed_point(const, 0).iterations == 1


# ---------------------------------------------------------------------------
# Newton steps, checked against the Banach iteration as the oracle


def _certified_step_map(rng, p, n, N):
    """The inversion contraction of a certified map on B_{1/p}(0) over Q_p.

    Rows are A x + u x_i x_j + p c x_k^3 with A unit lower triangular times a
    unit diagonal, so A is invertible over Z_p; the target has valuation 1.
    """
    rows = []
    for i in range(n):
        unit = rng.choice([u for u in (1, 2, 3, 4, 6) if u % p])
        row = [(unit * (1 if i % 2 else -1), tuple(int(j == i) for j in range(n)))]
        row += [(rng.randint(-2, 2) or 1, tuple(int(k == j) for k in range(n))) for j in range(i)]
        i2, j2, k3 = rng.randrange(n), rng.randrange(n), rng.randrange(n)
        row.append((rng.choice((1, -1, 2)), tuple((k == i2) + (k == j2) for k in range(n))))
        row.append((p * rng.randint(1, 4), tuple(3 * (k == k3) for k in range(n))))
        rows.append(row)
    f = MapSpec.from_coefficients(n, rows)
    ball = Ball(FieldDescriptor.padic(p, N), (0,) * n, Fraction(1, p))
    cert = certify(f, ball)
    target = tuple(Fraction(p * (rng.randint(1, p - 1) + p * rng.randint(0, 9))) for _ in range(n))
    return ContractionProblem(inversion_step_map(cert, f, target), ball, cert.theta, (0,) * n)


def _digits(x):
    return [(c.val, c.unit, c.prec) for c in x.components]


def _prec(c):
    return float("inf") if c.prec is None else c.prec


def _assert_agrees_with_oracle(problem, target_precision=None):
    """Returns whether the Banach oracle reached its target."""
    report = iterate_fixed_point(problem, target_precision)
    got = newton_fixed_point(problem, target_precision)
    desc = problem.descriptor
    for a, b in zip(got.components, report.fixed_point.components):
        assert _prec(a) >= _prec(b)
        m = _prec(b)
        diff = a.to_rational() - b.to_rational()
        if m == float("inf"):
            assert diff == 0
        elif diff != 0:
            assert rational_valuation(diff, desc.prime) >= m
    target = Fraction(
        target_precision if target_precision is not None else default_target_precision(desc)
    )
    reached = _certified_bound(
        problem.theta, report.initial_distance, report.iterations, desc
    ) <= target
    if reached:
        assert _digits(got) == _digits(report.fixed_point)
    return reached


@pytest.mark.parametrize("p", [3, 5, 7])
def test_newton_matches_banach_oracle_on_both_sides_of_crossover(p):
    rng = random.Random(9100 + p)
    sides, reached = set(), 0
    for n in (1, 2, 3):
        for N in (5, 8 * n + 12):
            for _ in range(3):
                problem = _certified_step_map(rng, p, n, N)
                theta, d0, desc = problem.theta, problem.initial_displacement(), problem.descriptor
                limit = NEWTON_STEPS_PER_DIM * n
                # targets that need limit - 1, limit and limit + 1 Banach steps, and the default
                targets = [_certified_bound(theta, d0, m, desc) for m in (limit - 1, limit, limit + 1)]
                for target in targets + [Fraction(1, p**N)]:
                    steps = _step_count(theta, d0, target, desc)
                    assert newton_pays(problem, target) == (steps > limit)
                assert [newton_pays(problem, t) for t in targets] == [False, False, True]
                sides.add(newton_pays(problem))
                reached += _assert_agrees_with_oracle(problem)
    assert sides == {False, True}
    assert reached >= 9


def test_newton_with_theta_zero_and_d0_zero(q5_deep):
    ball = Ball(q5_deep, (0,), Fraction(1))
    constant = ContractionProblem(poly(1, [(Fraction(5, 3), (0,))]), ball, Fraction(0), (0,))
    assert _assert_agrees_with_oracle(constant)
    assert newton_fixed_point(constant).components[0].to_rational() % 5**9 == (
        Fraction(5, 3).numerator * pow(3, -1, 5**9) % 5**9
    )
    # x0 = 0 is an exact fixed point of 5x^2: d0 = 0, nothing to iterate
    fixed = ContractionProblem(poly(1, [(5, (2,))]), Ball(q5_deep, (0,), Fraction(1, 5)), Fraction(1, 5), (0,))
    assert fixed.initial_displacement() == 0
    assert _assert_agrees_with_oracle(fixed)
    assert newton_fixed_point(fixed).components[0].is_exact_zero()


def test_newton_with_explicit_target_precision(q5_deep):
    ball = Ball(q5_deep, (0,), Fraction(1, 5))
    problem = ContractionProblem(FIVE_PLUS_SQ, ball, Fraction(1, 5), (0,))
    for target in (Fraction(1, 5**3), Fraction(1, 5**6), Fraction(1, 5**8), Fraction(1, 5)):
        assert _assert_agrees_with_oracle(problem, target)
    (x,) = newton_fixed_point(problem, Fraction(1, 5**3)).components
    assert x.prec == 3 and x.to_rational() % 5**3 == 280 % 5**3


def test_newton_when_tracked_precision_caps_the_proof(q5_deep):
    # the step maps of 2x + 25x^2 and x + 25x^2 + 5x^3 carry -25/2 x^2 and
    # -25 x^2: every digit the N = 8 field tracks (up to 5^9) is proven
    cases = [
        (poly(1, [(2, (1,)), (25, (2,))]), Fraction(1)),
        (poly(1, [(1, (1,)), (25, (2,)), (5, (3,))]), Fraction(1, 5)),
    ]
    for f, radius in cases:
        cert = certify(f, Ball(q5_deep, (0,), radius))
        for c in (5, 10, Fraction(5, 2)):
            g = inversion_step_map(cert, f, (c,))
            problem = ContractionProblem(g, cert.ball, cert.theta, (0,))
            assert _assert_agrees_with_oracle(problem)
            (x,) = newton_fixed_point(problem).components
            assert x.val == 1 and x.prec == 9


def test_newton_keeps_the_banach_checks(q5, q5_deep, real):
    with pytest.raises(NotAdmissible):
        newton_fixed_point(ContractionProblem(FIVE_PLUS_SQ, Ball(q5, (0,), Fraction(1, 25)), Fraction(1, 5), (0,)))
    # 5 + 5x^2 is a 1/25-contraction of B_{1/5}(0), not a 1/125 one: the
    # second Newton step is longer than theta * d0
    wrong = ContractionProblem(FIVE_PLUS_5SQ, Ball(q5_deep, (0,), Fraction(1, 5)), Fraction(1, 125), (0,))
    for solve in (newton_fixed_point, iterate_fixed_point):
        with pytest.raises(DomainEscape, match="step 1 ") as err:
            solve(wrong)
        assert err.value.details == {"step": "1", "size": "1/125", "bound": "1/625"}
    with pytest.raises(NotAContraction):
        newton_fixed_point(ContractionProblem(FIVE_PLUS_SQ, Ball(q5, (0,), Fraction(1, 5)), Fraction(1, 5), (0,)), 0)
    with pytest.raises(SchemaError):
        newton_fixed_point(ContractionProblem(HALF_PLUS_ONE, Ball(real, (0,), 4), Fraction(1, 2), (0,)))
    assert not newton_pays(ContractionProblem(HALF_PLUS_ONE, Ball(real, (0,), 4), Fraction(1, 2), (0,)))


def test_newton_claims_only_what_its_residual_proves(q5_deep):
    # with the understated theta = 5^-6 the a priori bound asks for one step;
    # one Newton step from 0 lands on 5, and |g(5) - 5| = 5^-3 is all the
    # closing Banach step proves, although the a priori bound claims 5^-7:
    # that residual misses the target 5^-6, and both solvers refuse
    wrong = ContractionProblem(FIVE_PLUS_5SQ, Ball(q5_deep, (0,), Fraction(1, 5)), Fraction(1, 5**6), (0,))
    # x* = 5 + 5x*^2 is 130 mod 5^5, so 130 + O(5^7) would be wrong
    assert (130 * 130 * 5 + 5 - 130) % 5**5 == 0 and (130 * 130 * 5 + 5 - 130) % 5**6 != 0
    for solve in (newton_fixed_point, iterate_fixed_point):
        with pytest.raises(DomainEscape, match="residual") as err:
            solve(wrong, Fraction(1, 5**6))
        assert err.value.details == {"residual": "1/125", "target": "1/15625"}
    # at the target 5^-3 the same residual proves the 3 digits both claim;
    # the a priori bound alone would claim 5 + O(5^7)
    report = iterate_fixed_point(wrong, Fraction(1, 5**3))
    for x in (newton_fixed_point(wrong, Fraction(1, 5**3)), report.fixed_point):
        assert _digits(x) == [(1, 1, 3)]
    assert report.error_bound == Fraction(1, 5**3)


def test_newton_residual_check_carries_its_numbers(q5_deep, monkeypatch):
    # the Newton result is truncated to the digits its residual proves, so
    # its final residual check fails only with the truncation switched off:
    # one Newton step from 0 lands on 5, and g(5) - 5 = 125 = 5^3 misses
    # the target 5^-6
    wrong = ContractionProblem(FIVE_PLUS_5SQ, Ball(q5_deep, (0,), Fraction(1, 5)), Fraction(1, 5**6), (0,))
    answer = contraction._answer
    # the exponent N keeps every digit of the frame points 5 and 25 below
    monkeypatch.setattr(contraction, "_answer", lambda xs, s, exponent, desc: answer(xs, s, desc.precision, desc))
    with pytest.raises(DomainEscape, match="residual") as err:
        newton_fixed_point(wrong, Fraction(1, 5**6))
    assert err.value.details == {"residual": "1/125", "target": "1/15625"}
    # 25 + x^2/5 = 5 g(x/5) on B_{1/25}(0), whose frame denominator holds 5:
    # the step lands on 25, and g(25) - 25 = 125 again, read as the
    # valuation of 5 (g(25) - 25) less one
    scaled = ContractionProblem(poly(1, [(25, (0,)), (Fraction(1, 5), (2,))]), Ball(q5_deep, (0,), Fraction(1, 25)),
                                Fraction(1, 5**6), (0,))
    with pytest.raises(DomainEscape, match="residual") as err:
        newton_fixed_point(scaled, Fraction(1, 5**6))
    assert err.value.details == {"residual": "1/125", "target": "1/15625"}


def test_real_target_below_the_double_resolution_of_the_ball(real):
    # 500 + x/2 on B_1(1000), where neighbouring doubles are 2^-43 apart: its
    # fixed point 1000 is a double, and the orbit from 999 lands on it, so
    # the exact close certifies targets far below that gap with bound 0
    far = ContractionProblem(
        poly(1, [(500, (0,)), (Fraction(1, 2), (1,))]), Ball(real, (1000,), 1), Fraction(1, 2), (999,)
    )
    for target in (Fraction(1, 10**13), Fraction(1, 10**15)):
        report = iterate_fixed_point(far, target)
        assert (report.fixed_point.components[0].value, report.error_bound) == (1000.0, 0)
    report = iterate_fixed_point(far)  # the default target, the field tolerance
    assert abs(Fraction(report.fixed_point.components[0].value) - 1000) <= report.error_bound <= Fraction(1e-9)
    # the fixed point 3001/3 of 3001/6 + x/2 is no double: the orbit from
    # 1000 stops 1/(3 * 2^42) from it, the bound of an affine map is the
    # true error, and a target below it is refused with that bound
    third = ContractionProblem(
        poly(1, [(Fraction(3001, 6), (0,)), (Fraction(1, 2), (1,))]), Ball(real, (1000,), 1), Fraction(1, 2), (1000,)
    )
    report = iterate_fixed_point(third, Fraction(1, 10**13))
    error = abs(Fraction(report.fixed_point.components[0].value) - Fraction(3001, 3))
    assert error == report.error_bound == Fraction(1, 3 * 2**42)
    with pytest.raises(PrecisionExhausted) as err:
        iterate_fixed_point(third, Fraction(1, 10**14))
    assert err.value.details == {"target": frac_str(Fraction(1, 10**14)), "bound": frac_str(Fraction(1, 3 * 2**42))}


def test_real_target_zero_needs_the_exact_fixed_point(real):
    # theta = 0 lets target 0 through; the fixed point 1/3 of the constant
    # map is not a double, so 0.3333333333333333 cannot claim bound 0: its
    # exact bound |g(x) - x| / (1 - 0) is its distance from 1/3
    third = ContractionProblem(poly(1, [(Fraction(1, 3), (0,))]), Ball(real, (0,), 4), Fraction(0), (0,))
    with pytest.raises(PrecisionExhausted) as err:
        iterate_fixed_point(third, 0)
    assert err.value.details == {"target": "0/1", "bound": frac_str(Fraction(1, 3) - Fraction(1 / 3))}
    assert abs(iterate_fixed_point(third).fixed_point.components[0].value - 1 / 3) <= 1e-9
    # d0 = 0: x0 = 3/8 is the fixed point of 3/16 + x/2, and a double
    fixed = ContractionProblem(poly(1, [(Fraction(3, 16), (0,)), (Fraction(1, 2), (1,))]),
                               Ball(real, (0,), 4), Fraction(1, 2), (Fraction(3, 8),))
    report = iterate_fixed_point(fixed, 0)
    assert (report.fixed_point.components[0].value, report.error_bound) == (0.375, 0)


# ---------------------------------------------------------------------------
# The tracked close the solvers used before they closed on integer residues,
# kept verbatim as the oracle of the tracked reference solves below


def truncate_precision(a, abs_exponent: int):
    """Forget the digits of the p-adic scalar a at and above p^abs_exponent
    (formerly `field.truncate_precision`)."""
    desc = a.descriptor
    if a.val is None:
        if a.prec is None:
            return PadicScalar(desc, None, 0, abs_exponent)
        return PadicScalar(desc, None, 0, min(a.prec, abs_exponent))
    if a.prec <= abs_exponent:
        return a
    if a.val >= abs_exponent:
        return PadicScalar(desc, None, 0, abs_exponent)
    return padic_scalar(desc, _padic_make(desc, a.val, a.unit, abs_exponent))


def _certified_close(problem: ContractionProblem, x: Vector, bound: Fraction, target: Fraction) -> Vector:
    """x over Q_p truncated to the e digits its certified bound p^-e proves
    (all of them at bound 0), once the final residual |g(x) - x| is checked
    against the target."""
    if bound > 0:
        exponent = -floor_log(bound, problem.descriptor.prime)
        x = Vector(tuple(truncate_precision(c, exponent) for c in x.components))
    residual = vec_norm(eval_map(problem.f, x) - x)
    if residual > target:
        residual, target = num_str(residual), num_str(target)
        raise DomainEscape(
            f"residual {residual} above target {target}: contraction claim failed",
            residual=residual, target=target,
        )
    return x


# ---------------------------------------------------------------------------
# Precision doubling, checked against the full-precision Newton loop


def _full_precision_newton(problem, target_precision=None):
    """newton_fixed_point before precision doubling, verbatim: every step
    evaluates at the full precision of the iterate it produced."""
    desc = problem.descriptor
    if not desc.ultrametric:
        raise SchemaError("Newton steps are certified on ultrametric fields only")
    theta, d0, target, steps = _plan(problem, target_precision)
    f = problem.f
    x = Vector.from_rationals(problem.x0, desc)
    bound = _certified_bound(theta, d0, steps, desc)
    if steps:
        identity = Operator.identity(problem.domain.dim, desc)
        gx = eval_map(f, x)
        for k in range(steps):
            if (gx - x).is_zero():
                break
            step = invert_exact(identity - jacobian(f, x)).apply(gx - x)
            # I - Dg(x) is an isometry, so the step is as long as g(x) - x
            _check_step(k, vec_norm(step), theta**k * d0)
            x = x + step
            if not problem.domain.contains_tracked(x):
                raise DomainEscape(f"Newton iterate {k + 1} left the domain ball")
            gx = eval_map(f, x)
        if not problem.domain.contains_tracked(gx):
            raise DomainEscape("the closing Banach step left the domain ball")
        # |g(x) - x*| <= |x - x*| <= |g(x) - x| for any contraction, whatever theta
        posterior = max(abs_upper_bound(c) for c in (gx - x).components)
        bound = max(posterior, bound)
        x = gx
    if bound > 0:
        exponent = -floor_log(bound, desc.prime)
        x = Vector(tuple(truncate_precision(c, exponent) for c in x.components))
    residual = vec_norm(eval_map(f, x) - x)
    if residual > target:
        raise DomainEscape(
            f"residual {num_str(residual)} above target {num_str(target)}: contraction claim failed"
        )
    return x


def _p_unit(rng, p):
    return rng.choice((-1, 1)) * (rng.randint(1, p - 1) + p * rng.randint(0, p - 1))


def _deep_rows(rng, p, n, params=0, flat=1):
    """Rows B q + A x + u x^a + c z^b over params + n variables, as the
    benchmark's p-adic maps: A = L U unimodular, u a unit (times `flat`, so
    that p | flat makes Newton converge faster than quadratically), c
    p-integral."""
    nvars = params + n

    def basis(j):
        return tuple(int(k == j) for k in range(nvars))

    def monomial(degree, first):
        exps = [0] * nvars
        for _ in range(degree):
            exps[rng.randrange(first, nvars)] += 1
        return tuple(exps)

    lower = [[1 if i == j else (rng.randint(-2, 2) if j < i else 0) for j in range(n)] for i in range(n)]
    upper = [[_p_unit(rng, p) if i == j else (rng.randint(-2, 2) if j > i else 0) for j in range(n)] for i in range(n)]
    rows = []
    for i in range(n):
        row = [(rng.choice((-2, -1, 1, 2)), basis(j)) for j in range(params)]
        for j in range(n):
            a = sum(lower[i][k] * upper[k][j] for k in range(n))
            if a:
                row.append((a, basis(params + j)))
        row.append((Fraction(flat * _p_unit(rng, p), rng.choice([d for d in (1, 2, 4) if d % p])), monomial(2, params)))
        row.append((Fraction(rng.choice((-3, -2, -1, 1, 2, 3)), rng.choice([d for d in (1, 2, 3, 4) if d % p])),
                    monomial(3, 0)))
        rows.append(row)
    return rows


def _deep_problem(rng, p, n, N, implicit, flat=1):
    """The fixed-point problem local_invert (or solve_implicit) hands to
    newton_fixed_point for a seeded map over Q_p with N digits."""
    desc = FieldDescriptor.padic(p, N)
    if implicit:
        f = MapSpec.from_coefficients(1 + n, _deep_rows(rng, p, n, params=1, flat=flat))
        window = build_window(f, (0,), (0,) * n, descriptor=desc)
        f_q = substitute_prefix(f.without_domain(), (p * _p_unit(rng, p),))
        g = inversion_step_map(window.cert, f_q, window.z0)
        ball = window.state_ball
        return ContractionProblem(g, ball, window.cert.theta, ball.center_exact)
    f = MapSpec.from_coefficients(n, _deep_rows(rng, p, n, flat=flat))
    ball = Ball(desc, (0,) * n, Fraction(1, p))
    target = tuple(Fraction(p * _p_unit(rng, p), rng.choice([d for d in (1, 2, 4) if d % p])) for _ in range(n))
    cert = certify(f, ball)
    return ContractionProblem(inversion_step_map(cert, f, target), ball, cert.theta, (0,) * n)


@pytest.mark.parametrize("p", [3, 5, 7])
def test_precision_doubling_matches_full_precision_newton(p):
    # 108 problems per prime; odd ones with a target of 2..12 digits, so the
    # a priori step cap ends the loop as well as a zero residual; a third
    # with p | u, where a step gains more digits than the schedule assumes
    rng = random.Random(7300 + p)
    solves = 0
    for N in (8, 64, 256, 1024):
        for n in (1, 2, 3):
            for rep in range(9):
                flat = (1, 1, p, p * p)[rep % 4]
                problem = _deep_problem(rng, p, n, N, implicit=rep % 3 == 2, flat=flat)
                target = None if rep % 2 == 0 else Fraction(1, p ** rng.randint(2, 12))
                want = _full_precision_newton(problem, target)
                assert _digits(newton_fixed_point(problem, target)) == _digits(want), (N, n, rep)
                solves += 1
    assert solves == 108


def _recentred(problem, center, desc):
    """x -> c + g(x - c) on B_r(c) over `desc`: the contraction g of
    `problem` (centred at 0) moved to the centre c."""
    n = len(center)

    def affine(sign):
        return MapSpec.from_coefficients(
            n, [[(1, tuple(int(k == i) for k in range(n))), (sign * center[i], (0,) * n)] for i in range(n)]
        )

    g = compose(affine(1), compose(problem.f, affine(-1)))
    return ContractionProblem(g, Ball(desc, center, problem.domain.radius), problem.theta, center)


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_precision_doubling_on_centres_of_negative_valuation(p):
    # at a centre of valuation -s products of coordinates lose digits, at
    # working precision and at full precision alike; the iterate read as an
    # exact point keeps what the full-precision loop loses, so it proves at
    # least as many digits, and they agree with a tracked solve at N + 90
    # digits, deep enough to keep 30 more after the products take theirs
    rng = random.Random(7400 + p)
    more = 0
    for rep in range(16):
        n, N, s = 1 + rep % 2, (8, 12, 20, 40)[rep % 4], 1 + rep % 3
        base = _deep_problem(rng, p, n, N, implicit=False, flat=(p, p * p)[rep % 2])
        center = tuple(Fraction(_p_unit(rng, p), p**s) for _ in range(n))
        problem = _recentred(base, center, base.descriptor)
        reference = _full_precision_newton(
            _recentred(base, center, FieldDescriptor.padic(p, N + 90)), Fraction(1, p ** (N + 60))
        )
        target = None if rep % 4 < 2 else Fraction(1, p ** rng.randint(3, 6))
        got, old = newton_fixed_point(problem, target), _full_precision_newton(problem, target)
        for a, b, r in zip(got.components, old.components, reference.components):
            assert a.prec >= b.prec and r.prec >= a.prec + 30
            for other in (b, r):
                diff = a.to_rational() - other.to_rational()
                assert diff == 0 or rational_valuation(diff, p) >= min(a.prec, other.prec)
        more += _digits(got) != _digits(old)
    assert more >= 1


def test_capped_last_step_runs_at_full_precision(monkeypatch):
    # a target of 5^-4 caps the loop at 2 steps on these maps (theta = 1/25);
    # the step the cap allows last evaluates g and Dg modulo the full width
    # of its iterate (every coordinate to val + N digits), the first one at
    # the working width W_0 = e_1 + 2 = 5
    sweeps = []
    real_sweep = contraction.modular_sweep

    def sweep(f, p, s, xs, width, jacobian=True):
        if jacobian:  # a Newton pass; the close sweeps values only
            sweeps.append((xs, width))
        return real_sweep(f, p, s, xs, width, jacobian)

    monkeypatch.setattr(contraction, "modular_sweep", sweep)
    rng = random.Random(7500)
    for rep in range(12):
        sweeps.clear()
        problem = _deep_problem(rng, 5, 1 + rep % 2, 64, implicit=False, flat=5)
        assert _plan(problem, Fraction(1, 5**4))[3] == 2
        newton_fixed_point(problem, Fraction(1, 5**4))
        (first, w0), (last, w1) = sweeps[0], sweeps[-1]
        assert w0 == 5 and not any(first)
        assert w1 >= max(int_valuation(c, 5) for c in last if c) + 64


@pytest.mark.parametrize("seed", [213, 250])
def test_full_precision_step_keeps_only_the_digits_it_knows(seed):
    # centres of valuation -3 at N = 8: products in a full-precision step
    # lose more digits than the iterate has, so reading it as an exact point
    # would put it outside the ball; like the full-precision loop, the step
    # keeps what it knows, and the result agrees with that loop's
    rng = random.Random(seed)
    p, n = rng.choice((2, 3)), rng.choice((1, 2))
    base = _deep_problem(rng, p, n, 8, implicit=False, flat=rng.choice((p, p * p)))
    center = tuple(Fraction(_p_unit(rng, p), p**3) for _ in range(n))
    problem = _recentred(base, center, base.descriptor)
    target = rng.choice((None, Fraction(1, p**3)))
    assert target is not None
    got, old = newton_fixed_point(problem, target), _full_precision_newton(problem, target)
    for a, b in zip(got.components, old.components):
        assert _prec(a) >= _prec(b)
        diff = a.to_rational() - b.to_rational()
        assert diff == 0 or rational_valuation(diff, p) >= _prec(b)


# ---------------------------------------------------------------------------
# The integer pass, checked against the tracked pass it replaced


def _tracked_gauss_jordan(A, B):
    """The elimination of the tracked solve, verbatim (field scalars, [A | B])
    but for the pivot rank and the row update, which read the scalars'
    triples."""
    desc = A.descriptor
    ultra = desc.ultrametric
    one = desc.one()
    n = len(A.entries)
    work = [list(a) + list(b) for a, b in zip(A.entries, B)]
    for col in range(n):
        if ultra:
            pivot_row = min(range(col, n), key=lambda r: linalg._pivot_valuation(work[r][col].raw))
        else:
            pivot_row = max(range(col, n), key=lambda r: field_abs(work[r][col]))
        if work[pivot_row][col].is_zero():
            raise SingularMatrix(f"no nonzero pivot in column {col} at tracked precision")
        if pivot_row != col:
            work[col], work[pivot_row] = work[pivot_row], work[col]
        piv = work[col][col]
        if ultra:
            r = one / piv
            top = [a * r for a in work[col][col + 1:]]
        else:
            top = [a / piv for a in work[col][col + 1:]]
        work[col][col + 1:] = top
        for i in range(n):
            if i == col:
                continue
            row = work[i]
            factor = row[col]
            if factor.is_zero():
                continue
            if ultra:
                row[col + 1:] = [padic_scalar(desc, padic_sub_product(desc, a.raw, factor.raw, b.raw))
                                 for a, b in zip(row[col + 1:], top)]
            else:
                row[col + 1:] = [a - factor * b for a, b in zip(row[col + 1:], top)]
    return [row[n:] for row in work]


def _tracked_solve(A, v):
    x = _tracked_gauss_jordan(A, [(c,) for c in v.components])
    return Vector(tuple(row[0] for row in x))


def _tracked_at_width(x, width):
    desc = x.descriptor
    top = max((c.prec for c in x.components if c.val is not None), default=desc.precision)
    if width >= top:
        return x
    return Vector(tuple(truncate_precision(c, width) for c in x.components))


def _tracked_exact(x):
    desc = x.descriptor
    mod = desc.prime**desc.precision
    return Vector(
        tuple(
            desc.zero() if c.val is None else PadicScalar(desc, c.val, c.unit, c.val + desc.precision, mod)
            for c in x.components
        )
    )


def _tracked_identity_minus(jac, one):
    return Operator(tuple(
        tuple(one - a if i == j else -a for j, a in enumerate(row))
        for i, row in enumerate(jac.entries)
    ))


def _tracked_domain_escape(what, x, ball, step):
    contraction._domain_escape(what, vec_norm(x - ball.center), ball, step)


def _tracked_newton(problem, target_precision=None):
    """newton_fixed_point with every pass in tracked arithmetic, verbatim:
    each pass evaluates g and Dg at x truncated to the working width W_k
    and solves on tracked scalars; a step short of W_k digits is taken again
    that many digits wider (only the domain escape reads its distance
    from the centre as vec_norm)."""
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
            xw = x if k == steps - 1 else _tracked_at_width(x, width + lost)
            gx = eval_map(f, xw)
            residual = gx - xw
            if residual.is_zero():
                if xw is x:
                    break
                width *= 2
                continue
            step = _tracked_solve(_tracked_identity_minus(jacobian(f, xw), one), residual)
            moved = x + step
            if xw is not x:
                short = width - min(c.prec for c in moved.components)
                if short > 0:
                    lost += short
                    continue
                moved = _tracked_exact(moved)
            # I - Dg(x) is an isometry, so the step is as long as g(x) - x;
            # |step| = p^-v is within theta^k d0 exactly when v >= e_k, and
            # only a step past it builds the Fractions _check_step reports
            step_val = min((c.val for c in step.components if c.val is not None), default=None)
            if step_val is not None and step_val < e_k:
                _check_step(k, valuation_abs(p, step_val), theta**k * d0)
            x = moved
            k += 1
            e_k, e_next = e_next, apriori_exponent(k + 1)
            if not problem.domain.contains_tracked(x):
                _tracked_domain_escape(f"Newton iterate {k}", x, problem.domain, k)
            if k == steps:
                gx = eval_map(f, x)
                break
            v = min(c.val for c in residual.components if c.val is not None)
            width = max(width, 4 * v + 2, e_next + 2)
        if not problem.domain.contains_tracked(gx):
            _tracked_domain_escape("the closing Banach step", gx, problem.domain, k + 1)
        # |g(x) - x*| <= |x - x*| <= |g(x) - x| for any contraction, whatever theta
        posterior = max(abs_upper_bound(c) for c in (gx - x).components)
        bound = max(posterior, bound)
        x = gx
    return _certified_close(problem, x, bound, target)


def _agrees_on_common_digits(got, old):
    """got knows at least the digits old knows, and they are the same;
    returns whether it knows more."""
    p = got.descriptor.prime
    for a, b in zip(got.components, old.components):
        assert _prec(a) >= _prec(b)
        diff = a.to_rational() - b.to_rational()
        assert diff == 0 or rational_valuation(diff, p) >= _prec(b)
    return _digits(got) != _digits(old)


@pytest.mark.parametrize("p", [3, 5, 7])
def test_integer_pass_matches_the_tracked_pass(p):
    # 108 seeded problems per prime at N = 8..1024, as local_invert and
    # solve_implicit pose them: the same digits, bit for bit
    rng = random.Random(7700 + p)
    solves = 0
    for N in (8, 64, 256, 1024):
        for n in (1, 2, 3):
            for rep in range(9):
                flat = (1, 1, p, p * p)[rep % 4]
                problem = _deep_problem(rng, p, n, N, implicit=rep % 3 == 2, flat=flat)
                target = None if rep % 2 == 0 else Fraction(1, p ** rng.randint(2, 12))
                want = _tracked_newton(problem, target)
                assert _digits(newton_fixed_point(problem, target)) == _digits(want), (N, n, rep)
                solves += 1
    assert solves == 108


def test_integer_pass_matches_the_tracked_pass_at_4096_digits():
    rng = random.Random(7800)
    problem = _deep_problem(rng, 5, 2, 4096, implicit=False)
    got = newton_fixed_point(problem)
    assert _digits(got) == _digits(_tracked_newton(problem))
    assert min(c.prec for c in got.components) >= 4096


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_integer_pass_on_centres_of_negative_valuation(p):
    # a centre of valuation -s puts the problem in the frame X = p^s x with
    # guard digits; the tracked pass loses digits to products of values
    # above 1, the integer pass none: at least as many digits, the same ones.
    # Banach steps on the same residues prove as many digits as Newton's,
    # and the same ones
    rng = random.Random(7900 + p)
    frames, more = set(), 0
    for rep in range(24):
        n, N, s = 1 + rep % 2, (8, 12, 20, 40)[rep % 4], 1 + rep % 3
        base = _deep_problem(rng, p, n, N, implicit=False, flat=(p, p * p)[rep % 2])
        center = tuple(Fraction(_p_unit(rng, p), p**s) for _ in range(n))
        problem = _recentred(base, center, base.descriptor)
        frames.add((contraction._frame(problem)[0], _frame_table(problem.f, p, s)[0]))
        target = None if rep % 4 < 2 else Fraction(1, p ** rng.randint(3, 6))
        got = newton_fixed_point(problem, target)
        more += _agrees_on_common_digits(got, _tracked_newton(problem, target))
        banach = iterate_fixed_point(problem, target).fixed_point
        assert [c.prec for c in banach.components] == [c.prec for c in got.components]
        _agrees_on_common_digits(banach, got)
    assert {s for s, _ in frames} == {1, 2, 3} and all(guard > 0 for _, guard in frames)
    assert more >= 1


@pytest.mark.parametrize("p", [3, 5, 7])
def test_integer_pass_on_maps_with_p_in_a_denominator(p):
    # x -> p g(x / p) on B_{1/p^2}(0): the degree-2 and degree-3 terms of
    # g get p and p^2 in their denominators, so the outputs carry guard
    # digits d >= 1 in the frame s = 0
    rng = random.Random(8000 + p)
    guards = set()
    for rep in range(24):
        n, N = 1 + rep % 2, (8, 16, 64, 256)[rep % 4]
        base = _deep_problem(rng, p, n, N, implicit=False, flat=(1, p)[rep % 2])

        def scaled(c):
            return MapSpec.from_coefficients(n, [[(c, tuple(int(k == i) for k in range(n)))] for i in range(n)])

        g = compose(scaled(p), compose(base.f, scaled(Fraction(1, p))))
        problem = ContractionProblem(g, Ball(base.descriptor, (0,) * n, Fraction(1, p * p)), base.theta, (0,) * n)
        assert contraction._frame(problem)[0] == 0
        guards.add(_frame_table(g, p, 0)[0])
        target = None if rep % 3 else Fraction(1, p ** rng.randint(3, 6))
        _agrees_on_common_digits(newton_fixed_point(problem, target), _tracked_newton(problem, target))
    assert min(guards) >= 1 and max(guards) >= 2


# ---------------------------------------------------------------------------
# The integer close, checked against the tracked close it replaced


def _frame_point(xs, s: int, desc):
    """The frame point xs as the tracked x = xs / p^s, each coordinate of
    valuation v known to its N digits, up to p^(v + N); a zero coordinate
    is the exact zero (verbatim from the tracked close)."""
    p, mod = desc.prime, desc.prime**desc.precision
    out = []
    for c in xs:
        if not c:
            out.append(desc.zero())
            continue
        v = int_valuation(c, p)
        out.append(PadicScalar(desc, v - s, c // p**v % mod, v - s + desc.precision, mod))
    return Vector(tuple(out))


def _tracked_close(problem, s, xs, k, bound, target):
    """The close of newton_fixed_point in tracked arithmetic, verbatim: g is
    evaluated at the frame point read as tracked scalars, its residual
    bounds the posterior, and `_certified_close` evaluates g once more."""
    x = _frame_point(xs, s, problem.descriptor)
    gx = eval_map(problem.f, x)
    if not problem.domain.contains_tracked(gx):
        _tracked_domain_escape("the closing Banach step", gx, problem.domain, k + 1)
    # |g(x) - x*| <= |x - x*| <= |g(x) - x| for any contraction, whatever theta
    posterior = max(abs_upper_bound(c) for c in (gx - x).components)
    return _certified_close(problem, gx, max(posterior, bound), target)


def _both_closes(problem, target, monkeypatch):
    """(answer, tracked answer, last frame point): the Newton solve's answer
    and `_tracked_close` at the frame point its close received."""
    seen, close = [], contraction._newton_close

    def record(problem, frame, xs, k, *rest):
        seen.append((frame[0], list(xs), k))
        return close(problem, frame, xs, k, *rest)

    monkeypatch.setattr(contraction, "_newton_close", record)
    got = newton_fixed_point(problem, target)
    monkeypatch.undo()
    ((s, xs, k),) = seen
    theta, d0, target, steps = _plan(problem, target)
    return got, _tracked_close(problem, s, xs, k, _certified_bound(theta, d0, steps, problem.descriptor), target), xs


def test_integer_close_matches_the_tracked_close(monkeypatch):
    # centred solves as local_invert and solve_implicit pose them, over Q3,
    # Q5 and Q7 at N = 8..1024, close on the same digits; at centres of
    # valuation -1..-3 and on maps with p in a denominator the tracked close
    # loses digits to products of values above 1, the integer close none:
    # at least as many digits, the same ones
    more, cases = 0, 0
    for p in (3, 5, 7):
        rng = random.Random(8100 + p)
        for N in (8, 64, 256, 1024):
            for n in (1, 2, 3):
                for rep in range(3):
                    problem = _deep_problem(rng, p, n, N, implicit=rep == 2, flat=(1, p, p * p)[rep])
                    target = None if rep == 0 else Fraction(1, p ** rng.randint(2, 12))
                    got, old, _ = _both_closes(problem, target, monkeypatch)
                    assert _digits(got) == _digits(old), (p, N, n, rep)
                    cases += 1
        for rep in range(6):
            n, N, s = 1 + rep % 2, (8, 12, 20)[rep % 3], 1 + rep % 3
            base = _deep_problem(rng, p, n, N, implicit=False, flat=(p, p * p)[rep % 2])
            center = tuple(Fraction(_p_unit(rng, p), p**s) for _ in range(n))
            problem = _recentred(base, center, base.descriptor)
            target = None if rep < 3 else Fraction(1, p ** rng.randint(3, 6))
            more += _agrees_on_common_digits(*_both_closes(problem, target, monkeypatch)[:2])
            cases += 1
        for rep in range(6):
            n, N = 1 + rep % 2, (8, 16, 64)[rep % 3]
            base = _deep_problem(rng, p, n, N, implicit=False, flat=(1, p)[rep % 2])

            def scaled(c):
                return MapSpec.from_coefficients(n, [[(c, tuple(int(k == i) for k in range(n)))] for i in range(n)])

            g = compose(scaled(p), compose(base.f, scaled(Fraction(1, p))))
            problem = ContractionProblem(g, Ball(base.descriptor, (0,) * n, Fraction(1, p * p)), base.theta, (0,) * n)
            more += _agrees_on_common_digits(*_both_closes(problem, None, monkeypatch)[:2])
            cases += 1
    assert cases == 144 and more >= 1
    # the benchmark's Q5 map of seed 3001 in 3 variables at N = 1024: its
    # last frame point has an exactly zero coordinate
    problem = _deep_problem(random.Random(3001), 5, 3, 1024, implicit=False)
    got, old, xs = _both_closes(problem, None, monkeypatch)
    assert 0 in xs and _digits(got) == _digits(old)


def _count_scalars(monkeypatch, record):
    """Call record() for each p-adic scalar built, by its checking
    constructor or by `padic_scalar` around a kernel's triple in any module
    that wraps one."""
    init, wrap = PadicScalar.__init__, field.padic_scalar

    def counted_init(self, *args):
        record()
        init(self, *args)

    monkeypatch.setattr(PadicScalar, "__init__", counted_init)
    for module in (field, linalg, calculus, contraction):
        monkeypatch.setattr(module, "padic_scalar", lambda desc, triple: record() or wrap(desc, triple))


def test_met_newton_solve_evaluates_no_tracked_map(monkeypatch):
    # between its plan and its answer a met Newton solve calls eval_map no
    # time and builds p-adic scalars only for its answer, one per coordinate
    rng = random.Random(8200)
    calls, scalars = [], []
    evaluate = contraction.eval_map

    for p in (3, 5, 7):
        for n in (1, 2, 3):
            for rep in range(4):
                problem = _deep_problem(rng, p, n, (16, 64, 256, 1024)[rep], implicit=rep == 1, flat=(1, p)[rep % 2])
                target = None if rep % 2 else Fraction(1, p ** rng.randint(2, 12))
                assert _plan(problem, target)[3] > 0  # the plan, with d0, comes first
                calls.clear()
                scalars.clear()
                monkeypatch.setattr(contraction, "eval_map", lambda *args: calls.append(args) or evaluate(*args))
                _count_scalars(monkeypatch, lambda: scalars.append(1))
                got = newton_fixed_point(problem, target)
                monkeypatch.undo()
                assert not calls and len(scalars) == n == got.dim


# ---------------------------------------------------------------------------
# Real solves certify their answer exactly; domain escapes carry numbers


def _rounding_model(problem):
    """The worst-case model of the rounding of a real solve's doubles that
    the real solvers once added to their a priori bound, kept to generate
    tight targets: u|x0| + delta / (1 - theta), u = 2^-53 and delta the
    largest gamma_K * sum(|c| s^|a|) over the outputs, K = degree + terms,
    gamma_K = K u / (1 - K u), s the ball's extent plus its membership
    slack (Higham, Accuracy and Stability of Numerical Algorithms, ch. 3)."""
    ball = problem.domain
    u = Fraction(1, 2**53)
    slack = Fraction(problem.descriptor.tolerance) * max(1, ball.radius)
    s = max(abs(c) for c in ball.center_exact) + ball.radius + slack
    delta = Fraction(0)
    for monomials in problem.f.outputs:
        K = len(monomials) + max((sum(exps) for exps, _ in monomials), default=0)
        size = sum(abs(c) * s ** sum(exps) for exps, c in monomials)
        delta = max(delta, K * u / (1 - K * u) * size)
    return u * max(abs(v) for v in problem.x0) + delta / (1 - problem.theta)


def _met_or_refused(problem, target, fixed):
    """Solve to the target: True when met with |x - x*| <= error_bound <=
    target exactly, False when refused with a bound above the target."""
    try:
        report = iterate_fixed_point(problem, target)
    except PrecisionExhausted as exc:
        assert exc.details["target"] == frac_str(target)
        assert Fraction(exc.details["bound"]) > target
        return False
    error = max(abs(Fraction(c.value) - x) for c, x in zip(report.fixed_point.components, fixed))
    assert error <= report.error_bound <= target, (float(error), float(report.error_bound), float(target))
    return True


@pytest.mark.parametrize("theta", [Fraction(19, 20), Fraction(97, 100), Fraction(99, 100)])
def test_real_affine_solves_stay_within_their_bound(real, theta):
    # theta x + (1 - theta) 3/4 on B_1(0) from 0: the fixed point is 3/4.
    # Every target above the rounding model is met, and two below it too:
    # 19/20 at 2^-48 and 99/100 at 2^-45
    f = poly(1, [((1 - theta) * Fraction(3, 4), (0,)), (theta, (1,))])
    problem = ContractionProblem(f, Ball(real, (0,), 1), theta, (0,))
    met = {}
    for k in (30, 33, 36, 39, 42, 45, 48, 50):
        target = Fraction(1, 2**k)
        met[k] = _met_or_refused(problem, target, (Fraction(3, 4),))
        if target > _rounding_model(problem):
            assert met[k], k
    assert [k for k in met if not met[k]] == {Fraction(19, 20): [50], Fraction(97, 100): [48, 50],
                                              Fraction(99, 100): [48, 50]}[theta]


def test_real_targets_between_the_rounding_bound_and_the_double_resolution_are_met(real):
    # a x + c on B_r(C), C from 1 to 10^6, r from C to 3C/2: the fixed point
    # x* = c/(1 - a) and x0 lie in [0, 9C/10].  A target strictly between
    # the rounding model of the solve and eps * max(1, C + r), the gap of
    # neighbouring doubles at the ball's edge, is met: the solve lands within
    # it of x*
    rng = random.Random(2052)
    eps = Fraction(2) ** -52
    for _ in range(180):
        C = rng.randint(1, 10**6)
        r = C * Fraction(rng.randint(100, 150), 100)
        a = rng.choice((1, -1)) * Fraction(1, rng.choice((8, 10, 16, 32, 64)))
        fixed = C * Fraction(rng.randint(0, 40), 100)
        # d0 = |1 - a| |x* - x0| <= (1 - |a|) r: the problem is admissible
        x0 = fixed + C * Fraction(rng.randint(0, 50), 100) * (1 - abs(a)) / (1 + abs(a))
        f = poly(1, [(fixed * (1 - a), (0,)), (a, (1,))])
        problem = ContractionProblem(f, Ball(real, (C,), r), abs(a), (x0,))
        rounding, resolution = _rounding_model(problem), eps * max(1, C + r)
        assert rounding < resolution
        target = rounding + (resolution - rounding) * Fraction(rng.randint(1, 99), 100)
        assert _met_or_refused(problem, target, (fixed,)), (C, r, a, fixed, x0, float(target))


def _around(fixed, L, Q):
    """x* + L(x - x*) + Q(x - x*) as a map of x, Q[i] listing (c, j, k) for
    the terms c (x_j - x*_j)(x_k - x*_k) of output i."""
    n = len(fixed)
    unit = [tuple(int(i == j) for i in range(n)) for j in range(n)]
    h = MapSpec.from_coefficients(n, [
        [(fixed[i], (0,) * n)] + [(L[i][j], unit[j]) for j in range(n)]
        + [(c, tuple(a + b for a, b in zip(unit[j], unit[k]))) for c, j, k in Q[i]]
        for i in range(n)
    ])
    shift = MapSpec.from_coefficients(n, [[(1, unit[i]), (-fixed[i], (0,) * n)] for i in range(n)])
    return compose(h, shift)


def test_real_solves_are_sound_on_seeded_maps(real):
    # maps around a known rational fixed point x*, affine or with a quadratic
    # term, on balls centred anywhere in [0, 10^6]: a met target holds
    # exactly, and a refusal carries a bound above its target
    rng = random.Random(1717)
    outcomes = {True: 0, False: 0}
    for rep in range(300):
        n = 1 + rep % 3
        centre = tuple(Fraction(rng.randint(0, 10**6), rng.choice((1, 3, 8))) for _ in range(n))
        r = Fraction(rng.randint(1, 1000), rng.choice((1, 10, 1000)))
        fixed = tuple(c + r * Fraction(rng.randint(-25, 25), 100) for c in centre)
        rate = Fraction(rng.choice((1, 10, 50, 90)), 100)
        L = [[rate * Fraction(rng.randint(-100, 100), 100 * n) for _ in range(n)] for _ in range(n)]
        sup = max(abs(c) for c in centre) + r
        Q = [[] if rep % 2 else [(Fraction(rng.randint(-100, 100), 1600 * n * n) / sup, rng.randrange(n), rng.randrange(n))
                                 for _ in range(n)] for _ in range(n)]
        f = _around(fixed, L, Q)
        ball = Ball(real, centre, r)
        theta = lipschitz_theta(f, ball)
        # |g(x0) - x0| <= (1 + theta) |x0 - x*| <= (1 - theta) r: admissible
        spread = (1 - theta) * r / (2 * (1 + theta))
        x0 = tuple(x + spread * Fraction(rng.randint(-100, 100), 100) for x in fixed)
        problem = ContractionProblem(f, ball, theta, x0)
        assert admissible(problem)
        target = Fraction(rng.randint(1, 9), 2 ** rng.randint(36, 58)) * max(1, sup)
        outcomes[_met_or_refused(problem, target, fixed)] += 1
    assert min(outcomes.values()) >= 40, outcomes


def test_real_step_check_counts_the_rounding_of_the_iterates(real):
    # 370371/10 + x/10 on B_100000(100000) from its centre, fixed point
    # 123457/3: in doubles step 5 comes out 0.5296290000042063, 4.2e-12 above
    # the a priori bound 529629/10^6 of the exact orbit.  No step is checked
    # against that bound: the exact close bounds the answer x itself by
    # |g(x) - x| / (1 - theta), whatever the rounding of the orbit was
    fixed = Fraction(123457, 3)
    f = poly(1, [(Fraction(370371, 10), (0,)), (Fraction(1, 10), (1,))])
    problem = ContractionProblem(f, Ball(real, (100000,), 100000), Fraction(1, 10), (100000,))
    report = iterate_fixed_point(problem)
    assert report.step_distances[5] == 0.5296290000042063
    assert report.step_distances[5] > report.apriori_bounds[5] + Fraction(1, 10**12)
    (x,) = report.fixed_point.to_rationals()
    (gx,) = eval_map(f, (x,))
    assert report.error_bound == abs(gx - x) / (1 - Fraction(1, 10))
    assert abs(x - fixed) <= report.error_bound <= Fraction(1e-9)


def test_exact_close_refuses_a_theta_below_the_rate_of_the_map(real):
    # x/2 + 1/4 on B[0, 1] from 0 contracts by 1/2, not 1/4; its orbit stays
    # in the ball and nears 1/2, and the exact test on the last two
    # iterates, 1/2 - 2^-15 and 1/2 - 2^-16, finds g halving their distance
    problem = ContractionProblem(poly(1, [(Fraction(1, 4), (0,)), (Fraction(1, 2), (1,))]),
                                 Ball(real, (0,), 1), Fraction(1, 4), (0,))
    with pytest.raises(DomainEscape, match="contraction constant 1/4 is wrong") as err:
        iterate_fixed_point(problem)
    assert err.value.details == {"step": "15", "distance": frac_str(Fraction(1, 2**16)),
                                 "image_distance": frac_str(Fraction(1, 2**17)), "theta": "1/4"}


def test_exact_close_needs_the_answer_in_the_ball(real):
    # 1/10 + x/2 on B[0, 1/5] has its fixed point 1/5 on the sphere, and the
    # double 0.2 lies above it: the orbit lands on 0.2, which each step's
    # membership test lets through within its tolerance.  The bound
    # |g(x) - x| / (1 - theta) holds only inside the ball, so the close
    # certifies the last iterate in it, the double below 1/5, whose bound is
    # 1/5 - x: it meets 2 * 10^-17 and misses 10^-17
    problem = ContractionProblem(poly(1, [(Fraction(1, 10), (0,)), (Fraction(1, 2), (1,))]),
                                 Ball(real, (0,), Fraction(1, 5)), Fraction(1, 2), (0,))
    below = math.nextafter(0.2, 0)
    with pytest.raises(PrecisionExhausted) as err:
        iterate_fixed_point(problem, Fraction(1, 10**17))
    assert err.value.details == {"target": frac_str(Fraction(1, 10**17)),
                                 "bound": frac_str(Fraction(1, 5) - Fraction(below))}
    report = iterate_fixed_point(problem, Fraction(2, 10**17))
    # the orbit went on to the double 0.2 at steps 54 and 55; the report
    # ends at its answer, iterate 53
    assert report.iterations == 53 and len(report.trace) == 54
    assert [x.components[0].value for x in report.trace[-2:]] == [math.nextafter(below, 0), below]
    assert report.fixed_point is report.trace[-1]
    assert len(report.step_distances) == len(report.apriori_bounds) == 53
    assert report.achieved_distance == report.step_distances[-1] == below - math.nextafter(below, 0)
    assert report.fixed_point.components[0].value == below
    assert report.error_bound == Fraction(1, 5) - Fraction(below)
    assert _met_or_refused(problem, Fraction(1, 10**15), (Fraction(1, 5),))


def test_padic_error_bound_is_the_a_priori_bound(q5):
    problem = ContractionProblem(FIVE_PLUS_SQ, Ball(q5, (0,), Fraction(1, 5)), Fraction(1, 5), (0,))
    report = iterate_fixed_point(problem)
    assert report.error_bound == _certified_bound(
        problem.theta, problem.initial_displacement(), report.iterations, q5
    )


def test_domain_escapes_carry_step_distance_and_radius(q5, q5_deep, real, monkeypatch):
    # 129/125 + x/5 over Q5 on B_1(1/25) and 4x - 119/4 over the reals on
    # B_1(10) are no 1/5- or 1/2-contractions: iterate 2 lands at
    # 1/25 + 6/5 and at 45/4
    cases = [
        (lambda: iterate_fixed_point(ContractionProblem(
            poly(1, [(Fraction(129, 125), (0,)), (Fraction(1, 5), (1,))]), Ball(q5, (Fraction(1, 25),), 1),
            Fraction(1, 5), (Fraction(1, 25),))),
         "iterate 2 left the domain ball", {"step": "2", "distance": "5/1", "radius": "1/1"}),
        (lambda: iterate_fixed_point(ContractionProblem(
            poly(1, [(Fraction(-119, 4), (0,)), (4, (1,))]), Ball(real, (10,), 1), Fraction(1, 2), (10,))),
         "iterate 2 left the domain ball", {"step": "2", "distance": "5/4", "radius": "1/1"}),
        # one Newton step (target 1/5) reaches x = 1, and g(1) = 26/25
        (lambda: newton_fixed_point(ContractionProblem(
            poly(1, [(1, (0,)), (Fraction(1, 25), (2,))]), Ball(q5, (0,), 1), Fraction(1, 5), (0,)),
            Fraction(1, 5)),
         "the closing Banach step left the domain ball", {"step": "2", "distance": "25/1", "radius": "1/1"}),
        # one Newton step (target 1/25) reaches x = 5 in B_{1/5}(0), and g(5) = 6
        # is a p-adic integer, 1 from the centre
        (lambda: newton_fixed_point(ContractionProblem(
            poly(1, [(5, (0,)), (Fraction(1, 25), (2,))]), Ball(q5, (0,), Fraction(1, 5)), Fraction(1, 5), (0,)),
            Fraction(1, 25)),
         "the closing Banach step left the domain ball", {"step": "2", "distance": "1/1", "radius": "1/5"}),
    ]
    for solve, message, details in cases:
        with pytest.raises(DomainEscape, match=message) as err:
            solve()
        assert err.value.details == details
    # 1 - 4x has I - Dg = 5: no unit pivot, so |Dg| = 1 refutes theta = 1/5,
    # with the step check or without it
    steep = ContractionProblem(poly(1, [(1, (0,)), (-4, (1,))]), Ball(q5, (0,), 1), Fraction(1, 5), (0,))
    # 5 + x^125/5^126 on B_{1/5}(0): Dg(5) = 5, but g(5) = 5 + 1/5 leaves the ball
    leaving = ContractionProblem(poly(1, [(5, (0,)), (Fraction(1, 5**126), (125,))]),
                                 Ball(q5_deep, (0,), Fraction(1, 5)), Fraction(1, 5), (0,))
    for check in (True, False):
        if not check:
            monkeypatch.setattr(contraction, "_check_step", lambda *args: None)
        with pytest.raises(DomainEscape, match="Newton iterate 0 has no unit pivot") as err:
            newton_fixed_point(steep)
        assert err.value.details == {"step": "0", "theta": "1/5"}
        with pytest.raises(DomainEscape, match=r"g\(Newton iterate 1\) left the domain ball") as err:
            newton_fixed_point(leaving)
        assert err.value.details == {"step": "2", "distance": "5/1", "radius": "1/5"}
    # on an ultrametric ball a step within its bound cannot leave it: with the
    # step check off, a step of 1 from 0 leaves B_{1/5}(0)
    monkeypatch.setattr(contraction, "modular_solve", lambda rows, rhs, p, width: [1] * len(rhs))
    with pytest.raises(DomainEscape, match="Newton iterate 1 left the domain ball") as err:
        newton_fixed_point(ContractionProblem(FIVE_PLUS_SQ, Ball(q5, (0,), Fraction(1, 5)), Fraction(1, 5), (0,)))
    assert err.value.details == {"step": "1", "distance": "1/1", "radius": "1/5"}


def test_newton_passes_solve_as_the_inverse_would(monkeypatch):
    # every (I - Dg) s = g(x) - x a Newton pass solves modulo p^W, over seeded
    # deep problems, agrees modulo p^W with invert_exact(I - Dg).apply(g(x) - x)
    # over Q_p at W digits; the passes form no inverse, apply no operator and
    # build no p-adic scalar before the answer
    systems, scalars, closing = [], [], [False]
    real_solve, real_answer = contraction.modular_solve, contraction._answer
    rng = random.Random(7600)
    problems = []
    for p in (3, 5, 7):
        for N in (8, 64, 256):
            for n in (1, 2, 3, 4):
                for rep in range(4):
                    flat = (1, p, p * p, 1)[rep]
                    target = None if rep % 3 else Fraction(1, p ** rng.randint(2, 12))
                    problems.append((_deep_problem(rng, p, n, N, implicit=rep == 1, flat=flat), target))

    def refuse(*args):
        raise AssertionError("a Newton pass formed an inverse or applied an operator")

    def answer(*args):
        closing[0] = True
        return real_answer(*args)

    monkeypatch.setattr(contraction, "modular_solve", lambda *args: systems.append(args) or real_solve(*args))
    monkeypatch.setattr(contraction, "_answer", answer)
    monkeypatch.setattr(linalg, "invert_exact", refuse)
    monkeypatch.setattr(Operator, "apply", refuse)
    _count_scalars(monkeypatch, lambda: scalars.append(closing[0]))
    for problem, target in problems:
        closing[0] = False
        newton_fixed_point(problem, target)
        assert closing[0]
    monkeypatch.undo()
    assert scalars and all(scalars)
    assert len(systems) >= 600 and {len(rhs) for _, rhs, _, _ in systems} == {1, 2, 3, 4}
    for rows, rhs, p, width in systems:
        desc = FieldDescriptor.padic(p, width)
        A = Operator.from_rationals(rows, desc)
        want = invert_exact(A).apply(Vector.from_rationals(rhs, desc)).components
        for x, c in zip(real_solve(rows, rhs, p, width), want):
            assert c.prec is None or c.prec >= width
            assert (c.to_rational() - x) % p**width == 0


def _raw(x):
    return (x.val, x.unit, x.prec)


def test_integer_exponents_match_floor_log():
    # p^e, the largest p-power <= theta^n d0 (/ (1 - theta)), from the
    # integer parts of theta and d0, against floor_log of the Fraction
    for p in (2, 3, 5, 7):
        thetas = [Fraction(0), Fraction(1, p), Fraction(1, p**3), Fraction(2, 7), Fraction(3, 10),
                  Fraction(p - 1, p + 1), 1 - Fraction(1, 10**6)]
        for theta in thetas:
            for d0 in (Fraction(0), Fraction(1), Fraction(1, p), Fraction(p**2), Fraction(1, p**40)):
                for n in (0, 1, 2, 3, 5, 64, 1000, 4095, 4096):
                    for geometric in (False, True):
                        value = theta**n * d0 / (1 - theta if geometric else 1)
                        want = floor_log(value, p) if value else None
                        assert _power_exponent(theta, d0, n, p, geometric) == want, (p, theta, d0, n)
                    desc = FieldDescriptor.padic(p, 8)
                    bound = _certified_bound(theta, d0, n, desc)
                    assert bound == (Fraction(p) ** want if value else 0)
