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
from ultrafix import contraction
from ultrafix.calculus import compose, quotient_map, eval_map, jacobian, substitute_prefix
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
from ultrafix.errors import PrecisionExhausted
from ultrafix.field import abs_upper_bound, floor_log, frac_str, num_str, rational_valuation, truncate_precision
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
    # claiming theta = 1/10 for x -> x/2 + 1 breaks the step bounds
    prob = ContractionProblem(HALF_PLUS_ONE, Ball(real, (0,), 4), Fraction(1, 10), (0,))
    with pytest.raises(DomainEscape) as err:
        iterate_fixed_point(prob)
    assert err.value.details == {"step": "1", "size": "0.5", "bound": "1/10"}


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
    # closing Banach step proves, although the a priori bound claims 5^-7
    wrong = ContractionProblem(FIVE_PLUS_5SQ, Ball(q5_deep, (0,), Fraction(1, 5)), Fraction(1, 5**6), (0,))
    (x,) = newton_fixed_point(wrong, Fraction(1, 5**6)).components
    assert x.prec == 3 and x.to_rational() % 5**3 == 5
    # x* = 5 + 5x*^2 is 130 mod 5^5, so 130 + O(5^7) would be wrong
    assert (130 * 130 * 5 + 5 - 130) % 5**5 == 0 and (130 * 130 * 5 + 5 - 130) % 5**6 != 0
    with pytest.raises(DomainEscape, match="residual") as err:
        iterate_fixed_point(wrong, Fraction(1, 5**6))
    assert err.value.details == {"residual": "1/125", "target": "1/15625"}


def test_newton_residual_check_carries_its_numbers(q5_deep, monkeypatch):
    # the Newton result is truncated to the digits its residual proves, so
    # its final residual check fails only with the truncation switched off:
    # g(130) - 130 = 84375 = 27 * 5^5 misses the target 5^-6
    wrong = ContractionProblem(FIVE_PLUS_5SQ, Ball(q5_deep, (0,), Fraction(1, 5)), Fraction(1, 5**6), (0,))
    monkeypatch.setattr(contraction, "truncate_precision", lambda c, exponent: c)
    with pytest.raises(DomainEscape, match="residual") as err:
        newton_fixed_point(wrong, Fraction(1, 5**6))
    assert err.value.details == {"residual": "1/3125", "target": "1/15625"}


def test_real_target_below_the_double_resolution_of_the_ball(real):
    # 500 + x/2 has its fixed point 1000 at the center of B_1(1000), where
    # neighbouring doubles are 2^-43 apart; the rounding bound of the solve,
    # u|x0| + 3u/(1 - 3u) (500 + s/2) / (1 - 1/2) with u = 2^-53 and s the
    # ball's extent plus its membership slack, is about 7.8e-13
    far = ContractionProblem(
        poly(1, [(500, (0,)), (Fraction(1, 2), (1,))]), Ball(real, (1000,), 1), Fraction(1, 2), (999,)
    )
    with pytest.raises(PrecisionExhausted) as err:
        iterate_fixed_point(far, Fraction(1, 10**13))
    u, s = Fraction(1, 2**53), 1001 + Fraction(1e-9)
    rounding = u * 999 + 3 * u / (1 - 3 * u) * (500 + s / 2) * 2
    assert err.value.details == {"target": frac_str(Fraction(1, 10**13)),
                                 "rounding": frac_str(rounding)}
    for target, tol in ((Fraction(1, 10**12), 1e-12), (None, 1e-9)):  # None: the default
        x = iterate_fixed_point(far, target).fixed_point.components[0].value
        assert abs(x - 1000) <= tol


def test_real_target_zero_needs_the_exact_fixed_point(real):
    # theta = 0 lets target 0 through; the fixed point 1/3 of the constant
    # map is not a double, so 0.3333333333333333 cannot claim bound 0
    third = ContractionProblem(poly(1, [(Fraction(1, 3), (0,))]), Ball(real, (0,), 4), Fraction(0), (0,))
    with pytest.raises(PrecisionExhausted) as err:
        iterate_fixed_point(third, 0)
    assert err.value.details == {"value": [frac_str(Fraction(1 / 3))], "exact": ["1/3"]}
    assert abs(iterate_fixed_point(third).fixed_point.components[0].value - 1 / 3) <= 1e-9
    # d0 = 0: x0 = 3/8 is the fixed point of 3/16 + x/2, and a double
    fixed = ContractionProblem(poly(1, [(Fraction(3, 16), (0,)), (Fraction(1, 2), (1,))]),
                               Ball(real, (0,), 4), Fraction(1, 2), (Fraction(3, 8),))
    assert iterate_fixed_point(fixed, 0).fixed_point.components[0].value == 0.375


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
            _check_step(k, vec_norm(step), theta**k * d0, True)
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
    # least as many digits, and they agree with a solve at N + 60 digits
    rng = random.Random(7400 + p)
    more = 0
    for rep in range(16):
        n, N, s = 1 + rep % 2, (8, 12, 20, 40)[rep % 4], 1 + rep % 3
        base = _deep_problem(rng, p, n, N, implicit=False, flat=(p, p * p)[rep % 2])
        center = tuple(Fraction(_p_unit(rng, p), p**s) for _ in range(n))
        problem = _recentred(base, center, base.descriptor)
        reference = _full_precision_newton(
            _recentred(base, center, FieldDescriptor.padic(p, N + 60)), Fraction(1, p ** (N + 30))
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
    # the step the cap allows last evaluates Dg at the full-precision
    # iterate (val + N digits, or an exact zero), the first one at the
    # working precision W_0 = e_1 + 2 = 5
    points = []
    real_jacobian = contraction.jacobian
    monkeypatch.setattr(contraction, "jacobian", lambda f, x: points.append(x) or real_jacobian(f, x))
    rng = random.Random(7500)
    for rep in range(12):
        points.clear()
        problem = _deep_problem(rng, 5, 1 + rep % 2, 64, implicit=False, flat=5)
        assert _plan(problem, Fraction(1, 5**4))[3] == 2
        newton_fixed_point(problem, Fraction(1, 5**4))
        first, last = points
        assert all(c.prec == 5 for c in first.components)
        assert all(c.prec is None or c.prec == c.val + 64 for c in last.components)


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
# Real solves count the rounding of their doubles; domain escapes carry numbers


@pytest.mark.parametrize("theta", [Fraction(19, 20), Fraction(97, 100), Fraction(99, 100)])
def test_real_affine_solves_stay_within_their_bound(real, theta):
    # theta x + (1 - theta) 3/4 on B_1(0) from 0: the fixed point is 3/4, and
    # before the rounding bound some of these errors exceeded the a priori one
    f = poly(1, [((1 - theta) * Fraction(3, 4), (0,)), (theta, (1,))])
    problem = ContractionProblem(f, Ball(real, (0,), 1), theta, (0,))
    outcomes = {"solved": 0, "refused": 0}
    for k in (30, 33, 36, 39, 42, 45, 48, 50):
        target = Fraction(1, 2**k)
        try:
            report = iterate_fixed_point(problem, target)
        except PrecisionExhausted as exc:
            assert exc.details == {"target": frac_str(target), "rounding": frac_str(problem.rounding_bound)}
            assert problem.rounding_bound >= target
            outcomes["refused"] += 1
            continue
        error = abs(Fraction(report.fixed_point.components[0].value) - Fraction(3, 4))
        assert error <= report.error_bound <= target, (k, float(error), float(report.error_bound))
        assert report.error_bound == (
            _certified_bound(theta, problem.initial_displacement(), report.iterations, real)
            + problem.rounding_bound
        )
        outcomes["solved"] += 1
    assert outcomes["solved"] >= 5 and outcomes["refused"] >= 1, outcomes


def test_real_targets_between_the_rounding_bound_and_the_double_resolution_are_met(real):
    # a x + c on B_r(C), C from 1 to 10^6, r from C to 3C/2: the fixed point
    # x* = c/(1 - a) and x0 lie in [0, 9C/10].  A target strictly between
    # the rounding bound of the solve and eps * max(1, C + r), the gap of
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
        rounding, resolution = problem.rounding_bound, eps * max(1, C + r)
        assert rounding < resolution
        target = rounding + (resolution - rounding) * Fraction(rng.randint(1, 99), 100)
        report = iterate_fixed_point(problem, target)
        error = abs(Fraction(report.fixed_point.components[0].value) - fixed)
        assert error <= report.error_bound <= target, (C, r, a, fixed, x0, float(error), float(target))


def test_real_step_check_counts_the_rounding_of_the_iterates(real):
    # 370371/10 + x/10 on B_100000(100000) from its centre, fixed point
    # 123457/3: in doubles step 5 comes out 0.5296290000042063, 4.2e-12 above
    # its a priori bound 529629/10^6, which a margin of 1e-12 alone refused
    fixed = Fraction(123457, 3)
    f = poly(1, [(Fraction(370371, 10), (0,)), (Fraction(1, 10), (1,))])
    problem = ContractionProblem(f, Ball(real, (100000,), 100000), Fraction(1, 10), (100000,))
    report = iterate_fixed_point(problem)
    assert report.step_distances[5] == 0.5296290000042063
    assert report.step_distances[5] > report.apriori_bounds[5] + Fraction(1, 10**12)
    error = abs(Fraction(report.fixed_point.components[0].value) - fixed)
    assert error <= report.error_bound <= Fraction(1e-9)
    # a step past twice the rounding bound is still refused
    slack = 2 * float(problem.rounding_bound)
    _check_step(5, 0.5296290000042063, report.apriori_bounds[5], False, slack)
    with pytest.raises(DomainEscape):
        _check_step(5, 0.529629 + 2 * slack, report.apriori_bounds[5], False, slack)


def test_rounding_bound_is_zero_over_q_p(q5):
    problem = ContractionProblem(FIVE_PLUS_SQ, Ball(q5, (0,), Fraction(1, 5)), Fraction(1, 5), (0,))
    assert problem.rounding_bound == 0
    report = iterate_fixed_point(problem)
    assert report.error_bound == _certified_bound(
        problem.theta, problem.initial_displacement(), report.iterations, q5
    )


def test_domain_escapes_carry_step_distance_and_radius(q5, real, monkeypatch):
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
    ]
    for solve, message, details in cases:
        with pytest.raises(DomainEscape, match=message) as err:
            solve()
        assert err.value.details == details
    # on an ultrametric ball a step within its bound cannot leave it: with the
    # step check off, 1 - 4x (I - Dg = 5) jumps from 0 to 1/5
    monkeypatch.setattr(contraction, "_check_step", lambda *args: None)
    with pytest.raises(DomainEscape, match="Newton iterate 1 left the domain ball") as err:
        newton_fixed_point(ContractionProblem(
            poly(1, [(1, (0,)), (-4, (1,))]), Ball(q5, (0,), 1), Fraction(1, 5), (0,)))
    assert err.value.details == {"step": "1", "distance": "5/1", "radius": "1/1"}


def test_newton_passes_solve_as_the_inverse_would(monkeypatch):
    # every (I - Dg) s = g(x) - x a Newton pass solves, over seeded deep
    # problems, equals invert_exact(I - Dg).apply(g(x) - x) bit for bit; the
    # pass forms no inverse and applies no operator
    systems = []
    real_solve = contraction.solve_exact
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

    monkeypatch.setattr(contraction, "solve_exact", lambda A, v: systems.append((A, v)) or real_solve(A, v))
    monkeypatch.setattr(linalg, "invert_exact", refuse)
    monkeypatch.setattr(Operator, "apply", refuse)
    for problem, target in problems:
        newton_fixed_point(problem, target)
    monkeypatch.undo()
    assert len(systems) >= 600 and {v.dim for _, v in systems} == {1, 2, 3, 4}
    for A, v in systems:
        want = invert_exact(A).apply(v).components
        assert [_raw(c) for c in real_solve(A, v).components] == [_raw(c) for c in want]


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
