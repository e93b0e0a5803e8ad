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
    Vector,
    admissible,
    embed_rational,
    fixed_point_derivative,
    iterate_fixed_point,
    lipschitz_theta,
    uniform_family_check,
    vec_norm,
)
from ultrafix.calculus import quotient_map, eval_map
from ultrafix.contraction import MAX_STEPS, _step_count


def poly(m, *outputs):
    return MapSpec.from_coefficients(m, outputs)


HALF_PLUS_ONE = poly(1, [(Fraction(1, 2), (1,)), (1, (0,))])  # x/2 + 1
FIVE_PLUS_SQ = poly(1, [(5, (0,)), (1, (2,))])  # 5 + x^2


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
    with pytest.raises(NotAdmissible):
        iterate_fixed_point(prob)


def test_wrong_theta_detected(real):
    # claiming theta = 1/10 for x -> x/2 + 1 breaks the step bounds
    prob = ContractionProblem(HALF_PLUS_ONE, Ball(real, (0,), 4), Fraction(1, 10), (0,))
    with pytest.raises(DomainEscape):
        iterate_fixed_point(prob)


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
