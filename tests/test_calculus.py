import math
import random
from fractions import Fraction

import pytest

from ultrafix import (
    Ball,
    DimensionMismatch,
    DomainViolation,
    FieldDescriptor,
    MapSpec,
    Operator,
    QuotientPoint,
    SchemaError,
    Vector,
    check_identities,
    compose,
    diff_quotient,
    eval_map,
    jacobian,
    jacobian_exact,
    lipschitz_bound,
    operator_norm,
    quotient_map,
    second_quotient,
    strictness_modulus,
)
from ultrafix.sampling import sample_in_ball, sample_pair_in_ball
from ultrafix.calculus import partial_map
from ultrafix import calculus
from ultrafix.field import PadicScalar, embed_rational, rational_abs, truncate_precision


def poly(m, *outputs):
    return MapSpec.from_coefficients(m, outputs)


SQUARE = poly(1, [(1, (2,))])
PLUS_SQUARE = poly(1, [(1, (1,)), (1, (2,))])
PAIR = poly(2, [(1, (1, 0)), (1, (0, 1))], [(1, (1, 1))])  # (x+y, xy)


def test_eval_examples(q5, real):
    x5 = Vector.from_rationals((5,), q5)
    assert eval_map(SQUARE, x5).components[0].to_rational() == 25
    out = eval_map(PAIR, (Fraction(2), Fraction(3)))
    assert out == (5, 6)
    zero = poly(1, [])
    assert eval_map(zero, (Fraction(7),)) == (0,)


def test_quotient_examples():
    # f(x) = x^2: quotient is 2xy + t y^2
    q = quotient_map(SQUARE)
    assert eval_map(q, (Fraction(1), Fraction(1), Fraction(0))) == (2,)
    assert diff_quotient(SQUARE, QuotientPoint((Fraction(1),), (Fraction(1),), Fraction(1))) == (3,)
    lin = poly(2, [(2, (1, 0)), (3, (0, 1))])
    for t in (Fraction(0), Fraction(1), Fraction(-2, 3)):
        got = diff_quotient(lin, QuotientPoint((Fraction(1), Fraction(4)), (Fraction(5), Fraction(6)), t))
        assert got == (2 * 5 + 3 * 6,)


def test_quotient_padic(q5):
    pt = QuotientPoint(
        Vector.from_rationals((1,), q5),
        Vector.from_rationals((1,), q5),
        q5.from_rational(1),
    )
    assert diff_quotient(SQUARE, pt).components[0].to_rational() % 5**4 == 3


def test_symbolic_quotient_matches_direct():
    rng = random.Random(5)
    f = poly(2, [(1, (2, 1)), (3, (0, 3)), (Fraction(1, 2), (1, 0))], [(2, (1, 1))])
    q = quotient_map(f)
    for _ in range(100):
        x = tuple(Fraction(rng.randint(-6, 6), rng.randint(1, 4)) for _ in range(2))
        y = tuple(Fraction(rng.randint(-6, 6), rng.randint(1, 4)) for _ in range(2))
        t = Fraction(rng.randint(1, 9), rng.randint(1, 4))
        direct = diff_quotient(f, QuotientPoint(x, y, t))
        symbolic = eval_map(q, x + y + (t,))
        assert direct == symbolic


def test_second_quotient_examples():
    inner1 = QuotientPoint((Fraction(3),), (Fraction(2),), Fraction(0))
    inner2 = QuotientPoint((Fraction(7),), (Fraction(0),), Fraction(0))
    assert second_quotient(SQUARE, QuotientPoint(inner1, inner2, Fraction(0))) == (2 * 2 * 7,)
    # linear maps have vanishing second derivative: the second quotient dies
    # whenever the outer direction has no y-component
    lin = poly(1, [(4, (1,))])
    rng = random.Random(1)
    for _ in range(50):
        pts = [Fraction(rng.randint(-5, 5), rng.randint(1, 3)) for _ in range(6)]
        a = QuotientPoint((pts[0],), (pts[1],), pts[2])
        b = QuotientPoint((pts[3],), (Fraction(0),), pts[4])
        assert second_quotient(lin, QuotientPoint(a, b, pts[5])) == (0,)


def test_second_quotient_cubic_at_zero_small_t_limit():
    cube = poly(1, [(1, (3,))])
    # exact value at the center of the quotient domain
    inner1 = QuotientPoint((Fraction(0),), (Fraction(1),), Fraction(0))
    inner2 = QuotientPoint((Fraction(1),), (Fraction(0),), Fraction(0))
    exact = second_quotient(cube, QuotientPoint(inner1, inner2, Fraction(0)))
    assert exact == (0,)
    # oracle: quotient-of-quotients at shrinking t approaches the same value
    values = []
    for k in (2, 4, 6):
        t = Fraction(1, 10**k)
        a = QuotientPoint((Fraction(0),), (Fraction(1),), t)
        b = QuotientPoint((Fraction(1),), (Fraction(0),), t)
        values.append(second_quotient(cube, QuotientPoint(a, b, t))[0])
    assert abs(values[-1]) < abs(values[0]) and abs(values[-1]) < Fraction(1, 10**4)


def test_jacobian_examples(q5, real):
    f = poly(2, [(1, (1, 1))], [(1, (1, 0)), (1, (0, 1))])
    assert jacobian_exact(f, (2, 3)) == ((3, 2), (1, 1))
    J = jacobian(f, Vector.from_rationals((2, 3), real))
    assert [[e.value for e in row] for row in J.entries] == [[3.0, 2.0], [1.0, 1.0]]
    g = poly(1, [(1, (1,)), (1, (2,))])
    J5 = jacobian(g, Vector.from_rationals((0,), q5))
    assert J5.entries[0][0].to_rational() == 1


def test_jacobian_columns_are_quotients_at_zero():
    f = poly(2, [(2, (2, 1)), (1, (0, 2))], [(1, (3, 0))])
    rng = random.Random(9)
    for _ in range(20):
        x = tuple(Fraction(rng.randint(-5, 5), rng.randint(1, 3)) for _ in range(2))
        rows = jacobian_exact(f, x)
        for j, e_j in enumerate(((Fraction(1), Fraction(0)), (Fraction(0), Fraction(1)))):
            col = diff_quotient(f, QuotientPoint(x, e_j, Fraction(0)))
            assert col == tuple(rows[i][j] for i in range(2))


def test_compose_examples():
    g = poly(1, [(1, (2,))])
    f = poly(1, [(1, (1,)), (1, (0,))])
    comp = compose(g, f)
    assert eval_map(comp, (Fraction(5),)) == ((5 + 1) ** 2,)
    ident = MapSpec.identity(2)
    h = poly(2, [(1, (1, 1))], [(2, (0, 1))])
    assert compose(ident, h).outputs == h.outputs
    with pytest.raises(DimensionMismatch):
        compose(h, g)


def test_chain_rule_exact():
    rng = random.Random(12)
    f = poly(1, [(1, (1,)), (2, (3,))])
    g = poly(1, [(1, (2,)), (-1, (0,))])
    gf = compose(g, f)
    for _ in range(100):
        x = (Fraction(rng.randint(-5, 5), rng.randint(1, 4)),)
        y = (Fraction(rng.randint(-5, 5), rng.randint(1, 4)),)
        t = Fraction(rng.randint(-5, 5), rng.randint(1, 4))
        lhs = diff_quotient(gf, QuotientPoint(x, y, t))
        inner = diff_quotient(f, QuotientPoint(x, y, t))
        rhs = diff_quotient(g, QuotientPoint(eval_map(f, x), inner, t))
        assert lhs == rhs


def test_lipschitz_padic_square(q5):
    ball = Ball(q5, (0,), Fraction(1, 5))
    bound = lipschitz_bound(SQUARE, ball)
    assert bound == Fraction(1, 5)
    # oracle: sampled quotients |f(z)-f(y)|/|z-y| = |z+y| stay within the bound
    rng = random.Random(0)
    top = Fraction(0)
    for _ in range(300):
        y, z = sample_pair_in_ball(rng, ball)
        q = rational_abs(z[0] + y[0], q5)
        top = max(top, q)
    assert top <= bound


def test_lipschitz_affine_is_operator_norm(q5, real):
    aff = poly(2, [(2, (1, 0)), (1, (0, 1)), (7, (0, 0))], [(1, (1, 0)), (3, (0, 1))])
    for desc, expected in ((real, 4), (q5, 1)):
        radius = Fraction(1, 5) if desc.ultrametric else Fraction(3)
        ball = Ball(desc, (0, 0), radius)
        assert lipschitz_bound(aff, ball) == expected
        A = Operator.from_rationals([[2, 1], [1, 3]], desc)
        assert operator_norm(A) == expected


def test_lipschitz_real_scaled_square(real):
    f = poly(1, [(Fraction(1, 10), (2,))])
    ball = Ball(real, (0,), 1)
    bound = lipschitz_bound(f, ball)
    assert bound == Fraction(1, 5)
    rng = random.Random(1)
    for _ in range(300):
        y, z = sample_pair_in_ball(rng, ball)
        q = abs(z[0] + y[0]) * Fraction(1, 10)
        assert q <= bound


def test_derivative_norm_below_lipschitz(q5, real):
    f = poly(2, [(1, (1, 0)), (3, (2, 1))], [(1, (0, 1)), (Fraction(1, 2), (0, 2))])
    rng = random.Random(44)
    for desc in (q5, real):
        radius = Fraction(1, 5) if desc.ultrametric else Fraction(1, 2)
        ball = Ball(desc, (0, 0), radius)
        bound = lipschitz_bound(f, ball)
        for _ in range(40):
            x = sample_in_ball(rng, ball)
            rows = jacobian_exact(f, x)
            from ultrafix.linalg import rat_operator_norm

            assert rat_operator_norm(rows, desc) <= bound


def test_strictness_examples(q5, real):
    ball5 = Ball(q5, (0,), Fraction(1, 5))
    assert strictness_modulus(PLUS_SQUARE, [[1]], ball5) == Fraction(1, 5)
    aff = poly(1, [(3, (1,)), (2, (0,))])
    assert strictness_modulus(aff, [[3]], Ball(real, (0,), 2)) == 0
    fr = poly(1, [(1, (1,)), (Fraction(1, 10), (2,))])
    assert strictness_modulus(fr, [[1]], Ball(real, (0,), 1)) == Fraction(1, 5)


def test_strictness_dominates_sampled_quotients(q5, real):
    cases = [
        (PLUS_SQUARE, [[1]], Ball(q5, (0,), Fraction(1, 5))),
        (poly(1, [(1, (1,)), (Fraction(1, 10), (2,))]), [[1]], Ball(real, (0,), 1)),
        (
            poly(2, [(2, (1, 0)), (1, (2, 0))], [(1, (0, 1)), (1, (1, 1))]),
            [[2, 0], [0, 1]],
            Ball(q5, (0, 0), Fraction(1, 5)),
        ),
    ]
    rng = random.Random(10)
    for f, A, ball in cases:
        sigma = strictness_modulus(f, A, ball)
        for _ in range(1000):
            y, z = sample_pair_in_ball(rng, ball)
            fy, fz = eval_map(f, y), eval_map(f, z)
            num = max(
                rational_abs(
                    fz[i] - fy[i] - sum(Fraction(A[i][j]) * (z[j] - y[j]) for j in range(len(z))),
                    ball.descriptor,
                )
                for i in range(len(fy))
            )
            den = max(rational_abs(z[j] - y[j], ball.descriptor) for j in range(len(z)))
            assert num <= sigma * den


def test_identity_suite_passes(q5):
    f = poly(2, [(1, (2, 0)), (2, (1, 1))], [(3, (0, 1)), (1, (2, 1))])
    assert check_identities(f, 100, seed=7).passed
    assert check_identities(f, 100, seed=7, descriptor=q5).passed


def test_identity_suite_linear_map():
    lin = poly(2, [(2, (1, 0)), (3, (0, 1))])
    assert check_identities(lin, 60, seed=2).passed


def test_identity_suite_catches_mutant():
    f = poly(1, [(1, (2,))])
    report = check_identities(f, 60, seed=3, mutation="quotient-offset")
    assert not report.passed
    scaling = next(r for r in report.results if r.name == "quotient_scaling")
    assert scaling.failures > 0 and scaling.counterexample is not None


def test_domain_violations(q5):
    ball = Ball(q5, (0,), Fraction(1, 5))
    f = MapSpec(1, PLUS_SQUARE.outputs, ball)
    with pytest.raises(DomainViolation):
        eval_map(f, (Fraction(1),))
    with pytest.raises(DomainViolation):
        lipschitz_bound(f, Ball(q5, (0,), Fraction(1)))
    eval_map(f, (Fraction(5),))  # inside: fine


def test_domain_checked_for_scalar_quotients(q5):
    ball = Ball(q5, (0,), Fraction(1, 5))
    f = MapSpec(1, PLUS_SQUARE.outputs, ball)
    inside = QuotientPoint(
        Vector.from_rationals((5,), q5),
        Vector.from_rationals((5,), q5),
        q5.from_rational(1),
    )
    diff_quotient(f, inside)
    outside = QuotientPoint(
        Vector.from_rationals((5,), q5),
        Vector.from_rationals((1,), q5),
        q5.from_rational(1),
    )
    with pytest.raises(DomainViolation):
        diff_quotient(f, outside)


# ---------------------------------------------------------------------------
# Integer kernels against the scalar fold they replace


def fold_eval(f, comps, one, zero, embed):
    """Oracle: the scalar fold maps were evaluated with before the integer
    kernels.  Powers are repeated products x*x*...*x, each term is multiplied
    out factor by factor from its coefficient, and the terms are summed from
    zero in monomial order, one field operation at a time."""
    tables = [dict() for _ in comps]

    def power(i, e):
        if e == 0:
            return one
        got = tables[i].get(e)
        if got is None:
            got = comps[i]
            for _ in range(e - 1):
                got = got * comps[i]
            tables[i][e] = got
        return got

    out = []
    for monomials in f.outputs:
        acc = zero
        for exps, coef in monomials:
            term = embed(coef)
            for i, e in enumerate(exps):
                if e:
                    term = term * power(i, e)
            acc = acc + term
        out.append(acc)
    return tuple(out)


def random_map(rng, m, n, max_degree, coefficient):
    rows = []
    for _ in range(n):
        rows.append([
            (coefficient(), tuple(rng.randint(0, max_degree) if rng.random() < 0.6 else 0 for _ in range(m)))
            for _ in range(rng.randint(0, 5))
        ])
    return poly(m, *rows)


def padic_raw(x):
    return (x.val, x.unit, x.prec)


def random_padic(rng, desc):
    p, n = desc.prime, desc.precision
    kind = rng.random()
    if kind < 0.1:
        return desc.zero()
    if kind < 0.25:
        return PadicScalar(desc, None, 0, rng.randint(-3, 3))  # O(p^m), m <= 0 too
    num = rng.choice((-1, 1)) * rng.randint(1, p**3) * p ** rng.randint(0, 2)
    x = embed_rational(Fraction(num, rng.randint(1, 9) * p ** rng.randint(0, 2)), 1, desc)
    if kind < 0.5:  # truncated: fewer known digits than the field's precision
        x = truncate_precision(x, x.val + rng.randint(1, n))
    return x


@pytest.mark.parametrize("prime", [2, 3, 5, 7])
def test_padic_kernel_matches_the_scalar_fold(prime):
    rng = random.Random(5000 + prime)
    kinds = {"bounded": 0, "exact_zero": 0, "truncated": 0}
    for _ in range(300):
        desc = FieldDescriptor.padic(prime, rng.randint(1, 12))
        m = rng.randint(1, 3)

        def coefficient():
            num = rng.choice((-1, 1)) * rng.randint(1, 3 * prime)
            return Fraction(num, rng.randint(1, 4) * prime ** rng.randint(0, 2))

        f = random_map(rng, m, rng.randint(1, 3), 4, coefficient)
        point = tuple(random_padic(rng, desc) for _ in range(m))

        def embed(c):
            return embed_rational(c, 1, desc)

        want = fold_eval(f, point, desc.one(), desc.zero(), embed)
        got = eval_map(f, point)
        assert [padic_raw(x) for x in got] == [padic_raw(x) for x in want], (f, point)
        rows = jacobian(f, point).entries
        for j in range(m):
            col = fold_eval(partial_map(f, j), point, desc.one(), desc.zero(), embed)
            assert [padic_raw(row[j]) for row in rows] == [padic_raw(x) for x in col]
        for x in point:
            kinds["exact_zero"] += x.is_exact_zero()
            kinds["bounded"] += x.val is None and x.prec is not None
            kinds["truncated"] += x.val is not None and x.prec - x.val < desc.precision
    assert min(kinds.values()) >= 20, kinds


def test_real_kernel_gives_the_folds_doubles(real):
    rng = random.Random(77)
    for _ in range(300):
        m = rng.randint(1, 3)
        f = random_map(rng, m, rng.randint(1, 3), 5,
                       lambda: Fraction(rng.randint(-50, 50), rng.randint(1, 30)))
        point = tuple(real.from_rational(Fraction(rng.randint(-10**6, 10**6), rng.randint(1, 10**5)))
                      for _ in range(m))
        want = fold_eval(f, point, real.one(), real.zero(), lambda c: embed_rational(c, 1, real))
        got = eval_map(f, point)
        assert [x.value.hex() for x in got] == [x.value.hex() for x in want]


def naive_eval(f, xs):
    return tuple(
        sum((c * math.prod(x**e for x, e in zip(xs, exps)) for exps, c in out), Fraction(0))
        for out in f.outputs
    )


def test_exact_kernel_matches_naive_fractions():
    rng = random.Random(31)
    for _ in range(400):
        m = rng.randint(1, 4)
        f = random_map(rng, m, rng.randint(1, 3), 5,
                       lambda: Fraction(rng.randint(-30, 30) or 1, rng.randint(1, 40)))
        xs = tuple(Fraction(rng.randint(-20, 20), rng.randint(1, 12)) for _ in range(m))
        assert eval_map(f, xs) == naive_eval(f, xs)
        assert jacobian_exact(f, xs) == tuple(zip(*(naive_eval(partial_map(f, j), xs) for j in range(m))))


def test_exact_kernel_constant_and_empty_outputs():
    f = poly(2, [(Fraction(3, 4), (0, 0))], [], [(Fraction(1, 6), (0, 0)), (Fraction(-2, 9), (2, 1))])
    for xs in ((Fraction(0), Fraction(0)), (Fraction(-1, 3), Fraction(5, 2)), (Fraction(7), Fraction(1, 9))):
        got = eval_map(f, xs)
        assert got == naive_eval(f, xs)
        assert got[0] == Fraction(3, 4) and got[1] == 0
    assert eval_map(poly(1, [(Fraction(5, 7), (0,))]), (Fraction(1, 3),)) == (Fraction(5, 7),)


def test_mixed_descriptors_are_a_schema_error(q5, real):
    q7 = FieldDescriptor.padic(7, 4)
    for other in (q7.from_rational(2), real.from_rational(2), Fraction(2)):
        with pytest.raises(SchemaError, match="operands from different fields"):
            eval_map(PAIR, (q5.from_rational(3), other))
        with pytest.raises(SchemaError, match="operands from different fields"):
            jacobian(PAIR, (q5.from_rational(3), other))
    with pytest.raises(SchemaError, match="operands from different fields"):
        eval_map(PAIR, (real.from_rational(3), q5.from_rational(2)))


# ---------------------------------------------------------------------------
# check_identities evaluates each distinct (map, point) once per sample

REUSE_MAP = poly(
    2,
    [(Fraction(3, 2), (1, 0)), (-1, (0, 1)), (Fraction(2, 5), (2, 1))],
    [(1, (0, 0)), (5, (1, 1)), (Fraction(-7, 3), (0, 3))],
)
EVAL_MAP_CALLS_BEFORE_REUSE = 156  # eval_map calls of one run below, evaluating every point anew


def _plain(v):
    if isinstance(v, PadicScalar):
        return (v.val, v.unit, v.prec)
    if isinstance(v, Fraction):
        return str(v)
    if isinstance(v, tuple):
        return tuple(_plain(u) for u in v)
    return {k: _plain(u) for k, u in v.items()}


def _report_summary(report):
    return [
        (r.name, r.samples, r.failures, r.counterexample and _plain(r.counterexample))
        for r in report.results
    ]


_CLEAN = [(name, 8, 0, None) for name in
          ("chain_rule", "direction_difference", "quotient_scaling", "second_quotient_scaling")]


def _mutant_report(lhs, rhs):
    """The quotient-offset report of REUSE_MAP at seed 2026, as evaluating
    every point anew gave it; lhs and rhs differ with the field."""
    return [
        ("chain_rule", 8, 5, {"x": ("7/2", "1/2"), "y": ("8/9", "0"), "t": "5/3",
                              "lhs": lhs, "rhs": rhs}),
        ("direction_difference", 8, 5, {"x": ("7/2", "1/2"), "y1": ("8/9", "0"),
                                        "y2": ("9/5", "-3/2"), "t": "5/3"}),
        ("quotient_scaling", 8, 7, {"x": ("-1", "7/9"), "y": ("-3/2", "8/7"), "t": "-2",
                                    "s": "-7/2"}),
        ("second_quotient_scaling", 8, 1, {"x": ("-4/7", "-1/7"), "y": ("8/7", "-1"),
                                           "x1": ("-2/3", "7/8"), "y1": ("5/2", "7/9"),
                                           "t": "6/7", "s": "0", "s1": "-1/2", "s2": "-3/4"}),
    ]


@pytest.mark.parametrize("padic", [False, True])
def test_identity_samples_evaluate_each_point_once(monkeypatch, padic):
    desc = FieldDescriptor.padic(5, 6) if padic else None
    if padic:
        mutant = _mutant_report(((-2, 2338, 3), (-1, 1169, 4)), ((-2, 523, 3), (-1, 3084, 4)))
    else:
        mutant = _mutant_report(("267622811/4428675", "22814/405"),
                                ("389576006/4428675", "139841/1620"))
    calls = []
    real_eval_map = calculus.eval_map

    def counting(f, point):
        calls.append(point)
        return real_eval_map(f, point)

    monkeypatch.setattr(calculus, "eval_map", counting)
    for mutation, want in ((None, _CLEAN), ("quotient-offset", mutant)):
        calls.clear()
        report = check_identities(REUSE_MAP, 8, seed=2026, descriptor=desc, mutation=mutation)
        assert _report_summary(report) == want
        assert 0 < len(calls) <= EVAL_MAP_CALLS_BEFORE_REUSE // 2


JACOBIAN_CALLS_BEFORE_REUSE = 19  # Jacobians of the run below when each t = 0 quotient took its own


@pytest.mark.parametrize("padic", [False, True])
def test_identity_samples_take_each_jacobian_once(monkeypatch, padic):
    # the t = 0 samples read Df at the same x for several directions (f^[1]
    # of the chain rule and of the direction difference): 9 distinct
    # (map, point) pairs, once each, with the reports unchanged
    desc = FieldDescriptor.padic(5, 6) if padic else None
    if padic:
        mutant = _mutant_report(((-2, 2338, 3), (-1, 1169, 4)), ((-2, 523, 3), (-1, 3084, 4)))
    else:
        mutant = _mutant_report(("267622811/4428675", "22814/405"),
                                ("389576006/4428675", "139841/1620"))
    calls = {"eval_map": 0, "jacobian": 0, "jacobian_exact": 0}
    for name in calls:
        def counting(*args, _name=name, _real=getattr(calculus, name)):
            calls[_name] += 1
            return _real(*args)

        monkeypatch.setattr(calculus, name, counting)
    for mutation, want in ((None, _CLEAN), ("quotient-offset", mutant)):
        calls.update(dict.fromkeys(calls, 0))
        report = check_identities(REUSE_MAP, 8, seed=2026, descriptor=desc, mutation=mutation)
        assert _report_summary(report) == want
        jacobians = calls["jacobian"] if padic else calls["jacobian_exact"]
        assert jacobians == 9 <= JACOBIAN_CALLS_BEFORE_REUSE // 2
        assert 0 < calls["eval_map"] <= EVAL_MAP_CALLS_BEFORE_REUSE // 2
