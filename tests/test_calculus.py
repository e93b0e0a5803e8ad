import hashlib
import json
import math
import random
import types
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
from ultrafix import calculus, jsonio
from ultrafix.errors import UltrafixError
from ultrafix.implicit import build_window
from ultrafix.field import PadicScalar, _padic_make, embed_rational, padic_scalar, rational_abs
from ultrafix.inverse import inversion_step_map
from ultrafix.linalg import rat_identity, rat_mat_vec


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


# The multinomial expansion that built quotient_map before it became a
# composition, verbatim but for its cache (the composition fills the same
# cache slot, and the oracle must not read it back).
def _multinomial_quotient_map(f: MapSpec) -> MapSpec:
    """The extended difference quotient as a polynomial map in (x, y, t).

    For each monomial c*x^a the quotient ((x+ty)^a - x^a)/t expands exactly by
    the multinomial theorem, so the result is again a MapSpec, over 2m+1
    variables ordered (x_1..x_m, y_1..y_m, t).
    """
    m = f.domain_dim
    outputs = []
    for monomials in f.outputs:
        acc: dict[tuple[int, ...], Fraction] = {}
        for exps, coef in monomials:
            for kvec, binom in _sub_multi_indices(exps):
                order = sum(kvec)
                if order == 0:
                    continue
                key = (
                    tuple(a - k for a, k in zip(exps, kvec))
                    + tuple(kvec)
                    + (order - 1,)
                )
                acc[key] = acc.get(key, Fraction(0)) + coef * binom
        outputs.append(tuple(acc.items()))
    return MapSpec(2 * m + 1, tuple(outputs))


def _sub_multi_indices(exps):
    """All k <= exps componentwise with the product of binomial coefficients."""
    out = [((), 1)]
    for a in exps:
        nxt = []
        for prefix, b in out:
            for k in range(a + 1):
                nxt.append((prefix + (k,), b * math.comb(a, k)))
        out = nxt
    return out


def test_quotient_map_equals_the_multinomial_expansion():
    rng = random.Random(2004)
    degree_eight = 0
    for _ in range(420):
        m = rng.randint(1, 3)
        outputs = []
        for _ in range(rng.randint(1, 2)):
            monomials = []
            for _ in range(rng.randint(0, 5)):
                exps = [0] * m
                for _ in range(rng.randint(0, 4)):
                    exps[rng.randrange(m)] += 1
                coef = Fraction(rng.randint(-9, 9), rng.randint(1, 9))
                monomials.append((coef, tuple(exps)))
            if rng.random() < 0.1:
                exps = [0] * m
                for _ in range(8):
                    exps[rng.randrange(m)] += 1
                monomials.append((Fraction(rng.randint(1, 9), rng.randint(1, 9)), tuple(exps)))
                degree_eight += 1
            outputs.append(monomials)
        f = poly(m, *outputs)
        assert quotient_map(f) == _multinomial_quotient_map(f), f
    assert degree_eight >= 30


@pytest.mark.parametrize("field", [None, "Q5", "real"])
def test_diff_quotient_refuses_a_point_of_another_dimension(field):
    # a 2-variable map at x or y of 1 or 3 coordinates, at t = 0 and t != 0:
    # DimensionMismatch in every field (exact points once raised IndexError,
    # or read the first two of three coordinates)
    f = poly(2, [(1, (2, 0)), (1, (0, 1))])
    desc = {None: None, "Q5": FieldDescriptor.padic(5, 4), "real": FieldDescriptor.real()}[field]
    lift = (lambda v: Fraction(v)) if desc is None else (lambda v: desc.from_rational(v))  # noqa: E731
    for x, y in (((1,), (1,)), ((1, 2, 3), (1, 2, 3)), ((1, 2), (1,)), ((1,), (1, 2)), ((1, 2), (1, 2, 3))):
        for t in (0, 2):
            point = QuotientPoint(tuple(map(lift, x)), tuple(map(lift, y)), lift(t))
            bad = len(x) if len(x) != 2 else len(y)
            with pytest.raises(DimensionMismatch, match=f"expected 2 coordinates, got {bad}"):
                diff_quotient(f, point)
    good = QuotientPoint(tuple(map(lift, (1, 2))), tuple(map(lift, (3, 4))), lift(2))
    assert len(diff_quotient(f, good)) == 1


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


def test_identity_suite_on_a_map_of_no_variables(q5, real):
    # constants over Q5 were evaluated as Fractions and divided by a p-adic
    # t (TypeError); every quotient of a constant map is zero
    const = poly(0, [(1, ())], [(Fraction(-3, 5), ())])
    for desc in (None, q5, real):
        report = check_identities(const, 40, seed=3, descriptor=desc)
        assert report.passed and [r.samples for r in report.results] == [40] * 4
        mutant = check_identities(const, 40, seed=3, descriptor=desc, mutation="quotient-offset")
        assert not mutant.passed


def test_a_map_of_no_variables_evaluates_over_the_given_field(q5, real):
    # no coordinate carries a field, so the descriptor names it; without
    # one the values stay exact rationals
    const = poly(0, [(Fraction(-3, 5), ())], [(25, ())], [])
    assert eval_map(const, ()) == (Fraction(-3, 5), Fraction(25), Fraction(0))
    for desc in (q5, real):
        want = (embed_rational(Fraction(-3, 5), 1, desc), embed_rational(25, 1, desc), desc.zero())
        assert [repr(v) for v in eval_map(const, (), desc)] == [repr(v) for v in want]
    # the descriptor must be the field of the point's coordinates
    x = Vector.from_rationals((2,), q5)
    assert eval_map(PLUS_SQUARE, x, q5) == eval_map(PLUS_SQUARE, x)
    assert eval_map(PLUS_SQUARE, (2,), None) == (Fraction(6),)
    for point, desc in ((x, real), (x.components, FieldDescriptor.padic(5, 6)), ((2,), q5)):
        with pytest.raises(SchemaError, match="not scalars of the given field"):
            eval_map(PLUS_SQUARE, point, desc)


def test_jacobian_of_a_map_of_no_variables_is_a_dimension_mismatch(q5):
    const = poly(0, [(1, ())])
    with pytest.raises(DimensionMismatch, match="map of no variables has an empty Jacobian"):
        jacobian(const, ())
    assert jacobian_exact(const, ()) == ((),)


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
        x = padic_scalar(desc, _padic_make(desc, x.val, x.unit, x.val + rng.randint(1, n)))
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
    # the exact half evaluates on the integer core, the Q_p half on triples
    # by _eval_padic; the Jacobians' partial maps, which _jacobian_field
    # evaluates by it too, are not counted
    name = "_eval_padic" if padic else "eval_ints"
    real_eval, real_jacobian = getattr(calculus, name), calculus._jacobian_field
    depth = [0]  # Jacobians being formed

    def counting(f, *point):
        if not depth[0]:
            calls.append(point)
        return real_eval(f, *point)

    def jacobian(*args):
        depth[0] += 1
        try:
            return real_jacobian(*args)
        finally:
            depth[0] -= 1

    monkeypatch.setattr(calculus, name, counting)
    monkeypatch.setattr(calculus, "_jacobian_field", jacobian)
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
    # the Q_p half takes its Jacobian rows from _jacobian_field and
    # evaluates on triples by _eval_padic, the exact half both on the
    # integer core; evaluations inside a Jacobian are not counted
    calls = {"_eval_padic": 0, "eval_ints": 0, "_jacobian_field": 0, "jacobian_ints": 0}
    depth = [0]  # Jacobians being formed
    for name in calls:
        def counting(*args, _name=name, _real=getattr(calculus, name)):
            nested = _name == "_jacobian_field"
            calls[_name] += not depth[0]
            depth[0] += nested
            try:
                return _real(*args)
            finally:
                depth[0] -= nested

        monkeypatch.setattr(calculus, name, counting)
    for mutation, want in ((None, _CLEAN), ("quotient-offset", mutant)):
        calls.update(dict.fromkeys(calls, 0))
        report = check_identities(REUSE_MAP, 8, seed=2026, descriptor=desc, mutation=mutation)
        assert _report_summary(report) == want
        jacobians = calls["_jacobian_field"] if padic else calls["jacobian_ints"]
        assert jacobians == 9 <= JACOBIAN_CALLS_BEFORE_REUSE // 2
        evaluations = calls["_eval_padic"] if padic else calls["eval_ints"]
        assert 0 < evaluations <= EVAL_MAP_CALLS_BEFORE_REUSE // 2


# ---------------------------------------------------------------------------
# The affine builder against the hand-written loops it replaced.  The three
# functions below are verbatim copies of the step map, the strictness
# residual and the frozen-state loop of the window's drift bound as they were
# before calculus.affine_map built all three.


def _loop_inversion_step_map(cert, f, c):
    """The contraction v -> v - A^-1 (f(v) - c) as an exact polynomial map."""
    n = f.domain_dim
    cs = tuple(Fraction(v) for v in c)
    shift = rat_mat_vec(cert.A_inv, cs)
    outputs = []
    for i in range(n):
        monos: dict[tuple[int, ...], Fraction] = {}
        e_i = tuple(1 if j == i else 0 for j in range(n))
        monos[e_i] = Fraction(1)
        for j in range(n):
            coef = cert.A_inv[i][j]
            if coef == 0:
                continue
            for exps, c_f in f.outputs[j]:
                monos[exps] = monos.get(exps, Fraction(0)) - coef * c_f
        zero = tuple([0] * n)
        monos[zero] = monos.get(zero, Fraction(0)) + shift[i]
        outputs.append(tuple(monos.items()))
    return MapSpec(n, tuple(outputs))


def _loop_linear_residual(f, rows):
    """f minus the linear map given by rational rows (the affine part cancels
    exactly in all difference-based bounds)."""
    if len(rows) != f.codomain_dim or any(len(r) != f.domain_dim for r in rows):
        raise DimensionMismatch("linear part shape mismatch")
    m = f.domain_dim
    outputs = []
    for i, monomials in enumerate(f.outputs):
        extra = []
        for j in range(m):
            exps = tuple(1 if v == j else 0 for v in range(m))
            extra.append((exps, -Fraction(rows[i][j])))
        outputs.append(tuple(monomials) + tuple(extra))
    return MapSpec(f.domain_dim, tuple(outputs), f.domain)


def _loop_frozen_map(f, A_inv, mp, x0):
    n = len(x0)
    # A^-1 f with the state frozen at x0, as a map of the parameter alone
    frozen_outputs = []
    for i in range(n):
        monos: dict[tuple[int, ...], Fraction] = {}
        for j in range(n):
            coef = A_inv[i][j]
            if coef == 0:
                continue
            for exps, c in f.outputs[j]:
                state_part = Fraction(1)
                for k in range(n):
                    if exps[mp + k]:
                        state_part *= Fraction(x0[k]) ** exps[mp + k]
                if state_part == 0:
                    continue
                key = exps[:mp]
                monos[key] = monos.get(key, Fraction(0)) + coef * c * state_part
        frozen_outputs.append(tuple(monos.items()))
    return MapSpec(mp, tuple(frozen_outputs))


ORACLE_FIELDS = (None, 3, 5, 7)  # the reals, then Q3, Q5, Q7


def _oracle_field(p):
    return FieldDescriptor.real() if p is None else FieldDescriptor.padic(p, 6)


def _seeded_implicit_map(rng, p, n, params):
    """Rows over params + n variables shaped like the benchmark's padic_map
    (p prime) and real_map (p None): a parameter part B q, a linear part
    A x with some zero entries off the diagonal, and terms of degree 2-3."""
    nvars = params + n

    def coef(size=8):
        if p is None:
            return Fraction(rng.randint(-size, size), 8)
        return Fraction(rng.randint(-size, size), rng.choice([d for d in (1, 2, 4) if d % p]))

    def unit(j):
        return tuple(int(v == j) for v in range(nvars))

    def monomial(degree, first):
        exps = [0] * nvars
        for _ in range(degree):
            exps[rng.randrange(first, nvars)] += 1
        return tuple(exps)

    rows = []
    for i in range(n):
        row = [(coef(4), unit(j)) for j in range(params)]
        for j in range(n):
            if i == j:
                row.append((rng.choice((-1, 1)) * (2 + rng.randint(0, 8 if p is None else 0)), unit(params + j)))
            elif rng.random() < 0.5:
                row.append((coef(1), unit(params + j)))
        for _ in range(rng.randint(1, 3)):
            row.append((coef(), monomial(rng.randint(2, 3), params if rng.random() < 0.5 else 0)))
        rows.append(row)
    return poly(nvars, *rows)


def _seeded_rows(rng, rows, cols, p):
    """A rational matrix with about a third of its entries zero."""
    denominators = [d for d in (1, 2, 3, 4) if p is None or d % p]
    return tuple(
        tuple(Fraction(rng.randint(-5, 5), rng.choice(denominators)) if rng.random() < 0.65 else Fraction(0)
              for _ in range(cols))
        for _ in range(rows)
    )


def _seeded_point(rng, dim):
    """Rational coordinates, about half of them zero."""
    return tuple(Fraction(rng.randint(-3, 3), rng.randint(1, 3)) if rng.random() < 0.5 else Fraction(0)
                 for _ in range(dim))


def test_affine_builders_equal_the_loops_they_replaced():
    rng = random.Random(20261018)
    cases = zeros = 0
    for p in ORACLE_FIELDS:
        desc = _oracle_field(p)
        for n in (1, 2, 3):
            for params in (0, 1):
                for k in range(13):
                    m = params + n
                    f = _seeded_implicit_map(rng, p, n, params)
                    if k % 2:
                        radius = Fraction(1, 2) if p is None else Fraction(1, p)
                        f = MapSpec(f.domain_dim, f.outputs, Ball(desc, (0,) * m, radius))
                    A_inv = _seeded_rows(rng, n, n, p)
                    x = _seeded_point(rng, m)
                    zeros += any(a == 0 for row in A_inv for a in row) and 0 in x
                    cert = types.SimpleNamespace(A_inv=A_inv)
                    if params == 0:
                        for c in (x, (0,) * n):
                            assert inversion_step_map(cert, f, c) == _loop_inversion_step_map(cert, f, c)
                    A = _seeded_rows(rng, n, m, p)
                    minus_a = tuple(tuple(-a for a in row) for row in A)
                    residual = calculus.affine_map(f, rat_identity(n), minus_a)
                    assert residual == _loop_linear_residual(f, A)
                    assert residual.domain == f.domain
                    if params:
                        drift = calculus.substitute_prefix(
                            calculus.affine_map(f.without_domain(), A_inv), x[params:], first=params
                        )
                        assert drift == _loop_frozen_map(f, A_inv, params, x[params:])
                    cases += 1
    assert cases >= 300
    assert zeros >= 50  # A^-1 with zero entries and a point with zero coordinates


def test_substitute_prefix_offset_fixes_the_named_variables():
    # f(a, b, c) = a + 2 b^2 c + 3 c^2 with b = 5: a + 10 c + 3 c^2 over (a, c)
    f = poly(3, [(1, (1, 0, 0)), (2, (0, 2, 1)), (3, (0, 0, 2))])
    assert calculus.substitute_prefix(f, (5,), first=1) == poly(2, [(1, (1, 0)), (50, (0, 1)), (3, (0, 2))])
    assert calculus.substitute_prefix(f, (5,)) == calculus.substitute_prefix(f, (5,), first=0)
    assert calculus.substitute_prefix(f, (0, 2), first=1) == poly(1, [(1, (1,)), (12, (0,))])


def test_affine_map_ragged_linear_part_is_a_dimension_mismatch(real):
    f = PAIR
    for linear in ([[1, 2], [3]], [[1, 2]], [[1], [2]]):
        with pytest.raises(DimensionMismatch, match="^linear part shape mismatch$"):
            calculus.affine_map(f, rat_identity(2), linear)
        with pytest.raises(DimensionMismatch, match="^linear part shape mismatch$"):
            strictness_modulus(f, linear, Ball(real, (0, 0), 1))
    with pytest.raises(DimensionMismatch, match="^linear part shape mismatch$"):
        calculus.affine_map(f, ((1,),))  # one column short of f's two outputs


# sha256 of the encodings below, as build_window gave them before the
# residual and drift maps came from calculus.affine_map, each real constant
# printed as its nearest double
WINDOW_DIGEST = "d128c8f581c591ac9bf55d52c8c02f1c20458acac66786868016d77fdcd3440a"


def _seeded_anchor(rng, dim, p):
    """A window anchor near 0, about half of its coordinates zero: the
    telescoped bounds run over the ball's coordinate sups, so a window needs
    an anchor of size at most about 1/p (p-adic) or 1/8 (real)."""
    scale = Fraction(1, 32) if p is None else Fraction(p, 1 if p == 3 else 2)
    return tuple(rng.randint(-3, 3) * scale if rng.random() < 0.5 else Fraction(0) for _ in range(dim))


def test_windows_equal_those_of_the_loop_builders(monkeypatch):
    # the digest pins the windows, not their printing: real bounds print at
    # nearest here, as they did when it was taken
    monkeypatch.setattr(jsonio, "ROUNDING", {})
    rng = random.Random(8)
    encodings = []
    for p in ORACLE_FIELDS:
        desc = _oracle_field(p)
        for n in (1, 2, 3):
            for _ in range(10):
                f = _seeded_implicit_map(rng, p, n, 1)
                p0, x0 = _seeded_anchor(rng, 1, p), _seeded_anchor(rng, n, p)
                try:
                    encodings.append(jsonio.encode_window(build_window(f, p0, x0, descriptor=desc)))
                except UltrafixError as exc:  # the messages must not change either
                    encodings.append([exc.kind, str(exc)])
    assert len(encodings) == 120
    assert sum(isinstance(e, dict) for e in encodings) >= 100
    text = json.dumps(encodings, sort_keys=True)
    assert hashlib.sha256(text.encode()).hexdigest() == WINDOW_DIGEST


def test_modular_sweep_is_the_exact_value_and_jacobian_in_the_frame():
    # seeded maps whose coefficients carry p in numerators and denominators,
    # at integer points of the frames s = 0..3: value = u p^d p^s f(X / p^s)
    # and row[j] = u p^d df/dx_j(X / p^s), both integers, modulo p^(W + guard)
    rng = random.Random(8100)
    guards = set()
    for _ in range(300):
        p, m = rng.choice((2, 3, 5, 7)), rng.randint(1, 3)
        outputs = []
        for _ in range(m):
            terms = [(Fraction(rng.randint(-9, 9) * p ** rng.randint(0, 2), rng.choice((1, 2, p, p * p, 3 * p))),
                      tuple(rng.randint(0, 3) for _ in range(m))) for _ in range(rng.randint(1, 4))]
            outputs.append(terms)
        f = MapSpec.from_coefficients(m, outputs)
        s, width = rng.randint(0, 3), rng.randint(1, 40)
        xs = [rng.randrange(p ** (width + 4)) for _ in range(m)]
        point = tuple(Fraction(x, p**s) for x in xs)
        values, rows = eval_map(f, point), calculus.jacobian_exact(f, point)
        guard = calculus._frame_table(f, p, s)[0]
        mod = p ** (width + guard)
        swept = calculus.modular_sweep(f, p, s, xs, width)
        assert len(swept) == m
        for (u, d, value, row), exact, exact_row in zip(swept, values, rows):
            assert u % p and 0 <= d <= guard
            scale = u * p**d
            assert (scale * p**s * exact).denominator == 1
            assert (scale * p**s * exact - value) % mod == 0
            for a, b in zip(row, exact_row):
                assert (scale * b).denominator == 1 and (scale * b - a) % mod == 0
            guards.add(d)
    assert {0, 1, 2} <= guards


# ---------------------------------------------------------------------------
# the stored integer table


def test_malformed_exponents_are_schema_errors():
    # a non-integral exponent was truncated: x^1.5 evaluated as x, x^2.9
    # stored as x^2, and x^-0.5 passed the negative-exponent check as x^0
    for exps in ((1.5,), (2.9,), (-0.5,), ("2.5",), (Fraction(1, 2),)):
        with pytest.raises(SchemaError, match="^exponent .* is not a non-negative integer$"):
            MapSpec(1, (((exps, 1),),))
        with pytest.raises(SchemaError, match="^exponent .* is not a non-negative integer$"):
            MapSpec.from_coefficients(1, [[(1, exps)]])
    for exps in (("x",), (None,), (float("nan"),)):
        with pytest.raises(SchemaError, match="^exponent .* is not a finite rational$"):
            MapSpec(1, (((exps, 1),),))
    for exps in ((-1,), ("-1",), (1, 0), ()):
        with pytest.raises(SchemaError):
            MapSpec(1, (((exps, 1),),))
    # ints, bools, lists, digit strings and integral values stay accepted
    for exps in ((2,), [2], ("2",), (2.0,), (Fraction(2),)):
        assert MapSpec(1, (((exps, 1),),)) == SQUARE
    assert MapSpec(2, ((((True, False), 1),),)) == MapSpec(2, ((((1, 0), 1),),))


def test_malformed_coefficients_are_one_schema_error():
    # 'abc' and NaN gave ValueError, inf OverflowError, None TypeError
    for coef in ("abc", float("nan"), float("inf"), -float("inf"), None, "1/0", [1], 1j):
        with pytest.raises(SchemaError, match="^coefficient .* is not a finite rational$"):
            MapSpec(1, ((((1,), coef),),))
        with pytest.raises(SchemaError, match="^coefficient .* is not a finite rational$"):
            MapSpec.from_coefficients(1, [[(coef, (1,))]])
    for coef in ("1/3", 0.5, True, Fraction(2, 4), 3):
        assert MapSpec(1, ((((1,), coef),),)).outputs == ((((1,), Fraction(coef)),),)


# f = (x/6 + 3/4 y^2 - 5/2 x y, 7/10 + x^2 y/15 - y), its monomials as the
# (coefficient, exponents) of `from_coefficients`
CANONICAL_ROWS = (
    ((Fraction(1, 6), (1, 0)), (Fraction(3, 4), (0, 2)), (Fraction(-5, 2), (1, 1))),
    ((Fraction(7, 10), (0, 0)), (Fraction(1, 15), (2, 1)), (Fraction(-1), (0, 1))),
)


def _canonical_ways():
    """The map of CANONICAL_ROWS, built every way that can build it."""
    f = MapSpec.from_coefficients(2, CANONICAL_ROWS)
    rng = random.Random(22)
    messy = []  # permuted, split in two halves, with zero coefficients
    for row in CANONICAL_ROWS:
        terms = [(c / 3, e) for c, e in row] + [(2 * c / 3, list(e)) for c, e in row] + [(0, (5, 5)), (Fraction(0), (0, 0))]
        rng.shuffle(terms)
        messy.append(terms)
    text = json.dumps({"vars": 2, "outputs": [
        [{"coef": f"{c.numerator}/{c.denominator}", "exp": list(e)} for c, e in reversed(row)] for row in CANONICAL_ROWS
    ]})
    I = rat_identity(2)
    L, s = ((Fraction(1, 7), 2), (0, Fraction(-3, 8))), (Fraction(5, 9), 11)
    shifted = calculus.affine_map(f, I, L, s)
    # F(z, x, y) = f(x, y) + (3/2 z - 1)(x y^2 / 7 + 5), and z = 2/3
    extra = ((Fraction(1, 7), (1, 2)), (Fraction(5), (0, 0)))
    lifted = MapSpec.from_coefficients(3, [
        [(c, (0,) + e) for c, e in row] + [(Fraction(3, 2) * k, (1,) + e) for k, e in extra] + [(-k, (0,) + e) for k, e in extra]
        for row in CANONICAL_ROWS
    ])
    # G with dG/dx = f: each c x^a y^b integrated in x, plus terms free of x
    antiderivative = MapSpec.from_coefficients(2, [
        [(c / (e[0] + 1), (e[0] + 1, e[1])) for c, e in row] + [(Fraction(4, 9), (0, 3))] for row in CANONICAL_ROWS
    ])
    bounded = MapSpec(2, f.outputs, Ball(FieldDescriptor.real(), (0, 0), 1))
    return f, {
        "json": jsonio.parse_map(json.loads(text)),
        "from_coefficients, messy": MapSpec.from_coefficients(2, messy),
        "MapSpec of the outputs view": MapSpec(2, f.outputs),
        "compose(identity, f)": compose(MapSpec.identity(2), f),
        "compose(f, identity)": compose(f, MapSpec.identity(2)),
        "affine_map(f, I)": calculus.affine_map(f, I),
        "affine_map(affine_map(f, 6 I), I / 6)": calculus.affine_map(
            calculus.affine_map(f, ((6, 0), (0, 6))), ((Fraction(1, 6), 0), (0, Fraction(1, 6)))
        ),
        "affine_map undoing a shift": calculus.affine_map(shifted, I, tuple(tuple(-a for a in r) for r in L), tuple(-a for a in s)),
        "substitute_prefix": calculus.substitute_prefix(lifted, (Fraction(2, 3),)),
        "partial_map": partial_map(antiderivative, 0),
        "without_domain": bounded.without_domain(),
    }


def test_every_way_to_build_a_map_gives_one_table():
    f, ways = _canonical_ways()
    # D_i is the lcm of the reduced denominators, the terms sorted by exponents
    assert f.table == (
        (12, ((9, (0, 2)), (2, (1, 0)), (-30, (1, 1)))),
        (30, ((21, (0, 0)), (-30, (0, 1)), (2, (2, 1)))),
    )
    for name, got in ways.items():
        assert got.table == f.table, name
        assert got == f and hash(got) == hash(f), name
        assert got.outputs == f.outputs, name
        assert got.domain is None, name
    # the quotient of f plus a constant drops the constant: its table is the
    # one of the multinomial oracle, whose terms keep the denominators 15 and 2
    plus_constant = MapSpec.from_coefficients(2, [list(row) + [(Fraction(1, 77), (0, 0))] for row in CANONICAL_ROWS])
    want = _multinomial_quotient_map(f)
    assert quotient_map(plus_constant).table == quotient_map(f).table == want.table
    assert quotient_map(plus_constant) == want and hash(quotient_map(plus_constant)) == hash(want)
    for D, terms in want.table:
        assert D == math.lcm(*(Fraction(c, D).denominator for c, _ in terms))
