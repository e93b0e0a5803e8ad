import math
import random
from fractions import Fraction

import pytest

from ultrafix import (
    Ball,
    ContractionProblem,
    FieldDescriptor,
    MapSpec,
    SchemaError,
    build_window,
    certify,
    embed_rational,
    iterate_fixed_point,
    lipschitz_theta,
)
from ultrafix.field import _padic_make, padic_scalar
from ultrafix.jsonio import (
    ROUNDING,
    encode_ball,
    encode_certificate,
    encode_constant,
    encode_fixed_point_report,
    encode_map,
    encode_scalar,
    encode_window,
    frac_str,
    parse_ball,
    parse_field,
    parse_map,
    parse_rational,
)


def test_scalar_encoding_examples(q5):
    # embeddings anchor at min(valuation, 0), trailing zeros trimmed
    assert encode_scalar(embed_rational(-1, 4, q5)) == {"val": 0, "digits": [1, 1, 1, 1]}
    assert encode_scalar(embed_rational(1, 5, q5)) == {"val": -1, "digits": [1]}
    got = encode_scalar(padic_scalar(q5, _padic_make(q5, 0, 230, 4)))
    assert got == {"val": 0, "digits": [0, 1, 4, 1]}
    got = encode_scalar(padic_scalar(q5, _padic_make(q5, 0, 280, 4)))
    assert got == {"val": 0, "digits": [0, 1, 1, 2]}
    assert encode_scalar(q5.zero()) == {"val": None, "digits": []}


def test_real_scalar_encoding(real):
    assert encode_scalar(embed_rational(3, 4, real)) == 0.75


def test_rational_parsing():
    assert parse_rational("-3/7") == Fraction(-3, 7)
    assert parse_rational(5) == 5
    with pytest.raises(SchemaError):
        parse_rational("1/0")
    with pytest.raises(SchemaError):
        parse_rational(True)


def test_field_roundtrip():
    for data in (
        {"kind": "padic", "prime": 7, "precision": 3},
        {"kind": "real"},
    ):
        parse_field(data)
    with pytest.raises(SchemaError):
        parse_field({"kind": "complex"})
    with pytest.raises(SchemaError):
        parse_field({})


def test_ball_roundtrip(q5):
    ball = Ball(q5, (Fraction(2), Fraction(1, 5)), Fraction(1, 25), closed=False)
    again = parse_ball(encode_ball(ball), q5)
    assert again.center_exact == ball.center_exact
    assert again.radius == ball.radius and again.closed == ball.closed


def test_map_roundtrip(q5):
    f = MapSpec.from_coefficients(
        2,
        [[(Fraction(1, 3), (2, 0)), (-2, (0, 1))], [(5, (1, 1))]],
        domain=Ball(q5, (0, 0), Fraction(1, 5)),
    )
    again = parse_map(encode_map(f), q5)
    assert again.outputs == f.outputs
    assert again.domain.radius == f.domain.radius
    with pytest.raises(SchemaError):
        parse_map({"outputs": []})


def test_frac_str_past_the_int_to_str_digit_limit():
    def digits_value(text):  # read back in chunks below the limit
        value = 0
        for i in range(0, len(text), 500):
            chunk = text[i : i + 500]
            value = value * 10 ** len(chunk) + int(chunk)
        return value

    text = frac_str(Fraction(1, 5**7000))  # 4893 digits in the denominator
    assert text.startswith("1/") and digits_value(text[2:]) == 5**7000
    num, den = frac_str(Fraction(-(7**9000), 3**5000 + 1)).split("/")
    assert num[0] == "-" and digits_value(num[1:]) == 7**9000
    assert digits_value(den) == 3**5000 + 1
    for k in (1, 600, 601, 2000, 3999):
        assert frac_str(Fraction(10**k - 1, 10**k)) == f"{'9' * k}/1{'0' * k}"


def test_directed_rounding_examples(real):
    # an exact double prints as itself; 7/5 as an upper bound prints as the
    # double above it, as a lower bound as the one below, and as a value as
    # the nearest, which lies below it
    assert encode_constant(Fraction(3, 4), real, "b") == encode_constant(Fraction(3, 4), real, "a") == 0.75
    seven_fifths = Fraction(7, 5)
    assert encode_constant(seven_fifths, real) == 1.4 < seven_fifths
    assert encode_constant(seven_fifths, real, "b") == math.nextafter(1.4, 2) == 1.4000000000000001
    assert encode_constant(seven_fifths, real, "a") == 1.4
    # a positive upper bound that underflows prints as the least positive double
    tiny = Fraction(1, 10**400)
    assert encode_constant(tiny, real, "sigma") == 5e-324 and encode_constant(tiny, real, "alpha") == 0.0
    assert encode_constant(1 + 2 * tiny, real, "b") == math.nextafter(1.0, 2)
    # p-adic constants stay exact strings
    assert encode_constant(seven_fifths, FieldDescriptor.padic(5, 4), "b") == "7/5"


def _real_rows(rng, n, params=0):
    """Rows over params + n variables with thirds and sevenths in their
    coefficients, so that few constants are doubles: a dominant diagonal
    and one quadratic term each."""
    nvars, rows = params + n, []
    unit = lambda j: tuple(int(k == j) for k in range(nvars))
    for i in range(n):
        row = [(Fraction(rng.randint(-3, 3), 7), unit(j)) for j in range(params)]
        for j in range(n):
            if j == i:
                coef = Fraction(rng.choice((-1, 1)) * rng.randint(7, 20), 3)
            else:
                coef = Fraction(rng.randint(-1, 1), 7 * n)
            row.append((coef, unit(params + j)))
        j, k = rng.randrange(params, nvars), rng.randrange(params, nvars)
        square = tuple(a + b for a, b in zip(unit(j), unit(k)))
        row.append((Fraction(rng.choice((-1, 1)), rng.choice((3, 6, 7))), square))
        rows.append(row)
    return MapSpec.from_coefficients(nvars, rows)


def _fixpoint_problem(rng, real, n):
    """b + L x + a quadratic term on B[0, 1], admissible under its Lipschitz theta."""
    rows = []
    for _ in range(n):
        row = [(Fraction(rng.randint(-2, 2), 21), (0,) * n)]
        row += [(Fraction(rng.randint(-2, 2), 9 * n), tuple(int(k == j) for k in range(n))) for j in range(n)]
        row.append((Fraction(rng.choice((-1, 1)), 7), tuple(2 * int(k == rng.randrange(n)) for k in range(n))))
        rows.append(row)
    f, ball = MapSpec.from_coefficients(n, rows), Ball(real, (0,) * n, 1)
    return ContractionProblem(f, ball, lipschitz_theta(f, ball), (0,) * n)


def test_real_constants_print_on_their_safe_side(real):
    # over seeded real certificates, windows and fixpoint reports, every
    # printed bound lies on its side of the exact value, within one step of
    # the nearest double; at nearest, many would lie on the wrong side
    rng = random.Random(2602)
    checked, wrong_at_nearest = 0, 0

    def check(printed, exact, role):
        nonlocal checked, wrong_at_nearest
        side = ROUNDING[role]
        on_side = lambda x: Fraction(x) >= exact if side > 0 else Fraction(x) <= exact
        nearest = float(exact)
        assert on_side(printed) and printed in (nearest, math.nextafter(nearest, side)), (role, printed, exact)
        checked += 1
        wrong_at_nearest += not on_side(nearest)

    for rep in range(24):
        n = 1 + rep % 2
        cert = certify(_real_rows(rng, n), Ball(real, (0,) * n, Fraction(1, rng.choice((3, 5, 7, 10)))))
        printed = encode_certificate(cert)
        for key in ("norm_A", "norm_A_inv", "sigma", "a", "b", "alpha", "beta", "theta"):
            check(printed[key], getattr(cert, key), key)
        window = build_window(_real_rows(rng, n, params=1), (0,), (0,) * n, descriptor=real)
        printed = encode_window(window)
        check(printed["delta"], window.delta, "delta")
        check(printed["p_ball"]["radius"], window.p_ball.radius, "p_radius")
        check(printed["target"]["radius"], window.target_ball.radius, "target_radius")
        report = iterate_fixed_point(_fixpoint_problem(rng, real, n), Fraction(1, 10**rng.randint(3, 12)))
        printed = encode_fixed_point_report(report, real)
        check(printed["theta"], report.theta, "theta")
        for step, bound in zip(printed["steps"], report.apriori_bounds):
            check(step["bound"], bound, "bound")
    assert checked > 500 and wrong_at_nearest > 100, (checked, wrong_at_nearest)
