from fractions import Fraction

import pytest

from ultrafix import Ball, FieldDescriptor, MapSpec, SchemaError, embed_rational
from ultrafix.field import truncate_precision
from ultrafix.jsonio import (
    encode_ball,
    encode_map,
    encode_scalar,
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
    got = encode_scalar(truncate_precision(embed_rational(230, 1, q5), 4))
    assert got == {"val": 0, "digits": [0, 1, 4, 1]}
    got = encode_scalar(truncate_precision(embed_rational(280, 1, q5), 4))
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
