"""Seeded rational sampling inside balls.

Samples are exact rationals with bounded numerators/denominators so every
verification oracle can run in exact arithmetic; padic ball membership is a
valuation threshold and holds by construction.
"""

from __future__ import annotations

import random
from fractions import Fraction

from .linalg import Ball


def unit_fraction(rng: random.Random, descriptor, strict: bool = False) -> Fraction:
    """A rational z with |z| <= 1 (or < 1 when strict) in the given field."""
    return Fraction(*_unit_ratio(rng, descriptor, strict))


def _unit_ratio(rng: random.Random, descriptor, strict: bool) -> tuple[int, int]:
    """The numerator and denominator that unit_fraction draws."""
    if descriptor.kind == "padic":
        p = descriptor.prime
        den = rng.randint(1, 20)
        while den % p == 0:
            den = rng.randint(1, 20)
        num = rng.randint(-20, 20)
        if strict:
            num *= p
        return num, den
    den = rng.randint(1, 20)
    top = den - 1 if strict else den
    num = rng.randint(-top, top)
    return num, den


def scaling_element(ball: Ball) -> Fraction:
    """A rational t with |t| equal to the ball radius.

    Real: the radius itself.  Padic: the reciprocal, since the radius p^-k is
    the absolute value of the rational p^k."""
    if ball.descriptor.ultrametric:
        return 1 / ball.radius
    return ball.radius


def sample_in_ball(rng: random.Random, ball: Ball) -> tuple[Fraction, ...]:
    """c + t*u, with u drawn by unit_fraction per coordinate: one Fraction
    per coordinate, from integer products."""
    strict = not ball.closed
    t = scaling_element(ball)
    tn, td = t.numerator, t.denominator
    out = []
    for c in ball.center_exact:
        num, den = _unit_ratio(rng, ball.descriptor, strict)
        cd = c.denominator
        out.append(Fraction(c.numerator * td * den + tn * num * cd, cd * td * den))
    return tuple(out)


def sample_pair_in_ball(rng: random.Random, ball: Ball):
    """Two distinct rational points of the ball."""
    while True:
        y = sample_in_ball(rng, ball)
        z = sample_in_ball(rng, ball)
        if y != z:
            return y, z
