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
    if descriptor.kind == "padic":
        p = descriptor.prime
        den = rng.randint(1, 20)
        while den % p == 0:
            den = rng.randint(1, 20)
        num = rng.randint(-20, 20)
        if strict:
            num *= p
        return Fraction(num, den)
    den = rng.randint(1, 20)
    top = den - 1 if strict else den
    num = rng.randint(-top, top)
    return Fraction(num, den)


def scaling_element(ball: Ball) -> Fraction:
    """A rational t with |t| equal to the ball radius.

    Real: the radius itself.  Padic: the reciprocal, since the radius p^-k is
    the absolute value of the rational p^k."""
    if ball.descriptor.ultrametric:
        return 1 / ball.radius
    return ball.radius


def sample_in_ball(rng: random.Random, ball: Ball) -> tuple[Fraction, ...]:
    strict = not ball.closed
    t = scaling_element(ball)
    return tuple(
        c + t * unit_fraction(rng, ball.descriptor, strict)
        for c in ball.center_exact
    )


def sample_pair_in_ball(rng: random.Random, ball: Ball):
    """Two distinct rational points of the ball."""
    while True:
        y = sample_in_ball(rng, ball)
        z = sample_in_ball(rng, ball)
        if y != z:
            return y, z
