"""Seeded rational sampling inside balls.

Samples are exact rationals with bounded numerators/denominators so every
verification oracle can run in exact arithmetic; padic ball membership is a
valuation threshold and holds by construction.  A sample is drawn as an
integer vector (numerators, den) over one denominator (see `linalg`);
`sample_in_ball` and `sample_pair_in_ball` are its Fraction views.
"""

from __future__ import annotations

import random
from fractions import Fraction

from .linalg import (
    Ball,
    int_vec_add_scaled,
    int_vector,
    int_vector_fractions,
    int_vectors_equal,
    ratio_vector,
)


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


def _scaling_ratio(ball: Ball) -> tuple[int, int]:
    """The numerator and denominator of scaling_element(ball)."""
    r = ball.radius
    if ball.descriptor.ultrametric:
        return r.denominator, r.numerator
    return r.numerator, r.denominator


def scaling_element(ball: Ball) -> Fraction:
    """A rational t with |t| equal to the ball radius.

    Real: the radius itself.  Padic: the reciprocal, since the radius p^-k is
    the absolute value of the rational p^k."""
    return Fraction(*_scaling_ratio(ball))


def sample_vector(rng: random.Random, ball: Ball) -> tuple[tuple[int, ...], int]:
    """c + t*u as an integer vector, with u drawn by unit_fraction per
    coordinate."""
    draws = [_unit_ratio(rng, ball.descriptor, not ball.closed) for _ in ball.center_exact]
    return int_vec_add_scaled(int_vector(ball.center_exact), ratio_vector(draws), _scaling_ratio(ball))


def sample_in_ball(rng: random.Random, ball: Ball) -> tuple[Fraction, ...]:
    """sample_vector as Fractions."""
    return int_vector_fractions(sample_vector(rng, ball))


def sample_pair_vectors(rng: random.Random, ball: Ball):
    """Two distinct points of the ball, drawn by sample_vector."""
    while True:
        y = sample_vector(rng, ball)
        z = sample_vector(rng, ball)
        if not int_vectors_equal(y, z):
            return y, z


def sample_pair_in_ball(rng: random.Random, ball: Ball):
    """sample_pair_vectors as Fractions."""
    y, z = sample_pair_vectors(rng, ball)
    return int_vector_fractions(y), int_vector_fractions(z)
