"""Certified local inversion.

A certificate pins the anchor operator A, its exact inverse, the strictness
bound sigma of f against A on a ball, and the derived constants

    a = 1/||A^-1|| - sigma      b = ||A|| + sigma
    alpha = 1 - sigma*||A^-1||  beta = 1 + sigma*||A^-1||

all as exact rationals.  sigma < 1/||A^-1|| makes the local equation
f(v) = c solvable by iterating v -> v - A^-1 (f(v) - c), a contraction with
constant sigma*||A^-1||; the ultrametric branch upgrades the two-sided
sandwich to an exact ball image f(y) + A.B_s(0).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .calculus import MapSpec, affine_map, eval_ints, eval_map, jacobian_exact, strictness_modulus
from .contraction import (
    ContractionProblem,
    iterate_fixed_point,
    newton_fixed_point,
)
from .errors import (
    DimensionMismatch,
    DomainViolation,
    InconsistentCertificate,
    NotCertifiable,
    SingularA,
    SingularMatrix,
    TargetOutsideGuarantee,
)
from .field import FieldDescriptor, _rational
from .linalg import (
    Ball,
    Operator,
    Vector,
    int_mat_vec,
    int_matrix,
    int_vec_norm,
    int_vec_sub,
    int_vector_fractions,
    rat_identity,
    rat_mat_invert,
    rat_mat_vec,
    rat_operator_norm,
    rat_vec_norm,
)
from .sampling import sample_pair_vectors


@dataclass(frozen=True)
class InversionCertificate:
    """Machine-checkable constants proving local solvability of f on a ball."""

    A: tuple
    A_inv: tuple
    norm_A: Fraction
    norm_A_inv: Fraction
    sigma: Fraction
    a: Fraction
    b: Fraction
    alpha: Fraction
    beta: Fraction
    ball: Ball
    ultrametric: bool

    def __post_init__(self):
        """One explicit check of the seven constants (not an assert, so it
        holds under python -O): InconsistentCertificate names every relation
        that fails and carries the constants."""
        sigma, norm, norm_inv = self.sigma, self.norm_A, self.norm_A_inv
        threshold = 1 / norm_inv if norm_inv > 0 else None
        relations = (
            ("sigma < 1/|A^-1|", threshold is not None and sigma < threshold),
            ("a = 1/|A^-1| - sigma > 0", threshold is not None and self.a == threshold - sigma and self.a > 0),
            ("b = |A| + sigma", self.b == norm + sigma),
            ("alpha = 1 - sigma |A^-1|", self.alpha == 1 - sigma * norm_inv),
            ("0 < alpha <= 1", 0 < self.alpha <= 1),
            ("beta = 1 + sigma |A^-1|", self.beta == 1 + sigma * norm_inv),
            ("1 <= beta < 2", 1 <= self.beta < 2),
        )
        failed = [name for name, holds in relations if not holds]
        if failed:
            raise InconsistentCertificate(failed, {
                name: getattr(self, name)
                for name in ("norm_A", "norm_A_inv", "sigma", "a", "b", "alpha", "beta")
            })

    @classmethod
    def from_anchor(cls, A_rows, A_inv, sigma: Fraction, ball: Ball) -> "InversionCertificate":
        """The certificate of anchor A, with its inverse, and strictness bound
        sigma on the ball; NotCertifiable unless sigma < 1/||A^-1||."""
        desc = ball.descriptor
        norm_a = rat_operator_norm(A_rows, desc)
        norm_a_inv = rat_operator_norm(A_inv, desc)
        threshold = 1 / norm_a_inv
        if sigma >= threshold:
            raise NotCertifiable(sigma, threshold)
        return cls(
            A=A_rows,
            A_inv=A_inv,
            norm_A=norm_a,
            norm_A_inv=norm_a_inv,
            sigma=sigma,
            a=threshold - sigma,
            b=norm_a + sigma,
            alpha=1 - sigma * norm_a_inv,
            beta=1 + sigma * norm_a_inv,
            ball=ball,
            ultrametric=desc.ultrametric,
        )

    @staticmethod
    def anchor_inverse(A_rows) -> tuple:
        """The exact inverse of an anchor operator; SingularA if it has none."""
        try:
            return rat_mat_invert(A_rows)
        except SingularMatrix as exc:
            raise SingularA(str(exc)) from exc

    @property
    def descriptor(self) -> FieldDescriptor:
        return self.ball.descriptor

    @property
    def theta(self) -> Fraction:
        """Contraction constant of the inversion iteration."""
        return self.sigma * self.norm_A_inv


def certify(
    f: MapSpec, ball: Ball, A: Sequence[Sequence] | Operator | None = None
) -> InversionCertificate:
    """Build an inversion certificate for f against A on the ball.

    A defaults to the derivative at the ball center.  Fails with
    NotCertifiable when the strictness bound does not clear 1/||A^-1||.
    """
    if f.domain_dim != f.codomain_dim:
        raise DimensionMismatch("local inversion needs a self-dimension map")
    if A is None:
        rows = jacobian_exact(f, ball.center_exact)
    elif isinstance(A, Operator):
        rows = A.to_rationals()
    else:
        rows = tuple(tuple(_rational(v, "A entry") for v in r) for r in A)
    inv_rows = InversionCertificate.anchor_inverse(rows)
    sigma = strictness_modulus(f, rows, ball)
    return InversionCertificate.from_anchor(rows, inv_rows, sigma, ball)


def _solve_ball(cert: InversionCertificate, base, radius) -> Ball:
    """The closed sub-ball B[base, radius] of the certified ball, each
    defaulting to the certified one's."""
    ball = cert.ball
    if base is None and radius is None:
        return ball
    base = ball.center_exact if base is None else base
    sub = Ball(cert.descriptor, base, ball.radius if radius is None else radius, closed=True)
    if not ball.contains_ball(sub):
        raise DomainViolation("sub-ball is not inside the certified ball")
    return sub


def _check_length(what: str, point: Sequence, dim: int) -> None:
    """Refuse a point of the wrong length, which a zip would cut to fit."""
    if len(point) != dim:
        n = len(point)
        raise DimensionMismatch(f"{what} has {n} coordinates, not {dim}", coordinates=str(n), dim=str(dim))


def inversion_step_map(cert: InversionCertificate, f: MapSpec, c: Sequence) -> MapSpec:
    """The contraction v -> v - A^-1 (f(v) - c) as an exact polynomial map."""
    minus_inv = tuple(tuple(-a for a in row) for row in cert.A_inv)
    shift = rat_mat_vec(cert.A_inv, c)
    return affine_map(f.without_domain(), minus_inv, rat_identity(f.domain_dim), shift)


def local_invert(
    cert: InversionCertificate,
    f: MapSpec,
    c: Sequence,
    base: Sequence | None = None,
    radius=None,
    target_precision=None,
) -> Vector:
    """The unique v near the base point with f(v) = c, at tracked precision.

    The target must lie in the certified image around the base: within
    A.B_s(0) of f(base) ultrametrically, within A.B_{alpha*s}(0) on the real
    side.  base/radius default to the certificate's ball.
    """
    sub = _solve_ball(cert, base, radius)
    cs = tuple(_rational(v, "target") for v in c)
    _check_length("target", cs, sub.dim)
    problem = ContractionProblem(inversion_step_map(cert, f, cs), sub, cert.theta, sub.center_exact)
    # |g(base) - base| = |A^-1 (c - f(base))|: the pulled-back target distance
    margin = problem.initial_displacement()
    allowed = sub.radius if cert.ultrametric else cert.alpha * sub.radius
    if margin > allowed:
        raise TargetOutsideGuarantee(
            f"pulled-back target distance {margin} exceeds the certified {allowed}"
        )
    if cert.ultrametric:
        return newton_fixed_point(problem, target_precision)
    return iterate_fixed_point(problem, target_precision).fixed_point


@dataclass(frozen=True)
class ImageDescription:
    """What the image of a sub-ball looks like.

    Ultrametric: the image is exactly center + A.B_s(0).  Real: sandwiched
    between the inner and outer balls (and their A-skewed refinements).
    """

    descriptor: FieldDescriptor
    center: tuple
    A: tuple
    A_inv: tuple
    radius: Fraction
    exact: bool
    inner_radius: Fraction | None = None
    outer_radius: Fraction | None = None
    skew_inner: Fraction | None = None
    skew_outer: Fraction | None = None

    def pullback_distance(self, w: Sequence) -> Fraction:
        _check_length("point", w, len(self.center))
        return rat_vec_norm(
            rat_mat_vec(
                self.A_inv, tuple(Fraction(x) - c for x, c in zip(w, self.center))
            ),
            self.descriptor,
        )

    def contains(self, w: Sequence) -> bool:
        """Exact membership (ultrametric only)."""
        if not self.exact:
            raise DomainViolation("real images are only sandwiched, not exact")
        return self.pullback_distance(w) <= self.radius

    def cannot_contain(self, w: Sequence) -> bool:
        if self.exact:
            return not self.contains(w)
        return self.pullback_distance(w) > self.skew_outer


def ball_image(cert: InversionCertificate, f: MapSpec, y: Sequence, s) -> ImageDescription:
    """Describe f(B_s(y)) for a sub-ball of the certified ball."""
    sub = _solve_ball(cert, y, s)
    fy = eval_map(f.without_domain(), sub.center_exact)
    if cert.ultrametric:
        return ImageDescription(
            descriptor=cert.descriptor,
            center=fy,
            A=cert.A,
            A_inv=cert.A_inv,
            radius=sub.radius,
            exact=True,
        )
    return ImageDescription(
        descriptor=cert.descriptor,
        center=fy,
        A=cert.A,
        A_inv=cert.A_inv,
        radius=sub.radius,
        exact=False,
        inner_radius=cert.a * sub.radius,
        outer_radius=cert.b * sub.radius,
        skew_inner=cert.alpha * sub.radius,
        skew_outer=cert.beta * sub.radius,
    )


@dataclass
class DistortionReport:
    pairs: int
    sandwich_failures: int
    isometry_failures: int
    first_failure: dict | None = None

    @property
    def passed(self) -> bool:
        return self.sandwich_failures == 0 and self.isometry_failures == 0


def verify_distortion(
    cert: InversionCertificate, f: MapSpec, samples: int, seed: int
) -> DistortionReport:
    """Sample pairs in the certified ball and check, in exact arithmetic,
    a||z-y|| <= ||f(z)-f(y)|| <= b||z-y||, plus exact norm preservation of
    A^-1 f on the ultrametric side.

    The pairs, their images and A^-1 (f(z) - f(y)) are integer vectors
    (`linalg.int_vector`); each compared norm is one Fraction."""
    rng = random.Random(seed)
    desc = cert.descriptor
    report = DistortionReport(pairs=samples, sandwich_failures=0, isometry_failures=0)
    f_free = f.without_domain()
    pull_back = int_matrix(cert.A_inv) if desc.ultrametric else None

    def failure(kind, y, z, dist, name, value):
        report.first_failure = {
            "kind": kind,
            "y": [str(v) for v in int_vector_fractions(y)],
            "z": [str(v) for v in int_vector_fractions(z)],
            "distance": str(dist),
            name: str(value),
        }

    for _ in range(samples):
        y, z = sample_pair_vectors(rng, cert.ball)
        dist = int_vec_norm(int_vec_sub(z, y), desc)
        image_step = int_vec_sub(eval_ints(f_free, *z), eval_ints(f_free, *y))
        fdist = int_vec_norm(image_step, desc)
        if not cert.a * dist <= fdist <= cert.b * dist:
            report.sandwich_failures += 1
            if report.first_failure is None:
                failure("sandwich", y, z, dist, "image_distance", fdist)
        if pull_back is not None:
            pulled = int_vec_norm(int_mat_vec(pull_back, image_step), desc)
            if pulled != dist:
                report.isometry_failures += 1
                if report.first_failure is None:
                    failure("isometry", y, z, dist, "pulled_distance", pulled)
    return report
