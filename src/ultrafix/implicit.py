"""Certified implicit functions: solve f(p, x) = z0 over a parameter window.

A window consists of a parameter ball, a state ball, a target set and one
certificate whose strictness bound is uniform over the whole window, so every
query solves by the same contraction v -> v - A^-1 (f(p, v) - z0).  Radii are
found by geometric shrinking (factor 1/p padic, 1/2 real); each accepted
radius is sound by construction.  The ultrametric variant upgrades the target
set to the exact common image f(p0, x0) + A.B_r(0), identical for every
parameter in the window.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .calculus import (
    MapSpec,
    affine_map,
    eval_map,
    jacobian_exact,
    substitute_prefix,
    telescoped_lipschitz,
)
from .contraction import (
    ContractionProblem,
    _tracked_parts,
    iterate_fixed_point,
    newton_fixed_point,
    uniform_family_check,
)
from .errors import (
    DimensionMismatch,
    DomainViolation,
    NotAFixedPoint,
    OutsideWindow,
    SchemaError,
    SingularA,
    SingularMatrix,
    WindowNotFound,
)
from .field import FieldDescriptor, _rational, floor_log, num_str
from .inverse import ImageDescription, InversionCertificate, inversion_step_map
from .linalg import (
    Ball,
    Operator,
    Vector,
    invert_exact,
    rat_identity,
    rat_operator_norm,
    vec_norm,
)


@dataclass(frozen=True)
class ParamWindow:
    """A certified product window for the implicit equation f(p, x) = z0."""

    p_ball: Ball
    state_ball: Ball
    target_ball: object  # Ball around z0, or an exact ImageDescription
    cert: InversionCertificate
    delta: Fraction
    z0: tuple

    @property
    def descriptor(self) -> FieldDescriptor:
        return self.state_ball.descriptor

    def target_contains(self, z: Sequence) -> bool:
        if isinstance(self.target_ball, ImageDescription):
            return self.target_ball.contains(z)
        return self.target_ball.contains_rational(z)


@dataclass
class ImplicitSolution:
    lambda_value: Vector
    derivative: Operator
    residual: object


def _as_rationals(point, what: str) -> tuple[Fraction, ...]:
    if isinstance(point, Vector):
        return point.to_rationals()
    try:
        return tuple(_rational(v, what) for v in point)
    except TypeError as exc:  # not a sequence
        raise SchemaError(f"{what} must be rational coordinates") from exc


def _shrink_search(
    radius: Fraction, desc: FieldDescriptor, max_shrink: int, measure, names, message
) -> Fraction:
    """The first of max_shrink radii, shrinking geometrically from `radius`
    (factor 1/p padic, 1/2 real), at which measure(radius) gives a pair
    (value, limit) with value <= limit.  WindowNotFound otherwise, with the
    last radius tried and its pair under `names` in its details.  measure
    gives None for a radius whose window leaves the map's domain, which
    every larger radius leaves too, so a last None means none fit."""
    details, pair = {}, ()
    for _ in range(max_shrink):
        pair = measure(radius)
        if pair is None:
            details = {"radius": num_str(radius)}
        elif pair[0] <= pair[1]:
            return radius
        else:
            details = {"radius": num_str(radius), names[0]: num_str(pair[0]), names[1]: num_str(pair[1])}
        radius = radius / desc.prime if desc.ultrametric else radius / 2
    if pair is None:
        message = f"no window within {max_shrink} shrinks lies in the map's domain"
    raise WindowNotFound(message, **details)


def build_window(
    f: MapSpec,
    p0,
    x0,
    descriptor: FieldDescriptor,
    max_shrink: int = 60,
    exact_image: bool = False,
) -> ParamWindow:
    """Find parameter and state radii certifying the implicit equation.

    The state Jacobian A at (p0, x0) anchors the certificate.  Starting at
    radius 1, radii shrink geometrically until (i) the uniform strictness
    bound sigma is at most tau = 1/(2||A^-1||) and (ii) the parameter drift
    of the pulled back equation stays within the solvable margin.  A map's
    domain bounds the window: an anchor outside it raises DomainViolation,
    and (i) takes only radii r whose joint ball B((p0, x0), r), which holds
    the window as the parameter radius is at most r, lies in it.
    """
    p0 = _as_rationals(p0, "p0")
    x0 = _as_rationals(x0, "x0")
    mp, n = len(p0), len(x0)
    if f.domain_dim != mp + n:
        raise DimensionMismatch("map does not split as parameter x state")
    if f.codomain_dim != n:
        raise DimensionMismatch("implicit equations need codomain = state dimension")
    domain, f = f.domain, f.without_domain()
    if domain is not None and not domain.contains_rational(p0 + x0):
        raise DomainViolation("the anchor (p0, x0) is outside the map's domain ball")
    jac = jacobian_exact(f, p0 + x0)
    A_rows = tuple(tuple(row[mp:]) for row in jac)
    A_inv = InversionCertificate.anchor_inverse(A_rows)
    # neither map depends on the radii: f - A.x (A acting on the state) and
    # p -> A^-1 f(p, x0)
    minus_a = tuple(tuple([Fraction(0)] * mp) + tuple(-a for a in row) for row in A_rows)
    residual = affine_map(f, rat_identity(n), minus_a)
    drift = substitute_prefix(affine_map(f, A_inv), x0, first=mp)

    desc = descriptor
    norm_a_inv = rat_operator_norm(A_inv, desc)
    tau = 1 / (2 * norm_a_inv)

    def sigma_and_tau(radius):
        if domain is not None and not domain.contains_ball(Ball(desc, p0 + x0, radius)):
            return None
        return uniform_family_check(residual, Ball(desc, p0, radius), Ball(desc, x0, radius)), tau

    r = _shrink_search(
        Fraction(1), desc, max_shrink, sigma_and_tau, ("sigma", "tau"),
        f"strictness bound stayed above {tau} after {max_shrink} shrinks",
    )
    state_ball = Ball(desc, x0, r)

    def drift_and_cap(rho):
        # a bound on ||A^-1 f(p, x0) - A^-1 f(p0, x0)|| over the parameter
        # ball, and the margin it must fit in
        p_ball = Ball(desc, p0, rho)
        lip = telescoped_lipschitz(drift, p_ball.coordinate_sups(), range(mp), desc)
        if desc.ultrametric:
            return lip * rho, r
        return lip * rho, (1 - uniform_family_check(residual, p_ball, state_ball) * norm_a_inv) * r / 2

    rho = _shrink_search(
        r, desc, max_shrink, drift_and_cap, ("drift", "cap"),
        f"parameter drift would not fit the window after {max_shrink} shrinks",
    )
    p_ball = Ball(desc, p0, rho)
    sigma = uniform_family_check(residual, p_ball, state_ball)
    # sigma <= tau < 1/||A^-1||, so the certificate exists
    cert = InversionCertificate.from_anchor(A_rows, A_inv, sigma, state_ball)
    z0 = eval_map(f, p0 + x0)
    delta = cert.alpha * r / (2 * norm_a_inv)
    if exact_image:
        if not desc.ultrametric:
            raise SchemaError("exact images exist only over ultrametric fields")
        target = ImageDescription(
            descriptor=desc, center=z0, A=A_rows, A_inv=A_inv, radius=r, exact=True
        )
    elif desc.ultrametric:
        # the strict delta-ball in a discrete value group is the closed ball of
        # the largest p-power below delta: p^(c-1) for the least p^c >= delta
        below = Fraction(desc.prime) ** (-floor_log(1 / delta, desc.prime) - 1)
        target = Ball(desc, z0, below, closed=True)
    else:
        target = Ball(desc, z0, delta, closed=False)
    return ParamWindow(
        p_ball=p_ball,
        state_ball=state_ball,
        target_ball=target,
        cert=cert,
        delta=delta,
        z0=z0,
    )


def solve_implicit(
    window: ParamWindow,
    f: MapSpec,
    p,
    z0=None,
    target_precision=None,
) -> ImplicitSolution:
    """lambda(p) with its derivative: the unique state in the window's state
    ball with f(p, lambda(p)) = z0."""
    p = _as_rationals(p, "p")
    z0 = window.z0 if z0 is None else _as_rationals(z0, "z0")
    if not window.p_ball.contains_rational(p):
        raise OutsideWindow("parameter outside the certified window")
    if not window.target_contains(z0):
        raise OutsideWindow("target outside the certified target set")
    f = f.without_domain()
    f_p = substitute_prefix(f, p)
    cert = window.cert
    g = inversion_step_map(cert, f_p, z0)
    problem = ContractionProblem(
        g, window.state_ball, cert.theta, window.state_ball.center_exact
    )
    if cert.ultrametric:
        lam = newton_fixed_point(problem, target_precision)
    else:
        lam = iterate_fixed_point(problem, target_precision).fixed_point

    desc = window.descriptor
    value, beta1, beta2 = _tracked_parts(f, p, lam)
    try:
        state_inv = invert_exact(beta2)
    except SingularMatrix as exc:
        raise SingularA(f"state Jacobian singular at the solution: {exc}") from exc
    derivative = -state_inv.compose(beta1)

    residual_vec = value - Vector.from_rationals(z0, desc)
    residual = vec_norm(residual_vec)
    # the solution is truncated to its certified digits, so a p-adic
    # residual visible at tracked precision is a genuine failure; a real
    # answer stands on the exact close of its solve
    if desc.ultrametric and not residual_vec.is_zero():
        raise NotAFixedPoint(f"implicit residual {residual} too large")
    return ImplicitSolution(lambda_value=lam, derivative=derivative, residual=residual)
