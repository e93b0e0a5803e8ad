import random
from fractions import Fraction

import pytest

from ultrafix import (
    Ball,
    ContractionProblem,
    DimensionMismatch,
    DomainViolation,
    FieldDescriptor,
    MapSpec,
    NotCertifiable,
    SchemaError,
    SingularA,
    TargetOutsideGuarantee,
    ball_image,
    build_window,
    certify,
    eval_map,
    iterate_fixed_point,
    local_invert,
    verify_distortion,
)
from ultrafix import contraction, inverse
from ultrafix.field import rational_abs
from ultrafix.inverse import inversion_step_map
from ultrafix.linalg import rat_vec_norm
from ultrafix.sampling import sample_in_ball, sample_pair_in_ball, unit_fraction


def poly(m, *outputs):
    return MapSpec.from_coefficients(m, outputs)


PLUS_SQUARE = poly(1, [(1, (1,)), (1, (2,))])  # x + x^2


_FIFTH = Fraction(1, 5)
_NOT_RATIONALS = [float("inf"), float("-inf"), float("nan"), "1/0", "x", None]
_RATIONAL_ENTRY_POINTS = {
    "ball_center": lambda d, v: Ball(d, (v,), _FIFTH),
    "ball_radius": lambda d, v: Ball(d, (0,), v),
    "certify_A": lambda d, v: certify(PLUS_SQUARE, Ball(d, (0,), _FIFTH), [[v]]),
    "invert_target": lambda d, v: local_invert(certify(PLUS_SQUARE, Ball(d, (0,), _FIFTH)), PLUS_SQUARE, (v,)),
    "window_p0": lambda d, v: build_window(poly(2, [(1, (1, 0)), (1, (0, 1))]), (v,), (0,), d),
    "problem_theta": lambda d, v: ContractionProblem(PLUS_SQUARE, Ball(d, (0,), _FIFTH), v, (0,)),
    "problem_x0": lambda d, v: ContractionProblem(PLUS_SQUARE, Ball(d, (0,), _FIFTH), _FIFTH, (v,)),
}


@pytest.mark.parametrize("value", _NOT_RATIONALS, ids=repr)
@pytest.mark.parametrize("entry", list(_RATIONAL_ENTRY_POINTS))
def test_entry_points_refuse_what_is_not_a_finite_rational(q5, entry, value):
    with pytest.raises(SchemaError, match=" is not a finite rational$"):
        _RATIONAL_ENTRY_POINTS[entry](q5, value)


def test_certify_padic_golden(q5):
    ball = Ball(q5, (0,), Fraction(1, 5))
    cert = certify(PLUS_SQUARE, ball)
    assert cert.sigma == Fraction(1, 5)
    assert cert.a == Fraction(4, 5)
    assert cert.b == Fraction(6, 5)
    assert cert.alpha == Fraction(4, 5)
    assert cert.ultrametric


def test_certify_real_example(real):
    f = poly(1, [(2, (1,)), (Fraction(1, 10), (2,))])
    cert = certify(f, Ball(real, (0,), 1), A=[[2]])
    assert cert.norm_A_inv == Fraction(1, 2)
    assert cert.sigma == Fraction(1, 5)
    assert cert.a == Fraction(9, 5)
    assert cert.b == Fraction(11, 5)


def test_certify_affine(real):
    aff = poly(1, [(3, (1,)), (7, (0,))])
    cert = certify(aff, Ball(real, (0,), 2))
    assert cert.sigma == 0
    assert cert.a == Fraction(1, 3) ** -1 - 0 == Fraction(3)
    assert cert.b == 3


def test_certify_failures(q5, real):
    with pytest.raises(NotCertifiable):
        certify(poly(1, [(1, (1,)), (1, (2,))]), Ball(real, (0,), 1))
    with pytest.raises(SingularA):
        certify(poly(2, [(1, (2, 0))], [(1, (0, 1))]), Ball(q5, (0, 0), Fraction(1, 5)))


def test_local_invert_padic_golden(q5):
    # oracle: enumerate v = 0 mod 5 with v^2 + v - 5 = 0 mod 5^4
    oracle = [v for v in range(5**4) if (v * v + v - 5) % 5**4 == 0 and v % 5 == 0]
    assert oracle == [230]
    cert = certify(PLUS_SQUARE, Ball(q5, (0,), Fraction(1, 5)))
    got = local_invert(cert, PLUS_SQUARE, (5,))
    assert got.components[0].to_rational() % 5**4 == 230
    zero = local_invert(cert, PLUS_SQUARE, (0,))
    assert zero.components[0].is_zero()


def test_local_invert_linear_real(real):
    f = poly(1, [(2, (1,))])
    cert = certify(f, Ball(real, (0,), 1))
    got = local_invert(cert, f, (1,))
    assert got.components[0].value == pytest.approx(0.5, abs=1e-9)


def test_local_invert_outside_guarantee(q5):
    cert = certify(PLUS_SQUARE, Ball(q5, (0,), Fraction(1, 5)))
    with pytest.raises(TargetOutsideGuarantee):
        local_invert(cert, PLUS_SQUARE, (1,))


def test_points_of_the_wrong_length_are_refused(q5, real):
    # a target or image point of the wrong length is refused, not cut to fit
    # by a zip against the map's coordinates
    pair = poly(2, [(1, (1, 0)), (1, (0, 2))], [(3, (0, 1)), (1, (2, 0))])
    for desc in (q5, real):
        for f, ball, bad in (
            (PLUS_SQUARE, Ball(desc, (0,), Fraction(1, 5)), (5, 7)),
            (pair, Ball(desc, (0, 0), Fraction(1, 5)), (Fraction(1, 25),)),
        ):
            cert = certify(f, ball)
            want = f"has {len(bad)} coordinates, not {ball.dim}"
            with pytest.raises(DimensionMismatch, match=f"^target {want}$") as err:
                local_invert(cert, f, bad)
            assert err.value.details == {"coordinates": str(len(bad)), "dim": str(ball.dim)}
            image = ball_image(cert, f, ball.center_exact, ball.radius)
            for check in (image.pullback_distance, image.contains if desc.ultrametric else image.cannot_contain):
                with pytest.raises(DimensionMismatch, match=f"^point {want}$"):
                    check(bad)


def test_roundtrip_injectivity(q5, real):
    # real sources come from a half-radius ball so their images stay within
    # the certified margin; the padic image is exact, so the full ball works
    cases = [
        (PLUS_SQUARE, Ball(q5, (0,), Fraction(1, 5)), Fraction(1)),
        (poly(1, [(2, (1,)), (Fraction(1, 10), (2,))]), Ball(real, (0,), 1), Fraction(1, 2)),
    ]
    rng = random.Random(17)
    for f, ball, shrink in cases:
        cert = certify(f, ball)
        source = Ball(ball.descriptor, ball.center_exact, ball.radius * shrink)
        for _ in range(25):
            v = sample_in_ball(rng, source)
            c = eval_map(f, v)
            got = local_invert(cert, f, c)
            for a, b in zip(got.components, v):
                if ball.descriptor.ultrametric:
                    assert a == ball.descriptor.from_rational(b)
                else:
                    assert a.value == pytest.approx(float(b), abs=1e-7)


def test_inverse_lipschitz_bound(q5, real):
    rng = random.Random(23)
    for f, ball in (
        (PLUS_SQUARE, Ball(q5, (0,), Fraction(1, 5))),
        (poly(1, [(2, (1,)), (Fraction(1, 10), (2,))]), Ball(real, (0,), 1)),
    ):
        cert = certify(f, ball)
        limit = cert.norm_A_inv if cert.ultrametric else 1 / cert.a
        for _ in range(300):
            y, z = sample_pair_in_ball(rng, ball)
            dy = rat_vec_norm(tuple(a - b for a, b in zip(z, y)), ball.descriptor)
            dfy = rat_vec_norm(
                tuple(a - b for a, b in zip(eval_map(f, z), eval_map(f, y))),
                ball.descriptor,
            )
            # inverse quotient = dy / dfy must respect the certified bound
            assert dy <= limit * dfy


def test_ball_image_ultrametric_exact(q5):
    cert = certify(PLUS_SQUARE, Ball(q5, (0,), Fraction(1, 5)))
    img = ball_image(cert, PLUS_SQUARE, (0,), Fraction(1, 5))
    assert img.exact and img.radius == Fraction(1, 5)
    rng = random.Random(31)
    # forward: images of sources land in the described set
    for _ in range(200):
        v = sample_in_ball(rng, cert.ball)
        assert img.contains(eval_map(PLUS_SQUARE, v))
    # backward: every described target pulls back into the source ball
    for _ in range(100):
        u = 5 * unit_fraction(rng, q5)
        w = (img.center[0] + u,)
        got = local_invert(cert, PLUS_SQUARE, w)
        assert cert.ball.contains_tracked(got)


def test_ball_image_real_sandwich(real):
    f = poly(1, [(2, (1,)), (Fraction(1, 10), (2,))])
    cert = certify(f, Ball(real, (0,), 1), A=[[2]])
    img = ball_image(cert, f, (0,), 1)
    assert img.inner_radius == Fraction(9, 5)
    assert img.outer_radius == Fraction(11, 5)
    rng = random.Random(37)
    for _ in range(200):
        v = sample_in_ball(rng, cert.ball)
        w = eval_map(f, v)
        dist = rat_vec_norm(tuple(a - b for a, b in zip(w, img.center)), real)
        assert dist <= img.outer_radius
        assert not img.cannot_contain(w)


def test_ball_image_affine_tight(real):
    aff = poly(1, [(3, (1,)), (1, (0,))])
    cert = certify(aff, Ball(real, (0,), 2))
    img = ball_image(cert, aff, (0,), 1)
    assert img.inner_radius == img.outer_radius == 3


def test_ball_image_domain_check(q5):
    cert = certify(PLUS_SQUARE, Ball(q5, (0,), Fraction(1, 5)))
    from ultrafix import DomainViolation

    with pytest.raises(DomainViolation):
        ball_image(cert, PLUS_SQUARE, (0,), Fraction(1))
    with pytest.raises(DomainViolation):
        ball_image(cert, PLUS_SQUARE, (1,), Fraction(1, 5))


def test_verify_distortion(q5, real):
    cert = certify(PLUS_SQUARE, Ball(q5, (0,), Fraction(1, 5)))
    rep = verify_distortion(cert, PLUS_SQUARE, 500, seed=5)
    assert rep.passed and rep.pairs == 500
    f = poly(1, [(2, (1,)), (Fraction(1, 10), (2,))])
    certr = certify(f, Ball(real, (0,), 1))
    assert verify_distortion(certr, f, 500, seed=5).passed


def test_sigma_monotone_in_radius(q5, real):
    f5 = PLUS_SQUARE
    sigmas = [
        certify(f5, Ball(q5, (0,), Fraction(1, 5**k))).sigma for k in (1, 2, 3)
    ]
    assert sigmas == sorted(sigmas, reverse=True)
    fr = poly(1, [(1, (1,)), (Fraction(1, 10), (2,))])
    sig_r = [certify(fr, Ball(real, (0,), Fraction(1, 2**k))).sigma for k in (0, 1, 2)]
    assert sig_r == sorted(sig_r, reverse=True)
    # alpha and beta approach 1 as sigma drops
    certs = [certify(fr, Ball(real, (0,), Fraction(1, 2**k))) for k in (0, 1, 2)]
    alphas = [c.alpha for c in certs]
    betas = [c.beta for c in certs]
    assert alphas == sorted(alphas) and betas == sorted(betas, reverse=True)


def test_local_invert_off_center_base(q5):
    # solve around a non-central base point with a sub-radius
    cert = certify(PLUS_SQUARE, Ball(q5, (0,), Fraction(1, 5)))
    y = (Fraction(5),)
    fy = eval_map(PLUS_SQUARE, y)
    w = (fy[0] + 25,)
    got = local_invert(cert, PLUS_SQUARE, w, base=y, radius=Fraction(1, 25))
    assert rational_abs(got.components[0].to_rational() - y[0], q5) <= Fraction(1, 25)
    check = eval_map(PLUS_SQUARE, got)
    assert rational_abs(check.components[0].to_rational() - w[0], q5) <= Fraction(1, 5**4)


def test_deep_padic_invert_takes_newton_steps_and_matches_banach(monkeypatch):
    q5 = FieldDescriptor.padic(5, 64)
    cert = certify(PLUS_SQUARE, Ball(q5, (0,), Fraction(1, 5)))
    problem = ContractionProblem(inversion_step_map(cert, PLUS_SQUARE, (5,)), cert.ball, cert.theta, (0,))
    passes, one_pass = [], contraction._newton_pass
    monkeypatch.setattr(contraction, "_newton_pass", lambda *a: passes.append(a[5]) or one_pass(*a))
    (v,) = local_invert(cert, PLUS_SQUARE, (5,)).components
    assert passes and all(passes)
    (oracle,) = iterate_fixed_point(problem).fixed_point.components
    assert (v.val, v.unit, v.prec) == (oracle.val, oracle.unit, oracle.prec)
    x = v.to_rational()
    assert v.prec >= 64 and (x * x + x - 5) % 5**v.prec == 0



_INCONSISTENT = """
import dataclasses, json
from fractions import Fraction
from ultrafix import Ball, FieldDescriptor, InconsistentCertificate, MapSpec, certify

q5 = FieldDescriptor.padic(5, 4)
cert = certify(MapSpec.from_coefficients(1, [[(1, (1,)), (1, (2,))]]), Ball(q5, (0,), Fraction(1, 5)))
try:
    dataclasses.replace(cert, a=cert.a + 1, beta=Fraction(2))
except InconsistentCertificate as exc:
    print(json.dumps(exc.details))
"""


def test_inconsistent_certificate_is_refused_also_under_python_O(q5):
    # the seven constants are checked by one explicit test, which python -O
    # keeps, not by asserts, which it strips
    import dataclasses
    import json
    import os
    import subprocess
    import sys

    from ultrafix import InconsistentCertificate

    cert = certify(PLUS_SQUARE, Ball(q5, (0,), Fraction(1, 5)))
    assert dataclasses.replace(cert) == cert
    with pytest.raises(InconsistentCertificate, match="a = 1/|A\\^-1| - sigma > 0") as err:
        dataclasses.replace(cert, a=cert.a + 1, beta=Fraction(2))
    details = err.value.details
    assert details["failed"] == ["a = 1/|A^-1| - sigma > 0", "beta = 1 + sigma |A^-1|", "1 <= beta < 2"]
    assert (details["sigma"], details["a"], details["beta"], details["norm_A_inv"]) == ("1/5", "9/5", "2/1", "1/1")
    with pytest.raises(InconsistentCertificate) as err:
        dataclasses.replace(cert, norm_A_inv=Fraction(0))
    assert "sigma < 1/|A^-1|" in err.value.details["failed"]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in sys.path if p))
    out = subprocess.run([sys.executable, "-O", "-c", _INCONSISTENT], capture_output=True, text=True, env=env)
    assert out.returncode == 0, out.stderr
    assert json.loads(out.stdout) == details


def _arithmetic_solve_ball(cert, base, radius):
    """The sub-ball rule by its own distance and radius arithmetic, an
    oracle for the rule that asks Ball.contains_ball."""
    ball = cert.ball
    if base is None and radius is None:
        return ball
    base = ball.center_exact if base is None else tuple(Fraction(v) for v in base)
    radius = ball.radius if radius is None else Fraction(radius)
    if not ball.contains_rational(base):
        raise DomainViolation("base point outside the certified ball")
    desc = cert.descriptor
    if desc.ultrametric:
        if radius > ball.radius:
            raise DomainViolation("sub-ball radius exceeds the certified radius")
    else:
        dist = max(
            rational_abs(a - b, desc) for a, b in zip(base, ball.center_exact)
        )
        if dist + radius > ball.radius:
            raise DomainViolation("sub-ball leaves the certified ball")
    return Ball(desc, base, radius, closed=True)


def _sub_ball_outcome(solve, cert, base, radius):
    try:
        return solve(cert, base, radius)
    except DomainViolation:
        return "refused"


def test_sub_ball_rule_matches_the_distance_and_radius_arithmetic():
    # closed certified balls of an affine map (certifiable at any centre);
    # bases inside, on the boundary and outside; radii at, one p-power or a
    # hair above, and below the certified one and what is left of it
    rng = random.Random(1954)
    outcomes = {"refused": 0, "accepted": 0}
    for p in (None, 5, 7):
        desc = FieldDescriptor.real() if p is None else FieldDescriptor.padic(p, 6)
        for _ in range(250):
            n = rng.randint(1, 2)
            f = poly(n, *([(3, tuple(int(i == j) for i in range(n))), (1, (0,) * n)] for j in range(n)))
            center = tuple(Fraction(rng.randint(-30, 30), rng.randint(1, 5)) for _ in range(n))
            if p is None:
                r = Fraction(rng.randint(1, 40), rng.randint(1, 8))
                hair = Fraction(1, 10**12)
                offsets = (0, r, -r, r / 2, r + hair, Fraction(rng.randint(-80, 80), 16))
            else:
                k = rng.randint(-2, 3)
                r = Fraction(p) ** -k
                # |u p^(k + d)| = p^-(k + d): on the boundary at d = 0
                offsets = (0, *(rng.randint(1, p - 1) * Fraction(p) ** (k + d) for d in (-1, 0, 0, 1)))
            cert = certify(f, Ball(desc, center, r))
            base = tuple(c + rng.choice(offsets) for c in center) if rng.random() < 0.9 else None
            if base is None:
                dist = 0
            else:
                dist = max(rational_abs(a - c, desc) for a, c in zip(base, center))
            if p is None:
                radii = (r, r + hair, r - dist, r - dist + hair, Fraction(rng.randint(1, 40), 8))
                radius = rng.choice(radii)
                radius = radius if radius > 0 else r
            else:
                radius = r * Fraction(p) ** rng.choice((-2, -1, 0, 0, 1))
            radius = None if base is not None and rng.random() < 0.1 else radius
            got = _sub_ball_outcome(inverse._solve_ball, cert, base, radius)
            want = _sub_ball_outcome(_arithmetic_solve_ball, cert, base, radius)
            assert got == want, (desc, center, r, base, radius)
            outcomes["refused" if got == "refused" else "accepted"] += 1
    assert min(outcomes.values()) >= 200, outcomes
