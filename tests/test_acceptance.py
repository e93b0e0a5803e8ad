"""Acceptance suite: one test per criterion, at the stated sample counts and
tolerances, each printing a single pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines as they complete.
"""

from __future__ import annotations

import random
from fractions import Fraction
from functools import lru_cache

import pytest

from ultrafix import (
    Ball,
    ContractionProblem,
    FieldDescriptor,
    MapSpec,
    Operator,
    Vector,
    admissible,
    build_window,
    certify,
    check_identities,
    eval_map,
    fixed_point_derivative,
    iterate_fixed_point,
    lipschitz_theta,
    local_invert,
    neumann_invert,
    operator_norm,
    solve_implicit,
    vec_norm,
    verify_distortion,
)
from ultrafix.calculus import substitute_prefix
from ultrafix.field import abs_upper_bound, rational_abs
from ultrafix.linalg import rat_mat_vec, rat_vec_norm
from ultrafix.sampling import sample_in_ball, sample_pair_in_ball, unit_fraction

Q5_8 = FieldDescriptor.padic(5, 8)
Q3_8 = FieldDescriptor.padic(3, 8)
Q7_8 = FieldDescriptor.padic(7, 8)
REAL = FieldDescriptor.real()


class _criterion:
    def __init__(self, name: str):
        self.name = name

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc, tb):
        status = "PASS" if exc_type is None else "FAIL"
        print(f"[acceptance] {status}: {self.name}")
        return False


def poly(m, *outputs):
    return MapSpec.from_coefficients(m, outputs)


# ---------------------------------------------------------------------------
# shared problem families


@lru_cache(maxsize=None)
def padic_certified():
    """Certified ultrametric inversion problems (anchor = center derivative)."""
    cases = [
        ("q5 x+x^2 small ball", Q5_8, poly(1, [(1, (1,)), (1, (2,))]), (0,), Fraction(1, 5)),
        ("q5 x+5x^2", Q5_8, poly(1, [(1, (1,)), (5, (2,))]), (0,), Fraction(1)),
        ("q5 x+5x^3", Q5_8, poly(1, [(1, (1,)), (5, (3,))]), (0,), Fraction(1)),
        ("q5 2x+25x^2", Q5_8, poly(1, [(2, (1,)), (25, (2,))]), (0,), Fraction(1)),
        ("q5 x+25x^2+5x^3", Q5_8, poly(1, [(1, (1,)), (25, (2,)), (5, (3,))]), (0,), Fraction(1, 5)),
        ("q5 x+x^3 small ball", Q5_8, poly(1, [(1, (1,)), (1, (3,))]), (0,), Fraction(1, 5)),
        (
            "q5 2d coupled",
            Q5_8,
            poly(2, [(1, (1, 0)), (5, (1, 1))], [(1, (0, 1)), (5, (0, 2))]),
            (0, 0),
            Fraction(1),
        ),
        (
            "q5 2d unipotent anchor",
            Q5_8,
            poly(2, [(1, (1, 0)), (1, (0, 1)), (5, (2, 0))], [(1, (0, 1)), (5, (1, 1))]),
            (0, 0),
            Fraction(1),
        ),
        (
            "q5 2d scaled anchor",
            Q5_8,
            poly(2, [(2, (1, 0)), (5, (0, 2))], [(3, (0, 1)), (5, (2, 0))]),
            (0, 0),
            Fraction(1),
        ),
        ("q3 x+3x^2", Q3_8, poly(1, [(1, (1,)), (3, (2,))]), (0,), Fraction(1)),
        ("q7 x+7x^2", Q7_8, poly(1, [(1, (1,)), (7, (2,))]), (0,), Fraction(1)),
    ]
    out = []
    for name, desc, f, center, radius in cases:
        ball = Ball(desc, center, radius)
        out.append((name, f, certify(f, ball)))
    return out


@lru_cache(maxsize=None)
def real_certified():
    cases = [
        ("2x+x^2/10", poly(1, [(2, (1,)), (Fraction(1, 10), (2,))]), (0,), Fraction(1)),
        ("x+x^2/8", poly(1, [(1, (1,)), (Fraction(1, 8), (2,))]), (0,), Fraction(1)),
        ("3x-x^3/20", poly(1, [(3, (1,)), (Fraction(-1, 20), (3,))]), (0,), Fraction(1)),
        ("affine", poly(1, [(3, (1,)), (7, (0,))]), (0,), Fraction(2)),
        (
            "2d symmetric",
            poly(
                2,
                [(2, (1, 0)), (Fraction(1, 2), (0, 1)), (Fraction(1, 20), (2, 0))],
                [(Fraction(1, 2), (1, 0)), (2, (0, 1)), (Fraction(1, 20), (0, 2))],
            ),
            (0, 0),
            Fraction(1),
        ),
        ("x+x^2/6 half ball", poly(1, [(1, (1,)), (Fraction(1, 6), (2,))]), (0,), Fraction(1, 2)),
        ("2x+x^3/30", poly(1, [(2, (1,)), (Fraction(1, 30), (3,))]), (0,), Fraction(1)),
        (
            "2d skew",
            poly(
                2,
                [(1, (1, 0)), (Fraction(1, 4), (0, 1)), (Fraction(1, 10), (1, 1))],
                [(Fraction(-1, 4), (1, 0)), (1, (0, 1)), (Fraction(1, 12), (2, 0))],
            ),
            (0, 0),
            Fraction(1),
        ),
        ("5x-x^2/9", poly(1, [(5, (1,)), (Fraction(-1, 9), (2,))]), (0,), Fraction(1)),
        ("x+x^4/40", poly(1, [(1, (1,)), (Fraction(1, 40), (4,))]), (0,), Fraction(1)),
    ]
    out = []
    for name, f, center, radius in cases:
        ball = Ball(REAL, center, radius)
        out.append((name, f, certify(f, ball)))
    return out


@lru_cache(maxsize=None)
def built_windows():
    saddle = poly(2, [(1, (0, 1)), (1, (0, 2)), (-1, (1, 0))])
    linear = poly(2, [(1, (0, 1)), (-1, (1, 0))])
    bilinear = poly(2, [(1, (0, 1)), (Fraction(1, 4), (1, 1)), (-1, (1, 0))])
    coupled = poly(
        3,
        [(1, (0, 1, 0)), (5, (0, 1, 1)), (-1, (1, 0, 0))],
        [(1, (0, 0, 1)), (5, (0, 2, 0)), (-2, (1, 0, 0))],
    )
    cases = [
        ("saddle q5", saddle, (0,), (0,), Q5_8, False),
        ("saddle real", saddle, (0,), (0,), REAL, False),
        ("linear q5", linear, (0,), (0,), Q5_8, False),
        ("bilinear real", bilinear, (0,), (0,), REAL, False),
        ("coupled 2d q5", coupled, (0,), (0, 0), Q5_8, False),
        ("saddle q5 exact image", saddle, (0,), (0,), Q5_8, True),
        ("coupled 2d q5 exact image", coupled, (0,), (0, 0), Q5_8, True),
    ]
    out = []
    for name, f, p0, x0, desc, exact in cases:
        if exact:
            w = build_window(f, p0, x0, descriptor=desc, exact_image=True)
        else:
            w = build_window(f, p0, x0, descriptor=desc)
        out.append((name, f, w))
    return out


# ---------------------------------------------------------------------------
# criterion 1: quotient identity suite


def random_polynomial_map(rng: random.Random) -> MapSpec:
    m = rng.randint(1, 3)
    n = rng.randint(1, 3)
    outputs = []
    for _ in range(n):
        monos = []
        for _ in range(rng.randint(2, 4)):
            exps = [0] * m
            for _ in range(rng.randint(0, 4)):
                exps[rng.randrange(m)] += 1
            coef = Fraction(rng.randint(-4, 4) or 1, rng.randint(1, 3))
            monos.append((coef, tuple(exps)))
        outputs.append(monos)
    return MapSpec.from_coefficients(m, outputs)


def test_criterion_quotient_identities():
    with _criterion(
        "quotient identities exact for 20 random maps x 100 points, Q5 and exact rationals"
    ):
        rng = random.Random(2024)
        q5 = FieldDescriptor.padic(5, 6)
        for index in range(20):
            f = random_polynomial_map(rng)
            seed = 1000 + index
            exact_report = check_identities(f, 100, seed)
            assert exact_report.passed, (index, exact_report.first_failure())
            field_report = check_identities(f, 100, seed, descriptor=q5)
            assert field_report.passed, (index, field_report.first_failure())
            for report in (exact_report, field_report):
                assert {r.name for r in report.results} == {
                    "chain_rule",
                    "direction_difference",
                    "quotient_scaling",
                    "second_quotient_scaling",
                }
                for r in report.results:
                    assert r.samples == 100 and r.failures == 0


# ---------------------------------------------------------------------------
# criterion 2: Neumann oracle


def test_criterion_neumann_oracle():
    with _criterion(
        "Neumann inverse: 50 padic (N=8) + 50 real contractive matrices, "
        "compose to identity, norm within 1/(1-||alpha||)"
    ):
        rng = random.Random(77)
        done_padic = 0
        while done_padic < 50:
            n = rng.randint(1, 3)
            rows = [
                [
                    Fraction(5 * rng.randint(-20, 20), rng.choice((1, 2, 3, 4, 6, 7)))
                    for _ in range(n)
                ]
                for _ in range(n)
            ]
            alpha = Operator.from_rationals(rows, Q5_8)
            if operator_norm(alpha) >= 1:
                continue
            inv, bound = neumann_invert(alpha)
            prod = (Operator.identity(n, Q5_8) - alpha).compose(inv)
            for i in range(n):
                for j in range(n):
                    want = Q5_8.one() if i == j else Q5_8.zero()
                    assert prod.entries[i][j] == want
            assert operator_norm(inv) <= bound
            done_padic += 1
        done_real = 0
        while done_real < 50:
            n = rng.randint(1, 3)
            rows = [
                [Fraction(rng.randint(-9, 9), 20 * n) for _ in range(n)]
                for _ in range(n)
            ]
            alpha = Operator.from_rationals(rows, REAL)
            if operator_norm(alpha) >= 1:
                continue
            inv, bound = neumann_invert(alpha)
            prod = (Operator.identity(n, REAL) - alpha).compose(inv)
            for i in range(n):
                for j in range(n):
                    want = 1.0 if i == j else 0.0
                    assert abs(prod.entries[i][j].value - want) <= 1e-9
            assert operator_norm(inv) <= bound + 1e-9
            done_real += 1


# ---------------------------------------------------------------------------
# criterion 3: contraction estimates


def contraction_problems():
    problems = []
    rng = random.Random(55)
    for _ in range(10):
        c = Fraction(rng.randint(-20, 20) or 5)
        theta_coef = Fraction(5 * rng.randint(1, 4))
        d = Fraction(5 * rng.randint(0, 3))
        f = poly(1, [(c, (0,)), (theta_coef, (1,)), (d, (2,))])
        ball = Ball(Q5_8, (0,), Fraction(1))
        problems.append(ContractionProblem(f, ball, lipschitz_theta(f, ball), (0,)))
    for k in range(10):
        a = Fraction(rng.randint(-10, 10) or 3, 10)
        b = Fraction(rng.randint(-3, 3), 100)
        f = poly(1, [(a, (0,)), (Fraction(1, 2), (1,)), (b, (2,))])
        ball = Ball(REAL, (0,), Fraction(4))
        problems.append(ContractionProblem(f, ball, lipschitz_theta(f, ball), (0,)))
    return problems


def test_criterion_contraction_estimates():
    with _criterion(
        "contraction traces: 20 admissible problems obey the stepwise, pairwise "
        "and limit bounds (exact padic, 1e-12 real); two starts agree"
    ):
        checked = 0
        for prob in contraction_problems():
            assert admissible(prob)
            report = iterate_fixed_point(prob)
            desc = prob.descriptor
            theta, d0 = report.theta, report.initial_distance
            slack = Fraction(0) if desc.ultrametric else Fraction(1, 10**12)
            for k, step in enumerate(report.step_distances):
                assert Fraction(step) <= theta**k * d0 + slack
            trace = report.trace
            for n in range(len(trace)):
                for k in range(len(trace) - n):
                    d = vec_norm(trace[n + k] - trace[n])
                    bound = theta**n * (1 - theta**k) / (1 - theta) * d0
                    assert Fraction(d) <= bound + slack
                d_fix = vec_norm(trace[n] - report.fixed_point)
                assert Fraction(d_fix) <= theta**n / (1 - theta) * d0 + max(
                    slack, Fraction(2, 10**9)
                )
            # a second admissible start reaches the same fixed point
            other = Fraction(1, 2) if not desc.ultrametric else Fraction(5)
            second = ContractionProblem(prob.f, prob.domain, prob.theta, (other,))
            if admissible(second):
                report2 = iterate_fixed_point(second)
                for u, v in zip(
                    report.fixed_point.components, report2.fixed_point.components
                ):
                    assert u == v
            checked += 1
        assert checked >= 20


# ---------------------------------------------------------------------------
# criterion 4: padic golden values


def test_criterion_padic_golden_values():
    with _criterion(
        "golden values: 5+x^2 converges to 280 mod 625; x+x^2 inverts 5 to 230 mod 625"
    ):
        q5 = FieldDescriptor.padic(5, 4)
        # oracles first: enumerate the residues
        fix_roots = [x for x in range(625) if (x * x - x + 5) % 625 == 0 and x % 5 == 0]
        inv_roots = [v for v in range(625) if (v * v + v - 5) % 625 == 0 and v % 5 == 0]
        assert fix_roots == [280] and inv_roots == [230]

        five_sq = poly(1, [(5, (0,)), (1, (2,))])
        prob = ContractionProblem(
            five_sq, Ball(q5, (0,), Fraction(1, 5)), Fraction(1, 5), (0,)
        )
        got = iterate_fixed_point(prob).fixed_point.components[0]
        assert got.to_rational() % 625 == 280
        assert (280 * 280 - 280 + 5) % 625 == 0

        plus_sq = poly(1, [(1, (1,)), (1, (2,))])
        cert = certify(plus_sq, Ball(q5, (0,), Fraction(1, 5)))
        sol = local_invert(cert, plus_sq, (5,)).components[0]
        assert sol.to_rational() % 625 == 230
        assert (230 * 230 + 230 - 5) % 625 == 0


# ---------------------------------------------------------------------------
# criterion 5: ultrametric isometry and exact ball image


def test_criterion_ultrametric_isometry_and_exact_image():
    with _criterion(
        "10+ certified padic problems: pullback isometry exact on 1000 pairs, "
        "bidirectional image roundtrips on 1000 targets/sources, zero failures"
    ):
        problems = padic_certified()
        assert len(problems) >= 10
        for index, (name, f, cert) in enumerate(problems):
            report = verify_distortion(cert, f, 1000, seed=300 + index)
            assert report.passed, (name, report.first_failure)
            assert report.isometry_failures == 0

            rng = random.Random(600 + index)
            desc = cert.descriptor
            ball = cert.ball
            n = ball.dim
            scale = 1 / ball.radius  # rational with |scale| = radius
            fc = eval_map(f, ball.center_exact)
            # sources: f maps the ball into the described image
            for _ in range(500):
                v = sample_in_ball(rng, ball)
                w = eval_map(f, v)
                pulled = rat_vec_norm(
                    rat_mat_vec(cert.A_inv, tuple(a - b for a, b in zip(w, fc))), desc
                )
                assert pulled <= ball.radius, name
            # targets: every described point pulls back to a solution
            for _ in range(500):
                u = tuple(scale * unit_fraction(rng, desc) for _ in range(n))
                w = tuple(
                    fc[i] + sum(Fraction(cert.A[i][j]) * u[j] for j in range(n))
                    for i in range(n)
                )
                got = local_invert(cert, f, w)
                assert ball.contains_tracked(got), name
                image = eval_map(f, got)
                diff = image - Vector.from_rationals(w, desc)
                assert diff.is_zero(), name


# ---------------------------------------------------------------------------
# criterion 6: real sandwich


def test_criterion_real_sandwich():
    with _criterion(
        "10+ certified real problems: 1000 sampled pairs inside [a, b] distortion, "
        "all targets in the inner image ball solvable"
    ):
        problems = real_certified()
        assert len(problems) >= 10
        for index, (name, f, cert) in enumerate(problems):
            ball = cert.ball
            rng = random.Random(900 + index)
            for _ in range(1000):
                y, z = sample_pair_in_ball(rng, ball)
                dist = rat_vec_norm(tuple(u - v for u, v in zip(z, y)), REAL)
                fdist = rat_vec_norm(
                    tuple(u - v for u, v in zip(eval_map(f, z), eval_map(f, y))), REAL
                )
                assert cert.a * dist <= fdist <= cert.b * dist, name
            # solvable inner targets around the center image
            fc = eval_map(f, ball.center_exact)
            inner = cert.a * ball.radius
            for _ in range(100):
                w = tuple(
                    fc[i] + inner * unit_fraction(rng, REAL, strict=True)
                    for i in range(ball.dim)
                )
                got = local_invert(cert, f, w)
                assert ball.contains_tracked(got), name
                image = [c.value for c in eval_map(f, got).components]
                for u, v in zip(image, w):
                    assert abs(u - float(v)) <= 1e-6, name


# ---------------------------------------------------------------------------
# criterion 7: derivative formula against re-solve quotients


def padic_digits_agree(diff_scalar, needed: int) -> bool:
    p = diff_scalar.descriptor.prime
    return abs_upper_bound(diff_scalar) <= Fraction(p) ** (-needed)


def padic_derivative_cases():
    # nonlinear coefficients sit deep (valuation >= 6) so the re-solve quotient
    # agrees with the derivative to N - m digits; spec calls these well-scaled
    cases = []
    for k in range(6):
        a = Fraction(k + 1)
        c = Fraction((k % 3 + 1) * 5**6)
        cases.append(poly(2, [(a, (1, 0)), (5, (0, 1)), (c, (0, 2))]))
    return cases


def real_derivative_cases():
    cases = []
    for k in range(6):
        a = Fraction(k + 1, 4)
        c = Fraction(k + 1, 40)
        cases.append(poly(2, [(a, (1, 0)), (Fraction(1, 2), (0, 1)), (c, (0, 2))]))
    return cases


def _solve_family_member(f, p, desc, ball, target):
    prob = ContractionProblem(
        substitute_prefix(f, (p,)), ball, lipschitz_theta(substitute_prefix(f, (p,)), ball), ball.center_exact
    )
    return iterate_fixed_point(prob, target).fixed_point


def test_criterion_derivative_formula():
    with _criterion(
        "fixed-point and implicit derivatives match re-solve quotients on 12 problems "
        "each (padic: N-m digits at t=p^m; real: 1e-5 at t=1e-6)"
    ):
        # fixed-point derivative, padic
        ball5 = Ball(Q5_8, (0,), Fraction(1))
        count_fp = 0
        for f in padic_derivative_cases():
            p = Fraction(1)
            x_p = _solve_family_member(f, p, Q5_8, ball5, None)
            D = fixed_point_derivative(f, (p,), x_p)
            for m in (1, 2, 3):
                t = Fraction(5**m)
                x_t = _solve_family_member(f, p + t, Q5_8, ball5, None)
                tq = Q5_8.from_rational(t)
                for i in range(1):
                    quotient = (x_t.components[i] - x_p.components[i]) / tq
                    expect = D.entries[i][0]
                    assert padic_digits_agree(quotient - expect, 8 - m), (f, m)
            count_fp += 1
        # fixed-point derivative, real
        ball_r = Ball(REAL, (0,), Fraction(1))
        for f in real_derivative_cases():
            p = Fraction(1, 8)
            tiny = Fraction(1, 10**13)
            x_p = _solve_family_member(f, p, REAL, ball_r, tiny)
            D = fixed_point_derivative(f, (p,), x_p)
            t = Fraction(1, 10**6)
            x_t = _solve_family_member(f, p + t, REAL, ball_r, tiny)
            quotient = (x_t.components[0].value - x_p.components[0].value) / float(t)
            assert quotient == pytest.approx(D.entries[0][0].value, rel=1e-5)
            count_fp += 1
        assert count_fp >= 10

        # implicit derivative, padic
        count_imp = 0
        for f in padic_implicit_cases():
            w = build_window(f, (0,), (0,), descriptor=Q5_8)
            p = Fraction(1)
            sol = solve_implicit(w, f, (p,))
            for m in (1, 2, 3):
                t = Fraction(5**m)
                sol_t = solve_implicit(w, f, (p + t,))
                tq = Q5_8.from_rational(t)
                quotient = (
                    sol_t.lambda_value.components[0] - sol.lambda_value.components[0]
                ) / tq
                expect = sol.derivative.entries[0][0]
                assert padic_digits_agree(quotient - expect, 8 - m), (f, m)
            count_imp += 1
        # implicit derivative, real
        for f in real_implicit_cases():
            w = build_window(f, (0,), (0,), descriptor=REAL)
            p = w.p_ball.radius / 4
            tiny = Fraction(1, 10**13)
            sol = solve_implicit(w, f, (p,), target_precision=tiny)
            t = Fraction(1, 10**6)
            sol_t = solve_implicit(w, f, (p + t,), target_precision=tiny)
            quotient = (
                sol_t.lambda_value.components[0].value
                - sol.lambda_value.components[0].value
            ) / float(t)
            assert quotient == pytest.approx(
                sol.derivative.entries[0][0].value, rel=1e-5
            )
            count_imp += 1
        assert count_imp >= 10


def padic_implicit_cases():
    cases = []
    for k in range(6):
        a = Fraction(k + 1)
        c = Fraction((k % 3 + 1) * 5**6)
        # x - a p - c x^2 = 0 defines lambda(p) with unit-scale derivative
        cases.append(poly(2, [(1, (0, 1)), (-a, (1, 0)), (-c, (0, 2))]))
    return cases


def real_implicit_cases():
    cases = []
    for k in range(6):
        a = Fraction(k + 1, 4)
        c = Fraction(k + 1, 30)
        cases.append(poly(2, [(1, (0, 1)), (-a, (1, 0)), (-c, (0, 2))]))
    return cases


# ---------------------------------------------------------------------------
# criterion 8: window soundness


def test_criterion_window_soundness():
    with _criterion(
        "windows: 100 sampled (p, c) with ||c - z0|| < delta all solve into the "
        "state ball; exact-image targets shared across 10 parameters"
    ):
        for index, (name, f, window) in enumerate(built_windows()):
            desc = window.descriptor
            rng = random.Random(2100 + index)
            exact = not isinstance(window.target_ball, Ball)
            for _ in range(100):
                p = sample_in_ball(rng, window.p_ball)
                if exact:
                    c = window.z0
                elif desc.ultrametric:
                    c = sample_in_ball(rng, window.target_ball)
                else:
                    c = tuple(
                        z + window.delta * unit_fraction(rng, desc, strict=True)
                        for z in window.z0
                    )
                if not exact:
                    assert (
                        max(
                            rational_abs(a - b, desc)
                            for a, b in zip(c, window.z0)
                        )
                        < window.delta
                    )
                sol = solve_implicit(window, f, p, c)
                assert window.state_ball.contains_tracked(sol.lambda_value), name

        # ultrametric windows share one exact target set across parameters
        for name, f, window in built_windows():
            if isinstance(window.target_ball, Ball):
                continue
            rng = random.Random(4242)
            target = window.target_ball
            n = window.state_ball.dim
            scale = 1 / target.radius
            for _ in range(10):
                p = sample_in_ball(rng, window.p_ball)
                for _ in range(20):
                    v = sample_in_ball(rng, window.state_ball)
                    assert target.contains(eval_map(f, p + v)), name
                for _ in range(10):
                    u = tuple(
                        scale * unit_fraction(rng, window.descriptor) for _ in range(n)
                    )
                    c = tuple(
                        target.center[i]
                        + sum(Fraction(target.A[i][j]) * u[j] for j in range(n))
                        for i in range(n)
                    )
                    sol = solve_implicit(window, f, p, c)
                    assert window.state_ball.contains_tracked(sol.lambda_value), name


# ---------------------------------------------------------------------------
# criterion 9: soundness of the strictness bound


def test_criterion_sigma_soundness():
    with _criterion(
        "strictness bound dominates 1000 sampled difference quotients on every "
        "certified problem and window"
    ):
        for index, (name, f, cert) in enumerate(padic_certified() + real_certified()):
            rng = random.Random(1300 + index)
            desc = cert.descriptor
            for _ in range(1000):
                y, z = sample_pair_in_ball(rng, cert.ball)
                fy, fz = eval_map(f, y), eval_map(f, z)
                num = max(
                    rational_abs(
                        fz[i]
                        - fy[i]
                        - sum(
                            Fraction(cert.A[i][j]) * (z[j] - y[j])
                            for j in range(len(z))
                        ),
                        desc,
                    )
                    for i in range(len(fy))
                )
                den = max(rational_abs(z[j] - y[j], desc) for j in range(len(z)))
                assert num <= cert.sigma * den, name
        for index, (name, f, window) in enumerate(built_windows()):
            rng = random.Random(1700 + index)
            cert = window.cert
            desc = window.descriptor
            mp = window.p_ball.dim
            for _ in range(1000):
                p = sample_in_ball(rng, window.p_ball)
                y, z = sample_pair_in_ball(rng, window.state_ball)
                fy = eval_map(f, p + y)
                fz = eval_map(f, p + z)
                num = max(
                    rational_abs(
                        fz[i]
                        - fy[i]
                        - sum(
                            Fraction(cert.A[i][j]) * (z[j] - y[j])
                            for j in range(len(z))
                        ),
                        desc,
                    )
                    for i in range(len(fy))
                )
                den = max(rational_abs(z[j] - y[j], desc) for j in range(len(z)))
                assert num <= cert.sigma * den, name


# ---------------------------------------------------------------------------
# criterion 10: CLI determinism


def test_criterion_cli_determinism():
    with _criterion("CLI: 16 fixture requests byte-identical across runs and to goldens"):
        from test_cli import CASES, GOLDEN, run_cli

        assert len(CASES) == 16
        for name, args in sorted(CASES.items()):
            first = run_cli(args)
            second = run_cli(args)
            assert first.returncode == 0
            assert first.stdout == second.stdout
            assert first.stdout == (GOLDEN / f"{name}.json").read_text()
