import random
from fractions import Fraction

import pytest

from ultrafix import (
    Ball,
    DomainViolation,
    FieldDescriptor,
    MapSpec,
    OutsideWindow,
    SingularA,
    WindowNotFound,
    build_window,
    eval_map,
    solve_implicit,
    implicit,
    contraction,
)
from ultrafix.contraction import uniform_family_check
from ultrafix.field import rational_abs
from ultrafix.sampling import sample_in_ball, unit_fraction


def poly(m, *outputs):
    return MapSpec.from_coefficients(m, outputs)


# f(p, x) = x + x^2 - p
SADDLE = poly(2, [(1, (0, 1)), (1, (0, 2)), (-1, (1, 0))])


def test_build_window_golden(q5):
    w = build_window(SADDLE, (0,), (0,), descriptor=q5)
    assert w.p_ball.radius == Fraction(1, 5)
    assert w.state_ball.radius == Fraction(1, 5)
    assert w.cert.sigma == Fraction(1, 5)
    assert w.delta == Fraction(4, 5) * Fraction(1, 5) / 2 == Fraction(2, 25)


def test_build_window_linear(q5):
    lin = poly(2, [(1, (0, 1)), (-1, (1, 0))])
    w = build_window(lin, (0,), (0,), descriptor=q5)
    assert w.cert.sigma == 0
    assert w.delta == w.state_ball.radius / 2
    assert w.p_ball.radius == Fraction(1)


def test_uniform_sigma_bilinear_example(real):
    # f(p, x) = x + p x on p-radius 1/4, state radius 1
    f = poly(2, [(1, (0, 1)), (1, (1, 1))])
    p_ball = Ball(real, (0,), Fraction(1, 4))
    state_ball = Ball(real, (0,), 1)
    sigma = uniform_family_check(implicit.affine_map(f, ((1,),), ((0, -1),)), p_ball, state_ball)
    assert sigma == Fraction(1, 4)
    # oracle: sampled uniform quotients stay below the bound
    rng = random.Random(3)
    for _ in range(500):
        p = sample_in_ball(rng, p_ball)
        y = sample_in_ball(rng, state_ball)
        z = sample_in_ball(rng, state_ball)
        if y == z:
            continue
        fy = eval_map(f, p + y)[0]
        fz = eval_map(f, p + z)[0]
        quotient = abs(fz - fy - (z[0] - y[0])) / abs(z[0] - y[0])
        assert quotient <= sigma


def test_solve_implicit_padic_golden(q5):
    w = build_window(SADDLE, (0,), (0,), descriptor=q5)
    sol = solve_implicit(w, SADDLE, (5,))
    lam = sol.lambda_value.components[0]
    assert (lam.to_rational() ** 2 + lam.to_rational() - 5) % 5**4 == 0
    assert lam.to_rational() % 5**4 == 230
    d = sol.derivative.entries[0][0]
    assert (d.to_rational() * (1 + 2 * 230) - 1) % 5**4 == 0
    assert sol.residual == 0


def test_solve_implicit_real_linear(real):
    f = poly(2, [(Fraction(1, 2), (0, 1)), (-1, (1, 0)), (1, (0, 0))])
    w = build_window(f, (1,), (0,), descriptor=real)
    sol = solve_implicit(w, f, (Fraction(9, 8),))
    assert sol.lambda_value.components[0].value == pytest.approx(0.25, abs=1e-9)
    assert sol.derivative.entries[0][0].value == pytest.approx(2.0, rel=1e-12)


def test_solve_at_anchor_returns_start(q5, real):
    for desc in (q5, real):
        w = build_window(SADDLE, (0,), (0,), descriptor=desc)
        sol = solve_implicit(w, SADDLE, (0,))
        assert sol.lambda_value.components[0].is_zero()


def test_graph_property(q5):
    w = build_window(SADDLE, (0,), (0,), descriptor=q5)
    rng = random.Random(9)
    hits = 0
    while hits < 30:
        p = sample_in_ball(rng, w.p_ball)
        y = sample_in_ball(rng, w.state_ball)
        z0 = eval_map(SADDLE, p + y)
        if not w.target_contains(z0):
            continue
        hits += 1
        sol = solve_implicit(w, SADDLE, p, z0)
        assert sol.lambda_value.components[0] == w.descriptor.from_rational(y[0])


def test_window_soundness_sampled(q5, real):
    for desc in (q5, real):
        w = build_window(SADDLE, (0,), (0,), descriptor=desc)
        rng = random.Random(13)
        for _ in range(40):
            p = sample_in_ball(rng, w.p_ball)
            if desc.ultrametric:
                c = sample_in_ball(rng, w.target_ball)
            else:
                c = (w.z0[0] + w.delta * unit_fraction(rng, desc, strict=True),)
            assert rational_abs(c[0] - w.z0[0], desc) < w.delta
            sol = solve_implicit(w, SADDLE, p, c)
            assert w.state_ball.contains_tracked(sol.lambda_value)


def test_ultrametric_window_shared_image(q5):
    w = build_window(SADDLE, (0,), (0,), descriptor=q5, exact_image=True)
    assert w.target_ball.exact
    assert w.target_ball.radius == w.state_ball.radius == Fraction(1, 5)
    rng = random.Random(21)
    params = [sample_in_ball(rng, w.p_ball) for _ in range(10)]
    # the image is the same set V for every parameter: forward and backward
    for p in params:
        for _ in range(20):
            v = sample_in_ball(rng, w.state_ball)
            assert w.target_ball.contains(eval_map(SADDLE, p + v))
        for _ in range(10):
            c = (w.z0[0] + 5 * unit_fraction(rng, q5),)
            assert w.target_ball.contains(c)
            sol = solve_implicit(w, SADDLE, p, c)
            assert w.state_ball.contains_tracked(sol.lambda_value)


def test_ultrametric_window_shifted_linear(q5):
    # f(p, x) = x - p at p0 = 5: the image ball sits at x0 - p0
    lin = poly(2, [(1, (0, 1)), (-1, (1, 0))])
    w = build_window(lin, (5,), (0,), descriptor=q5, exact_image=True)
    assert w.z0 == (-5,)
    assert w.target_ball.contains((-5 + 1,)) and w.target_ball.contains((-5,))
    assert not w.target_ball.contains((Fraction(-5, 7) + Fraction(1, 5),))


def test_ultrametric_window_scaled_anchor(q5):
    # state derivative 5*id scales the image radius by 1/5
    f = poly(2, [(5, (0, 1)), (-1, (1, 0)), (25, (0, 3))])
    w = build_window(f, (0,), (0,), descriptor=q5, exact_image=True)
    r = w.state_ball.radius
    assert w.target_ball.exact and r == 1
    # pullback membership: |A^-1 w| <= 1 means |w| <= 1/5, e.g. the rational 5
    assert w.target_ball.contains((5,))
    assert not w.target_ball.contains((1,))
    rng = random.Random(2)
    for _ in range(100):
        v = sample_in_ball(rng, w.state_ball)
        img = eval_map(f, (Fraction(0),) + v)
        assert w.target_ball.contains(img)


def test_outside_window_errors(q5):
    w = build_window(SADDLE, (0,), (0,), descriptor=q5)
    with pytest.raises(OutsideWindow):
        solve_implicit(w, SADDLE, (1,))
    with pytest.raises(OutsideWindow):
        solve_implicit(w, SADDLE, (5,), (1,))


def test_singular_anchor(q5):
    f = poly(2, [(1, (0, 2)), (-1, (1, 0))])
    with pytest.raises(SingularA):
        build_window(f, (0,), (0,), descriptor=q5)


def test_window_not_found_when_shrinking_capped(real):
    wild = poly(2, [(1, (0, 1)), (1000, (0, 2)), (-1, (1, 0))])
    with pytest.raises(WindowNotFound):
        build_window(wild, (0,), (0,), descriptor=real, max_shrink=2)


def test_derivative_matches_resolve(q5_deep):
    # nonlinear coefficient deep enough that the quotient agrees to N-m digits
    eps = Fraction(5**6)
    f = poly(2, [(1, (1, 0)), (5, (0, 1)), (eps, (0, 2))])
    # fixed point of x = p + 5x + eps x^2 near 0 for small p
    w = build_window(
        poly(2, [(-1, (1, 0)), (1, (0, 1)), (-5, (0, 1)), (-eps, (0, 2))]),
        (0,),
        (0,),
        descriptor=q5_deep,
    )
    # lambda solves x - 5x - eps x^2 = p  i.e.  p + 5x + eps x^2 = x
    p = (Fraction(5),)
    sol = solve_implicit(w, poly(2, [(-1, (1, 0)), (1, (0, 1)), (-5, (0, 1)), (-eps, (0, 2))]), p)
    lam = sol.lambda_value.components[0]
    assert (lam.to_rational() - 5 * lam.to_rational() - eps * lam.to_rational() ** 2 - 5) % 5**8 == 0


def test_deep_padic_solve_implicit_takes_newton_steps(monkeypatch):
    # one solve through newton_fixed_point, and every pass it takes is a
    # Newton pass
    entries, solves, passes = [], [], []
    entry, solve, one_pass = implicit.newton_fixed_point, contraction._padic_solve, contraction._newton_pass
    monkeypatch.setattr(implicit, "newton_fixed_point", lambda *a: entries.append(a) or entry(*a))
    monkeypatch.setattr(contraction, "_padic_solve", lambda *a, **k: solves.append(a) or solve(*a, **k))
    monkeypatch.setattr(contraction, "_newton_pass", lambda *a: passes.append(a[5]) or one_pass(*a))
    w = build_window(SADDLE, (0,), (0,), descriptor=FieldDescriptor.padic(5, 48))
    sol = solve_implicit(w, SADDLE, (5,))
    assert len(entries) == len(solves) == 1 and passes and set(passes) == {True}
    (lam,) = sol.lambda_value.components
    x = lam.to_rational()
    assert lam.prec >= 48 and (x * x + x - 5) % 5**lam.prec == 0
    assert x % 5**4 == 230 and sol.residual == 0


# f(p, x) = x + 1000 x^2 - p: over the reals sigma = 2000 r, so the strictness
# search shrinks to r = 2^-12 and the drift search twice more
WILD = poly(2, [(1, (0, 1)), (1000, (0, 2)), (-1, (1, 0))])


def test_window_not_found_carries_its_numbers(real):
    with pytest.raises(WindowNotFound) as info:
        build_window(WILD, (0,), (0,), descriptor=real, max_shrink=2)
    assert str(info.value) == "strictness bound stayed above 1/2 after 2 shrinks"
    assert info.value.details == {"radius": "1/2", "sigma": "1000/1", "tau": "1/2"}
    # f(p, x) = x - 1000 p: sigma is 0 at radius 1, but the drift 1000 rho
    # does not fit in the cap r/2 after 2 shrinks
    steep = poly(2, [(1, (0, 1)), (-1000, (1, 0))])
    with pytest.raises(WindowNotFound) as info:
        build_window(steep, (0,), (0,), descriptor=real, max_shrink=2)
    assert str(info.value) == "parameter drift would not fit the window after 2 shrinks"
    assert info.value.details == {"radius": "1/2", "drift": "500/1", "cap": "1/2"}


def test_window_builds_its_residual_and_drift_maps_once(monkeypatch, real):
    calls = dict.fromkeys(("affine_map", "substitute_prefix"), 0)
    for name in calls:
        def counting(*args, _name=name, _real=getattr(implicit, name), **kwargs):
            calls[_name] += 1
            return _real(*args, **kwargs)

        monkeypatch.setattr(implicit, name, counting)
    w = build_window(WILD, (0,), (0,), descriptor=real)
    # 12 shrinks of the strictness search and 2 of the drift search
    assert (w.state_ball.radius, w.p_ball.radius) == (Fraction(1, 2**12), Fraction(1, 2**14))
    # f - A.x, and A^-1 f with the state fixed at x0
    assert calls == {"affine_map": 2, "substitute_prefix": 1}


@pytest.mark.parametrize("field", ["q5", "real"])
def test_windows_stay_in_the_maps_domain(request, field):
    desc = request.getfixturevalue(field)
    radius = Fraction(1, 625) if desc.ultrametric else Fraction(1, 100)
    domain = Ball(desc, (0, 0), radius)
    f = MapSpec(2, SADDLE.outputs, domain)
    w = build_window(f, (0,), (0,), descriptor=desc)
    # the domainless window is wider; this one lies in the domain
    assert build_window(SADDLE, (0,), (0,), descriptor=desc).state_ball.radius > radius
    r = w.state_ball.radius
    assert r <= radius and w.p_ball.radius <= r
    assert domain.contains_ball(Ball(desc, (0, 0), r))
    inside, outside = (Fraction(625), Fraction(5)) if desc.ultrametric else (Fraction(1, 1000), Fraction(1, 50))
    (lam,) = solve_implicit(w, f, (inside,)).lambda_value.to_rationals()
    assert domain.contains_rational((inside, lam))
    with pytest.raises(OutsideWindow):
        solve_implicit(w, f, (outside,))
    with pytest.raises(DomainViolation):
        build_window(f, (outside,), (0,), descriptor=desc)


def test_no_window_of_an_anchor_on_a_closed_domains_sphere(real):
    # every real ball around a point of the sphere leaves the closed domain
    f = MapSpec(2, SADDLE.outputs, Ball(real, (0, 0), Fraction(1, 100)))
    with pytest.raises(WindowNotFound) as info:
        build_window(f, (Fraction(1, 100),), (0,), descriptor=real, max_shrink=3)
    assert str(info.value) == "no window within 3 shrinks lies in the map's domain"
    assert info.value.details == {"radius": "1/4"}
