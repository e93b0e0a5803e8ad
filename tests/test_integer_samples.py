"""The exact half of the identity suite and verify_distortion, which work on
integer vectors over one denominator, against the Fraction code they
replaced.

The functions prefixed `_fraction_` are verbatim copies of the exact path of
check_identities (its quotients, Jacobian application, per-sample evaluator
and mutation, with the field branches left out), of verify_distortion and of
the Fraction ball sampling and vector difference it read, as they were
before these worked on integer vectors.  Exact values are unique rationals
and the draws take the same random stream, so the reports must be equal by
repr, counterexamples and failure strings included, on every seeded case.
"""

import random
from fractions import Fraction
from operator import attrgetter

from ultrafix import calculus
from ultrafix.calculus import (
    IdentityReport,
    IdentityResult,
    MapSpec,
    QuotientPoint,
    check_identities,
    compose,
    diff_quotient,
    eval_map,
    jacobian_exact,
    quotient_map,
    second_quotient,
)
from ultrafix.errors import UltrafixError
from ultrafix.field import FieldDescriptor
from ultrafix.inverse import DistortionReport, certify, verify_distortion
from ultrafix.linalg import Ball, rat_mat_vec, rat_vec_norm
from ultrafix.sampling import _unit_ratio, scaling_element


# ---------------------------------------------------------------------------
# verbatim copies (the exact path only)


def _fraction_vec_add_scaled(x, y, t):
    tn, td = t.numerator, t.denominator
    return tuple(
        Fraction(
            a.numerator * b.denominator * td + tn * b.numerator * a.denominator,
            a.denominator * b.denominator * td,
        )
        for a, b in zip(x, y)
    )


def _fraction_divided_difference(u, v, t):
    tn, td = t.numerator, t.denominator
    return tuple(
        Fraction(
            (a.numerator * b.denominator - b.numerator * a.denominator) * td,
            a.denominator * b.denominator * tn,
        )
        for a, b in zip(u, v)
    )


class _FractionSampleEvaluator:
    """eval_map and Jacobian rows over the exact rationals that evaluate
    each distinct (map, point) only once."""

    def __init__(self):
        self._key = attrgetter("numerator", "denominator")
        self._seen = {}

    def __call__(self, f, point):
        key = ("value", id(f), tuple(map(self._key, point)))
        got = self._seen.get(key)
        if got is None:
            got = self._seen[key] = (f, eval_map(f, point))
        return got[1]

    def jacobian(self, f, x):
        key = ("jacobian", id(f), tuple(map(self._key, x)))
        got = self._seen.get(key)
        if got is None:
            got = self._seen[key] = (f, jacobian_exact(f, x))
        return got[1]


def _fraction_jacobian_apply(f, x, y, evaluate):
    if not (y and f.outputs):
        return (Fraction(0),) * f.codomain_dim
    rows = evaluate.jacobian(f, x)
    return rat_mat_vec(rows, y)


def _fraction_quotient_value(f, x, y, t, evaluate, mutation=None):
    if f.domain is not None:
        calculus._check_point_in_domain(f, x)
    if t == 0:
        return _fraction_jacobian_apply(f, x, y, evaluate)
    shifted = _fraction_vec_add_scaled(x, y, t)
    if f.domain is not None:
        calculus._check_point_in_domain(f, shifted)
        f = f.without_domain()
    fx = evaluate(f, x)
    q = _fraction_divided_difference(evaluate(f, shifted), fx, t)
    if mutation is not None:
        q = mutation(q)
    return q


def _fraction_second_quotient_value(f, a, b, t, evaluate, mutation=None):
    m = f.domain_dim
    if f.domain is not None:
        _fraction_check_inner_membership(f, a)
    if t == 0:
        return _fraction_jacobian_apply(quotient_map(f), a, b, evaluate)
    shifted = _fraction_vec_add_scaled(a, b, t)
    if f.domain is not None:
        _fraction_check_inner_membership(f, shifted)
    qa = _fraction_quotient_value(f, a[:m], a[m : 2 * m], a[2 * m], evaluate, mutation)
    qs = _fraction_quotient_value(f, shifted[:m], shifted[m : 2 * m], shifted[2 * m], evaluate, mutation)
    return _fraction_divided_difference(qs, qa, t)


def _fraction_check_inner_membership(f, a):
    m = f.domain_dim
    x, y, t = a[:m], a[m : 2 * m], a[2 * m]
    calculus._check_point_in_domain(f, x)
    if t != 0:
        calculus._check_point_in_domain(f, _fraction_vec_add_scaled(x, y, t))


def _fraction_quotient_offset_mutation(values):
    one = Fraction(1)
    return tuple(v + one for v in values)


def _fraction_values_equal(a, b):
    for u, v in zip(a, b):
        if u != v:
            return False
    return True


def _fraction_check_identities(f, sample_count, seed, mutation=None):
    mut = _fraction_quotient_offset_mutation if mutation == "quotient-offset" else None
    rng = random.Random(seed)
    f = f.without_domain()
    m = f.domain_dim
    g = calculus._companion_map(f.codomain_dim)

    def rat(nonzero=False):
        while True:
            q = Fraction(rng.randint(-9, 9), rng.randint(1, 9))
            if not nonzero or q != 0:
                return q

    def vec():
        return tuple(rat() for _ in range(m))

    results = [
        IdentityResult("chain_rule", 0, 0),
        IdentityResult("direction_difference", 0, 0),
        IdentityResult("quotient_scaling", 0, 0),
        IdentityResult("second_quotient_scaling", 0, 0),
    ]

    def record(res, ok, witness):
        res.samples += 1
        if not ok:
            res.failures += 1
            if res.counterexample is None:
                res.counterexample = witness

    gf = compose(g, f)
    for k in range(sample_count):
        ev = _FractionSampleEvaluator()
        x, y = vec(), vec()
        t = rat() if k % 4 else Fraction(0)

        lx, ly, lt = x, y, t
        lhs = _fraction_quotient_value(gf, lx, ly, lt, ev, mut)
        inner = _fraction_quotient_value(f, lx, ly, lt, ev, mut)
        rhs = _fraction_quotient_value(g, ev(f, lx), inner, lt, ev, mut)
        record(
            results[0],
            _fraction_values_equal(lhs, rhs),
            {"x": x, "y": y, "t": t, "lhs": lhs, "rhs": rhs},
        )

        y2 = vec()
        ly2 = y2
        qb = _fraction_quotient_value(f, lx, ly2, lt, ev, mut)
        shifted = _fraction_vec_add_scaled(lx, ly2, lt)
        qd = _fraction_quotient_value(
            f, shifted, tuple(a - b for a, b in zip(ly, ly2)), lt, ev, mut
        )
        record(
            results[1],
            _fraction_values_equal(tuple(a - b for a, b in zip(inner, qb)), qd),
            {"x": x, "y1": y, "y2": y2, "t": t},
        )

        tnz, s = rat(nonzero=True), rat()
        ltn, ls = tnz, s
        lhs3 = _fraction_quotient_value(f, lx, ly, ltn * ls, ev, mut)
        lhs3 = tuple(ltn * v for v in lhs3)
        rhs3 = _fraction_quotient_value(f, lx, tuple(ltn * v for v in ly), ls, ev, mut)
        record(results[2], _fraction_values_equal(lhs3, rhs3), {"x": x, "y": y, "t": tnz, "s": s})

        x1, y1 = vec(), vec()
        s1, s2 = rat(), rat(nonzero=True)
        lx1, ly1 = x1, y1
        ls1, ls2 = s1, s2
        lhs4 = _fraction_second_quotient_value(
            f, lx + ly + (ltn * ls,), lx1 + ly1 + (ltn * ls1,), ltn * ls2, ev, mut
        )
        t2 = ltn * ltn
        t3 = t2 * ltn
        lhs4 = tuple(t3 * v for v in lhs4)
        rhs4 = _fraction_second_quotient_value(
            f,
            lx + tuple(t2 * v for v in ly) + (ls / ltn,),
            tuple(ltn * v for v in lx1)
            + tuple(t3 * v for v in ly1)
            + (ls1,),
            ls2,
            ev,
            mut,
        )
        record(
            results[3],
            _fraction_values_equal(lhs4, rhs4),
            {"x": x, "y": y, "x1": x1, "y1": y1, "t": tnz, "s": s, "s1": s1, "s2": s2},
        )
    return IdentityReport(results)


def _fraction_sample_in_ball(rng, ball):
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


def _fraction_sample_pair_in_ball(rng, ball):
    while True:
        y = _fraction_sample_in_ball(rng, ball)
        z = _fraction_sample_in_ball(rng, ball)
        if y != z:
            return y, z


def _fraction_rat_vec_sub(u, v):
    return tuple(
        Fraction(a.numerator * b.denominator - b.numerator * a.denominator, a.denominator * b.denominator)
        for a, b in zip(u, v)
    )


def _fraction_verify_distortion(cert, f, samples, seed):
    rng = random.Random(seed)
    desc = cert.descriptor
    report = DistortionReport(pairs=samples, sandwich_failures=0, isometry_failures=0)
    f_free = f.without_domain()
    for _ in range(samples):
        y, z = _fraction_sample_pair_in_ball(rng, cert.ball)
        fy = eval_map(f_free, y)
        fz = eval_map(f_free, z)
        dist = rat_vec_norm(_fraction_rat_vec_sub(z, y), desc)
        image_step = _fraction_rat_vec_sub(fz, fy)
        fdist = rat_vec_norm(image_step, desc)
        if not cert.a * dist <= fdist <= cert.b * dist:
            report.sandwich_failures += 1
            if report.first_failure is None:
                report.first_failure = {
                    "kind": "sandwich",
                    "y": [str(v) for v in y],
                    "z": [str(v) for v in z],
                    "distance": str(dist),
                    "image_distance": str(fdist),
                }
        if desc.ultrametric:
            pulled = rat_vec_norm(rat_mat_vec(cert.A_inv, image_step), desc)
            if pulled != dist:
                report.isometry_failures += 1
                if report.first_failure is None:
                    report.first_failure = {
                        "kind": "isometry",
                        "y": [str(v) for v in y],
                        "z": [str(v) for v in z],
                        "distance": str(dist),
                        "pulled_distance": str(pulled),
                    }
    return report


# ---------------------------------------------------------------------------
# seeded cases


def _identity_map(rng, m, n):
    """1-4 monomials of degree 0-4 per output, small rational coefficients."""
    rows = []
    for _ in range(n):
        row = []
        for _ in range(rng.randint(1, 4)):
            exps = [0] * m
            for _ in range(rng.randint(0, 4) if m else 0):
                exps[rng.randrange(m)] += 1
            row.append((Fraction(rng.randint(-4, 4) or 1, rng.randint(1, 6)), tuple(exps)))
        rows.append(row)
    return MapSpec.from_coefficients(m, rows)


def test_exact_identity_reports_equal_the_fraction_suite():
    rng = random.Random(1901)
    runs = counterexamples = 0
    for m in (0, 1, 2, 3):
        for n in (1, 2, 3):
            for _ in range(5):
                f = _identity_map(rng, m, n)
                for mutation in (None, "quotient-offset"):
                    seed = rng.randrange(10**6)
                    got = check_identities(f, 16, seed, None, mutation)
                    assert repr(got) == repr(_fraction_check_identities(f, 16, seed, mutation)), (f, seed)
                    runs += 1
                    counterexamples += sum(r.counterexample is not None for r in got.results)
    assert runs == 120
    assert counterexamples >= 150  # the mutant's witnesses, lhs and rhs included


def _outcome(fn, *args):
    try:
        return repr(fn(*args))
    except UltrafixError as exc:
        return f"{exc.kind}: {exc}"


def test_public_quotients_equal_the_fraction_quotients():
    # diff_quotient and second_quotient are views over the integer core: on
    # rationals, with and without a domain, they give the Fraction values,
    # or the same DomainViolation
    rng = random.Random(1902)
    draw = lambda: Fraction(rng.randint(-9, 9), rng.randint(1, 9))  # noqa: E731
    outcomes = set()
    for m in (1, 2, 3):
        for _ in range(40):
            f = _identity_map(rng, m, rng.randint(1, 3))
            if rng.random() < 0.5:
                f = MapSpec(m, f.outputs, Ball(FieldDescriptor.real(), (0,) * m, 60))
            x, y = tuple(draw() for _ in range(m)), tuple(draw() for _ in range(m))
            t = draw() if rng.random() < 0.8 else Fraction(0)
            got = _outcome(diff_quotient, f, QuotientPoint(x, y, t))
            assert got == _outcome(_fraction_quotient_value, f, x, y, t, _FractionSampleEvaluator())
            a = x + y + (draw(),)
            b = tuple(draw() for _ in range(2 * m + 1))
            s = draw() if rng.random() < 0.8 else Fraction(0)
            got2 = _outcome(second_quotient, f, QuotientPoint(a, b, s))
            assert got2 == _outcome(_fraction_second_quotient_value, f, a, b, s, _FractionSampleEvaluator())
            outcomes |= {got.split(":")[0], got2.split(":")[0]}
    assert {"DomainViolation"} < outcomes


def _field(p):
    return FieldDescriptor.real() if p is None else FieldDescriptor.padic(p, 6)


def _linear_part(rng, p, n):
    """A = I + pR over Q_p, or with a p-multiple on a diagonal entry (not an
    isometry); diagonally dominant over the reals."""
    rows = []
    for i in range(n):
        if p is None:
            rows.append([Fraction(rng.choice((-1, 1)) * rng.randint(8, 16), 4) if i == j
                         else Fraction(rng.randint(-2, 2), 8) for j in range(n)])
        else:
            rows.append([int(i == j) + p * rng.randint(-2, 2) for j in range(n)])
    if p is not None and rng.random() < 0.3:
        rows[0][0] = p * (1 + p * rng.randint(0, 2))
    return rows


def _distortion_map(rng, p, A, degree):
    """x -> A x plus terms of degree 2-`degree` (none when degree < 2)."""
    n = len(A)
    rows = []
    for i in range(n):
        row = [(a, tuple(int(v == j) for v in range(n))) for j, a in enumerate(A[i])]
        for _ in range(rng.randint(1, 2) if degree >= 2 else 0):
            exps = [0] * n
            for _ in range(rng.randint(2, degree)):
                exps[rng.randrange(n)] += 1
            den = 8 if p is None else rng.choice([d for d in (1, 2, 3, 4) if d % p])
            row.append((Fraction(rng.randint(-3, 3) or 1, den), tuple(exps)))
        rows.append(row)
    return MapSpec.from_coefficients(n, rows)


def _centre(rng, p, n):
    if p is None:
        return tuple(Fraction(rng.randint(-40, 40), rng.randint(1, 16)) for _ in range(n))
    dens = [d for d in (1, 2, 3, 4, 7) if d % p]
    return tuple(rng.randint(-30, 30) * Fraction(p) ** rng.randint(-1, 2) / rng.choice(dens) for _ in range(n))


def test_distortion_reports_equal_the_fraction_checks():
    # certified balls over the reals, Q3, Q5 and Q7: affine maps at nonzero
    # centres (sigma = 0, certified anywhere), maps of degree 2-3 at the
    # origin, open balls too, and every certificate also checked against a
    # second map, which breaks its sandwich or its isometry
    rng = random.Random(1903)
    kinds = {"sandwich": 0, "isometry": 0, None: 0}
    nonzero_centres = 0
    for p in (None, 3, 5, 7):
        desc = _field(p)
        for case in range(40):
            n = rng.randint(1, 3)
            affine = case % 2 == 0
            f = _distortion_map(rng, p, _linear_part(rng, p, n), 1 if affine else 3)
            other = _distortion_map(rng, p, _linear_part(rng, p, n), rng.choice((1, 2, 3)))
            centre = _centre(rng, p, n) if affine else (0,) * n
            radius = Fraction(1, rng.choice((4, 8))) if p is None else Fraction(1, p ** rng.randint(1, 2))
            try:
                cert = certify(f, Ball(desc, centre, radius, closed=rng.random() < 0.7))
            except UltrafixError:
                continue
            nonzero_centres += any(centre)
            for g in (f, other):
                seed = rng.randrange(10**6)
                got = verify_distortion(cert, g, 30, seed)
                assert repr(got) == repr(_fraction_verify_distortion(cert, g, 30, seed)), (cert, g, seed)
                kinds[got.first_failure and got.first_failure["kind"]] += 1
    assert nonzero_centres >= 60
    assert kinds["sandwich"] >= 40 and kinds["isometry"] >= 10 and kinds[None] >= 100, kinds
