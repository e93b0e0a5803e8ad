"""The integer glue of the sampled oracles against the Fraction expressions it
replaced, and the reports of the two oracles against recorded digests.

The functions prefixed `_fraction_` are verbatim copies of x + t*y, of the
difference quotient (a - b)/t, of the Jacobian application (which takes its
rows from the evaluator it is given), of polynomial composition (with its
helpers `_poly_mul` and `_poly_pow`), of ball sampling, of the rational
matrix-vector product and of the rational absolute value, as they were
before these worked in integers.  Exact results are unique
normalised rationals, so the kernels must return Fractions with the same
numerator and denominator on every seeded case; field scalars take the
unchanged generic expressions and must give the same scalars.
"""

import hashlib
import random
from fractions import Fraction

from ultrafix import calculus
from ultrafix.calculus import MapSpec, check_identities, eval_map, jacobian, jacobian_exact
from ultrafix.contraction import ContractionProblem, iterate_fixed_point
from ultrafix.errors import DimensionMismatch, UltrafixError
from ultrafix.field import FieldDescriptor, Scalar, embed_rational, int_valuation, rational_abs
from ultrafix.implicit import build_window, solve_implicit
from ultrafix.inverse import certify, inversion_step_map, local_invert, verify_distortion
from ultrafix.linalg import Ball, int_vec_sub, int_vector, int_vector_fractions, rat_mat_vec
from ultrafix.sampling import sample_in_ball, scaling_element

PRIMES = (2, 3, 5, 7)
FIELDS = (None,) + PRIMES  # the reals, then Q2, Q3, Q5, Q7


def _field(p):
    return FieldDescriptor.real() if p is None else FieldDescriptor.padic(p, 6)


# ---------------------------------------------------------------------------
# verbatim copies


def _fraction_vec_add_scaled(x, y, t):
    return tuple(a + t * b for a, b in zip(x, y))


def _fraction_quotient(fs, fx, t):
    """The quotient step of _quotient_value and _second_quotient_value."""
    return tuple((a - b) / t for a, b in zip(fs, fx))


def _fraction_jacobian_apply(f, x, y, evaluate):
    rows = evaluate.jacobian(f, x)
    zero = x[0].descriptor.zero() if x and isinstance(x[0], Scalar) else Fraction(0)
    out = []
    for row in rows:
        total = zero
        for a, yj in zip(row, y):
            total = total + a * yj
        out.append(total)
    return tuple(out)


def _poly_mul(a: dict, b: dict) -> dict:
    out: dict[tuple[int, ...], Fraction] = {}
    for ea, ca in a.items():
        for eb, cb in b.items():
            key = tuple(x + y for x, y in zip(ea, eb))
            out[key] = out.get(key, Fraction(0)) + ca * cb
    return {e: c for e, c in out.items() if c != 0}


def _poly_pow(a: dict, n: int, dim: int) -> dict:
    out = {tuple([0] * dim): Fraction(1)}
    for _ in range(n):
        out = _poly_mul(out, a)
    return out


def _fraction_compose(g: MapSpec, f: MapSpec) -> MapSpec:
    """Exact polynomial composition g after f."""
    if g.domain_dim != f.codomain_dim:
        raise DimensionMismatch(
            f"composition needs codomain {g.domain_dim}, map produces {f.codomain_dim}"
        )
    dim = f.domain_dim
    f_dicts = [dict(out) for out in f.outputs]
    outputs = []
    for monomials in g.outputs:
        acc: dict[tuple[int, ...], Fraction] = {}
        for exps, coef in monomials:
            term = {tuple([0] * dim): coef}
            for j, e in enumerate(exps):
                if e:
                    term = _poly_mul(term, _poly_pow(f_dicts[j], e, dim))
            for key, c in term.items():
                acc[key] = acc.get(key, Fraction(0)) + c
        outputs.append(tuple(acc.items()))
    return MapSpec(dim, tuple(outputs), f.domain)


def _fraction_unit_fraction(rng, descriptor, strict=False):
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


def _fraction_sample_in_ball(rng, ball):
    strict = not ball.closed
    t = scaling_element(ball)
    return tuple(
        c + t * _fraction_unit_fraction(rng, ball.descriptor, strict)
        for c in ball.center_exact
    )


def _fraction_difference(u, v):
    """z - y and f(z) - f(y) in verify_distortion."""
    return tuple(a - b for a, b in zip(u, v))


def _fraction_rat_mat_vec(rows, v):
    return tuple(sum((Fraction(a) * Fraction(x) for a, x in zip(row, v)), Fraction(0)) for row in rows)


def _fraction_rational_valuation(q, p):
    q = Fraction(q)
    if q == 0:
        raise ValueError("valuation of zero is undefined")
    return int_valuation(q.numerator, p) - int_valuation(q.denominator, p)


def _fraction_rational_abs(q, descriptor):
    """|q| of an exact rational, as an exact Fraction for either backend."""
    q = Fraction(q)
    if descriptor.kind == "real":
        return abs(q)
    if q == 0:
        return Fraction(0)
    return Fraction(descriptor.prime) ** (-_fraction_rational_valuation(q, descriptor.prime))


# ---------------------------------------------------------------------------
# seeded cases


def _same(got, want):
    """Equal values, each a Fraction normalised as Fraction(n, d) makes it:
    the denominator positive and prime to the numerator."""
    assert len(got) == len(want)
    for a, b in zip(got, want):
        assert type(a) is Fraction
        assert (a.numerator, a.denominator) == (b.numerator, b.denominator)


def _same_scalars(got, want):
    assert [repr(a) for a in got] == [repr(b) for b in want]


def _rational(rng, p=None):
    """Zero, an int or a Fraction, with either sign; with a prime p, about
    half of them have p in the numerator or the denominator."""
    r = rng.random()
    if r < 0.15:
        return rng.choice((0, Fraction(0)))
    if r < 0.35:
        value = rng.randint(-30, 30)
    else:
        value = Fraction(rng.randint(-40, 40), rng.randint(1, 24))
    if p is not None and rng.random() < 0.5:
        k = rng.randint(1, 3)
        value = value * p**k if rng.random() < 0.5 else Fraction(value, p**k)
    return value


def _vector(rng, p, dim):
    return tuple(_rational(rng, p) for _ in range(dim))


def _fractions(rng, p, dim):
    """Evaluation outputs: always Fractions."""
    return tuple(Fraction(_rational(rng, p)) for _ in range(dim))


def _on_integers(op, u, v, t):
    """An exact operation of the identity suite on two rational vectors and
    a rational scalar, run on their integer forms and read back as
    Fractions."""
    t = Fraction(t)
    return int_vector_fractions(op(int_vector(u), int_vector(v), (t.numerator, t.denominator)))


def test_vec_add_scaled_equals_the_fraction_expression():
    rng = random.Random(1010)
    reduced = negative = 0
    for p in (None,) + PRIMES:
        for _ in range(120):
            dim = rng.randint(1, 5)
            x, y, t = _vector(rng, p, dim), _vector(rng, p, dim), _rational(rng, p)
            want = _fraction_vec_add_scaled(x, y, t)
            _same(_on_integers(calculus._ExactSamples.add_scaled, x, y, t), want)
            negative += t < 0
            # a coordinate whose integer fraction has a common factor to cancel
            reduced += any(
                w.denominator < Fraction(a).denominator * Fraction(b).denominator * Fraction(t).denominator
                for a, b, w in zip(x, y, want)
            )
    assert negative >= 150 and reduced >= 200


def test_int_vec_sub_equals_the_fraction_difference():
    rng = random.Random(1017)
    shared = 0
    for p in FIELDS:
        for _ in range(120):
            dim = rng.randint(1, 5)
            u, v = _fractions(rng, p, dim), _vector(rng, p, dim)
            _same(int_vector_fractions(int_vec_sub(int_vector(u), int_vector(v))), _fraction_difference(u, v))
            # both over one denominator: the numerators are subtracted
            (a, d), (b, e) = int_vector(u), int_vector(v)
            got = int_vec_sub((tuple(x * e for x in a), d * e), (tuple(y * d for y in b), d * e))
            _same(int_vector_fractions(got), _fraction_difference(u, v))
            shared += 1
    assert shared == 600


def test_divided_difference_equals_the_quotient_expression():
    rng = random.Random(1011)
    negative = 0
    for p in (None,) + PRIMES:
        for _ in range(120):
            dim = rng.randint(1, 5)
            fs, fx = _fractions(rng, p, dim), _vector(rng, p, dim)
            t = _rational(rng, p) or rng.choice((-1, 1, Fraction(-3, 7)))
            _same(_on_integers(calculus._ExactSamples.divided_difference, fs, fx, t), _fraction_quotient(fs, fx, t))
            negative += t < 0
    assert negative >= 150


def _seeded_map(rng, p, nvars, outputs):
    rows = []
    for _ in range(outputs):
        row = []
        for _ in range(rng.randint(1, 4)):
            exps = [0] * nvars
            for _ in range(rng.choice((0, 1, 1, 2, 3))):
                exps[rng.randrange(nvars)] += 1
            row.append((Fraction(_rational(rng, p)) or Fraction(1, 3), tuple(exps)))
        rows.append(row)
    return MapSpec.from_coefficients(nvars, rows)


class _Rows:
    """The Jacobian rows the fold above reads: exact rows for rationals,
    the entries of the field Jacobian for scalars."""

    @staticmethod
    def jacobian(f, x):
        return jacobian(f, x).entries if isinstance(x[0], Scalar) else jacobian_exact(f, x)


def test_jacobian_apply_equals_the_fraction_fold():
    rng = random.Random(1012)
    cases = 0
    for p in FIELDS:
        desc = _field(p)
        for nvars in (1, 2, 3, 4):
            for outputs in (1, 2, 3):
                for _ in range(8):
                    f = _seeded_map(rng, p, nvars, outputs)
                    x, y = _vector(rng, p, nvars), _vector(rng, p, nvars)
                    # through the per-sample evaluator, as check_identities calls it
                    ev = calculus._ExactSamples()
                    got = ev.derivative(f, int_vector(x), int_vector(y))
                    _same(int_vector_fractions(got), _fraction_jacobian_apply(f, x, y, _Rows))
                    lx = tuple(embed_rational(v, 1, desc) for v in x)
                    ly = tuple(embed_rational(v, 1, desc) for v in y)
                    ev = calculus._samples(desc)  # over Q_p on the scalars' triples
                    got = ev.show(ev.derivative(f, ev.enter(lx), ev.enter(ly)))
                    _same_scalars(got, _fraction_jacobian_apply(f, lx, ly, _Rows))
                    cases += 1
    assert cases == 480


def _compose_operand(rng, p, nvars, outputs):
    """A map with 0-4 monomials per output (an empty output too) of degree
    0-3; in half of them the last output repeats the first, so that terms
    of g after this map may cancel."""
    rows = []
    for _ in range(outputs):
        row = []
        for _ in range(rng.choice((0, 1, 2, 2, 3, 4))):
            exps = [0] * nvars
            for _ in range(rng.choice((0, 1, 1, 2, 3)) if nvars else 0):
                exps[rng.randrange(nvars)] += 1
            row.append((Fraction(_rational(rng, p)) or Fraction(1, 3), tuple(exps)))
        rows.append(row)
    if outputs > 1 and rng.random() < 0.5:
        rows[-1] = rows[0]
    return MapSpec.from_coefficients(nvars, rows)


def _expanded_sizes(g, f):
    """Per output of g after f, how many exponents its expanded monomials
    reach before they are summed."""
    dim = f.domain_dim
    sizes = []
    for monomials in g.outputs:
        keys = set()
        for exps, coef in monomials:
            term = {(0,) * dim: coef}
            for j, e in enumerate(exps):
                if e:
                    term = _poly_mul(term, _poly_pow(dict(f.outputs[j]), e, dim))
            keys |= term.keys()
        sizes.append(len(keys))
    return sizes


def test_compose_equals_the_fraction_composition():
    rng = random.Random(1018)
    seen = {"domain": 0, "empty_output": 0, "no_variables": 0, "cancelled": 0}
    pairs = 0
    for p in FIELDS:
        desc = _field(p)
        for _ in range(110):
            m, n = rng.randint(0, 3), rng.randint(0, 3)
            f = _compose_operand(rng, p, m, n)
            g = _compose_operand(rng, p, n, rng.randint(1, 3))
            if n > 1 and f.outputs[0] == f.outputs[-1]:
                # c y^a - c y^b, b being a with y_0's exponent moved to the
                # last variable: the two sum to zero after f
                a = [rng.randint(1, 2)] + [rng.randint(0, 1) for _ in range(n - 1)]
                b = [0] + a[1:-1] + [a[-1] + a[0]]
                c = Fraction(_rational(rng, p)) or Fraction(2, 3)
                first = g.outputs[0] + ((tuple(a), c), (tuple(b), -c))
                g = MapSpec(n, (first,) + g.outputs[1:])
            if m and rng.random() < 0.3:
                radius = Fraction(1, 2) if p is None else Fraction(p) ** rng.randint(-1, 2)
                f = MapSpec(m, f.outputs, Ball(desc, _vector(rng, p, m), radius))
                seen["domain"] += 1
            got, want = calculus.compose(g, f), _fraction_compose(g, f)
            assert (got.domain_dim, got.outputs, got.domain) == (want.domain_dim, want.outputs, want.domain), (g, f)
            seen["empty_output"] += any(not out for out in got.outputs)
            seen["no_variables"] += m == 0
            seen["cancelled"] += any(len(out) < k for out, k in zip(got.outputs, _expanded_sizes(g, f)))
            pairs += 1
    assert pairs >= 500
    assert min(seen.values()) >= 50, seen


def test_field_scalars_keep_the_generic_expressions():
    rng = random.Random(1013)
    for p in FIELDS:
        desc = _field(p)
        for _ in range(60):
            dim = rng.randint(1, 4)
            lift = lambda v: embed_rational(v, 1, desc)  # noqa: E731
            x = tuple(map(lift, _vector(rng, p, dim)))
            y = tuple(map(lift, _vector(rng, p, dim)))
            t = lift(_rational(rng, p) or 3)
            ev = calculus._samples(desc)  # over Q_p on the scalars' triples
            vx, vy, vt = ev.enter(x), ev.enter(y), ev.enter1(t)
            _same_scalars(ev.show(ev.add_scaled(vx, vy, vt)), _fraction_vec_add_scaled(x, y, t))
            if not t.is_zero():
                _same_scalars(ev.show(ev.divided_difference(vx, vy, vt)), _fraction_quotient(x, y, t))


def test_sample_in_ball_equals_the_fraction_draws():
    rng = random.Random(1014)
    cases = 0
    for p in FIELDS:
        desc = _field(p)
        for _ in range(40):
            dim = rng.randint(1, 4)
            if p is None:
                radius = Fraction(rng.randint(1, 9), rng.randint(1, 9))
            else:
                radius = Fraction(p) ** rng.randint(-2, 3)
            ball = Ball(desc, _vector(rng, p, dim), radius, closed=rng.random() < 0.5)
            seed = rng.randrange(10**6)
            got, want = random.Random(seed), random.Random(seed)
            for _ in range(5):
                _same(sample_in_ball(got, ball), _fraction_sample_in_ball(want, ball))
                cases += 1
            assert got.random() == want.random()  # the same draws were taken
    assert cases == 1000


def test_rat_mat_vec_equals_the_fraction_sum():
    rng = random.Random(1015)
    for p in FIELDS:
        for _ in range(80):
            n, m = rng.randint(1, 5), rng.randint(1, 5)
            rows = [_vector(rng, p, m) for _ in range(n)]
            v = _vector(rng, p, m)
            _same(rat_mat_vec(rows, v), _fraction_rat_mat_vec(rows, v))
    # strings and floats are read through Fraction
    for rows, v in (([["1/2", 3]], (Fraction(1, 3), "2/5")), ([[0.5, 2]], (1, 0.25)), ([], (1,))):
        _same(rat_mat_vec(rows, v), _fraction_rat_mat_vec(rows, v))


def test_rational_abs_equals_the_fraction_power():
    rng = random.Random(1016)
    for p in FIELDS:
        desc = _field(p)
        for _ in range(200):
            q = _rational(rng, p)
            _same((rational_abs(q, desc),), (_fraction_rational_abs(q, desc),))
        for q in ("-7/50", 0.375, True, 0, -(p or 2) ** 5):
            _same((rational_abs(q, desc),), (_fraction_rational_abs(q, desc),))


# ---------------------------------------------------------------------------
# report digests

# sha256 of the report reprs below, and for check_identities of the two sides
# of every identity it compared, as the two oracles gave them before their
# exact glue worked in integers
IDENTITY_DIGESTS = {
    "exact None": "32d359d92c94f9e03f27d242cefed2951dc7def78e1ced00d149add12bc1053a",
    "exact quotient-offset": "9d6d14d1e15031415cec48c3c33e4f5e359ebc7b90db969853eefc04b687fe1c",
    "Q5 None": "5444c95a1909d44a1175a7b01d500d276ef0558e142bdb63c23e987d2fa28035",
    "Q5 quotient-offset": "7728b2e8b4e273a7213fb914df8755cca1dd8e86ad0440c5b4ee6f443bf9da08",
    "real None": "5e807ca45a94375d7c6129b8ac8e2c2d907cc284cee858cb0a409b308a393d7f",
    "real quotient-offset": "3b6111397bf43ac072fb76defae235a69087f50a7164550820c02db2efc519ea",
}
DISTORTION_DIGESTS = {
    "5": "babb31ab1ff093ded0d89ca8d9eb910fa97b1166cc37e780a2c53c0343449361",
    "7": "924a2d0cae9e9445d69b6ec1dc62d7252ad8a53dfc84491509faf3d363815cc7",
    "None": "e287de4e138c966c5f88ca69726d1aa031accf821ccb35f98031cefc5955efc7",
}


def _identity_map(rng, m, n):
    rows = []
    for _ in range(n):
        row = []
        for _ in range(rng.randint(1, 3)):
            exps = [0] * m
            for _ in range(rng.randint(0, 3)):
                exps[rng.randrange(m)] += 1
            row.append((Fraction(rng.randint(-4, 4) or 1, rng.choice((1, 2, 3, 5))), tuple(exps)))
        rows.append(row)
    return MapSpec.from_coefficients(m, rows)


def identity_report_texts(monkeypatch):
    """Per field (exact, Q5, real) and mutation, the reprs of the reports of
    check_identities on 100 seeded maps, each followed by the reprs of the
    (lhs, rhs) pairs it compared: a report whose identities all hold has no
    counterexample, so only these pairs carry its computed values."""
    compared = []

    def recording(samples):
        equal = vars(samples)["equal"]  # a method or a staticmethod

        def wrapper(self, lhs, rhs):
            compared.append(repr((self.show(lhs), self.show(rhs))))
            return equal.__get__(self)(lhs, rhs)

        monkeypatch.setattr(samples, "equal", wrapper)

    # exact values are integer vectors and Q_p values triples, each recorded
    # as the Fractions or scalars they stand for
    for samples in (calculus._ExactSamples, calculus._PadicSamples, calculus._FieldSamples):
        recording(samples)
    texts = {}
    for field in ("exact", "Q5", "real"):
        desc = {"exact": None, "Q5": FieldDescriptor.padic(5, 6), "real": FieldDescriptor.real()}[field]
        for mutation in (None, "quotient-offset"):
            rng = random.Random(f"identities {field} {mutation}")
            reports = []
            for _ in range(100):
                f = _identity_map(rng, rng.randint(1, 3), rng.randint(1, 3))
                reports.append(repr(check_identities(f, 4, rng.randrange(10**6), desc, mutation)))
                reports.extend(compared)
                compared.clear()
            texts[f"{field} {mutation}"] = reports
    return texts


def _distortion_map(rng, p, n, bent):
    """A linear part A (I + pR over Q_p, diagonally dominant over the reals)
    and terms of degree 2-3; bent, the first output is scaled by p or 1/16,
    which breaks the certificate of the unbent map."""
    rows = []
    for i in range(n):
        row = []
        for j in range(n):
            if p is None:
                a = Fraction(rng.choice((-1, 1)) * rng.randint(8, 16), 4) if i == j else Fraction(rng.randint(-2, 2), 8)
            else:
                a = int(i == j) + p * rng.randint(-2, 2)
            row.append((a, tuple(int(v == j) for v in range(n))))
        for _ in range(rng.randint(1, 2)):
            exps = [0] * n
            for _ in range(rng.randint(2, 3)):
                exps[rng.randrange(n)] += 1
            den = 8 if p is None else rng.choice([d for d in (1, 2, 3, 4) if d % p])
            row.append((Fraction(rng.randint(-3, 3) or 1, den), tuple(exps)))
        if bent and i == 0:  # a smaller first output: the lower bound a fails
            row = [(c * (Fraction(1, 16) if p is None else p), e) for c, e in row]
        rows.append(row)
    return MapSpec.from_coefficients(n, rows)


def distortion_report_texts():
    """Per field (Q5, Q7, real), the reprs of the verify_distortion reports of
    100 seeded certified maps, each also run on a bent copy that breaks its
    sandwich or its isometry."""
    texts = {}
    for p in (5, 7, None):
        desc = _field(p)
        rng = random.Random(f"distortion {p}")
        reports = []
        for _ in range(100):
            n = rng.randint(1, 3)
            state = rng.getstate()
            f = _distortion_map(rng, p, n, False)
            rng.setstate(state)
            bent = _distortion_map(rng, p, n, True)
            if p is None:
                center = tuple(Fraction(rng.randint(-2, 2), 16) for _ in range(n))
                radius = Fraction(1, rng.choice((4, 8)))
            else:
                center = tuple(Fraction(p * rng.randint(-3, 3), rng.choice([d for d in (1, 2, 3) if d % p])) for _ in range(n))
                radius = Fraction(1, p ** rng.randint(1, 2))
            seed = rng.randrange(10**6)
            try:
                cert = certify(f, Ball(desc, center, radius))
            except UltrafixError as exc:
                reports.append(f"{exc.kind}: {exc}")
                continue
            reports.append(repr(verify_distortion(cert, f, 20, seed)))
            reports.append(repr(verify_distortion(cert, bent, 20, seed)))
        texts[str(p)] = reports
    return texts


def _digest(reports):
    return hashlib.sha256("\n".join(reports).encode()).hexdigest()


def test_identity_reports_hash_equal_to_the_recorded_ones(monkeypatch):
    texts = identity_report_texts(monkeypatch)
    assert {key: _digest(r) for key, r in texts.items()} == IDENTITY_DIGESTS
    assert len(set(IDENTITY_DIGESTS.values())) == 6
    for reports in texts.values():
        assert sum(r.startswith("IdentityReport(") for r in reports) == 100
        assert len(reports) == 100 + 100 * 4 * 4  # 4 samples of 4 identities per map
    failed = sum("counterexample={" in r for key, r2 in texts.items() if "offset" in key for r in r2)
    assert failed >= 250  # the mutation's counterexamples are in the digests


def test_distortion_reports_hash_equal_to_the_recorded_ones():
    texts = distortion_report_texts()
    assert {key: _digest(r) for key, r in texts.items()} == DISTORTION_DIGESTS
    for reports in texts.values():
        assert sum(r.startswith("DistortionReport(") for r in reports) == 200  # 100 maps certified
        assert sum("first_failure={" in r for r in reports) >= 50


# sha256 of the solver reports below, as they were before MapSpec stored its
# integer table
SOLVER_DIGESTS = {
    "None": "ec3feee7f504c9d2ee6dc5524b0c3081af37d551a036df4fa8dc5cef32207a9b",
    "3": "8c5104267b4686c4c1c5c3a70816f12de552c309ab99922213a697af61b2cc7d",
    "5": "fb7fceb7be9a2091bbbfb47e22ae468e41680893166ece07c9b14b4e64b54df1",
    "7": "5561774a18b581cd54f17af983f15cade37e51cb4e69f7dc1ddf57a82e77bee5",
}


def _solver_case(rng, p, n):
    """A nonlinear map of `_distortion_map`, its ball, and a target near the
    image of the ball's centre."""
    f = _distortion_map(rng, p, n, False)
    if p is None:
        center = tuple(Fraction(rng.randint(-2, 2), 16) for _ in range(n))
        radius = Fraction(1, rng.choice((4, 8)))
        nudge = radius / 64
    else:
        center = tuple(Fraction(p * rng.randint(-3, 3), rng.choice([d for d in (1, 2, 3) if d % p])) for _ in range(n))
        e = rng.randint(1, 2)
        radius, nudge = Fraction(1, p**e), Fraction(p ** (e + 1), rng.choice([d for d in (1, 2, 3) if d % p]))
    c = tuple(v + nudge * rng.randint(-3, 3) for v in eval_map(f, center))
    return f, center, radius, c


def solver_report_texts():
    """Per field (reals, Q3, Q5, Q7; N = 4, 8 or 16 digits), the reprs of
    certify, local_invert and iterate_fixed_point on 40 seeded nonlinear
    maps: the certificate, the preimage of a target near f(centre) (Newton
    at N = 16 in one variable) and the Banach report of the inversion step
    map from the centre."""
    texts = {}
    for p in (None, 3, 5, 7):
        rng = random.Random(f"solvers {p}")
        reports = []
        for k in range(40):
            desc = FieldDescriptor.real() if p is None else FieldDescriptor.padic(p, (4, 8, 16)[k % 3])
            f, center, radius, c = _solver_case(rng, p, rng.randint(1, 3))
            cert = certify(f, Ball(desc, center, radius))
            step = ContractionProblem(inversion_step_map(cert, f, c), cert.ball, cert.theta, center)
            reports += [repr(cert), repr(local_invert(cert, f, c)), repr(iterate_fixed_point(step))]
        texts[str(p)] = reports
    return texts


def test_solver_reports_hash_equal_to_the_recorded_ones():
    texts = solver_report_texts()
    assert {key: _digest(r) for key, r in texts.items()} == SOLVER_DIGESTS
    assert len(set(SOLVER_DIGESTS.values())) == 4


# sha256 of the deep answers below, as they were before a p-adic pass solved
# its step to W - v digits and a solve ended at the pass that proves its digits
DEEP_ANSWER_DIGESTS = {
    "3": "3b33ea706404b29df036a952553301c4e5dc8b1aabfdcb3dfbc9594d559737f5",
    "5": "bf8715ab6dcdc09c880d2c828b328ea2673950bed655fa8b9ccb600d30be6995",
    "7": "568c7523c5f36bcb92c94b02a4e923381d65a81f44eb678b77288e0e1e0ec955",
}


def _unit(rng, p):
    return rng.choice((-1, 1)) * (rng.randint(1, p - 1) + p * rng.randint(0, p - 1))


def _deep_map(rng, p, n, params=0, coupled=True):
    """Rows B q + (I + pR) x + u x^a + c x^b over params + n variables, as
    the benchmark's p-adic maps, u a unit and c p-integral; not `coupled`,
    output i reads x_i alone, so a zero coordinate of the target is an
    exactly zero coordinate of the solution."""
    nvars = params + n

    def monomial(i, degree):
        exps = [0] * nvars
        for _ in range(degree):
            exps[params + (rng.randrange(n) if coupled else i)] += 1
        return tuple(exps)

    rows = []
    for i in range(n):
        row = [(_unit(rng, p), tuple(int(k == j) for k in range(nvars))) for j in range(params)]
        for j in range(n) if coupled else (i,):
            if a := int(i == j) + p * rng.randint(-2, 2) * coupled:
                row.append((a, tuple(int(k == params + j) for k in range(nvars))))
        row.append((Fraction(_unit(rng, p), rng.choice([d for d in (1, 2, 4) if d % p])), monomial(i, 2)))
        row.append((Fraction(rng.randint(-3, 3) or 1, rng.choice([d for d in (1, 2, 3) if d % p])), monomial(i, 3)))
        rows.append(row)
    return MapSpec.from_coefficients(nvars, rows)


def deep_answer_texts():
    """Per prime (Q3, Q5, Q7), the reprs of the local_invert and
    solve_implicit answers at N = 64, 256 and 1024 digits in 1-3 variables,
    each at the default target p^-N and at a target p^-k, k < N, where the
    a priori cap binds below N: targets of valuation 1 on coupled maps, and
    targets (p a, 0, p^2 b) on decoupled ones, whose solutions have
    coordinates of different valuations and an exactly zero one."""
    texts = {}
    for p in (3, 5, 7):
        rng = random.Random(f"deep answers {p}")
        answers = []
        for N in (64, 256, 1024):
            desc = FieldDescriptor.padic(p, N)
            targets = (None, Fraction(1, p ** rng.randint(2, N - 1)))
            for n in (1, 2, 3):
                ball = Ball(desc, (0,) * n, Fraction(1, p))
                coupled = _deep_map(rng, p, n)
                c = tuple(Fraction(p * _unit(rng, p), rng.choice([d for d in (1, 2, 4) if d % p])) for _ in range(n))
                decoupled = _deep_map(rng, p, n, coupled=False)
                z = (p * _unit(rng, p), 0, p**2 * _unit(rng, p))[:n]
                for f, target in ((coupled, c), (decoupled, z)):
                    cert = certify(f, ball)
                    answers += [repr(local_invert(cert, f, target, target_precision=t)) for t in targets]
            for n in (1, 2):
                f = _deep_map(rng, p, n, params=1)
                window = build_window(f, (0,), (0,) * n, descriptor=desc)
                q = (p * _unit(rng, p),)
                answers += [repr(solve_implicit(window, f, q, target_precision=t).lambda_value) for t in targets]
        texts[str(p)] = answers
    return texts


def test_deep_newton_answers_hash_equal_to_the_recorded_ones():
    texts = deep_answer_texts()
    assert {key: _digest(r) for key, r in texts.items()} == DEEP_ANSWER_DIGESTS
    assert len(set(DEEP_ANSWER_DIGESTS.values())) == 3
    for answers in texts.values():
        assert len(answers) == 3 * (3 * 2 * 2 + 2 * 2)
        assert sum("Padic(O(" in a for a in answers) == 12  # the decoupled maps' zero coordinates
