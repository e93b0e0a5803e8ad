import random
from fractions import Fraction

import pytest

from ultrafix import (
    DivisionByZero,
    FieldDescriptor,
    PrecisionExhausted,
    SchemaError,
    embed_rational,
    field_abs,
    field_arith,
    rational_abs,
)
from ultrafix.field import PRIME_BOUND, _is_prime, floor_log, int_valuation
from ultrafix.field import PadicScalar, _padic_make, padic_polynomial, padic_scalar
from ultrafix.field import _padic_div, unit_inverse
from functools import reduce
from ultrafix import contraction, field
from ultrafix.errors import SingularMatrix
from ultrafix.linalg import Ball, Operator, Vector, vec_norm
from ultrafix.linalg import invert_exact


# The n-ary sum that was the package's addition rule, kept verbatim: the
# oracle of `a + b`, `a - b` and padic_polynomial.
def padic_sum(desc, terms) -> PadicScalar:
    """The sum of a sequence of p-adic scalars of `desc`, normalised once.

    This is the one addition rule.  Exact zeros drop out; the sum of the
    other terms is known modulo p^m, m their least `prec`.  Their units are
    added as one integer at base = the least of their `val`s and m (a
    bounded zero O(p^k) adds nothing but makes m <= k), and `_padic_make`
    normalises the total once.  That equals the left fold of two-term sums:
    reducing mod p^m at each step agrees with reducing once at the end.  No
    terms, or only exact zeros, give the exact zero.
    """
    m = base = None
    for s in terms:
        prec = s.prec
        if prec is None:
            continue
        low = prec if s.val is None else s.val
        if m is None:
            m, base = prec, low
        else:
            if prec < m:
                m = prec
            if low < base:
                base = low
    if m is None:
        return desc.zero()
    p = desc.prime
    r = 0
    for s in terms:
        if s.val is not None:
            r += s.unit * p ** (s.val - base)
    return padic_scalar(desc, _padic_make(desc, base, r, m))


def test_padic_integer_addition(q5):
    a = embed_rational(5, 1, q5)
    b = embed_rational(20, 1, q5)
    s = field_arith(a, b, "add")
    assert s.val == 2
    assert s.to_rational() == 25


def test_padic_division_golden(q5):
    # oracle: the unique residue u mod 5^4 with 4*u = -1 mod 5^4
    oracle = next(u for u in range(5**4) if (4 * u + 1) % 5**4 == 0)
    assert oracle == 156
    q = field_arith(embed_rational(-1, 1, q5), embed_rational(4, 1, q5), "div")
    assert q.to_rational() % 5**4 == oracle
    assert q.digit_list() == [1, 1, 1, 1]


def test_real_addition(real):
    s = field_arith(embed_rational(1, 2, real), embed_rational(1, 4, real), "add")
    assert s.value == 0.75


def test_abs_examples(q5, real):
    assert field_abs(embed_rational(5, 1, q5)) == Fraction(1, 5)
    assert field_abs(embed_rational(1, 25, q5)) == 25
    assert field_abs(embed_rational(-3, 1, real)) == 3.0


def test_embed_golden(q5):
    e = embed_rational(-1, 4, q5)
    assert e.val == 0 and e.digit_list() == [1, 1, 1, 1]
    # multiply back mod 5^4
    assert (e.to_rational() * 4 + 1) % 5**4 == 0
    z = embed_rational(0, 1, q5)
    assert z.is_exact_zero()
    fifth = embed_rational(1, 5, q5)
    assert fifth.val == -1 and fifth.digit_list()[0] == 1
    assert field_abs(fifth) == 5


def test_embed_zero_denominator(q5):
    with pytest.raises(DivisionByZero):
        embed_rational(1, 0, q5)


def test_abs_multiplicative(q5, real):
    rng = random.Random(11)
    for _ in range(300):
        n1, n2 = rng.randint(-500, 500) or 1, rng.randint(-500, 500) or 1
        d1, d2 = rng.randint(1, 60), rng.randint(1, 60)
        a = embed_rational(n1, d1, q5)
        b = embed_rational(n2, d2, q5)
        assert field_abs(field_arith(a, b, "mul")) == field_abs(a) * field_abs(b)
        ar = embed_rational(n1, d1, real)
        br = embed_rational(n2, d2, real)
        prod = field_abs(field_arith(ar, br, "mul"))
        assert prod == pytest.approx(field_abs(ar) * field_abs(br), rel=1e-12)


def test_ultrametric_inequality_with_equality_case(q5):
    rng = random.Random(7)
    for _ in range(400):
        a = embed_rational(rng.randint(-300, 300) or 3, rng.randint(1, 40), q5)
        b = embed_rational(rng.randint(-300, 300) or 7, rng.randint(1, 40), q5)
        s = field_arith(a, b, "add")
        na, nb = field_abs(a), field_abs(b)
        assert field_abs(s) <= max(na, nb)
        if na != nb:
            assert field_abs(s) == max(na, nb)


def test_embed_roundtrip(q5):
    rng = random.Random(3)
    for _ in range(200):
        n = rng.randint(-400, 400)
        d = rng.randint(1, 80)
        e = embed_rational(n, d, q5)
        back = field_arith(e, embed_rational(d, 1, q5), "mul")
        assert back == embed_rational(n, 1, q5)


def test_cancellation_tracks_precision(q5):
    a = embed_rational(7, 3, q5)
    diff = field_arith(a, a, "sub")
    assert diff.is_zero() and not diff.is_exact_zero()
    assert diff.prec == a.prec
    # near-cancellation raises the valuation and trims known digits
    b = field_arith(a, embed_rational(-7, 3, q5), "add")
    assert b.is_zero()
    c = field_arith(embed_rational(6, 1, q5), embed_rational(-1, 1, q5), "add")
    assert c.val == 1 and c.prec == 4  # 5 with one digit fewer than an embed


def test_division_by_tracked_zero(q5):
    a = embed_rational(2, 1, q5)
    hidden = field_arith(a, a, "sub")
    with pytest.raises(PrecisionExhausted):
        field_arith(a, hidden, "div")
    with pytest.raises(DivisionByZero):
        field_arith(a, q5.zero(), "div")
    with pytest.raises(DivisionByZero):
        field_arith(embed_rational(1, 1, FieldDescriptor.real()), FieldDescriptor.real().zero(), "div")


def test_descriptor_validation():
    with pytest.raises(SchemaError):
        FieldDescriptor.padic(6, 4)
    with pytest.raises(SchemaError):
        FieldDescriptor.padic(5, 0)
    with pytest.raises(SchemaError):
        FieldDescriptor("padic")


def test_rational_abs(q5, real):
    assert rational_abs(Fraction(10, 3), q5) == Fraction(1, 5)
    assert rational_abs(Fraction(-9, 25), q5) == 25
    assert rational_abs(0, q5) == 0
    assert rational_abs(Fraction(-7, 2), real) == Fraction(7, 2)


def test_ops_agree_with_exact_rational_arithmetic(q5):
    # oracle: compute in Q exactly, re-embed, compare at tracked precision
    rng = random.Random(23)
    ops = {
        "add": lambda a, b: a + b,
        "sub": lambda a, b: a - b,
        "mul": lambda a, b: a * b,
        "div": lambda a, b: a / b,
    }
    for _ in range(500):
        qa = Fraction(rng.randint(-300, 300), rng.randint(1, 50))
        qb = Fraction(rng.randint(-300, 300) or 7, rng.randint(1, 50))
        op = rng.choice(list(ops))
        if op == "div" and qb == 0:
            continue
        got = field_arith(embed_rational(qa, 1, q5), embed_rational(qb, 1, q5), op)
        want = embed_rational(ops[op](qa, qb), 1, q5)
        assert got == want, (qa, qb, op)


def test_truncate_negative_valuation(q5):
    a = embed_rational(1, 25, q5)  # val -2, known mod 5^2
    t = padic_scalar(q5, _padic_make(q5, a.val, a.unit, 0))
    assert t.val == -2 and t.prec == 0 and t.digit_list() == [1, 0]


def test_known_precision_never_exceeds_val_plus_n(q5):
    rng = random.Random(19)
    scalars = [
        embed_rational(rng.randint(-200, 200) or 1, rng.randint(1, 30), q5)
        for _ in range(40)
    ]
    for a in scalars:
        for b in scalars:
            for op in ("add", "sub", "mul"):
                c = field_arith(a, b, op)
                if c.val is not None:
                    assert c.prec - c.val <= q5.precision


# reference oracles: the one-power-at-a-time walks floor_log replaced


def _guaranteed_power_walk(bound: Fraction, p: int) -> Fraction:
    """Largest p-power <= bound."""
    power = Fraction(1)
    while power > bound:
        power /= p
    while power * p <= bound:
        power *= p
    return power


def _strict_power_below_walk(value: Fraction, p: int) -> Fraction:
    """Largest p-power < value."""
    power = Fraction(1)
    while power >= value:
        power /= p
    while power * p < value:
        power *= p
    return power


def _naive_valuation(n: int, p: int) -> int:
    v, n = 0, abs(n)
    while n % p == 0:
        n //= p
        v += 1
    return v


@pytest.mark.parametrize("p", [2, 3, 5, 7, 11])
def test_floor_log_matches_power_walks(p):
    rng = random.Random(1000 + p)
    cases = [Fraction(p) ** k for k in range(-40, 41)]  # exact powers, both sides of 1
    eps = Fraction(1, 10**9)
    cases += [Fraction(p) ** k + s for k in range(-5, 6) for s in (eps, -eps)]
    for _ in range(300):
        num = rng.randint(1, 10 ** rng.randint(1, 60))
        den = rng.randint(1, 10 ** rng.randint(1, 60))
        cases.append(Fraction(num, den))
    for q in cases:
        if q <= 0:
            continue
        e = floor_log(q, p)
        assert Fraction(p) ** e == _guaranteed_power_walk(q, p), (q, p)
        # the strict form build_window uses: p^(c-1) for the least p^c >= q
        below = Fraction(p) ** (-floor_log(1 / q, p) - 1)
        assert below == _strict_power_below_walk(q, p), (q, p)


def test_floor_log_rejects_nonpositive():
    for q in (0, -1, Fraction(-3, 7)):
        with pytest.raises(ValueError):
            floor_log(q, 5)


@pytest.mark.parametrize("p", [2, 3, 5, 7, 11])
def test_int_valuation_matches_naive_loop(p):
    rng = random.Random(2000 + p)
    ks = list(range(0, 70)) + [rng.randint(70, 2000) for _ in range(40)] + [2000]
    for k in ks:
        u = rng.randint(1, 10**30)
        while u % p == 0:
            u //= p
        for n in (u * p**k, -u * p**k):
            assert int_valuation(n, p) == _naive_valuation(n, p) == k
    with pytest.raises(ValueError):
        int_valuation(0, p)


def test_real_tolerance_must_be_finite_and_positive():
    for bad in (float("nan"), float("inf"), 0.0, -1.0):
        with pytest.raises(SchemaError):
            FieldDescriptor.real(bad)
    assert FieldDescriptor.real(1e-12).tolerance == 1e-12


def test_is_prime_matches_trial_division():
    def trial(n):
        return n >= 2 and all(n % d for d in range(2, int(n**0.5) + 1))

    assert [n for n in range(-3, 5000) if _is_prime(n)] == [n for n in range(-3, 5000) if trial(n)]


def test_large_primes_and_pseudoprimes():
    FieldDescriptor.padic(2**61 - 1, 4)  # out of reach of trial division
    assert _is_prime(2**89 - 1) and not _is_prime((2**61 - 1) * (2**31 - 1))
    for composite in (561, 41041, 318665857834031151167461):  # the last fools bases 2..37
        assert not _is_prime(composite)
        with pytest.raises(SchemaError):
            FieldDescriptor.padic(composite, 4)


def test_primes_beyond_the_proven_bound_are_rejected():
    with pytest.raises(SchemaError, match=str(PRIME_BOUND)):
        FieldDescriptor.padic(2**127 - 1, 4)
    # the largest prime below the bound is still accepted
    assert FieldDescriptor.padic(PRIME_BOUND - 168, 4).prime == 3317044064679887385961813


# ---------------------------------------------------------------------------
# The n-ary sum kernel against the two-term addition and the fold it replaced


def _old_padic_make(desc, val, residue, prec):
    """Normalize an integer residue known modulo p^prec at base valuation val."""
    p = desc.prime
    span = prec - val
    residue %= p**span
    if residue == 0:
        return PadicScalar(desc, None, 0, prec)
    shift = int_valuation(residue, p)
    v = val + shift
    unit = residue // p**shift
    # cap the digit window at the descriptor's significance
    newprec = min(prec, v + desc.precision)
    unit %= p ** (newprec - v)
    if unit == 0:
        return PadicScalar(desc, None, 0, newprec)
    return PadicScalar(desc, v, unit, newprec)


def _old_padic_add(a: PadicScalar, b: PadicScalar) -> PadicScalar:
    """Oracle: the two-term addition as it was before padic_sum."""
    desc = a.descriptor
    if a.is_exact_zero():
        return b
    if b.is_exact_zero():
        return a
    m = min(a.prec, b.prec)
    vals = [s.val for s in (a, b) if s.val is not None]
    base = min(vals + [m]) if vals else m
    p = desc.prime
    r = 0
    for s in (a, b):
        if s.val is not None:
            r += s.unit * p ** (s.val - base)
    return _old_padic_make(desc, base, r, m)


def _old_fold(desc, terms):
    """Oracle: an output summed term by term, as map evaluation did."""
    return reduce(_old_padic_add, list(terms) or [desc.zero()])


def _raw(x):
    return (x.val, x.unit, x.prec)


def _random_term(rng, desc, kinds):
    p, n = desc.prime, desc.precision
    kind = rng.random()
    if kind < 0.12:
        kinds["exact_zero"] += 1
        return desc.zero()
    if kind < 0.3:
        m = rng.randint(-4, 4)
        kinds["bounded_nonpositive" if m <= 0 else "bounded"] += 1
        return PadicScalar(desc, None, 0, m)
    val = rng.randint(-4, 4)
    kinds["negative_val"] += val < 0
    digits = rng.randint(1, n)
    unit = rng.randrange(1, p**digits)
    if unit % p == 0:
        unit += 1
    return PadicScalar(desc, val, unit, val + digits)


def _descriptors(rng):
    for prime in (2, 3, 5, 7):
        for _ in range(250):
            yield FieldDescriptor.padic(prime, rng.randint(1, 12))


def test_two_term_sum_matches_the_old_padic_add():
    rng = random.Random(2014)
    kinds = {"exact_zero": 0, "bounded": 0, "bounded_nonpositive": 0, "negative_val": 0,
             "cancelled": 0}
    pairs = 0
    for desc in _descriptors(rng):
        for _ in range(14):
            a = _random_term(rng, desc, kinds)
            b = -a if rng.random() < 0.15 else _random_term(rng, desc, kinds)
            for x, y in ((a, b), (b, a), (a, -b)):
                want = _old_padic_add(x, y)
                got = padic_sum(desc, (x, y))
                assert _raw(got) == _raw(want), (desc, _raw(x), _raw(y))
                assert _raw(field_arith(x, y, "add")) == _raw(want)
                kinds["cancelled"] += want.val is None and x.val is not None and y.val is not None
                pairs += 1
    assert pairs >= 40_000
    assert min(kinds.values()) >= 500, kinds


def test_padic_sum_matches_the_fold():
    rng = random.Random(2015)
    kinds = {"exact_zero": 0, "bounded": 0, "bounded_nonpositive": 0, "negative_val": 0,
             "cancelled": 0, "empty": 0}
    sums = 0
    for desc in _descriptors(rng):
        for _ in range(10):
            terms = [_random_term(rng, desc, kinds) for _ in range(rng.randint(0, 7))]
            if terms and rng.random() < 0.25:
                # cancel the sum of the other terms, to its known digits
                terms.append(-_old_fold(desc, terms))
            kinds["empty"] += not terms
            want = _old_fold(desc, terms)
            got = padic_sum(desc, terms)
            assert _raw(got) == _raw(want), (desc, [_raw(t) for t in terms])
            kinds["cancelled"] += want.val is None and any(t.val is not None for t in terms)
            sums += 1
    assert sums >= 10_000
    assert min(kinds.values()) >= 100, kinds


def _pow_div(a, b):
    """_padic_div of two nonzero scalars with the unit inverse by pow, as it
    was before Newton lifting."""
    k = min(a.prec - a.val, b.prec - b.val)
    p = a.descriptor.prime
    unit = (a.unit * pow(b.unit, -1, p**k)) % p**k
    return PadicScalar(a.descriptor, a.val - b.val, unit, a.val - b.val + k)


def test_lifted_unit_inverse_matches_pow():
    # p^k on both sides of 2^64 (5^27 < 2^64 < 5^28); a prime past 2^64
    # leaves no word-size power above p^0, and 2^61 - 1 only p itself
    big = next(q for q in range(2**64 + 1, 2**64 + 1000, 2) if _is_prime(q))
    cases = [(2, (63, 64, 65, 200)), (3, (40, 41, 100, 333)), (5, (27, 28, 55, 700)),
             (7, (22, 23, 64, 512)), (2**61 - 1, (1, 2, 3, 17)), (big, (1, 2, 5))]
    rng = random.Random(4401)
    sides = {True: 0, False: 0}
    for _ in range(435):  # 23 (prime, k) pairs: 10 005 cases
        for prime, ks in cases:
            desc = FieldDescriptor.padic(prime, max(ks))
            for k in ks:
                sides[prime**k < 2**64] += 1
                digits = [k, rng.randint(k, max(ks))]
                rng.shuffle(digits)  # either side may know more digits
                a, b = (
                    PadicScalar(desc, v, u if u % prime else u + 1, v + d)
                    for v, u, d in ((rng.randint(-3, 3), rng.randrange(1, prime**d), d) for d in digits)
                )
                assert unit_inverse(b.unit, prime, k) == pow(b.unit, -1, prime**k)
                got, want = _padic_div(desc, a.raw, b.raw), _pow_div(a, b)
                assert got == (want.val, want.unit, want.prec)
    assert sides == {True: 435 * 5, False: 435 * 18}


# ---------------------------------------------------------------------------
# The polynomial kernel, the one-inverse elimination, membership by valuation
# and the scalar invariant, against the code they replaced


def _oracle_padic_monomial(coef: PadicScalar, xs, powers) -> PadicScalar:
    """coef * xs[i]**e * ... over the (i, e) pairs of `powers` (each e >= 1).

    The product is the one the left fold of `_padic_mul` gives, formed in one
    step: valuations add, the digit count is the least of the factors', and
    the unit is the product of the units mod p^digits.  A bounded zero O(p^m)
    makes the product O(p^(sum of e*w)), w being a factor's val, or its prec
    for a bounded zero; an exact zero makes it the exact zero.
    """
    desc = coef.descriptor
    if coef.is_exact_zero():
        return coef
    bounded = coef.val is None
    val = coef.prec if bounded else coef.val
    digits = desc.precision if bounded else coef.prec - coef.val
    for i, e in powers:
        x = xs[i]
        if x.val is None:
            if x.prec is None:
                return desc.zero()
            bounded = True
            val += e * x.prec
        else:
            val += e * x.val
            digits = min(digits, x.prec - x.val)
    if bounded:
        return PadicScalar(desc, None, 0, val)
    mod = desc.prime**digits
    unit = coef.unit % mod
    for i, e in powers:
        unit = unit * pow(xs[i].unit, e, mod) % mod
    return PadicScalar(desc, val, unit, val + digits)


def _nonzero_term(rng, desc, kinds):
    while True:
        x = _random_term(rng, desc, kinds)
        if x.val is not None:
            return x


def _kernel_precision(rng):
    return rng.choice((1, 2, 3, rng.randint(4, 16), rng.randint(17, 64)))


@pytest.mark.parametrize("prime", [2, 3, 5, 7])
def test_padic_polynomial_matches_the_monomial_fold(prime):
    rng = random.Random(6100 + prime)
    kinds = {"exact_zero": 0, "bounded": 0, "bounded_nonpositive": 0, "negative_val": 0,
             "cancelled": 0, "mixed_digits": 0, "exact_zero_sum": 0, "deep": 0}
    for _ in range(500):
        desc = FieldDescriptor.padic(prime, _kernel_precision(rng))
        kinds["deep"] += desc.precision > 16
        nvars = rng.randint(1, 3)
        xs = [_random_term(rng, desc, kinds) for _ in range(nvars)]
        terms = []
        for _ in range(rng.randint(0, 6)):
            coef = _nonzero_term(rng, desc, kinds)
            chosen = sorted(rng.sample(range(nvars), rng.randint(0, nvars)))
            terms.append((coef, tuple((i, rng.randint(1, 4)) for i in chosen)))
        want = padic_sum(desc, [_oracle_padic_monomial(c, xs, s) for c, s in terms])
        if want.val is not None and rng.random() < 0.3:
            # a constant term that cancels the sum to its known digits
            terms.append((-want, ()))
            want = padic_sum(desc, [_oracle_padic_monomial(c, xs, s) for c, s in terms])
            kinds["cancelled"] += want.val is None
        got = padic_scalar(desc, padic_polynomial(desc, [(c.raw, s) for c, s in terms], [x.raw for x in xs]))
        assert _raw(got) == _raw(want), (desc, [_raw(x) for x in xs], terms)
        digit_counts = {x.prec - x.val for x in xs if x.val is not None}
        digit_counts |= {c.prec - c.val for c, _ in terms}
        kinds["mixed_digits"] += len(digit_counts) > 1
        kinds["exact_zero_sum"] += got.is_exact_zero()
    assert min(kinds.values()) >= 20, kinds


def test_difference_is_the_sum_with_the_negation():
    rng = random.Random(6200)
    kinds = {"exact_zero": 0, "bounded": 0, "bounded_nonpositive": 0, "negative_val": 0,
             "cancelled": 0}
    for desc in _descriptors(rng):
        for _ in range(6):
            a = _random_term(rng, desc, kinds)
            b = a if rng.random() < 0.15 else _random_term(rng, desc, kinds)
            for x, y in ((a, b), (b, a)):
                want = padic_sum(desc, (x, -y))
                got = field_arith(x, y, "sub")
                assert _raw(got) == _raw(want), (desc, _raw(x), _raw(y))
                kinds["cancelled"] += want.val is None and x.val is not None and y.val is not None
    assert min(kinds.values()) >= 200, kinds


def _dividing_gauss_jordan(A: Operator):
    """Gauss-Jordan elimination over field scalars: the inverse rows.

    Each column pivots on its entry of largest absolute value; a column whose
    largest entry is zero at tracked precision raises SingularMatrix.
    """
    desc = A.descriptor
    one, zero = desc.one(), desc.zero()
    n = len(A.entries)
    work = [list(row) for row in A.entries]
    inv = [[one if i == j else zero for j in range(n)] for i in range(n)]
    for col in range(n):
        pivot_row = max(range(col, n), key=lambda r: field_abs(work[r][col]))
        if work[pivot_row][col].is_zero():
            raise SingularMatrix(f"no nonzero pivot in column {col} at tracked precision")
        if pivot_row != col:
            work[col], work[pivot_row] = work[pivot_row], work[col]
            inv[col], inv[pivot_row] = inv[pivot_row], inv[col]
        piv = work[col][col]
        work[col] = [a / piv for a in work[col]]
        inv[col] = [a / piv for a in inv[col]]
        for r in range(n):
            if r == col:
                continue
            factor = work[r][col]
            if factor.is_zero():
                continue
            work[r] = [a - factor * b for a, b in zip(work[r], work[col])]
            inv[r] = [a - factor * b for a, b in zip(inv[r], inv[col])]
    return inv


def _elimination(A, eliminate=lambda A: invert_exact(A).entries):
    try:
        inv = eliminate(A)
    except SingularMatrix as exc:
        return "singular", str(exc)
    return [[_scalar_key(a) for a in row] for row in inv]


def _scalar_key(a):
    return a.value.hex() if hasattr(a, "value") else _raw(a)


def _matrix_entry(rng, desc, kinds):
    if desc.kind == "real":
        return desc.from_rational(Fraction(rng.randint(-40, 40), rng.randint(1, 12)))
    if rng.random() < 0.5:
        p = desc.prime
        num = rng.randint(-3 * p, 3 * p) * p ** rng.randint(0, 2)
        return embed_rational(num, rng.randint(1, 6) * p ** rng.randint(0, 2), desc)
    return _random_term(rng, desc, kinds)


def test_invert_exact_matches_the_full_width_dividing_elimination():
    rng = random.Random(6300)
    kinds = {"exact_zero": 0, "bounded": 0, "bounded_nonpositive": 0, "negative_val": 0}
    outcomes = {"singular": 0, "inverted": 0}
    sizes = set()
    for p in (None, 2, 3, 5, 7):
        for _ in range(150):
            desc = FieldDescriptor.real() if p is None else FieldDescriptor.padic(p, _kernel_precision(rng))
            n = rng.randint(1, 4)
            sizes.add(n)
            rows = [[_matrix_entry(rng, desc, kinds) for _ in range(n)] for _ in range(n)]
            if n > 1 and rng.random() < 0.2:
                rows[-1] = list(rows[0])  # equal rows
            A = Operator(tuple(tuple(r) for r in rows))
            got, want = _elimination(A), _elimination(A, _dividing_gauss_jordan)
            assert got == want, (desc, [[_scalar_key(a) for a in r] for r in rows])
            outcomes["singular" if got[0] == "singular" else "inverted"] += 1
    assert sizes == {1, 2, 3, 4}
    assert min(outcomes.values()) >= 100, outcomes
    assert min(kinds.values()) >= 50, kinds


def _fraction_contains_tracked(ball, v):
    """Ball.contains_tracked of a p-adic ball, comparing Fractions."""
    for a, c in zip(v.components, ball.center.components):
        diff = a - c
        if diff.is_zero():
            continue
        d = field_abs(diff)
        if ball.closed:
            if d > ball.radius:
                return False
        elif d >= ball.radius:
            return False
    return True


def test_membership_by_valuation_matches_the_fraction_comparison():
    rng = random.Random(6400)
    kinds = {"exact_zero": 0, "bounded": 0, "bounded_nonpositive": 0, "negative_val": 0}
    answers = {True: 0, False: 0}
    for p in (2, 3, 5, 7):
        for _ in range(250):
            desc = FieldDescriptor.padic(p, rng.randint(1, 8))
            dim = rng.randint(1, 3)
            center = [Fraction(rng.randint(-20, 20), p ** rng.randint(0, 2)) for _ in range(dim)]
            ball = Ball(desc, center, Fraction(p) ** rng.randint(-3, 3), rng.random() < 0.5)
            v = Vector(tuple(
                c + _random_term(rng, desc, kinds) for c in ball.center.components
            ))
            want = _fraction_contains_tracked(ball, v)
            assert ball.contains_tracked(v) == want, (ball, [_raw(x) for x in v.components])
            answers[want] += 1
            assert vec_norm(v) == max(field_abs(c) for c in v.components)
    assert min(answers.values()) >= 200, answers


def _unchecked(desc, val, unit, prec):
    """A p-adic scalar that skipped the invariant check."""
    x = object.__new__(PadicScalar)
    x.descriptor, x.val, x.unit, x.prec = desc, val, unit, prec
    x.raw = val, unit, prec
    return x


def test_every_construction_checks_the_unit(monkeypatch):
    desc = FieldDescriptor.padic(5, 4)
    for mod in (None, 5**3):
        PadicScalar(desc, -1, 7, 2, mod)
        for bad in (0, -7, 5, 10, 5**3, 5**3 + 1):
            with pytest.raises(ValueError, match="unit digits out of range"):
                PadicScalar(desc, -1, bad, 2, mod)
    # a unit divisible by p reaches the check through each kernel
    bad, one = _unchecked(desc, 0, 10, 4), desc.one()
    for make in (lambda: bad * one, lambda: one * bad, lambda: bad / one, lambda: -bad):
        with pytest.raises(ValueError, match="unit digits out of range"):
            make()
    # and every kernel hands the check the modulus p^digits, or none
    seen = []
    check = field._checked

    def checked(descriptor, val, unit, prec, mod=None):
        if mod is not None:
            assert mod == descriptor.prime ** (prec - val)
            seen.append(mod)
        return check(descriptor, val, unit, prec, mod)

    monkeypatch.setattr(field, "_checked", checked)
    rng = random.Random(6500)
    kinds = {"exact_zero": 0, "bounded": 0, "bounded_nonpositive": 0, "negative_val": 0}
    for desc in _descriptors(rng):
        a, b = _random_term(rng, desc, kinds), _nonzero_term(rng, desc, kinds)
        for op in ("add", "sub", "mul", "div"):
            field_arith(a, b, op)
        -b
        _padic_make(desc, b.val, b.unit, min(b.prec, b.val + rng.randint(0, 3)))
        contraction._answer((b.unit * desc.prime**2, 0), 1, 1 + b.prec - b.val, desc)
        padic_polynomial(desc, [(b.raw, ((0, 2),)), (b.raw, ())], [a.raw])
        embed_rational(rng.randint(-99, 99), rng.randint(1, 99), desc)
        _elimination(Operator(((b, a), (a, b))))
    assert len(seen) >= 5000


def _zero_kind(x):
    if x.is_exact_zero():
        return "exact_zero"
    return "bounded_zero" if x.val is None else "nonzero"


def test_sub_product_is_the_product_then_the_sum():
    # padic_sub_product on triples against a + f * b over Q2-Q7: every zero
    # kind on every side, digit counts that differ, and a third of the
    # triples set up so that f * b cancels a
    rng = random.Random(6900)
    kinds = {"exact_zero": 0, "bounded": 0, "bounded_nonpositive": 0, "negative_val": 0}
    sides = {(side, kind): 0 for side in "afb" for kind in ("exact_zero", "bounded_zero", "nonzero")}
    cancelled = mixed = 0
    for desc in _descriptors(rng):
        for _ in range(4):
            f, b = _random_term(rng, desc, kinds), _random_term(rng, desc, kinds)
            q = f * b
            a = -q if rng.random() < 0.3 else _random_term(rng, desc, kinds)
            want = a + q
            got = field.padic_sub_product(desc, a.raw, f.raw, b.raw)
            assert got == _raw(want), (desc, _raw(a), _raw(f), _raw(b))
            for side, x in zip("afb", (a, f, b)):
                sides[side, _zero_kind(x)] += 1
            cancelled += want.val is None and a.val is not None
            mixed += len({x.prec - x.val for x in (a, f, b) if x.val is not None}) > 1
    assert cancelled >= 150 and mixed >= 1000, (cancelled, mixed)
    assert min(sides.values()) >= 150, sides
    assert min(kinds.values()) >= 150, kinds


def test_divided_difference_is_the_difference_then_the_quotient():
    # padic_divided_difference on triples against (u - v)/t per coordinate:
    # every zero kind in u and v, v equal to u or to u plus a term, so that
    # u - v cancels, and divisors that know fewer or more digits than u - v
    rng = random.Random(7000)
    kinds = {"exact_zero": 0, "bounded": 0, "bounded_nonpositive": 0, "negative_val": 0}
    seen = {"exact_zero": 0, "bounded_zero": 0, "nonzero": 0, "cancelled": 0,
            "t_knows_less": 0, "t_knows_more": 0}
    for desc in _descriptors(rng):
        for _ in range(2):
            dim = rng.randint(1, 4)
            us = tuple(_random_term(rng, desc, kinds) for _ in range(dim))
            vs = []
            for u in us:
                r = rng.random()
                vs.append(u if r < 0.15 else u + _random_term(rng, desc, kinds) if r < 0.3
                          else _random_term(rng, desc, kinds))
            t = _nonzero_term(rng, desc, kinds)
            want = tuple((u - v) / t for u, v in zip(us, vs))
            got = field.padic_divided_difference(desc, [u.raw for u in us], [v.raw for v in vs], t.raw)
            assert list(got) == [_raw(x) for x in want], (desc, us, vs, t)
            for u, v, w in zip(us, vs, want):
                d = u - v
                seen[_zero_kind(w)] += 1
                seen["cancelled"] += d.val is None and u.val is not None and v.val is not None
                if d.val is not None:
                    known = d.prec - d.val
                    seen["t_knows_less" if t.prec - t.val < known else "t_knows_more"] += 1
    assert min(seen.values()) >= 150, seen
    assert min(kinds.values()) >= 300, kinds


def test_divided_difference_refuses_the_divisors_a_division_refuses():
    rng = random.Random(7001)
    kinds = {"exact_zero": 0, "bounded": 0, "bounded_nonpositive": 0, "negative_val": 0}
    for desc in _descriptors(rng):
        us = tuple(_random_term(rng, desc, kinds) for _ in range(2))
        vs = tuple(_random_term(rng, desc, kinds) for _ in range(2))
        for t, error in ((PadicScalar(desc, None, 0, rng.randint(-4, 4)), PrecisionExhausted),
                         (desc.zero(), DivisionByZero)):
            with pytest.raises(error) as want:
                (us[0] - vs[0]) / t
            with pytest.raises(error) as got:
                field.padic_divided_difference(desc, [u.raw for u in us], [v.raw for v in vs], t.raw)
            assert str(got.value) == str(want.value)
