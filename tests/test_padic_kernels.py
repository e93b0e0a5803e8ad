"""The p-adic kernels on (val, unit, prec) triples against the PadicScalar
kernels they replaced.

The functions prefixed `_scalar_` are verbatim copies of the kernels as they
were when they took and returned PadicScalars (`_padic_make`, `_padic_mul`,
`_padic_add`, `padic_sub_product` (its a + f * b form), `padic_polynomial`, `_padic_div`,
`padic_divided_difference`, `PadicScalar.__neg__`, the p-adic branch of
`embed_rational` and the p-adic fold of `linalg.field_dot`), renamed, with
`-b` in `_scalar_padic_add` spelled `_scalar_neg(b)` so that no oracle
reaches the code under test.  On seeded operands over Q2, Q3, Q5 and Q7 at
N = 1..16 (exact zeros, bounded zeros O(p^m), negative valuations and
full-width units among them) each triple kernel must return the oracle's
(val, unit, prec) bit for bit, or raise the same error with the same
message, and every nonzero triple it returns must pass PadicScalar's checks.
"""

import random

import pytest

from ultrafix import field
from ultrafix.errors import DivisionByZero, PrecisionExhausted, UltrafixError
from ultrafix.field import FieldDescriptor, PadicScalar, int_valuation, padic_scalar, unit_inverse
from ultrafix.linalg import field_dot

PRIMES = (2, 3, 5, 7)
PRECISIONS = range(1, 17)


# ---------------------------------------------------------------------------
# verbatim copies


def _scalar_padic_make(desc, val, residue, prec, mod=None):
    """Normalize an integer residue known modulo p^prec at base valuation val;
    `mod` is p^(prec - val) when the caller holds it."""
    p = desc.prime
    if mod is None:
        mod = p ** (prec - val)
    residue %= mod
    if residue == 0:
        return PadicScalar(desc, None, 0, prec)
    # Every caller passes prec <= v + N (N = desc.precision), so the digit
    # count prec - v needs no cap.  The sums pass m <= prec <= val + N for
    # each nonzero term, and the sum's valuation v is at least the least such
    # val; truncate_precision passes prec < a.prec <= a.val + N <= v + N;
    # the Newton answer passes the exponent its least coordinate carries,
    # at most v + N.  PadicScalar still rejects more than N digits.
    if residue % p:
        return PadicScalar(desc, val, residue, prec, mod)
    shift = int_valuation(residue, p)
    scale = p**shift
    return PadicScalar(desc, val + shift, residue // scale, prec, mod // scale)


def _scalar_padic_mul(a: PadicScalar, b: PadicScalar) -> PadicScalar:
    desc = a.descriptor
    if a.is_exact_zero() or b.is_exact_zero():
        return desc.zero()
    if a.val is None or b.val is None:
        # O(p^m) times a value of known (or bounded) size stays a bounded zero
        ea = a.prec if a.val is None else a.val
        eb = b.prec if b.val is None else b.val
        return PadicScalar(desc, None, 0, ea + eb)
    k = min(a.prec - a.val, b.prec - b.val)
    mod = desc.prime**k
    return PadicScalar(desc, a.val + b.val, a.unit * b.unit % mod, a.val + b.val + k, mod)


def _scalar_padic_add(a: PadicScalar, b: PadicScalar, subtract: bool = False) -> PadicScalar:
    """a + b, or a - b when `subtract`, as one residue normalised once.

    An exact zero adds nothing.  Otherwise the result is known modulo p^m,
    m the lesser `prec`, and b's unit is added to or subtracted from a's at
    base, the lesser `val` (a bounded zero O(p^k) counts at k).  -b's unit
    differs from -b.unit by a multiple of p^(b.prec - b.val), and the
    residue is reduced mod p^(m - base) with m <= b.prec, so b's unit is
    subtracted as it is.
    """
    if b.prec is None:
        return a
    if a.prec is None:
        return _scalar_neg(b) if subtract else b
    p = a.descriptor.prime
    # comparisons, not min(): this runs once per scalar addition
    m = a.prec if a.prec < b.prec else b.prec
    low = a.prec if a.val is None else a.val
    base = b.prec if b.val is None else b.val
    if low < base:
        base = low
    r = 0
    if a.val is not None:
        r = a.unit * p ** (a.val - base)
    if b.val is not None:
        if subtract:
            r -= b.unit * p ** (b.val - base)
        else:
            r += b.unit * p ** (b.val - base)
    return _scalar_padic_make(a.descriptor, base, r, m)


def _scalar_padic_sub_product(a: PadicScalar, f: PadicScalar, b: PadicScalar) -> PadicScalar:
    """a + f * b as one residue: bit for bit `_scalar_padic_mul(f, b)`
    followed by `_scalar_padic_add(a, ...)`, x + t*y or a step of a
    matrix-vector fold.

    The product q is the exact zero when a factor is, the bounded zero
    O(p^(ef + eb)) when a factor is a bounded zero (e a factor's val, or its
    prec for a bounded zero), and otherwise f.unit * b.unit at valuation
    f.val + b.val, known to the lesser digit count k.  That unit is not
    reduced mod p^k: the sum is reduced mod p^(m - base) with m <= q's
    precision, so the unreduced product leaves the same residue.
    """
    if f.prec is None or b.prec is None:
        return a
    p = a.descriptor.prime
    if f.val is None or b.val is None:
        qval = None
        qprec = (f.prec if f.val is None else f.val) + (b.prec if b.val is None else b.val)
    else:
        qval = f.val + b.val
        fd, bd = f.prec - f.val, b.prec - b.val
        qprec = qval + (fd if fd < bd else bd)
    if a.prec is None:  # q
        if qval is None:
            return PadicScalar(a.descriptor, None, 0, qprec)
        mod = p ** (qprec - qval)
        return PadicScalar(a.descriptor, qval, f.unit * b.unit % mod, qprec, mod)
    m = a.prec if a.prec < qprec else qprec
    low = a.prec if a.val is None else a.val
    base = qprec if qval is None else qval
    if low < base:
        base = low
    r = 0
    if a.val is not None:
        r = a.unit if a.val == base else a.unit * p ** (a.val - base)
    if qval is not None:
        r += f.unit * b.unit if qval == base else f.unit * b.unit * p ** (qval - base)
    return _scalar_padic_make(a.descriptor, base, r, m)


def _scalar_padic_polynomial(desc, terms, xs) -> PadicScalar:
    """The sum of coef * xs[i]**e * ... over the (coef, ((i, e), ...)) of
    `terms` (each coef nonzero, each e >= 1), in two integer passes.

    The value is the left fold of `+` over the monomials, each formed as
    the left fold of products would form it: valuations add, the digit count
    is the least of the factors', a bounded zero O(p^w) factor makes the
    monomial O(p^(sum of e*w)), w being a factor's val, or its prec for a
    bounded zero, and an exact zero factor makes it the exact zero.  The
    first pass finds each monomial's valuation and precision, and from them
    m, the least precision, and base, the least valuation (a bounded zero
    counts at its precision): the sum is known mod p^m.  The second pass
    multiplies each monomial's units mod p^(m - base), all of them that
    reaches the sum, and adds them as one residue at base.
    """
    m = base = None
    known = []  # (valuation, coefficient unit, support) of monomials with digits
    for coef, support in terms:
        val = coef.val
        digits = coef.prec - val
        bounded = False
        for i, e in support:
            x = xs[i]
            if x.val is None:
                if x.prec is None:
                    break  # an exact zero factor
                bounded = True
                val += e * x.prec
            else:
                val += e * x.val
                if x.prec - x.val < digits:
                    digits = x.prec - x.val
        else:
            if bounded:
                prec = val
            else:
                prec = val + digits
                known.append((val, coef.unit, support))
            if m is None:
                m, base = prec, val
            else:
                if prec < m:
                    m = prec
                if val < base:
                    base = val
    if m is None:
        return desc.zero()
    p = desc.prime
    mod = p ** (m - base)
    r = 0
    for val, unit, support in known:
        if val >= m:
            continue  # a multiple of p^(m - base) at base
        for i, e in support:
            u = xs[i].unit
            unit = unit * (u if e == 1 else pow(u, e, mod)) % mod
        r += unit if val == base else unit * p ** (val - base)
    return _scalar_padic_make(desc, base, r, m, mod)


def _scalar_padic_div(a: PadicScalar, b: PadicScalar) -> PadicScalar:
    desc = a.descriptor
    if b.is_exact_zero():
        raise DivisionByZero("division by zero")
    if b.val is None:
        raise PrecisionExhausted(
            f"divisor is O({desc.prime}^{b.prec}): no known digits to divide by"
        )
    if a.is_exact_zero():
        return a
    if a.val is None:
        return PadicScalar(desc, None, 0, a.prec - b.val)
    k = min(a.prec - a.val, b.prec - b.val)
    p = desc.prime
    mod = p**k
    unit = a.unit * unit_inverse(b.unit, p, k) % mod
    return PadicScalar(desc, a.val - b.val, unit, a.val - b.val + k, mod)


def _scalar_padic_divided_difference(us, vs, t: PadicScalar) -> tuple:
    """(u - v)/t per coordinate of the p-adic vectors us and vs, bit for bit
    `_scalar_padic_add(u, v, subtract=True)` followed by `_scalar_padic_div(..., t)`, with
    one scalar per coordinate and one unit inverse of t per vector.

    The divisor is checked first, as each division would: an exact zero
    raises DivisionByZero, a bounded zero PrecisionExhausted.  Its unit is
    inverted mod p^(t's digit count); each quotient keeps the lesser digit
    count k of u - v and t, and an inverse mod a power of p is one mod every
    lower power, so reducing it mod p^k gives the digits `_scalar_padic_div` gives.
    u - v is the residue `_scalar_padic_add` forms, at its least valuation base
    modulo p^(m - base), m the lesser precision; it is not built as a
    scalar, only its valuation is stripped.
    """
    desc = t.descriptor
    if t.prec is None:
        raise DivisionByZero("division by zero")
    if t.val is None:
        raise PrecisionExhausted(
            f"divisor is O({desc.prime}^{t.prec}): no known digits to divide by"
        )
    p, tval = desc.prime, t.val
    tdigits = t.prec - tval
    inverse = unit_inverse(t.unit, p, tdigits)
    out = []
    for u, v in zip(us, vs):
        if v.prec is None:
            if u.prec is None:  # 0/t
                out.append(u)
                continue
            val, unit, prec = u.val, u.unit, u.prec
        elif u.prec is None:  # -v; its unit is reduced with the quotient's
            val, unit, prec = v.val, -v.unit, v.prec
        else:
            prec = u.prec if u.prec < v.prec else v.prec
            low = u.prec if u.val is None else u.val
            base = v.prec if v.val is None else v.val
            if low < base:
                base = low
            r = 0
            if u.val is not None:
                r = u.unit * p ** (u.val - base)
            if v.val is not None:
                r -= v.unit * p ** (v.val - base)
            r %= p ** (prec - base)
            if r == 0:
                val = None
            elif r % p:
                val, unit = base, r
            else:
                shift = int_valuation(r, p)
                val, unit = base + shift, r // p**shift
        if val is None:
            out.append(PadicScalar(desc, None, 0, prec - tval))
            continue
        k = prec - val
        if tdigits < k:
            k = tdigits
        mod = p**k
        out.append(PadicScalar(desc, val - tval, unit * inverse % mod, val - tval + k, mod))
    return tuple(out)


def _scalar_neg(self):
    if self.val is None:
        return self
    mod = self.descriptor.prime ** (self.prec - self.val)
    return PadicScalar(self.descriptor, self.val, -self.unit % mod, self.prec, mod)


def _scalar_embed(num, den, descriptor):
    """The p-adic branch of embed_rational, for integers num and den != 0."""
    if num == 0:
        return descriptor.zero()
    p, n = descriptor.prime, descriptor.precision
    vn = int_valuation(num, p)
    vd = int_valuation(den, p)
    val = vn - vd
    mod = p**n
    unit = num // p**vn * pow(den // p**vd, -1, mod) % mod
    return PadicScalar(descriptor, val, unit, val + n, mod)


def _scalar_dot(desc, row, column):
    """The p-adic fold of linalg.field_dot over scalars."""
    acc = desc.zero()
    for a, x in zip(row, column):
        acc = _scalar_padic_sub_product(acc, a, x)
    return acc


# ---------------------------------------------------------------------------
# seeded operands


def _descriptors():
    for p in PRIMES:
        for n in PRECISIONS:
            yield FieldDescriptor.padic(p, n)


def _operand(rng, desc, seen):
    """An exact zero, a bounded zero O(p^m), a full-width unit or a value of
    random digit count, at valuations -4..4."""
    p, n = desc.prime, desc.precision
    kind = rng.random()
    if kind < 0.1:
        seen["exact_zero"] += 1
        return desc.zero()
    if kind < 0.25:
        seen["bounded_zero"] += 1
        return PadicScalar(desc, None, 0, rng.randint(-4, 4))
    val = rng.randint(-4, 4)
    seen["negative_val"] += val < 0
    if kind < 0.4:
        seen["full_width"] += 1
        return PadicScalar(desc, val, p**n - rng.randint(1, p - 1), val + n)
    digits = rng.randint(1, n)
    unit = rng.randrange(1, p**digits)
    return PadicScalar(desc, val, unit + (unit % p == 0), val + digits)


def _unchecked(desc, val, unit, prec):
    """A p-adic scalar that skipped the invariant check."""
    x = object.__new__(PadicScalar)
    x.descriptor, x.val, x.unit, x.prec = desc, val, unit, prec
    x.raw = val, unit, prec
    return x


def _seen():
    return {"exact_zero": 0, "bounded_zero": 0, "negative_val": 0, "full_width": 0}


def _outcome(run):
    """A kernel's triple, a scalar's triple, or the error raised."""
    try:
        got = run()
    except (UltrafixError, ValueError) as exc:
        return type(exc), str(exc)
    return got.raw if isinstance(got, PadicScalar) else got


def _same(desc, got, want, check=True):
    """got == want, and each nonzero triple of got (a triple, a vector of
    them, or an error) passes PadicScalar's checks; `check` is off where a
    kernel may hand back an unchecked operand as it is."""
    assert got == want
    if not check or isinstance(got[0], type):
        return
    for triple in got if isinstance(got[0], tuple) else (got,):
        if triple[0] is not None:
            PadicScalar(desc, *triple)


# ---------------------------------------------------------------------------
# the kernels, bit for bit


def test_binary_kernels_and_negation_match_the_scalar_kernels():
    rng = random.Random(2017)
    seen = _seen()
    errors = 0
    for desc in _descriptors():
        for _ in range(60):
            a, b = _operand(rng, desc, seen), _operand(rng, desc, seen)
            bad = rng.random() < 0.1
            if bad:  # a unit divisible by p reaches the checks
                b = _unchecked(desc, 0, desc.prime, 2)
            cases = (
                (lambda: field._padic_add(desc, a.raw, b.raw), lambda: _scalar_padic_add(a, b)),
                (lambda: field._padic_add(desc, a.raw, b.raw, True), lambda: _scalar_padic_add(a, b, subtract=True)),
                (lambda: field._padic_mul(desc, a.raw, b.raw), lambda: _scalar_padic_mul(a, b)),
                (lambda: field._padic_div(desc, a.raw, b.raw), lambda: _scalar_padic_div(a, b)),
                (lambda: field._padic_neg(desc, b.raw), lambda: _scalar_neg(b)),
                (lambda: a + b, lambda: _scalar_padic_add(a, b)),
                (lambda: a - b, lambda: _scalar_padic_add(a, b, subtract=True)),
                (lambda: a * b, lambda: _scalar_padic_mul(a, b)),
                (lambda: a / b, lambda: _scalar_padic_div(a, b)),
                (lambda: -b, lambda: _scalar_neg(b)),
            )
            for kernel, oracle in cases:
                got, want = _outcome(kernel), _outcome(oracle)
                _same(desc, got, want, check=not bad)
                errors += isinstance(got[0], type)
    assert min(seen.values()) >= 500 and errors >= 1000, (seen, errors)


def test_make_matches_the_scalar_make():
    rng = random.Random(2018)
    kinds = {"zero": 0, "unit": 0, "shifted": 0, "with_mod": 0, "too_wide": 0}
    for desc in _descriptors():
        p, n = desc.prime, desc.precision
        for _ in range(150):
            val = rng.randint(-4, 4)
            span = rng.randint(1, n + 1)  # one past N: the check refuses more than N digits
            r = rng.random()
            residue = 0 if r < 0.1 else rng.randint(-(p**span), p**span) * p ** rng.randint(0, 2)
            mod = p**span if rng.random() < 0.5 else None
            got = _outcome(lambda: field._padic_make(desc, val, residue, val + span, mod))
            want = _outcome(lambda: _scalar_padic_make(desc, val, residue, val + span, mod))
            _same(desc, got, want)
            if residue % p**span == 0:
                kinds["zero"] += 1
            else:
                kinds["unit" if residue % p else "shifted"] += 1
            kinds["with_mod"] += mod is not None
            kinds["too_wide"] += isinstance(got[0], type)
    assert min(kinds.values()) >= 200, kinds


def test_sub_product_matches_the_scalar_kernel():
    rng = random.Random(2019)
    seen = _seen()
    cancelled = 0
    for desc in _descriptors():
        for _ in range(40):
            f, b = _operand(rng, desc, seen), _operand(rng, desc, seen)
            if rng.random() < 0.3:  # a that f * b cancels
                a = _scalar_neg(_scalar_padic_mul(f, b))
            else:
                a = _operand(rng, desc, seen)
            got = field.padic_sub_product(desc, a.raw, f.raw, b.raw)
            want = _scalar_padic_sub_product(a, f, b).raw
            _same(desc, got, want)
            cancelled += got[0] is None and a.val is not None
    assert min(seen.values()) >= 300 and cancelled >= 200, (seen, cancelled)


def test_polynomial_matches_the_scalar_kernel():
    rng = random.Random(2020)
    seen = _seen()
    for desc in _descriptors():
        for _ in range(25):
            nvars = rng.randint(1, 3)
            xs = [_operand(rng, desc, seen) for _ in range(nvars)]
            terms = []
            for _ in range(rng.randint(0, 5)):
                coef = _operand(rng, desc, seen)
                while coef.val is None:
                    coef = _operand(rng, desc, seen)
                chosen = sorted(rng.sample(range(nvars), rng.randint(0, nvars)))
                terms.append((coef, tuple((i, rng.randint(1, 4)) for i in chosen)))
            got = field.padic_polynomial(desc, [(c.raw, s) for c, s in terms], [x.raw for x in xs])
            _same(desc, got, _scalar_padic_polynomial(desc, terms, xs).raw)
    assert min(seen.values()) >= 300, seen


def test_divided_difference_matches_the_scalar_kernel():
    rng = random.Random(2021)
    seen = _seen()
    refused = {DivisionByZero: 0, PrecisionExhausted: 0}
    for desc in _descriptors():
        for _ in range(25):
            dim = rng.randint(1, 3)
            us = tuple(_operand(rng, desc, seen) for _ in range(dim))
            vs = tuple(u if rng.random() < 0.2 else _operand(rng, desc, seen) for u in us)
            t = _operand(rng, desc, seen)
            got = _outcome(lambda: field.padic_divided_difference(
                desc, [u.raw for u in us], [v.raw for v in vs], t.raw))
            want = _outcome(lambda: tuple(x.raw for x in _scalar_padic_divided_difference(us, vs, t)))
            _same(desc, got, want)
            if t.val is None:
                refused[got[0]] += 1
    assert min(seen.values()) >= 300 and min(refused.values()) >= 100, (seen, refused)


def test_division_by_a_zero_raises_as_the_scalar_kernels_raise():
    for desc in _descriptors():
        one = desc.one()
        for divisor, error in ((desc.zero(), DivisionByZero),
                               *((PadicScalar(desc, None, 0, m), PrecisionExhausted) for m in (-3, 0, 5))):
            for kernel, oracle in (
                (lambda: field._padic_div(desc, one.raw, divisor.raw), lambda: _scalar_padic_div(one, divisor)),
                (lambda: field.padic_divided_difference(desc, [one.raw], [desc.zero().raw], divisor.raw),
                 lambda: _scalar_padic_divided_difference((one,), (desc.zero(),), divisor)),
                (lambda: one / divisor, lambda: _scalar_padic_div(one, divisor)),
            ):
                with pytest.raises(error) as got:
                    kernel()
                with pytest.raises(error) as want:
                    oracle()
                assert str(got.value) == str(want.value)


def test_embedding_and_dot_match_the_scalar_code():
    rng = random.Random(2022)
    seen = _seen()
    for desc in _descriptors():
        p = desc.prime
        for _ in range(40):
            num = rng.randint(-50, 50) * p ** rng.randint(0, 3)
            den = rng.choice((-1, 1)) * rng.randint(1, 30) * p ** rng.randint(0, 3)
            _same(desc, field._padic_embed(desc, num, den), _scalar_embed(num, den, desc).raw)
            _same(desc, field.embed_rational(num, den, desc).raw, _scalar_embed(num, den, desc).raw)
        for _ in range(20):
            n = rng.randint(0, 4)
            row = [_operand(rng, desc, seen) for _ in range(n)]
            column = [_operand(rng, desc, seen) for _ in range(n)]
            want = _scalar_dot(desc, row, column).raw
            _same(desc, field.padic_dot(desc, [a.raw for a in row], [x.raw for x in column]), want)
            _same(desc, field_dot(desc, row, column).raw, want)
    assert min(seen.values()) >= 100, seen


def test_wrapped_triples_are_the_scalars_the_checks_build():
    rng = random.Random(2023)
    seen = _seen()
    for desc in _descriptors():
        for _ in range(20):
            x = _operand(rng, desc, seen)
            wrapped = padic_scalar(desc, x.raw)
            assert (wrapped.descriptor, wrapped.val, wrapped.unit, wrapped.prec, wrapped.raw) == (
                desc, x.val, x.unit, x.prec, (x.val, x.unit, x.prec))
    assert min(seen.values()) >= 50, seen
