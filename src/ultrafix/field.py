"""Valued-field scalar arithmetic: exact p-adic (fixed precision) and real doubles.

A p-adic value is the triple (val, unit, prec): its valuation, its unit
digits and the absolute precision up to which it is known.  Addition of
near-cancelling values raises the valuation and shrinks the known digit range
instead of fabricating zeros, so downstream certificates never overstate
precision (Caruso, Roe & Vaccon, "Tracking p-adic precision", 2014).  Each
p-adic kernel is written once, over triples, and checks every nonzero triple
it returns as a scalar would be checked; `PadicScalar` arithmetic (and
through it the dot products and eliminations of `linalg`), map evaluation
and the identity samples of `calculus` all call them, and only the scalars
wrap their result (Caruso, "Computations with p-adic numbers", 2017:
zealous arithmetic needs only the numbers).  `a + b` and `a - b` are one
binary kernel, `_padic_add`, which adds or subtracts the shifted units as
one residue.  A polynomial output is evaluated by `padic_polynomial` in two
integer passes over its monomials: the first finds where the sum is known,
the second adds the unit products as one residue modulo the power of p that
reaches it.  `a + f * b` is one kernel as well, `padic_sub_product`: one
residue, bit for bit the product followed by the sum (x + t*y, a step of
`padic_dot`).  `padic_divided_difference` forms each u - v with `_padic_add`
and divides the vector by t with one unit inverse of t.  Each
kernel that already holds p^digits hands it to the invariant check.  The
real backend is plain IEEE doubles with a global comparison tolerance;
exactness on the real side lives in the rational helpers (`rational_abs`)
used by the verification oracles, not in the scalar type.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .errors import BudgetExceeded, DivisionByZero, PrecisionExhausted, SchemaError

_SMALL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)

PRIME_BOUND = 3_317_044_064_679_887_385_961_981
"""The least strong pseudoprime to all the bases 2..41 (Sorenson & Webster,
Math. Comp. 2017), so Miller-Rabin over them decides primality below it.
Bases 2..37 alone are fooled by 318665857834031151167461."""

PRECISION_BUDGET_BITS = 2**20
"""The most bits a p-adic modulus p^precision may have: precision times the
bit length of p.  Larger fields are refused before any p^precision is
formed, so a request cannot spin on a huge precision.  Q5 takes up to
349 525 digits, Q2 up to 524 288."""


def _is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin for n < PRIME_BOUND."""
    if n < 2:
        return False
    for q in _SMALL_PRIMES:
        if n % q == 0:
            return n == q
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _SMALL_PRIMES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def int_valuation(n: int, p: int) -> int:
    """Exponent of p in a nonzero integer.

    After the first factor, strips p, p^2, p^4, ... while they divide, then
    walks the same powers back down, so a valuation v costs O(log v)
    big-integer divisions, not v.
    """
    if n == 0:
        raise ValueError("valuation of zero is undefined")
    if n % p:
        return 0
    n = abs(n) // p
    v, width, power, stripped = 1, 1, p, []
    while n % power == 0:
        n //= power
        v += width
        stripped.append(power)
        power *= power
        width *= 2
    # what is left of the valuation is below width: one bit per stripped power
    while stripped:
        power = stripped.pop()
        width //= 2
        if n % power == 0:
            n //= power
            v += width
    return v


def floor_log(q, p: int) -> int:
    """Largest e with p**e <= q, for a positive rational q."""
    q = Fraction(q)
    if q <= 0:
        raise ValueError(f"floor_log needs a positive rational, got {q}")
    return int_floor_log(q.numerator, q.denominator, p)


def int_floor_log(num: int, den: int, p: int) -> int:
    """Largest e with p**e <= num/den, for positive integers num and den
    that need not be coprime.

    The bit lengths of numerator and denominator estimate e to within one;
    exact integer comparisons then settle it.
    """

    def at_most_q(e: int) -> bool:
        return p**e * den <= num if e >= 0 else den <= num * p ** (-e)

    e = math.floor((num.bit_length() - den.bit_length()) / math.log2(p))
    while not at_most_q(e):
        e -= 1
    while at_most_q(e + 1):
        e += 1
    return e


def _int_str(n: int) -> str:
    """Decimal digits of n, also past the interpreter's int-to-str digit limit.

    Up to 2000 bits (602 digits; the limit is never set below 640) str()
    converts directly; longer integers are split in halves by divmod.
    """
    if n.bit_length() <= 2000:
        return str(n)
    if n < 0:
        return "-" + _int_str(-n)
    k = n.bit_length() * 3 // 20  # about half of the 0.301 * bits digits
    high, low = divmod(n, 10**k)
    return _int_str(high) + _int_str(low).zfill(k)


def frac_str(q) -> str:
    """An exact rational as "num/den", of any size."""
    q = Fraction(q)
    return f"{_int_str(q.numerator)}/{_int_str(q.denominator)}"


def num_str(x) -> str:
    """A number for an error message: exact rationals of any size by frac_str."""
    return frac_str(x) if isinstance(x, Fraction) else str(x)


def _rational(value, what: str) -> Fraction:
    """value as a Fraction; SchemaError for anything that is not a finite
    rational (inf, nan, "1/0", None, a word)."""
    try:
        return value if type(value) is Fraction else Fraction(value)
    except (TypeError, ValueError, OverflowError, ZeroDivisionError):
        raise SchemaError(f"{what} {value!r} is not a finite rational") from None


RATIONAL_TYPES = frozenset((int, Fraction))
"""The operand types the exact kernels read by numerator and denominator.
`linalg._exact` reads any other type, a subclass such as bool included,
through Fraction first."""


def rational_valuation(q, p: int) -> int:
    if type(q) is not Fraction:
        q = Fraction(q)
    if not q:
        raise ValueError("valuation of zero is undefined")
    return int_valuation(q.numerator, p) - int_valuation(q.denominator, p)


@dataclass(frozen=True)
class FieldDescriptor:
    """Which valued field scalars live in.

    kind "padic": Q_p with `precision` significant base-p digits tracked.
    kind "real": IEEE doubles, compared up to `tolerance` (relative).
    """

    kind: str
    prime: int | None = None
    precision: int | None = None
    tolerance: float = 1e-9

    def __post_init__(self):
        if self.kind == "padic":
            if self.prime is not None and self.prime >= PRIME_BOUND:
                raise SchemaError(
                    f"prime must be below {PRIME_BOUND}, where primality is proven"
                )
            if self.prime is None or not _is_prime(self.prime):
                raise SchemaError(f"prime required and must be prime, got {self.prime}")
            if self.precision is None or self.precision < 1:
                raise SchemaError("precision must be a positive integer")
            if self.precision * self.prime.bit_length() > PRECISION_BUDGET_BITS:
                digits = _int_str(self.precision)
                raise BudgetExceeded(
                    f"precision {digits} over Q{self.prime} needs more than "
                    f"{PRECISION_BUDGET_BITS} bits per value",
                    precision=digits,
                    budget_bits=PRECISION_BUDGET_BITS,
                )
        elif self.kind == "real":
            if self.prime is not None or self.precision is not None:
                raise SchemaError("real field takes no prime/precision")
            if not (math.isfinite(self.tolerance) and self.tolerance > 0):
                raise SchemaError(
                    f"tolerance must be finite and positive, got {self.tolerance}"
                )
        else:
            raise SchemaError(f"unknown field kind {self.kind!r}")

    @classmethod
    def padic(cls, prime: int, precision: int) -> "FieldDescriptor":
        return cls("padic", prime, precision)

    @classmethod
    def real(cls, tolerance: float = 1e-9) -> "FieldDescriptor":
        return cls("real", tolerance=tolerance)

    @property
    def ultrametric(self) -> bool:
        return self.kind == "padic"

    def zero(self) -> "Scalar":
        if self.kind == "padic":
            return PadicScalar(self, None, 0, None)
        return RealScalar(self, 0.0)

    def one(self) -> "Scalar":
        return self.from_rational(1)

    def from_rational(self, num, den: int = 1) -> "Scalar":
        return embed_rational(num, den, self)

    def valid_radius(self, r: Fraction) -> bool:
        """Radii are restricted to the attainable values of the absolute value."""
        if self.kind == "real":
            return r > 0
        if r <= 0:
            return False
        k = rational_valuation(r, self.prime)
        return Fraction(self.prime) ** k == Fraction(r)


class Scalar:
    """A valued-field element; immutable, backend-specific subclasses below.
    Arithmetic on two scalars of one field is `field_arith`."""

    __slots__ = ()

    def __add__(self, other):
        return field_arith(self, other, "add")

    def __sub__(self, other):
        return field_arith(self, other, "sub")

    def __mul__(self, other):
        return field_arith(self, other, "mul")

    def __truediv__(self, other):
        return field_arith(self, other, "div")


class PadicScalar(Scalar):
    """unit * p^val, known modulo p^prec.

    Nonzero: ``val`` is the exact valuation, ``unit`` the integer formed by
    the known digits (unit % p != 0, 0 < unit < p**(prec-val)).
    Zero at tracked precision: ``val is None``; ``prec is None`` for the exact
    zero, an integer m for a value only known to be O(p^m).

    ``raw`` is the triple (val, unit, prec) on which every p-adic kernel
    below works; `padic_scalar` wraps a kernel's triple, which the kernel
    has already checked.  A caller that already holds p**(prec-val) passes
    it as ``mod``, so the invariant is checked without forming that power
    again.
    """

    __slots__ = ("descriptor", "val", "unit", "prec", "raw")

    def __init__(self, descriptor, val, unit, prec, mod=None):
        if val is not None:
            _checked(descriptor, val, unit, prec, mod)
        self.descriptor = descriptor
        self.val = val
        self.unit = unit
        self.prec = prec
        self.raw = val, unit, prec

    def is_zero(self) -> bool:
        """Zero at tracked precision (exactly zero, or no known digits left)."""
        return self.val is None

    def is_exact_zero(self) -> bool:
        return self.val is None and self.prec is None

    def digit_list(self) -> list[int]:
        if self.val is None:
            return []
        p = self.descriptor.prime
        out, u = [], self.unit
        for _ in range(self.prec - self.val):
            u, d = divmod(u, p)
            out.append(d)
        return out

    def to_rational(self) -> Fraction:
        """The representative built from the known digits (zero if none)."""
        if self.val is None:
            return Fraction(0)
        return Fraction(self.unit) * Fraction(self.descriptor.prime) ** self.val

    def __repr__(self):
        if self.is_exact_zero():
            return f"Padic(0, p={self.descriptor.prime})"
        if self.val is None:
            return f"Padic(O({self.descriptor.prime}^{self.prec}))"
        return (
            f"Padic({self.unit}*{self.descriptor.prime}^{self.val}"
            f"+O({self.descriptor.prime}^{self.prec}))"
        )

    def __neg__(self):
        if self.val is None:
            return self
        return padic_scalar(self.descriptor, _padic_neg(self.descriptor, self.raw))

    def __eq__(self, other):
        if not isinstance(other, PadicScalar):
            return NotImplemented
        return (self - other).is_zero()

    __hash__ = None


class RealScalar(Scalar):
    __slots__ = ("descriptor", "value")

    def __init__(self, descriptor, value: float):
        self.descriptor = descriptor
        self.value = float(value)

    def is_zero(self) -> bool:
        """Zero up to the field's comparison tolerance."""
        return abs(self.value) <= self.descriptor.tolerance

    def is_exact_zero(self) -> bool:
        return self.value == 0.0

    def to_rational(self) -> Fraction:
        return Fraction(self.value)

    def __repr__(self):
        return f"Real({self.value!r})"

    def __neg__(self):
        return RealScalar(self.descriptor, -self.value)

    def __eq__(self, other):
        if not isinstance(other, RealScalar):
            return NotImplemented
        tol = self.descriptor.tolerance
        return abs(self.value - other.value) <= tol * max(1.0, abs(self.value), abs(other.value))

    __hash__ = None


_ZERO = (None, 0, None)
"""The exact zero as a triple."""


def _checked(desc, val, unit, prec, mod=None) -> tuple:
    """The triple (val, unit, prec) of a nonzero p-adic value of desc, after
    the invariant checks: a digit count prec - val in 1..N and a unit prime
    to p and below p^(prec - val), which the caller passes as `mod` when it
    holds it."""
    digits = prec - val
    if digits < 1 or digits > desc.precision:
        raise ValueError(f"digit count {digits} out of range")
    p = desc.prime
    if mod is None:
        mod = p**digits
    if unit % p == 0 or not 0 < unit < mod:
        raise ValueError("unit digits out of range")
    return val, unit, prec


_new = object.__new__


def padic_scalar(desc, triple) -> PadicScalar:
    """The scalar of desc holding a kernel's triple, which the kernel has
    checked."""
    x = _new(PadicScalar)
    x.descriptor = desc
    x.raw = triple
    x.val, x.unit, x.prec = triple
    return x


def _padic_make(desc, val, residue, prec, mod=None) -> tuple:
    """Normalize an integer residue known modulo p^prec at base valuation val;
    `mod` is p^(prec - val) when the caller holds it."""
    p = desc.prime
    if mod is None:
        mod = p ** (prec - val)
    residue %= mod
    if residue == 0:
        return None, 0, prec
    # Every caller passes prec <= v + N (N = desc.precision), so the digit
    # count prec - v needs no cap.  The sums pass m <= prec <= val + N for
    # each nonzero term, and the sum's valuation v is at least the least such
    # val; the answers and trace points of the p-adic solves pass at most the
    # exponent their least coordinate carries, at most v + N.  The check
    # still rejects more than N digits.
    if residue % p:
        return _checked(desc, val, residue, prec, mod)
    shift = int_valuation(residue, p)
    scale = p**shift
    return _checked(desc, val + shift, residue // scale, prec, mod // scale)


def _padic_neg(desc, a) -> tuple:
    """-a; a zero at tracked precision is its own negation."""
    val, unit, prec = a
    if val is None:
        return a
    mod = desc.prime ** (prec - val)
    return _checked(desc, val, -unit % mod, prec, mod)


def _padic_mul(desc, a, b) -> tuple:
    av, au, ap = a
    bv, bu, bp = b
    if ap is None or bp is None:
        return _ZERO
    if av is None or bv is None:
        # O(p^m) times a value of known (or bounded) size stays a bounded zero
        return None, 0, (ap if av is None else av) + (bp if bv is None else bv)
    k = min(ap - av, bp - bv)
    mod = desc.prime**k
    return _checked(desc, av + bv, au * bu % mod, av + bv + k, mod)


def _padic_add(desc, a, b, subtract: bool = False) -> tuple:
    """a + b, or a - b when `subtract`, as one residue normalised once.

    An exact zero adds nothing.  Otherwise the result is known modulo p^m,
    m the lesser `prec`, and b's unit is added to or subtracted from a's at
    base, the lesser `val` (a bounded zero O(p^k) counts at k).  -b's unit
    differs from -b.unit by a multiple of p^(b.prec - b.val), and the
    residue is reduced mod p^(m - base) with m <= b.prec, so b's unit is
    subtracted as it is.
    """
    bv, bu, bp = b
    if bp is None:
        return a
    av, au, ap = a
    if ap is None:
        return _padic_neg(desc, b) if subtract else b
    p = desc.prime
    # comparisons, not min(): this runs once per scalar addition
    m = ap if ap < bp else bp
    low = ap if av is None else av
    base = bp if bv is None else bv
    if low < base:
        base = low
    r = 0
    if av is not None:
        r = au * p ** (av - base)
    if bv is not None:
        if subtract:
            r -= bu * p ** (bv - base)
        else:
            r += bu * p ** (bv - base)
    return _padic_make(desc, base, r, m)


def padic_sub_product(desc, a, f, b) -> tuple:
    """a + f * b as one residue: bit for bit `_padic_mul(desc, f, b)`
    followed by `_padic_add(desc, a, ...)`, x + t*y or a step of a dot
    product.

    The product q is the exact zero when a factor is, the bounded zero
    O(p^(ef + eb)) when a factor is a bounded zero (e a factor's val, or its
    prec for a bounded zero), and otherwise f's unit times b's at valuation
    the sum of theirs, known to the lesser digit count k.  That unit is not
    reduced mod p^k: the sum is reduced mod p^(m - base) with m <= q's
    precision, so the unreduced product leaves the same residue.
    """
    fv, fu, fp = f
    bv, bu, bp = b
    if fp is None or bp is None:
        return a
    p = desc.prime
    if fv is None or bv is None:
        qval = None
        qprec = (fp if fv is None else fv) + (bp if bv is None else bv)
    else:
        qval = fv + bv
        fd, bd = fp - fv, bp - bv
        qprec = qval + (fd if fd < bd else bd)
    av, au, ap = a
    if ap is None:  # q
        if qval is None:
            return None, 0, qprec
        mod = p ** (qprec - qval)
        return _checked(desc, qval, fu * bu % mod, qprec, mod)
    m = ap if ap < qprec else qprec
    low = ap if av is None else av
    base = qprec if qval is None else qval
    if low < base:
        base = low
    r = 0
    if av is not None:
        r = au if av == base else au * p ** (av - base)
    if qval is not None:
        r += fu * bu if qval == base else fu * bu * p ** (qval - base)
    return _padic_make(desc, base, r, m)


def padic_dot(desc, row, column) -> tuple:
    """The fold acc + a * x from the exact zero over a row and a column of
    triples, one `padic_sub_product` per step."""
    acc = _ZERO
    for a, x in zip(row, column):
        acc = padic_sub_product(desc, acc, a, x)
    return acc


def padic_polynomial(desc, terms, xs) -> tuple:
    """The sum of coef * xs[i]**e * ... over the (coef, ((i, e), ...)) of
    `terms` (each coef a nonzero triple, each e >= 1), in two integer passes.

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
    for (val, unit, prec), support in terms:
        digits = prec - val
        bounded = False
        for i, e in support:
            xv, _, xp = xs[i]
            if xv is None:
                if xp is None:
                    break  # an exact zero factor
                bounded = True
                val += e * xp
            else:
                val += e * xv
                if xp - xv < digits:
                    digits = xp - xv
        else:
            if bounded:
                prec = val
            else:
                prec = val + digits
                known.append((val, unit, support))
            if m is None:
                m, base = prec, val
            else:
                if prec < m:
                    m = prec
                if val < base:
                    base = val
    if m is None:
        return _ZERO
    p = desc.prime
    mod = p ** (m - base)
    r = 0
    for val, unit, support in known:
        if val >= m:
            continue  # a multiple of p^(m - base) at base
        for i, e in support:
            u = xs[i][1]
            unit = unit * (u if e == 1 else pow(u, e, mod)) % mod
        r += unit if val == base else unit * p ** (val - base)
    return _padic_make(desc, base, r, m, mod)


_WORD = 2**64


def unit_inverse(u: int, p: int, k: int) -> int:
    """u^-1 mod p^k for an integer u prime to p.

    Below a machine word one modular `pow` is fastest.  Above it, the
    inverse mod p^e, the first power under a word (or p itself) on the chain
    k, ceil(k/2), ceil(k/4), ..., is lifted back up the chain by Newton steps
    y <- y(2 - uy), each of which doubles the digits that hold (von zur
    Gathen & Gerhard, Modern Computer Algebra, ch. 9).  CPython's
    `pow(u, -1, m)` is a quadratic extended Euclid: about 10x slower at
    1024 digits.
    """
    e, chain = k, []
    mod = p**k
    while e > 1 and mod >= _WORD:
        chain.append(e)
        e = (e + 1) // 2
        mod = p**e
    y = pow(u, -1, mod)
    for nxt in reversed(chain):
        # p^nxt is p^(2e) or p^(2e - 1): square the power we hold
        mod = mod * mod if nxt == 2 * e else mod * mod // p
        e = nxt
        y = y * (2 - u * y) % mod
    return y


def _divisor(desc, t) -> tuple:
    """The divisor triple t, refused as a division refuses it: the exact
    zero raises DivisionByZero, a bounded zero PrecisionExhausted."""
    if t[2] is None:
        raise DivisionByZero("division by zero")
    if t[0] is None:
        raise PrecisionExhausted(
            f"divisor is O({desc.prime}^{t[2]}): no known digits to divide by"
        )
    return t


def _padic_div(desc, a, b) -> tuple:
    bv, bu, bp = _divisor(desc, b)
    av, au, ap = a
    if ap is None:
        return a
    if av is None:
        return None, 0, ap - bv
    k = min(ap - av, bp - bv)
    p = desc.prime
    mod = p**k
    return _checked(desc, av - bv, au * unit_inverse(bu, p, k) % mod, av - bv + k, mod)


def padic_divided_difference(desc, us, vs, t) -> tuple:
    """(u - v)/t per coordinate of the triple vectors us and vs, bit for bit
    `_padic_add(desc, u, v, True)` followed by `_padic_div(desc, ..., t)`,
    with one unit inverse of t per vector.

    The divisor is checked first, as each division would.  Its unit is
    inverted mod p^(t's digit count); each quotient keeps the lesser digit
    count k of u - v and t, and an inverse mod a power of p is one mod every
    lower power, so reducing it mod p^k gives the digits `_padic_div` gives.
    """
    tval, tunit, tprec = _divisor(desc, t)
    p = desc.prime
    tdigits = tprec - tval
    inverse = unit_inverse(tunit, p, tdigits)
    out = []
    for u, v in zip(us, vs):
        val, unit, prec = d = _padic_add(desc, u, v, True)
        if prec is None:  # 0/t
            out.append(d)
        elif val is None:
            out.append((None, 0, prec - tval))
        else:
            k = prec - val
            if tdigits < k:
                k = tdigits
            mod = p**k
            out.append(_checked(desc, val - tval, unit * inverse % mod, val - tval + k, mod))
    return tuple(out)


def _padic_embed(desc, num: int, den: int) -> tuple:
    """num/den (integers, den != 0) as a triple of N digits."""
    if num == 0:
        return _ZERO
    p, n = desc.prime, desc.precision
    vn = int_valuation(num, p)
    vd = int_valuation(den, p)
    val = vn - vd
    mod = p**n
    unit = num // p**vn * pow(den // p**vd, -1, mod) % mod
    return _checked(desc, val, unit, val + n, mod)


def field_arith(a: Scalar, b: Scalar, op: str) -> Scalar:
    """Field operation on two scalars of the same descriptor; a p-adic one is
    its kernel on the two triples."""
    desc = a.descriptor
    if desc is not b.descriptor and desc != b.descriptor:
        raise SchemaError("operands from different fields")
    if isinstance(a, PadicScalar):
        x, y = a.raw, b.raw
        if op == "add":
            return padic_scalar(desc, _padic_add(desc, x, y))
        if op == "sub":
            return padic_scalar(desc, _padic_add(desc, x, y, True))
        if op == "mul":
            return padic_scalar(desc, _padic_mul(desc, x, y))
        if op == "div":
            return padic_scalar(desc, _padic_div(desc, x, y))
    else:
        x, y = a.value, b.value
        if op == "add":
            return RealScalar(desc, x + y)
        if op == "sub":
            return RealScalar(desc, x - y)
        if op == "mul":
            return RealScalar(desc, x * y)
        if op == "div":
            if y == 0.0:
                raise DivisionByZero("division by zero")
            return RealScalar(desc, x / y)
    raise SchemaError(f"unknown op {op!r}")


def field_abs(a: Scalar):
    """Absolute value at tracked precision.

    Padic scalars give the exact Fraction p^-v; anything that is zero at
    tracked precision reports 0 (use `abs_upper_bound` for a sound upper
    bound on such values).  Real scalars give a float.
    """
    if isinstance(a, PadicScalar):
        if a.val is None:
            return Fraction(0)
        return valuation_abs(a.descriptor.prime, a.val)
    return abs(a.value)


def abs_upper_bound(a: Scalar):
    """Sound upper bound for |a| even when digits have been exhausted."""
    if isinstance(a, PadicScalar):
        if a.is_exact_zero():
            return Fraction(0)
        return valuation_abs(a.descriptor.prime, a.prec if a.val is None else a.val)
    return abs(a.value)


def embed_rational(num, den, descriptor: FieldDescriptor) -> Scalar:
    """Exact embedding of num/den to full precision."""
    if isinstance(num, Fraction):
        if den != 1:
            num = num / den
        num, den = num.numerator, num.denominator
    if den == 0:
        raise DivisionByZero("zero denominator")
    if descriptor.kind == "real":
        return RealScalar(descriptor, num / den)
    return padic_scalar(descriptor, _padic_embed(descriptor, num, den))


def rational_abs(q, descriptor: FieldDescriptor) -> Fraction:
    """|q| of an exact rational, as an exact Fraction for either backend.

    This is the workhorse of every verification oracle: sampling checks stay
    in exact arithmetic on both the ultrametric and the archimedean side.
    """
    if type(q) is not Fraction:
        q = Fraction(q)
    if descriptor.kind == "real":
        return abs(q)
    if not q:
        return Fraction(0)
    return valuation_abs(descriptor.prime, rational_valuation(q, descriptor.prime))


def valuation_abs(p: int, v: int) -> Fraction:
    """p^-v, the absolute value of a p-adic number of valuation v, exactly."""
    return Fraction(1, p**v) if v >= 0 else Fraction(p**-v)
