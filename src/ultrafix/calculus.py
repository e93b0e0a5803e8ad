"""Polynomial maps and their difference-quotient calculus.

Maps are polynomials with exact rational coefficients, so the directional
difference quotient (f(x+ty) - f(x))/t has an exact polynomial closed form in
(x, y, t) and every quotient identity is decidable.  Lipschitz and strictness
moduli over max-norm balls come from coordinate telescoping of monomials:
exact and tight on the ultrametric side, conservative but sound on the real
side.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field as dc_field
from functools import cached_property
from fractions import Fraction
from operator import add, mul, truediv
from typing import Sequence

from .errors import BudgetExceeded, DimensionMismatch, DomainViolation, SchemaError
from .field import (
    FieldDescriptor,
    RealScalar,
    Scalar,
    _padic_add,
    _padic_div,
    _padic_embed,
    _padic_mul,
    _rational,
    embed_rational,
    int_valuation,
    padic_divided_difference,
    padic_dot,
    padic_polynomial,
    padic_scalar,
    padic_sub_product,
    rational_valuation,
)
from .linalg import (
    Ball,
    Operator,
    Vector,
    _exact,
    field_dot,
    int_mat_vec,
    int_vec_add_scaled,
    int_vec_divided,
    int_vec_scale,
    int_vec_sub,
    int_vector,
    int_vector_fractions,
    int_vectors_equal,
    rat_identity,
    ratio_vector,
)

Monomial = tuple[tuple[int, ...], Fraction]
Term = tuple[int, tuple[int, ...]]


def _exponent(value) -> int:
    q = _rational(value, "exponent")
    if q.denominator != 1 or q < 0:
        raise SchemaError(f"exponent {value!r} is not a non-negative integer")
    return q.numerator


def _table_row(monomials, dim: int) -> tuple[int, tuple[Term, ...]]:
    """One output of the table (see MapSpec) from (exponent vector,
    coefficient) pairs, each validated: like monomials merged, zeros
    dropped."""
    acc: dict[tuple[int, ...], Fraction] = {}
    for exps, coef in monomials:
        if type(exps) is not tuple or not all(type(e) is int for e in exps):
            exps = tuple(map(_exponent, exps))
        if len(exps) != dim or min(exps, default=0) < 0:
            raise SchemaError("exponent vector does not match domain dimension")
        coef = _rational(coef, "coefficient")
        if coef:
            acc[exps] = acc[exps] + coef if exps in acc else coef
    terms = sorted((e, c) for e, c in acc.items() if c)
    D = math.lcm(*(c.denominator for _, c in terms))
    return D, tuple((c.numerator * (D // c.denominator), e) for e, c in terms)


def _reduced(acc: dict, den: int) -> tuple[int, tuple[Term, ...]]:
    """One output of the table from integer numerators over den > 0, keyed
    by exponent vector: zeros dropped, and den and the numerators divided by
    their gcd, which leaves den the lcm of the reduced denominators."""
    terms = sorted((e, v) for e, v in acc.items() if v)
    g = math.gcd(den, *(v for _, v in terms))
    return den // g, tuple((v // g, e) for e, v in terms)


@dataclass(frozen=True, init=False)
class MapSpec:
    """A polynomial map K^m -> K^n with exact rational coefficients.

    It is stored as its integer table: per output i, (D_i, terms), D_i the
    lcm of the reduced denominators of its coefficients and one (c * D_i, a)
    per nonzero monomial c*x^a, sorted by exponent vector a.  The
    constructor and `from_coefficients` validate and normalise monomials
    once; the builders of this module emit tables.  `outputs` is the
    read-only Fraction view, per output its sorted (a, c) monomials.

    Instances are immutable values; the private cache only memoizes derived
    data (the common, frame, field and valuation tables, partials, the
    symbolic quotient, the twin without a domain) and `outputs` is a cached
    view, so sharing across threads is safe.
    """

    domain_dim: int
    table: tuple[tuple[int, tuple[Term, ...]], ...]
    domain: Ball | None = None
    _cache: dict = dc_field(default_factory=dict, compare=False, repr=False)

    def __init__(self, domain_dim: int, outputs, domain: Ball | None = None):
        """outputs: per coordinate, an iterable of (exponent vector, coefficient)."""
        self._fill(domain_dim, tuple(_table_row(out, domain_dim) for out in outputs), domain)

    def _fill(self, domain_dim: int, table, domain: Ball | None) -> None:
        if domain is not None and domain.dim != domain_dim:
            raise DimensionMismatch("domain ball dimension mismatch")
        for name, value in (("domain_dim", domain_dim), ("table", table), ("domain", domain), ("_cache", {})):
            object.__setattr__(self, name, value)

    @property
    def codomain_dim(self) -> int:
        return len(self.table)

    @cached_property
    def outputs(self) -> tuple[tuple[Monomial, ...], ...]:
        return tuple(tuple((e, Fraction(c, D)) for c, e in terms) for D, terms in self.table)

    @classmethod
    def from_coefficients(cls, domain_dim, outputs, domain=None) -> "MapSpec":
        """outputs: per coordinate, an iterable of (coef, exponent-vector)."""
        return cls(domain_dim, (((e, c) for c, e in out) for out in outputs), domain)

    @classmethod
    def identity(cls, dim: int) -> "MapSpec":
        return _from_table(dim, tuple((1, ((1, _unit(j, dim)),)) for j in range(dim)))

    def without_domain(self) -> "MapSpec":
        if self.domain is None:
            return self
        got = self._cache.get("bare")
        if got is None:
            got = self._cache["bare"] = _from_table(self.domain_dim, self.table)
        return got


def _from_table(domain_dim: int, table, domain: Ball | None = None) -> MapSpec:
    """The map of a normalised table, as the builders emit it."""
    f = object.__new__(MapSpec)
    f._fill(domain_dim, table, domain)
    return f


def _unit(j: int, dim: int, e: int = 1) -> tuple[int, ...]:
    """The exponent vector of x_j^e."""
    return tuple(e if i == j else 0 for i in range(dim))


def _check_point_in_domain(f: MapSpec, point) -> None:
    if f.domain is None:
        return
    comps = _as_components(point)
    if comps and isinstance(comps[0], Scalar):
        if not f.domain.contains_tracked(Vector(comps)):
            raise DomainViolation("point escapes the map's domain ball")
    elif not f.domain.contains_rational(comps):
        raise DomainViolation("point outside the map's domain ball")


def _as_components(point) -> tuple:
    if isinstance(point, Vector):
        return point.components
    return tuple(point)


def eval_map(f: MapSpec, point, descriptor: FieldDescriptor | None = None):
    """Exact polynomial evaluation; rational in, rational out (same for scalars).

    `descriptor` is the field of the values where the point has no
    coordinates (a constant f); a point whose coordinates are not scalars
    of that field is a SchemaError."""
    comps = _as_components(point)
    if len(comps) != f.domain_dim:
        raise DimensionMismatch(f"expected {f.domain_dim} coordinates, got {len(comps)}")
    _check_point_in_domain(f, point)
    if comps and isinstance(comps[0], Scalar):
        desc = comps[0].descriptor
        if descriptor is not None and descriptor is not desc and descriptor != desc:
            raise SchemaError("point coordinates are not scalars of the given field")
    elif descriptor is None:
        values, den = eval_ints(f, *int_vector(_exact(comps)))
        return tuple(Fraction(v, den) for v in values)
    elif comps:
        raise SchemaError("point coordinates are not scalars of the given field")
    else:
        desc = descriptor
    values = _eval_field(f, comps, desc)
    return Vector(values) if isinstance(point, Vector) else values


def _support(exps) -> tuple[tuple[int, int], ...]:
    return tuple((i, e) for i, e in enumerate(exps) if e)


def _common_table(f: MapSpec):
    """The table of f over one denominator: (degree, D, outputs), D the lcm
    of the outputs' denominators D_i and, per output, D / D_i and one
    (c, |a|, support of a) per term (c, a)."""
    got = f._cache.get("common")
    if got is None:
        D = math.lcm(*(d for d, _ in f.table))
        outputs = tuple(
            (D // d, tuple((c, sum(exps), _support(exps)) for c, exps in terms)) for d, terms in f.table
        )
        degree = max((deg for _, terms in outputs for _, deg, _ in terms), default=0)
        got = f._cache["common"] = (degree, D, outputs)
    return got


def eval_ints(f: MapSpec, nums, den: int) -> tuple[tuple[int, ...], int]:
    """f at the rational point nums/den, as an integer vector (see
    `linalg.int_vector`): from the common table of f, output i is
    D/D_i * sum(c*D_i * den^(deg-|a|) * nums^a) over D * den^deg."""
    degree, D, outputs = _common_table(f)
    scale = [1]
    for _ in range(degree):
        scale.append(scale[-1] * den)
    out = []
    for ratio, terms in outputs:
        acc = 0
        for c, deg, support in terms:
            term = c * scale[degree - deg]
            for i, e in support:
                term *= nums[i] ** e
            acc += term
        out.append(acc * ratio)
    return tuple(out), D * scale[degree]


def _field_table(f: MapSpec, desc: FieldDescriptor):
    """Per output, (embedded coefficient, support of the exponents) per
    monomial; over Q_p the coefficient is its triple."""
    cache = f._cache.setdefault("coef", {})
    got = cache.get(desc)
    if got is None:
        if desc.ultrametric:
            embed = lambda c, D: _padic_embed(desc, c, D)  # noqa: E731
        else:
            embed = lambda c, D: embed_rational(c, D, desc)  # noqa: E731
        got = cache[desc] = tuple(
            tuple((embed(c, D), _support(exps)) for c, exps in terms) for D, terms in f.table
        )
    return got


def _eval_padic(f: MapSpec, xs, desc: FieldDescriptor) -> tuple:
    """f at a point of Q_p triples, one triple per output: each output is
    one `padic_polynomial` pass."""
    return tuple([padic_polynomial(desc, terms, xs) for terms in _field_table(f, desc)])


def _eval_field(f: MapSpec, comps, desc: FieldDescriptor) -> tuple:
    """The same values, bit for bit, as multiplying out and summing the
    monomials one field operation at a time in monomial order.  Over Q_p
    each output is one `padic_polynomial` pass on the point's triples, as
    in `_eval_padic`, and one scalar."""
    for x in comps:
        other = getattr(x, "descriptor", None)
        if other is not desc and other != desc:
            raise SchemaError("operands from different fields")
    if desc.ultrametric:
        xs = [x.raw for x in comps]
        return tuple([padic_scalar(desc, padic_polynomial(desc, terms, xs)) for terms in _field_table(f, desc)])
    xs = [x.value for x in comps]
    out = []
    for terms in _field_table(f, desc):
        acc = 0.0
        for coef, support in terms:
            term = coef.value
            for i, e in support:
                power = xs[i]
                for _ in range(e - 1):
                    power *= xs[i]
                term *= power
            acc += term
        out.append(RealScalar(desc, acc))
    return tuple(out)


# ---------------------------------------------------------------------------
# Exact polynomial algebra


def _int_poly_mul(a: dict, b: dict) -> dict:
    """The product of two integer polynomials, dicts from exponent vectors
    to integer coefficients."""
    out: dict[tuple[int, ...], int] = {}
    for ea, ca in a.items():
        for eb, cb in b.items():
            key = tuple(map(add, ea, eb))
            out[key] = out.get(key, 0) + ca * cb
    return out


def compose(g: MapSpec, f: MapSpec) -> MapSpec:
    """Exact polynomial composition g after f, in integers.

    From the tables, output j of f is P_j / D_j, P_j an integer polynomial,
    and output i of g sums C_a y^a / D_i.  With E_j the largest exponent of
    y_j in output i, g_i(f) is the sum of C_a * prod_j D_j^(E_j - a_j)
    P_j^(a_j) over D_i * prod_j D_j^(E_j): integer products over one
    denominator, each power P_j^e formed once.
    """
    if g.domain_dim != f.codomain_dim:
        raise DimensionMismatch(
            f"composition needs codomain {g.domain_dim}, map produces {f.codomain_dim}"
        )
    dens = [D for D, _ in f.table]
    one = {(0,) * f.domain_dim: 1}
    powers = [[one, {exps: c for c, exps in terms}] for _, terms in f.table]

    def power(j: int, e: int) -> dict:
        got = powers[j]
        while len(got) <= e:
            got.append(_int_poly_mul(got[-1], got[1]))
        return got[e]

    outputs = []
    for D, terms in g.table:
        top = [max(column) for column in zip(*(exps for _, exps in terms))]
        acc: dict[tuple[int, ...], int] = {}
        for c, exps in terms:
            scale = c * math.prod(d ** (t - a) for d, t, a in zip(dens, top, exps))
            support = _support(exps)
            term = power(*support[0]) if support else one
            for j, e in support[1:]:
                term = _int_poly_mul(term, power(j, e))
            for key, v in term.items():
                acc[key] = acc.get(key, 0) + scale * v
        outputs.append(_reduced(acc, D * math.prod(d**t for d, t in zip(dens, top))))
    return _from_table(f.domain_dim, tuple(outputs), f.domain)


def partial_map(f: MapSpec, j: int) -> MapSpec:
    """Exact partial derivative with respect to variable j."""
    return _from_table(f.domain_dim, tuple(
        _reduced({exps[:j] + (exps[j] - 1,) + exps[j + 1:]: c * exps[j] for c, exps in terms if exps[j]}, D)
        for D, terms in f.table
    ))


def _partials(f: MapSpec) -> tuple[MapSpec, ...]:
    got = f._cache.get("partials")
    if got is None:
        got = tuple(partial_map(f, j) for j in range(f.domain_dim))
        f._cache["partials"] = got
    return got


def jacobian(f: MapSpec, x) -> Operator:
    """The derivative at x as an operator (column j = d f(x, e_j))."""
    if not f.domain_dim:
        raise DimensionMismatch("a map of no variables has an empty Jacobian, "
                                "and an Operator needs at least one column")
    comps = _as_components(x)
    _check_point_in_domain(f, x)
    if not (comps and isinstance(comps[0], Scalar)):
        raise SchemaError("jacobian over the field needs scalar coordinates; "
                          "use jacobian_exact for rational points")
    return Operator(_jacobian_field(f, comps, comps[0].descriptor))


def _jacobian_field(f: MapSpec, comps, desc: FieldDescriptor, evaluate=None) -> tuple:
    """The rows of Df at a point of desc, one `evaluate` pass per partial
    map: `_eval_field` on scalars, or `_eval_padic` on Q_p triples; a map of
    no variables has empty rows."""
    evaluate = evaluate or _eval_field
    cols = [evaluate(p, comps, desc) for p in _partials(f)]
    return tuple(tuple(col[i] for col in cols) for i in range(f.codomain_dim))


def jacobian_exact(f: MapSpec, x: Sequence) -> tuple[tuple[Fraction, ...], ...]:
    """The derivative at a rational point, as exact rational rows."""
    xs = _exact(x)
    if len(xs) != f.domain_dim:
        raise DimensionMismatch(f"expected {f.domain_dim} coordinates, got {len(xs)}")
    rows, den = jacobian_ints(f, *int_vector(xs))
    return tuple(tuple(Fraction(a, den) for a in row) for row in rows)


def jacobian_ints(f: MapSpec, nums, den: int):
    """Df at the rational point nums/den as an integer matrix (rows, D') (see
    `linalg.int_matrix`): from the common table of f, as eval_ints, entry
    (i, j) is D/D_i times the sum of c*D_i * a_j * den^(deg-|a|) *
    nums^(a - e_j) over the monomials c*x^a of output i, and
    D' = D * den^(deg-1)."""
    degree, D, outputs = _common_table(f)
    top = max(degree - 1, 0)
    scale = [1]
    for _ in range(top):
        scale.append(scale[-1] * den)
    rows = []
    for ratio, terms in outputs:
        acc = [0] * f.domain_dim
        for c, deg, support in terms:
            if not deg:
                continue
            c *= scale[degree - deg]
            lowered = [nums[i] ** (e - 1) for i, e in support]
            for k, (j, e) in enumerate(support):
                term = c * e * lowered[k]
                for k2, (i, _) in enumerate(support):
                    if k2 != k:
                        term *= lowered[k2] * nums[i]
                acc[j] += term
        rows.append(tuple(a * ratio for a in acc))
    return tuple(rows), D * scale[top]


def _frame_table(f: MapSpec, p: int, s: int):
    """f over Z_p in the frame X = p^s x: (guard, outputs), each output
    (u, d, terms) with p^s f_i(X / p^s) = sum(K * X^a) / (u * p^d) over
    one (K, support of a) per monomial c*x^a of f_i.

    From the table, f_i = sum(c * x^a) / D with D = u * p^delta, so
    the term of c*x^a in the frame is c * p^(s(1 - |a|) - delta) * X^a; d,
    the output's guard digits, is the least d >= 0 that leaves every K an
    integer, and guard the largest d."""
    key = ("frame", p, s)
    got = f._cache.get(key)
    if got is None:
        table = []
        for D, terms in f.table:
            delta = int_valuation(D, p)
            shifts = [s * (1 - sum(exps)) - delta for _, exps in terms]
            d = max([0] + [-(e + int_valuation(c, p)) for (c, _), e in zip(terms, shifts)])
            table.append((D // p**delta, d, tuple(
                (c * p ** (e + d) if e + d >= 0 else c // p ** -(e + d), _support(exps))
                for (c, exps), e in zip(terms, shifts)
            )))
        guard = max((d for _, d, _ in table), default=0)
        got = f._cache[key] = (guard, tuple(table))
    return got


def modular_sweep(f: MapSpec, p: int, s: int, xs, width: int, jacobian: bool = True) -> list:
    """The values and Jacobian rows of f at the integer point xs of the frame
    X = p^s x, in one pass over its frame table (`_frame_table`), modulo
    p^(width + guard).

    Returns one (u, d, value, row) per output: p^s f_i(x) = value / (u p^d)
    and row[j] / (u p^d) = d f_i / d x_j, row read from the same table as
    jacobian_exact reads it; without `jacobian` row is None and only the
    values are formed.  Each power of a coordinate is formed once, reduced
    mod p^(width + guard)."""
    guard, table = _frame_table(f, p, s)
    mod = p ** (width + guard)
    powers = {}

    def power(i: int, e: int) -> int:
        if e < 2:
            return xs[i] if e else 1
        got = powers.get((i, e))
        if got is None:
            got = powers[i, e] = pow(xs[i], e, mod)
        return got

    out = []
    for u, d, terms in table:
        value, row = 0, [0] * f.domain_dim
        for c, support in terms:
            if len(support) == 1:
                ((i, e),) = support
                value += c * power(i, e)
                if jacobian:
                    row[i] += c * e * power(i, e - 1)
                continue
            factors = [power(i, e) for i, e in support]
            term = c
            for x in factors:
                term = term * x % mod
            value += term
            if not jacobian:
                continue
            for k, (j, e) in enumerate(support):
                term = c * e * power(j, e - 1)
                for k2, x in enumerate(factors):
                    if k2 != k:
                        term = term * x % mod
                row[j] += term
        out.append((u, d, value % mod, [a % mod for a in row] if jacobian else None))
    return out


def substitute_prefix(f: MapSpec, values: Sequence, first: int = 0) -> MapSpec:
    """Fix the variables first, ..., first + len(values) - 1 to exact rationals.

    With the values nums / L over one denominator, a term (c, a) of output i
    becomes c * nums^a' * L^(E - |a'|) x^a'' over D_i * L^E, a' the exponents
    of the fixed variables, a'' the others and E the largest |a'|."""
    stop = first + len(values)
    nums, L = int_vector(_exact(values))
    outputs = []
    for D, terms in f.table:
        top = max((sum(exps[first:stop]) for _, exps in terms), default=0)
        acc: dict[tuple[int, ...], int] = {}
        for c, exps in terms:
            fixed = exps[first:stop]
            for v, e in zip(nums, fixed):
                if e:
                    c *= v**e
            key = exps[:first] + exps[stop:]
            acc[key] = acc.get(key, 0) + c * L ** (top - sum(fixed))
        outputs.append(_reduced(acc, D * L**top))
    return _from_table(f.domain_dim - len(values), tuple(outputs))


def affine_map(
    f: MapSpec, rows: Sequence[Sequence], linear: Sequence[Sequence] | None = None,
    shift: Sequence | None = None,
) -> MapSpec:
    """x -> rows.f(x) + linear.x + shift as an exact polynomial map on f's domain.

    rows has one column per output of f, linear one per variable; a term whose
    coefficient sums to zero drops out of the MapSpec.  Each output is summed
    in integers over one common denominator of its row's entries and of the
    table of f.
    """
    m = f.domain_dim
    if any(len(r) != f.codomain_dim for r in rows) or (
        linear is not None
        and (len(linear) != len(rows) or any(len(r) != m for r in linear))
    ):
        raise DimensionMismatch("linear part shape mismatch")
    units = tuple(_unit(j, m) for j in range(m))
    shift = None if shift is None else _exact(shift)
    outputs = []
    for i, row in enumerate(rows):
        row = _exact(row)
        extra = [] if linear is None else list(zip(units, _exact(linear[i])))
        if shift is not None:
            extra.append(((0,) * m, shift[i]))
        den = math.lcm(
            *(a.denominator * D for a, (D, _) in zip(row, f.table) if a),
            *(b.denominator for _, b in extra),
        )
        acc: dict[tuple[int, ...], int] = {}
        for a, (D, terms) in zip(row, f.table):
            if a:
                k = a.numerator * (den // (a.denominator * D))
                for c, exps in terms:
                    acc[exps] = acc.get(exps, 0) + k * c
        for exps, b in extra:
            acc[exps] = acc.get(exps, 0) + b.numerator * (den // b.denominator)
        outputs.append(_reduced(acc, den))
    return _from_table(m, tuple(outputs), f.domain)


# ---------------------------------------------------------------------------
# Symbolic difference quotients


def quotient_map(f: MapSpec) -> MapSpec:
    """The extended difference quotient as a polynomial map in (x, y, t).

    f(x + ty) is the composition of f after x + ty, over the 2m+1 variables
    ordered (x_1..x_m, y_1..y_m, t).  Its terms free of t are f(x); the
    others, with the exponent of t lowered by one, are (f(x+ty) - f(x))/t.
    """
    got = f._cache.get("quotient")
    if got is not None:
        return got
    m = f.domain_dim
    n = 2 * m + 1
    unit = lambda *indices: tuple(int(v in indices) for v in range(n))
    # x_i + t y_i, its terms in table order
    shift = _from_table(n, tuple((1, ((1, unit(m + i, n - 1)), (1, unit(i)))) for i in range(m)))
    got = f._cache["quotient"] = _from_table(n, tuple(
        _reduced({exps[:-1] + (exps[-1] - 1,): c for c, exps in terms if exps[-1]}, D)
        for D, terms in compose(f, shift).table
    ))
    return got


@dataclass(frozen=True)
class QuotientPoint:
    """A point (x, y, t) of the extended quotient domain U^[1].

    x and y may be Vectors of scalars or tuples of rationals; for the second
    quotient they are themselves QuotientPoints.
    """

    x: object
    y: object
    t: object


def _flatten(q) -> tuple:
    if isinstance(q, QuotientPoint):
        return _flatten(q.x) + _flatten(q.y) + _flatten(q.t)
    if isinstance(q, Vector):
        return q.components
    if isinstance(q, (tuple, list)):
        return tuple(q)
    return (q,)


def _quotient_value(f: MapSpec, x, y, t, evaluate, mutation=None):
    """f^[1](x, y, t): difference quotient for t != 0, df(x, y) at t = 0.

    The values and their arithmetic are those of `evaluate` (see
    `_ExactSamples`, `_PadicSamples` and `_FieldSamples`), which evaluates
    f and its Jacobian; the domain is checked only when f has one."""
    if f.domain is not None:
        _check_point_in_domain(f, evaluate.show(x))
    if evaluate.is_zero(t):
        return evaluate.derivative(f, x, y)
    shifted = evaluate.add_scaled(x, y, t)
    if f.domain is not None:
        _check_point_in_domain(f, evaluate.show(shifted))
        f = f.without_domain()
    fx = evaluate(f, x)
    q = evaluate.divided_difference(evaluate(f, shifted), fx, t)
    if mutation is not None:
        q = mutation(q, evaluate.descriptor)
    return q


def _public_point(*groups):
    """The one field of a public quotient point's values, None when all are
    exact rationals (values of two fields, or scalars among rationals, are a
    SchemaError), and its groups as tuples, read through Fraction when exact."""
    groups = [_as_components(g) for g in groups]
    fields = {getattr(v, "descriptor", None) for g in groups for v in g}
    if len(fields) > 1:
        raise SchemaError("operands from different fields")
    desc = fields.pop() if fields else None
    return desc, [g if desc is not None else tuple(_exact(g)) for g in groups]


def diff_quotient(f: MapSpec, q: QuotientPoint):
    """Evaluate the extended difference quotient at (x, y, t)."""
    desc, (x, y, (t,)) = _public_point(q.x, q.y, (q.t,))
    for v in (x, y):
        if len(v) != f.domain_dim:
            raise DimensionMismatch(f"expected {f.domain_dim} coordinates, got {len(v)}")
    ev = _samples(desc)
    value = ev.show(_quotient_value(f, ev.enter(x), ev.enter(y), ev.enter1(t), ev))
    if isinstance(q.x, Vector):
        return Vector(value)
    return value


def second_quotient(f: MapSpec, outer: QuotientPoint):
    """f^[2] = (f^[1])^[1], evaluated literally.

    The outer point consists of two inner quotient points and an outer scalar;
    at outer scalar zero this is the directional derivative of the symbolic
    quotient map.
    """
    desc, (a, b, (t,)) = _public_point(_flatten(outer.x), _flatten(outer.y), (outer.t,))
    m = f.domain_dim
    if len(a) != 2 * m + 1 or len(b) != 2 * m + 1:
        raise DimensionMismatch("second quotient needs inner points of U^[1]")
    ev = _samples(desc)
    return ev.show(_second_quotient_value(f, ev.enter(a), ev.enter(b), ev.enter1(t), ev))


def _second_quotient_value(f: MapSpec, a, b, t, evaluate, mutation=None):
    """f^[2](a, b, t) for flat inner points a, b of U^[1]; a mutation
    corrupts the inner quotients, and `evaluate` evaluates f, as in
    _quotient_value."""
    m = f.domain_dim
    if f.domain is not None:
        _check_inner_membership(f, a, evaluate)
    if evaluate.is_zero(t):
        return evaluate.derivative(quotient_map(f), a, b)
    shifted = evaluate.add_scaled(a, b, t)
    if f.domain is not None:
        _check_inner_membership(f, shifted, evaluate)
    qa = _quotient_value(f, *evaluate.split(a, m), evaluate, mutation)
    qs = _quotient_value(f, *evaluate.split(shifted, m), evaluate, mutation)
    return evaluate.divided_difference(qs, qa, t)


def _check_inner_membership(f: MapSpec, a, evaluate) -> None:
    x, y, t = evaluate.split(a, f.domain_dim)
    _check_point_in_domain(f, evaluate.show(x))
    if not evaluate.is_zero(t):
        _check_point_in_domain(f, evaluate.show(evaluate.add_scaled(x, y, t)))


# ---------------------------------------------------------------------------
# Lipschitz and strictness moduli


def telescoped_lipschitz(
    f: MapSpec, sups: Sequence[Fraction], var_indices: Sequence[int], descriptor
) -> Fraction:
    """Upper bound on the Lipschitz constant in the chosen variables, with the
    remaining variables ranging over the same coordinate sups.

    Telescoping coordinate-by-coordinate bounds each one-variable difference
    z^k - y^k by k*s^(k-1) (real) or s^(k-1) (ultrametric) times |z - y|.
    Ultrametric sups are absolute values: powers of p, or 0.
    """
    chosen = frozenset(var_indices)
    if descriptor.ultrametric:
        return _ultrametric_lipschitz(f, sups, chosen, descriptor.prime)
    zero = Fraction(0)
    row_bounds = []
    for D, terms in f.table:
        bound = zero
        for c, exps in terms:
            support = _support(exps)
            for j, a in support:
                if j in chosen:
                    bound += abs(c) * a * math.prod(sups[i] ** (e - (i == j)) for i, e in support)
        row_bounds.append(bound / D)
    return max(row_bounds, default=zero)


def _valuation_table(f: MapSpec, p: int):
    """Per monomial c*x^a of every output, (v_p(c), support of a)."""
    cache = f._cache.setdefault("valuations", {})
    got = cache.get(p)
    if got is None:
        got = cache[p] = tuple(
            (int_valuation(c, p) - int_valuation(D, p), _support(exps))
            for D, terms in f.table for c, exps in terms
        )
    return got


def _ultrametric_lipschitz(f: MapSpec, sups, chosen: frozenset, p: int) -> Fraction:
    """The ultrametric telescoped bound in exponents.

    With s_i = p^(l_i), the term of monomial c*x^a and variable j is
    p^(-v(c) + sum(a_i l_i) - l_j), or 0 when a zero sup keeps a positive
    exponent.  The bound is the largest term: p to the largest exponent.
    """
    logs = []
    for s in sups:
        if s == 0:
            logs.append(None)
            continue
        l = rational_valuation(s, p)
        if Fraction(p) ** l != s:
            raise ValueError(f"ultrametric sup {s} is not a power of {p}")
        logs.append(l)
    best = None
    for v, support in _valuation_table(f, p):
        exponent, zeros, lowest = -v, [], None
        for i, e in support:
            if logs[i] is None:
                zeros.append((i, e))
                continue
            exponent += logs[i] * e
            if i in chosen and (lowest is None or logs[i] < lowest):
                lowest = logs[i]
        if not zeros:
            if lowest is None:
                continue
            exponent -= lowest
        elif not (len(zeros) == 1 and zeros[0][1] == 1 and zeros[0][0] in chosen):
            continue  # every term of this monomial has a zero factor
        if best is None or exponent > best:
            best = exponent
    return Fraction(0) if best is None else Fraction(p) ** best


def _require_ball_in_domain(f: MapSpec, ball: Ball) -> None:
    if ball.dim != f.domain_dim:
        raise DimensionMismatch("ball dimension mismatch")
    if f.domain is not None and not f.domain.contains_ball(ball):
        raise DomainViolation("ball is not inside the map's domain")


def lipschitz_bound(f: MapSpec, ball: Ball) -> Fraction:
    """Upper bound for Lip(f) on the ball, exact in the value group."""
    _require_ball_in_domain(f, ball)
    return telescoped_lipschitz(
        f, ball.coordinate_sups(), range(f.domain_dim), ball.descriptor
    )


def strictness_modulus(f: MapSpec, A: Sequence[Sequence] | Operator, ball: Ball) -> Fraction:
    """Upper bound on sup ||f(z)-f(y)-A(z-y)|| / ||z-y|| over distinct pairs
    in the ball: the Lipschitz bound of the residual f - A."""
    rows = A.to_rationals() if isinstance(A, Operator) else A
    minus_a = tuple(tuple(-Fraction(v) for v in r) for r in rows)
    return lipschitz_bound(affine_map(f, rat_identity(f.codomain_dim), minus_a), ball)


# ---------------------------------------------------------------------------
# Identity suite


@dataclass
class IdentityResult:
    name: str
    samples: int
    failures: int
    counterexample: dict | None = None

    @property
    def passed(self) -> bool:
        return self.failures == 0


@dataclass
class IdentityReport:
    results: list[IdentityResult]

    @property
    def passed(self) -> bool:
        return all(r.passed for r in self.results)

    def first_failure(self) -> IdentityResult | None:
        for r in self.results:
            if not r.passed:
                return r
        return None


class _ExactSamples:
    """The values of one exact sample of the identity suite, and their
    arithmetic in integer products: a vector is an integer vector (nums,
    den) over one denominator (`linalg.int_vector`), a scalar a pair (n, d)
    with d > 0.  Fractions are formed only by `show`, for a report.

    As an evaluator it evaluates each distinct (map, point) once: the key is
    the map's id and the point reduced by the gcd of its numerators and den,
    which is canonical.  The maps are held for the evaluator's life, so
    their ids stay unique.  check_identities makes one per sample.
    """

    descriptor = None

    def __init__(self):
        self._values = {}
        self._jacobians = {}

    @staticmethod
    def _key(f: MapSpec, x):
        nums, den = x
        g = math.gcd(*nums, den)
        if g > 1:
            nums, den = tuple(n // g for n in nums), den // g
        return (id(f), den, nums), nums, den

    def __call__(self, f: MapSpec, x):
        key, nums, den = self._key(f, x)
        got = self._values.get(key)
        if got is None:
            got = self._values[key] = (f, eval_ints(f, nums, den))
        return got[1]

    def derivative(self, f: MapSpec, x, y):
        """Df(x).y, the Jacobian of f at x formed once."""
        key, nums, den = self._key(f, x)
        got = self._jacobians.get(key)
        if got is None:
            got = self._jacobians[key] = (f, jacobian_ints(f, nums, den))
        return int_mat_vec(got[1], y)

    lift, lift1 = staticmethod(ratio_vector), staticmethod(lambda draw: draw)
    enter, show = staticmethod(int_vector), staticmethod(int_vector_fractions)
    enter1 = staticmethod(lambda q: (q.numerator, q.denominator))
    sub, equal = staticmethod(int_vec_sub), staticmethod(int_vectors_equal)
    scale, add_scaled = staticmethod(int_vec_scale), staticmethod(int_vec_add_scaled)
    divided_difference = staticmethod(int_vec_divided)
    is_zero = staticmethod(lambda t: not t[0])
    mul = staticmethod(lambda s, t: (s[0] * t[0], s[1] * t[1]))

    @staticmethod
    def div(s, t):
        sign = -1 if t[0] < 0 else 1
        return sign * s[0] * t[1], sign * s[1] * t[0]

    @staticmethod
    def point(x, y, t):
        """The flat point (x, y, t) of U^[1], over the lcm of the three
        denominators."""
        (a, dx), (b, dy), (tn, td) = x, y, t
        den = math.lcm(dx, dy, td)
        kx, ky = den // dx, den // dy
        return tuple(n * kx for n in a) + tuple(n * ky for n in b) + (tn * (den // td),), den

    @staticmethod
    def split(a, m: int):
        """A flat point of U^[1] as (x, y, t) over its denominator."""
        nums, den = a
        return (nums[:m], den), (nums[m : 2 * m], den), (nums[2 * m], den)


class _FieldSamples:
    """The values of one sample of the identity suite over the reals, tuples
    of its scalars, with the arithmetic and the evaluator of _ExactSamples.

    A point's key is its coordinates' exact doubles: evaluation is a
    deterministic function of the map and of them, so a repeated point gets
    the values it would get again.
    """

    def __init__(self, descriptor: FieldDescriptor):
        self.descriptor = descriptor
        self._values = {}
        self._jacobians = {}

    def __call__(self, f: MapSpec, x):
        key = (id(f), *(a.value.hex() for a in x))
        got = self._values.get(key)
        if got is None:
            got = self._values[key] = (f, eval_map(f, x, self.descriptor))
        return got[1]

    def derivative(self, f: MapSpec, x, y):
        """Df(x).y, the Jacobian rows of f at x formed once, each applied
        by `linalg.field_dot`."""
        key = (id(f), *(a.value.hex() for a in x))
        got = self._jacobians.get(key)
        if got is None:
            got = self._jacobians[key] = (f, _jacobian_field(f, x, self.descriptor))
        return tuple(field_dot(self.descriptor, row, y) for row in got[1])

    def lift(self, draws):
        return tuple(embed_rational(n, d, self.descriptor) for n, d in draws)

    def lift1(self, draw):
        return embed_rational(*draw, self.descriptor)

    enter = staticmethod(tuple)
    enter1 = show = staticmethod(lambda values: values)
    mul, div = staticmethod(mul), staticmethod(truediv)
    is_zero = staticmethod(lambda t: t.is_zero())
    scale = staticmethod(lambda t, v: tuple(t * a for a in v))
    sub = staticmethod(lambda u, v: tuple(a - b for a, b in zip(u, v)))
    equal = staticmethod(lambda u, v: all((a - b).is_zero() for a, b in zip(u, v)))
    add_scaled = staticmethod(lambda x, y, t: tuple(a + t * b for a, b in zip(x, y)))
    divided_difference = staticmethod(lambda u, v, t: tuple((a - b) / t for a, b in zip(u, v)))
    point = staticmethod(lambda x, y, t: x + y + (t,))
    split = staticmethod(lambda a, m: (a[:m], a[m : 2 * m], a[2 * m]))


class _PadicSamples:
    """The values of one sample of the identity suite over Q_p, as the
    triples (val, unit, prec) that a PadicScalar holds, with the arithmetic
    and the evaluator of _ExactSamples: each operation is one kernel of
    `field` (x + t*y one `padic_sub_product` per coordinate, u - v one
    `_padic_add` per coordinate, and (u - v)/t one `padic_divided_difference`,
    the same subtraction divided with one unit inverse of t), and
    PadicScalars are formed only by `show`, for a report or a domain check.

    A point's key is its tuple of triples, which decides its evaluation.
    """

    def __init__(self, descriptor: FieldDescriptor):
        self.descriptor = descriptor
        self._values = {}
        self._jacobians = {}

    def __call__(self, f: MapSpec, x):
        key = (id(f), x)
        got = self._values.get(key)
        if got is None:
            got = self._values[key] = (f, _eval_padic(f, x, self.descriptor))
        return got[1]

    def derivative(self, f: MapSpec, x, y):
        """Df(x).y, the Jacobian rows of f at x formed once, each applied
        by `field.padic_dot`."""
        desc = self.descriptor
        key = (id(f), x)
        got = self._jacobians.get(key)
        if got is None:
            got = self._jacobians[key] = (f, _jacobian_field(f, x, desc, _eval_padic))
        return tuple(padic_dot(desc, row, y) for row in got[1])

    def lift(self, draws):
        desc = self.descriptor
        return tuple(_padic_embed(desc, n, d) for n, d in draws)

    def lift1(self, draw):
        return _padic_embed(self.descriptor, *draw)

    enter = staticmethod(lambda values: tuple(a.raw for a in values))
    enter1 = staticmethod(lambda t: t.raw)

    def show(self, values):
        desc = self.descriptor
        return tuple(padic_scalar(desc, a) for a in values)

    def mul(self, s, t):
        return _padic_mul(self.descriptor, s, t)

    def div(self, s, t):
        return _padic_div(self.descriptor, s, t)

    is_zero = staticmethod(lambda t: t[0] is None)

    def scale(self, t, v):
        desc = self.descriptor
        return tuple(_padic_mul(desc, t, a) for a in v)

    def sub(self, u, v):
        desc = self.descriptor
        return tuple(_padic_add(desc, a, b, True) for a, b in zip(u, v))

    def equal(self, u, v):
        desc = self.descriptor
        return all(_padic_add(desc, a, b, True)[0] is None for a, b in zip(u, v))

    def add_scaled(self, x, y, t):
        desc = self.descriptor
        return tuple(padic_sub_product(desc, a, t, b) for a, b in zip(x, y))

    def divided_difference(self, u, v, t):
        return padic_divided_difference(self.descriptor, u, v, t)

    point, split = staticmethod(_FieldSamples.point), staticmethod(_FieldSamples.split)


def _samples(descriptor: FieldDescriptor | None):
    """A fresh sample over the field, or in exact arithmetic for None."""
    if descriptor is None:
        return _ExactSamples()
    return _PadicSamples(descriptor) if descriptor.ultrametric else _FieldSamples(descriptor)


def _companion_map(n: int) -> MapSpec:
    """Fixed quadratic companion used to exercise the chain rule."""
    linear = {_unit(j, n): 1 for j in range(n)}
    return _from_table(n, tuple(_reduced({_unit(i, n, 2): 1, **linear}, 1) for i in range(n)))


def quotient_offset_mutation(values, descriptor: FieldDescriptor | None):
    """Deliberate off-by-one corruption of the t != 0 quotient branch, on an
    integer vector when descriptor is None and on triples over Q_p."""
    if descriptor is None:
        nums, den = values
        return tuple(n + den for n in nums), den
    if descriptor.ultrametric:
        one = _padic_embed(descriptor, 1, 1)
        return tuple(_padic_add(descriptor, v, one) for v in values)
    one = descriptor.one()
    return tuple(v + one for v in values)


_MUTATIONS = {"quotient-offset": quotient_offset_mutation}

DEGREE_BUDGET = 1024
"""The highest total degree of a monomial in a map read from JSON.  `check`
is the command whose cost grows with the degree: its 1000 default samples,
exact and over Q5 at 4 digits, take about 0.20 s on x + x^2, 2.3 s on
x + x^1024 and 46 s on x + x^6400 (2-core x86_64 VM, Python 3.11);
certify, invert and fixpoint on x + x^1024 take a millisecond or less."""

SAMPLE_BUDGET = 100_000
"""The most samples one check_identities run may draw; the CLI default is
1000.  On the plus_square test map a sample takes about 0.08 ms in exact
arithmetic and 0.11 ms over Q5 at 4 digits (2-core x86_64 VM, Python 3.11),
so a `check` request at the budget, which runs the suite in exact arithmetic
and over its field, takes about 20 s."""

CHECK_COST_BUDGET = 10_000_000
"""The most samples times evaluation cost one check_identities run may ask
for, the cost being the map's monomial count times its highest degree (at
least 1), a proxy for one evaluation.  The degree and sample budgets alone
let x + x^1024 (cost 2048) take 100 000 samples: its 1000 default samples
take about 2.3 s, so that request would run for about 230 s.  At this budget
it may take 4882 samples (about 11 s); every map of cost up to 10 000, such
as nine monomials of degree 1024, keeps the 1000-sample default."""


def evaluation_cost(f: MapSpec) -> int:
    """Monomials times highest degree (at least 1): the per-sample cost that
    CHECK_COST_BUDGET bounds."""
    degree = max((sum(exps) for _, terms in f.table for _, exps in terms), default=0)
    return sum(len(terms) for _, terms in f.table) * max(degree, 1)


def check_identities(
    f: MapSpec,
    sample_count: int,
    seed: int,
    descriptor: FieldDescriptor | None = None,
    mutation: str | None = None,
) -> IdentityReport:
    """Check the structural quotient identities at seeded rational points.

    With descriptor=None the checks run in exact rational arithmetic, on
    integer vectors (`_ExactSamples`); otherwise the draws are embedded
    into the given field and compared at tracked precision, over Q_p on
    (val, unit, prec) triples (`_PadicSamples`).  A named mutation corrupts
    the quotient evaluation to demonstrate that the suite actually detects
    broken implementations.
    sample_count must lie in 1..SAMPLE_BUDGET, and times the map's
    evaluation_cost within CHECK_COST_BUDGET; both are checked before any
    sample is drawn.
    """
    if sample_count <= 0:
        raise SchemaError(f"sample count must be positive, got {sample_count}")
    if sample_count > SAMPLE_BUDGET:
        raise BudgetExceeded(
            f"{sample_count} samples exceed the budget of {SAMPLE_BUDGET}",
            samples=sample_count, budget=SAMPLE_BUDGET,
        )
    cost = evaluation_cost(f)
    if sample_count * cost > CHECK_COST_BUDGET:
        raise BudgetExceeded(
            f"{sample_count} samples of a map of evaluation cost {cost} "
            f"(monomials times degree) exceed the budget of {CHECK_COST_BUDGET}",
            samples=sample_count, cost=cost, budget=CHECK_COST_BUDGET,
        )
    if mutation is not None and (not isinstance(mutation, str) or mutation not in _MUTATIONS):
        raise SchemaError(f"unknown mutation {mutation!r}")
    mut = _MUTATIONS.get(mutation)
    rng = random.Random(seed)
    f = f.without_domain()
    m = f.domain_dim
    g = _companion_map(f.codomain_dim)

    def rat(nonzero=False):
        """A drawn rational as its pair (n, d), d > 0."""
        while True:
            draw = rng.randint(-9, 9), rng.randint(1, 9)
            if draw[0] or not nonzero:
                return draw

    def vec():
        return [rat() for _ in range(m)]

    def shown(draws):
        return tuple(Fraction(n, d) for n, d in draws)

    results = [
        IdentityResult("chain_rule", 0, 0),
        IdentityResult("direction_difference", 0, 0),
        IdentityResult("quotient_scaling", 0, 0),
        IdentityResult("second_quotient_scaling", 0, 0),
    ]

    def record(res: IdentityResult, ok: bool, witness):
        """Count a sample; the first failure keeps witness(), the
        counterexample as rationals and the compared values."""
        res.samples += 1
        if not ok:
            res.failures += 1
            if res.counterexample is None:
                res.counterexample = witness()

    gf = compose(g, f)
    for k in range(sample_count):
        ev = _samples(descriptor)
        x, y = vec(), vec()
        t = rat() if k % 4 else (0, 1)

        # chain rule: (g o f)^[1](x,y,t) = g^[1](f(x), f^[1](x,y,t), t)
        lx, ly, lt = ev.lift(x), ev.lift(y), ev.lift1(t)
        lhs = _quotient_value(gf, lx, ly, lt, ev, mut)
        inner = _quotient_value(f, lx, ly, lt, ev, mut)
        rhs = _quotient_value(g, ev(f, lx), inner, lt, ev, mut)
        record(results[0], ev.equal(lhs, rhs), lambda: {
            "x": shown(x), "y": shown(y), "t": Fraction(*t), "lhs": ev.show(lhs), "rhs": ev.show(rhs),
        })

        # direction difference: f^[1](x,y1,t) - f^[1](x,y2,t) = f^[1](x+t*y2, y1-y2, t)
        y2 = vec()
        ly2 = ev.lift(y2)
        qb = _quotient_value(f, lx, ly2, lt, ev, mut)
        qd = _quotient_value(f, ev.add_scaled(lx, ly2, lt), ev.sub(ly, ly2), lt, ev, mut)
        record(results[1], ev.equal(ev.sub(inner, qb), qd), lambda: {
            "x": shown(x), "y1": shown(y), "y2": shown(y2), "t": Fraction(*t),
        })

        # scaling: t * f^[1](x, y, t*s) = f^[1](x, t*y, s), t != 0
        tnz, s = rat(nonzero=True), rat()
        ltn, ls = ev.lift1(tnz), ev.lift1(s)
        lhs3 = ev.scale(ltn, _quotient_value(f, lx, ly, ev.mul(ltn, ls), ev, mut))
        rhs3 = _quotient_value(f, lx, ev.scale(ltn, ly), ls, ev, mut)
        record(results[2], ev.equal(lhs3, rhs3), lambda: {
            "x": shown(x), "y": shown(y), "t": Fraction(*tnz), "s": Fraction(*s),
        })

        # second quotient scaling:
        # t^3 f^[2]((x,y,ts),(x1,y1,ts1),ts2) = f^[2]((x,t^2 y,s/t),(t x1,t^3 y1,s1),s2)
        x1, y1 = vec(), vec()
        s1, s2 = rat(), rat(nonzero=True)
        lx1, ly1 = ev.lift(x1), ev.lift(y1)
        ls1, ls2 = ev.lift1(s1), ev.lift1(s2)
        lhs4 = _second_quotient_value(
            f, ev.point(lx, ly, ev.mul(ltn, ls)), ev.point(lx1, ly1, ev.mul(ltn, ls1)),
            ev.mul(ltn, ls2), ev, mut,
        )
        t2 = ev.mul(ltn, ltn)
        t3 = ev.mul(t2, ltn)
        lhs4 = ev.scale(t3, lhs4)
        rhs4 = _second_quotient_value(
            f,
            ev.point(lx, ev.scale(t2, ly), ev.div(ls, ltn)),
            ev.point(ev.scale(ltn, lx1), ev.scale(t3, ly1), ls1),
            ls2,
            ev,
            mut,
        )
        record(results[3], ev.equal(lhs4, rhs4), lambda: {
            "x": shown(x), "y": shown(y), "x1": shown(x1), "y1": shown(y1),
            "t": Fraction(*tnz), "s": Fraction(*s), "s1": Fraction(*s1), "s2": Fraction(*s2),
        })
    return IdentityReport(results)
