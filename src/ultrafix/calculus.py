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
from fractions import Fraction
from operator import add, attrgetter
from typing import Sequence

from .errors import BudgetExceeded, DimensionMismatch, DomainViolation, SchemaError
from .field import (
    FieldDescriptor,
    RealScalar,
    Scalar,
    embed_rational,
    int_valuation,
    padic_divided_difference,
    padic_polynomial,
    padic_sub_product,
    rational_valuation,
)
from .linalg import Ball, Operator, Vector, _exact, rat_identity, rat_mat_vec

Monomial = tuple[tuple[int, ...], Fraction]


def _normalize_output(monomials) -> tuple[Monomial, ...]:
    acc: dict[tuple[int, ...], Fraction] = {}
    for exps, coef in monomials:
        if type(exps) is not tuple or not all(type(e) is int for e in exps):
            exps = tuple(int(e) for e in exps)
        if type(coef) is not Fraction:
            coef = Fraction(coef)
        if not coef:
            continue
        acc[exps] = acc[exps] + coef if exps in acc else coef
    return tuple(sorted((e, c) for e, c in acc.items() if c))


@dataclass(frozen=True)
class MapSpec:
    """A polynomial map K^m -> K^n with exact rational coefficients.

    Instances are immutable values; the private cache only memoizes derived
    data (partials, the symbolic quotient, embedded coefficients), so sharing
    across threads is safe.
    """

    domain_dim: int
    outputs: tuple[tuple[Monomial, ...], ...]
    domain: Ball | None = None
    _cache: dict = dc_field(default_factory=dict, compare=False, repr=False)

    def __post_init__(self):
        object.__setattr__(
            self, "outputs", tuple(_normalize_output(out) for out in self.outputs)
        )
        for out in self.outputs:
            for exps, _ in out:
                if len(exps) != self.domain_dim or any(e < 0 for e in exps):
                    raise SchemaError("exponent vector does not match domain dimension")
        if self.domain is not None and self.domain.dim != self.domain_dim:
            raise DimensionMismatch("domain ball dimension mismatch")

    @property
    def codomain_dim(self) -> int:
        return len(self.outputs)

    @classmethod
    def from_coefficients(cls, domain_dim, outputs, domain=None) -> "MapSpec":
        """outputs: per coordinate, an iterable of (coef, exponent-vector)."""
        return cls(
            domain_dim,
            tuple(tuple((tuple(e), Fraction(c)) for c, e in out) for out in outputs),
            domain,
        )

    @classmethod
    def identity(cls, dim: int) -> "MapSpec":
        return cls(
            dim,
            tuple(
                ((tuple(1 if i == j else 0 for i in range(dim)), Fraction(1)),)
                for j in range(dim)
            ),
        )

    def without_domain(self) -> "MapSpec":
        if self.domain is None:
            return self
        got = self._cache.get("bare")
        if got is None:
            got = MapSpec(self.domain_dim, self.outputs)
            self._cache["bare"] = got
        return got


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


def eval_map(f: MapSpec, point):
    """Exact polynomial evaluation; rational in, rational out (same for scalars)."""
    comps = _as_components(point)
    if len(comps) != f.domain_dim:
        raise DimensionMismatch(f"expected {f.domain_dim} coordinates, got {len(comps)}")
    _check_point_in_domain(f, point)
    if comps and isinstance(comps[0], Scalar):
        desc = comps[0].descriptor
        values = _eval_field(f, comps, desc)
        return Vector(values) if isinstance(point, Vector) else values
    return _eval_exact(f, tuple(c if isinstance(c, Fraction) else Fraction(c) for c in comps))


def _support(exps) -> tuple[tuple[int, int], ...]:
    return tuple((i, e) for i, e in enumerate(exps) if e)


def _int_table(f: MapSpec):
    """f in integers: (degree, outputs), each output (D, terms) with D the lcm
    of its coefficient denominators and one (c*D, |a|, support of a) per
    monomial c*x^a."""
    got = f._cache.get("int")
    if got is None:
        outputs = []
        for monomials in f.outputs:
            D = math.lcm(*(c.denominator for _, c in monomials))
            outputs.append((D, tuple(
                (c.numerator * (D // c.denominator), sum(exps), _support(exps))
                for exps, c in monomials
            )))
        degree = max((deg for _, terms in outputs for _, deg, _ in terms), default=0)
        got = f._cache["int"] = (degree, tuple(outputs))
    return got


def _eval_exact(f: MapSpec, comps: tuple[Fraction, ...]) -> tuple[Fraction, ...]:
    """With x_i = n_i/L over one common denominator L, each output is
    sum(c*D * L^(deg-|a|) * n^a) / (D * L^deg): integers until one Fraction."""
    degree, outputs = _int_table(f)
    L = math.lcm(*(x.denominator for x in comps))
    nums = [x.numerator * (L // x.denominator) for x in comps]
    scale = [1]
    for _ in range(degree):
        scale.append(scale[-1] * L)
    out = []
    for D, terms in outputs:
        acc = 0
        for c, deg, support in terms:
            term = c * scale[degree - deg]
            for i, e in support:
                term *= nums[i] ** e
            acc += term
        out.append(Fraction(acc, D * scale[degree]))
    return tuple(out)


def _field_table(f: MapSpec, desc: FieldDescriptor):
    """Per output, (embedded coefficient, support of the exponents) per monomial."""
    cache = f._cache.setdefault("coef", {})
    got = cache.get(desc)
    if got is None:
        got = cache[desc] = tuple(
            tuple((embed_rational(coef, 1, desc), _support(exps)) for exps, coef in monomials)
            for monomials in f.outputs
        )
    return got


def _eval_field(f: MapSpec, comps, desc: FieldDescriptor) -> tuple:
    """The same values, bit for bit, as multiplying out and summing the
    monomials one field operation at a time in monomial order.  Over Q_p
    each output is one `padic_polynomial` pass, one scalar per output."""
    for x in comps:
        other = getattr(x, "descriptor", None)
        if other is not desc and other != desc:
            raise SchemaError("operands from different fields")
    table = _field_table(f, desc)
    if desc.ultrametric:
        return tuple(padic_polynomial(desc, terms, comps) for terms in table)
    xs = [x.value for x in comps]
    out = []
    for terms in table:
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

    From the integer tables, output j of f is P_j / D_j, P_j an integer
    polynomial, and output i of g sums C_a y^a / D_i.  With E_j the largest
    exponent of y_j in output i, g_i(f) is the sum of
    C_a * prod_j D_j^(E_j - a_j) P_j^(a_j) over D_i * prod_j D_j^(E_j):
    integer products over one denominator, each power P_j^e formed once,
    and one Fraction per coefficient.
    """
    if g.domain_dim != f.codomain_dim:
        raise DimensionMismatch(
            f"composition needs codomain {g.domain_dim}, map produces {f.codomain_dim}"
        )
    _, f_table = _int_table(f)
    _, g_table = _int_table(g)
    dens = [D for D, _ in f_table]
    one = {(0,) * f.domain_dim: 1}
    powers = [
        [one, {exps: c for (exps, _), (c, _, _) in zip(monomials, terms)}]
        for monomials, (_, terms) in zip(f.outputs, f_table)
    ]

    def power(j: int, e: int) -> dict:
        got = powers[j]
        while len(got) <= e:
            got.append(_int_poly_mul(got[-1], got[1]))
        return got[e]

    outputs = []
    for D, terms in g_table:
        top: dict[int, int] = {}
        for _, _, support in terms:
            for j, e in support:
                if e > top.get(j, 0):
                    top[j] = e
        den = math.prod(dens[j] ** e for j, e in top.items())
        acc: dict[tuple[int, ...], int] = {}
        for c, _, support in terms:
            scale = c * den // math.prod(dens[j] ** e for j, e in support)
            term = power(*support[0]) if support else one
            for j, e in support[1:]:
                term = _int_poly_mul(term, power(j, e))
            for exps, v in term.items():
                acc[exps] = acc.get(exps, 0) + scale * v
        den *= D
        outputs.append(tuple((exps, Fraction(v, den)) for exps, v in acc.items() if v))
    return MapSpec(f.domain_dim, tuple(outputs), f.domain)


def partial_map(f: MapSpec, j: int) -> MapSpec:
    """Exact partial derivative with respect to variable j."""
    outputs = []
    for monomials in f.outputs:
        acc = []
        for exps, coef in monomials:
            if exps[j] == 0:
                continue
            new = list(exps)
            new[j] -= 1
            acc.append((tuple(new), coef * exps[j]))
        outputs.append(tuple(acc))
    return MapSpec(f.domain_dim, tuple(outputs))


def _partials(f: MapSpec) -> tuple[MapSpec, ...]:
    got = f._cache.get("partials")
    if got is None:
        got = tuple(partial_map(f, j) for j in range(f.domain_dim))
        f._cache["partials"] = got
    return got


def jacobian(f: MapSpec, x) -> Operator:
    """The derivative at x as an operator (column j = d f(x, e_j))."""
    comps = _as_components(x)
    _check_point_in_domain(f, x)
    if not (comps and isinstance(comps[0], Scalar)):
        raise SchemaError("jacobian over the field needs scalar coordinates; "
                          "use jacobian_exact for rational points")
    desc = comps[0].descriptor
    cols = [_eval_field(p, comps, desc) for p in _partials(f)]
    rows = tuple(
        tuple(cols[j][i] for j in range(f.domain_dim)) for i in range(f.codomain_dim)
    )
    return Operator(rows)


def jacobian_exact(f: MapSpec, x: Sequence) -> tuple[tuple[Fraction, ...], ...]:
    """The derivative at a rational point, as exact rational rows.

    From the integer table of f, as _eval_exact: with x_i = n_i/L, the
    entry (i, j) sums c*D * a_j * L^(deg-|a|) * n^(a - e_j) over the
    monomials c*x^a of output i, over D * L^(deg-1)."""
    xs = tuple(Fraction(v) for v in x)
    if len(xs) != f.domain_dim:
        raise DimensionMismatch(f"expected {f.domain_dim} coordinates, got {len(xs)}")
    degree, outputs = _int_table(f)
    L = math.lcm(*(v.denominator for v in xs))
    nums = [v.numerator * (L // v.denominator) for v in xs]
    top = max(degree - 1, 0)
    scale = [1]
    for _ in range(top):
        scale.append(scale[-1] * L)
    rows = []
    for D, terms in outputs:
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
        den = D * scale[top]
        rows.append(tuple(Fraction(a, den) for a in acc))
    return tuple(rows)


def _frame_table(f: MapSpec, p: int, s: int):
    """f over Z_p in the frame X = p^s x: (guard, outputs), each output
    (u, d, terms) with p^s f_i(X / p^s) = sum(K * X^a) / (u * p^d) over
    one (K, support of a) per monomial c*x^a of f_i.

    From the integer table, f_i = sum(c * x^a) / D with D = u * p^delta, so
    the term of c*x^a in the frame is c * p^(s(1 - |a|) - delta) * X^a; d,
    the output's guard digits, is the least d >= 0 that leaves every K an
    integer, and guard the largest d."""
    key = ("frame", p, s)
    got = f._cache.get(key)
    if got is None:
        _, outputs = _int_table(f)
        table = []
        for D, terms in outputs:
            delta = int_valuation(D, p)
            shifts = [s * (1 - deg) - delta for _, deg, _ in terms]
            d = max([0] + [-(e + int_valuation(c, p)) for (c, _, _), e in zip(terms, shifts)])
            table.append((D // p**delta, d, tuple(
                (c * p ** (e + d) if e + d >= 0 else c // p ** -(e + d), support)
                for (c, _, support), e in zip(terms, shifts)
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
    """Fix the variables first, ..., first + len(values) - 1 to exact rationals."""
    stop = first + len(values)
    vals = [Fraction(v) for v in values]
    outputs = []
    for monomials in f.outputs:
        acc = []
        for exps, coef in monomials:
            c = coef
            for i in range(first, stop):
                if exps[i]:
                    c *= vals[i - first] ** exps[i]
            if c != 0:
                acc.append((exps[:first] + exps[stop:], c))
        outputs.append(tuple(acc))
    return MapSpec(f.domain_dim - len(vals), tuple(outputs))


def affine_map(
    f: MapSpec, rows: Sequence[Sequence], linear: Sequence[Sequence] | None = None,
    shift: Sequence | None = None,
) -> MapSpec:
    """x -> rows.f(x) + linear.x + shift as an exact polynomial map on f's domain.

    rows has one column per output of f, linear one per variable; a term whose
    coefficient sums to zero drops out of the MapSpec.  Each output is summed
    in integers over one common denominator of its row's entries and of the
    integer table of f, and becomes one Fraction per surviving coefficient.
    """
    m = f.domain_dim
    if any(len(r) != f.codomain_dim for r in rows) or (
        linear is not None
        and (len(linear) != len(rows) or any(len(r) != m for r in linear))
    ):
        raise DimensionMismatch("linear part shape mismatch")
    _, table = _int_table(f)
    units = tuple(tuple(int(v == j) for v in range(m)) for j in range(m))
    shift = None if shift is None else _exact(shift)
    outputs = []
    for i, row in enumerate(rows):
        row = _exact(row)
        extra = [] if linear is None else list(zip(units, _exact(linear[i])))
        if shift is not None:
            extra.append(((0,) * m, shift[i]))
        den = math.lcm(
            *(a.denominator * D for a, (D, _) in zip(row, table) if a),
            *(b.denominator for _, b in extra),
        )
        acc: dict[tuple[int, ...], int] = {}
        for a, (D, terms), monomials in zip(row, table, f.outputs):
            if a:
                k = a.numerator * (den // (a.denominator * D))
                for (exps, _), (c, _, _) in zip(monomials, terms):
                    acc[exps] = acc.get(exps, 0) + k * c
        for exps, b in extra:
            acc[exps] = acc.get(exps, 0) + b.numerator * (den // b.denominator)
        outputs.append(tuple((exps, Fraction(v, den)) for exps, v in acc.items() if v))
    return MapSpec(m, tuple(outputs), f.domain)


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
    shift = MapSpec(n, tuple(
        ((unit(i), Fraction(1)), (unit(m + i, n - 1), Fraction(1))) for i in range(m)
    ))
    got = f._cache["quotient"] = MapSpec(n, tuple(
        tuple((exps[:-1] + (exps[-1] - 1,), c) for exps, c in out if exps[-1])
        for out in compose(f, shift).outputs
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


def _is_zero_value(t, desc: FieldDescriptor | None) -> bool:
    return t == 0 if desc is None else t.is_zero()


def _vec_add_scaled(x, y, t, desc: FieldDescriptor | None):
    """x + t*y over the field desc, or exactly when desc is None.  An exact
    coordinate is one Fraction of integer products, which normalises its
    sign and gcd; a p-adic one is one fused `padic_sub_product`."""
    if desc is None:
        tn, td = t.numerator, t.denominator
        return tuple(
            Fraction(
                a.numerator * b.denominator * td + tn * b.numerator * a.denominator,
                a.denominator * b.denominator * td,
            )
            for a, b in zip(x, y)
        )
    if desc.ultrametric:
        return tuple(padic_sub_product(a, t, b, subtract=False) for a, b in zip(x, y))
    return tuple(a + t * b for a, b in zip(x, y))


def _divided_difference(u, v, t, desc: FieldDescriptor | None):
    """(u - v)/t per coordinate: exactly in integers as _vec_add_scaled, or
    over Q_p by `padic_divided_difference`, one unit inverse of t."""
    if desc is None:
        tn, td = t.numerator, t.denominator
        return tuple(
            Fraction(
                (a.numerator * b.denominator - b.numerator * a.denominator) * td,
                a.denominator * b.denominator * tn,
            )
            for a, b in zip(u, v)
        )
    if desc.ultrametric:
        return padic_divided_difference(u, v, t)
    return tuple((a - b) / t for a, b in zip(u, v))


def _quotient_value(f: MapSpec, x: tuple, y: tuple, t, evaluate: _SampleEvaluator, mutation=None):
    """f^[1](x, y, t): difference quotient for t != 0, df(x, y) at t = 0.

    The values lie in the field of `evaluate`, which evaluates f and its
    Jacobian; the domain is checked only when f has one."""
    desc = evaluate.descriptor
    if f.domain is not None:
        _check_point_in_domain(f, x)
    if _is_zero_value(t, desc):
        return _jacobian_apply(f, x, y, evaluate)
    shifted = _vec_add_scaled(x, y, t, desc)
    if f.domain is not None:
        _check_point_in_domain(f, shifted)
        f = f.without_domain()
    fx = evaluate(f, x)
    q = _divided_difference(evaluate(f, shifted), fx, t, desc)
    if mutation is not None:
        q = mutation(q, desc)
    return q


def _jacobian_apply(f: MapSpec, x, y, evaluate: _SampleEvaluator):
    """Df(x).y in the field of `evaluate`: exact rows by rat_mat_vec, field
    rows by Operator.apply.  A map of no variables or no outputs has no
    Jacobian entries to apply."""
    desc = evaluate.descriptor
    if not (y and f.outputs):
        return (Fraction(0) if desc is None else desc.zero(),) * f.codomain_dim
    rows = evaluate.jacobian(f, x)
    if desc is None:
        return rat_mat_vec(rows, y)
    return Operator(rows).apply(Vector(y)).components


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
    value = _quotient_value(f, x, y, t, _SampleEvaluator(desc))
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
    return _second_quotient_value(f, a, b, t, _SampleEvaluator(desc))


def _second_quotient_value(f: MapSpec, a: tuple, b: tuple, t, evaluate: _SampleEvaluator, mutation=None):
    """f^[2](a, b, t) for flat inner points a, b of U^[1]; a mutation
    corrupts the inner quotients, and `evaluate` evaluates f, as in
    _quotient_value."""
    desc = evaluate.descriptor
    m = f.domain_dim
    if f.domain is not None:
        _check_inner_membership(f, a, desc)
    if _is_zero_value(t, desc):
        return _jacobian_apply(quotient_map(f), a, b, evaluate)
    shifted = _vec_add_scaled(a, b, t, desc)
    if f.domain is not None:
        _check_inner_membership(f, shifted, desc)
    qa = _quotient_value(f, a[:m], a[m : 2 * m], a[2 * m], evaluate, mutation)
    qs = _quotient_value(f, shifted[:m], shifted[m : 2 * m], shifted[2 * m], evaluate, mutation)
    return _divided_difference(qs, qa, t, desc)


def _check_inner_membership(f: MapSpec, a, desc: FieldDescriptor | None) -> None:
    m = f.domain_dim
    x, y, t = a[:m], a[m : 2 * m], a[2 * m]
    _check_point_in_domain(f, x)
    if not _is_zero_value(t, desc):
        _check_point_in_domain(f, _vec_add_scaled(x, y, t, desc))


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
    for monomials in f.outputs:
        bound = zero
        for exps, coef in monomials:
            c = abs(coef)
            for j in chosen:
                if exps[j] == 0:
                    continue
                term = c
                for i, e in enumerate(exps):
                    if i == j:
                        if e - 1:
                            term *= sups[i] ** (e - 1)
                        term *= e
                    elif e:
                        term *= sups[i] ** e
                bound += term
        row_bounds.append(bound)
    return max(row_bounds, default=zero)


def _valuation_table(f: MapSpec, p: int):
    """Per monomial c*x^a of every output, (v_p(c), support of a)."""
    cache = f._cache.setdefault("valuations", {})
    got = cache.get(p)
    if got is None:
        got = cache[p] = tuple(
            (rational_valuation(c, p), _support(exps))
            for monomials in f.outputs for exps, c in monomials
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


def _values_equal(a, b) -> bool:
    for u, v in zip(a, b):
        if isinstance(u, Scalar):
            if not (u - v).is_zero():
                return False
        elif u != v:
            return False
    return True


_POINT_KEYS = {
    None: attrgetter("numerator", "denominator"),
    "padic": attrgetter("val", "unit", "prec"),
    "real": lambda x: x.value.hex(),
}
"""A coordinate as a hashable key that decides its evaluation, per field: a
rational by its numerator and denominator (Fraction.__hash__ takes a modular
inverse), a p-adic scalar by its digits, a real one by its exact double."""


class _SampleEvaluator:
    """eval_map and Jacobian rows over one field (None: exact rationals) that
    evaluate each distinct (map, point) only once.

    Evaluation is a deterministic function of the map and of the point's
    keys, so a repeated point gets the values it would get again.  The maps
    are held for the evaluator's life, so their ids stay unique.
    check_identities makes one per sample.
    """

    def __init__(self, descriptor: FieldDescriptor | None):
        self.descriptor = descriptor
        self._key = _POINT_KEYS[None if descriptor is None else descriptor.kind]
        self._seen = {}

    def __call__(self, f: MapSpec, point):
        key = ("value", id(f), tuple(map(self._key, point)))
        got = self._seen.get(key)
        if got is None:
            value = eval_map(f, point)
            if not point and self.descriptor is not None:
                # no coordinate carries the field: f is constant
                value = tuple(embed_rational(v, 1, self.descriptor) for v in value)
            got = self._seen[key] = (f, value)
        return got[1]

    def jacobian(self, f: MapSpec, x: tuple):
        """The rows of Df(x): field scalars, or exact rationals."""
        key = ("jacobian", id(f), tuple(map(self._key, x)))
        got = self._seen.get(key)
        if got is None:
            rows = jacobian_exact(f, x) if self.descriptor is None else jacobian(f, x).entries
            got = self._seen[key] = (f, rows)
        return got[1]


def _companion_map(n: int) -> MapSpec:
    """Fixed quadratic companion used to exercise the chain rule."""
    outputs = []
    for i in range(n):
        monos = []
        sq = tuple(2 if j == i else 0 for j in range(n))
        monos.append((Fraction(1), sq))
        for j in range(n):
            monos.append((Fraction(1), tuple(1 if v == j else 0 for v in range(n))))
        outputs.append([(c, e) for c, e in monos])
    return MapSpec.from_coefficients(n, outputs)


def quotient_offset_mutation(values, descriptor: FieldDescriptor | None):
    """Deliberate off-by-one corruption of the t != 0 quotient branch."""
    one = Fraction(1) if descriptor is None else descriptor.one()
    return tuple(v + one for v in values)


_MUTATIONS = {"quotient-offset": quotient_offset_mutation}

DEGREE_BUDGET = 1024
"""The highest total degree of a monomial in a map read from JSON.  `check`
is the command whose cost grows with the degree: its 1000 default samples,
exact and over Q5 at 4 digits, take about 0.9 s on x + x^2, 7.5 s on
x + x^1024 and 181 s on x + x^6400 (2-core x86_64 VM, Python 3.11);
certify, invert and fixpoint on x + x^1024 take a few milliseconds."""

SAMPLE_BUDGET = 100_000
"""The most samples one check_identities run may draw; the CLI default is
1000.  On the plus_square test map a sample takes about 0.4 ms (2-core x86_64
VM, Python 3.11), so a `check` request at the budget, which runs the suite in
exact arithmetic and over its field, takes about 75 s."""

CHECK_COST_BUDGET = 10_000_000
"""The most samples times evaluation cost one check_identities run may ask
for, the cost being the map's monomial count times its highest degree (at
least 1), a proxy for one evaluation.  The degree and sample budgets alone
let x + x^1024 (cost 2048) take 100 000 samples: its 1000 default samples
take about 7.5 s, so that request would run for about 750 s.  At this budget
it may take 4882 samples (about 37 s); every map of cost up to 10 000, such
as nine monomials of degree 1024, keeps the 1000-sample default."""


def evaluation_cost(f: MapSpec) -> int:
    """Monomials times highest degree (at least 1): the per-sample cost that
    CHECK_COST_BUDGET bounds."""
    degree, outputs = _int_table(f)
    return sum(len(terms) for _, terms in outputs) * max(degree, 1)


def check_identities(
    f: MapSpec,
    sample_count: int,
    seed: int,
    descriptor: FieldDescriptor | None = None,
    mutation: str | None = None,
) -> IdentityReport:
    """Check the structural quotient identities at seeded rational points.

    With descriptor=None the checks run in exact rational arithmetic;
    otherwise inputs are embedded into the given field and compared at
    tracked precision.  A named mutation corrupts the quotient evaluation to
    demonstrate that the suite actually detects broken implementations.
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
    if mutation is not None and mutation not in _MUTATIONS:
        raise SchemaError(f"unknown mutation {mutation!r}")
    mut = _MUTATIONS.get(mutation)
    rng = random.Random(seed)
    f = f.without_domain()
    m = f.domain_dim
    g = _companion_map(f.codomain_dim)

    def rat(nonzero=False):
        while True:
            q = Fraction(rng.randint(-9, 9), rng.randint(1, 9))
            if not nonzero or q != 0:
                return q

    def vec():
        return tuple(rat() for _ in range(m))

    def lift(values):
        if descriptor is None:
            return values
        return tuple(embed_rational(v, 1, descriptor) for v in values)

    def lift1(v):
        return lift((v,))[0]

    results = [
        IdentityResult("chain_rule", 0, 0),
        IdentityResult("direction_difference", 0, 0),
        IdentityResult("quotient_scaling", 0, 0),
        IdentityResult("second_quotient_scaling", 0, 0),
    ]

    def record(res: IdentityResult, ok: bool, witness: dict):
        res.samples += 1
        if not ok:
            res.failures += 1
            if res.counterexample is None:
                res.counterexample = witness

    gf = compose(g, f)
    for k in range(sample_count):
        ev = _SampleEvaluator(descriptor)
        x, y = vec(), vec()
        t = rat() if k % 4 else Fraction(0)

        # chain rule: (g o f)^[1](x,y,t) = g^[1](f(x), f^[1](x,y,t), t)
        lx, ly, lt = lift(x), lift(y), lift1(t)
        lhs = _quotient_value(gf, lx, ly, lt, ev, mut)
        inner = _quotient_value(f, lx, ly, lt, ev, mut)
        rhs = _quotient_value(g, ev(f, lx), inner, lt, ev, mut)
        record(
            results[0],
            _values_equal(lhs, rhs),
            {"x": x, "y": y, "t": t, "lhs": lhs, "rhs": rhs},
        )

        # direction difference: f^[1](x,y1,t) - f^[1](x,y2,t) = f^[1](x+t*y2, y1-y2, t)
        y2 = vec()
        ly2 = lift(y2)
        qb = _quotient_value(f, lx, ly2, lt, ev, mut)
        shifted = _vec_add_scaled(lx, ly2, lt, descriptor)
        qd = _quotient_value(
            f, shifted, tuple(a - b for a, b in zip(ly, ly2)), lt, ev, mut
        )
        record(
            results[1],
            _values_equal(tuple(a - b for a, b in zip(inner, qb)), qd),
            {"x": x, "y1": y, "y2": y2, "t": t},
        )

        # scaling: t * f^[1](x, y, t*s) = f^[1](x, t*y, s), t != 0
        tnz, s = rat(nonzero=True), rat()
        ltn, ls = lift1(tnz), lift1(s)
        lhs3 = _quotient_value(f, lx, ly, ltn * ls, ev, mut)
        lhs3 = tuple(ltn * v for v in lhs3)
        rhs3 = _quotient_value(f, lx, tuple(ltn * v for v in ly), ls, ev, mut)
        record(results[2], _values_equal(lhs3, rhs3), {"x": x, "y": y, "t": tnz, "s": s})

        # second quotient scaling:
        # t^3 f^[2]((x,y,ts),(x1,y1,ts1),ts2) = f^[2]((x,t^2 y,s/t),(t x1,t^3 y1,s1),s2)
        x1, y1 = vec(), vec()
        s1, s2 = rat(), rat(nonzero=True)
        lx1, ly1 = lift(x1), lift(y1)
        ls1, ls2 = lift1(s1), lift1(s2)
        lhs4 = _second_quotient_value(
            f, lx + ly + (ltn * ls,), lx1 + ly1 + (ltn * ls1,), ltn * ls2, ev, mut
        )
        t2 = ltn * ltn
        t3 = t2 * ltn
        lhs4 = tuple(t3 * v for v in lhs4)
        rhs4 = _second_quotient_value(
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
            _values_equal(lhs4, rhs4),
            {"x": x, "y": y, "x1": x1, "y1": y1, "t": tnz, "s": s, "s1": s1, "s2": s2},
        )
    return IdentityReport(results)

