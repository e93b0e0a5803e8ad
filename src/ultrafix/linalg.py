"""Finite-dimensional vectors, operators, balls and the Neumann-series machinery.

Everything is max-norm based: the operator norm is the max entry absolute
value in the ultrametric case and the max row sum in the real case, both in
closed form.  Over field scalars there is one Gauss-Jordan elimination, on
[A | I], forming no determinant, and one `acc + a * x` fold behind
`Operator.apply` and `Operator.compose`; both are written once over the
scalars, whose arithmetic over Q_p is the field's kernels on their triples.
`modular_solve` eliminates an integer system modulo p^width on unit pivots.
Rational twins of the matrix routines (suffix ``rat_``) are exact (the
inverse eliminates in integers, the product A.v is `int_mat_vec`) and back
the certificate computations.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from operator import mul
from typing import Sequence

from .errors import DimensionMismatch, NotAContraction, SchemaError, SingularMatrix
from .field import (
    FieldDescriptor,
    PadicScalar,
    RATIONAL_TYPES,
    _rational,
    abs_upper_bound,
    embed_rational,
    field_abs,
    int_valuation,
    rational_abs,
    rational_valuation,
    unit_inverse,
    valuation_abs,
)


@dataclass(frozen=True)
class Vector:
    components: tuple

    def __post_init__(self):
        if not self.components:
            raise DimensionMismatch("empty vector")

    @property
    def descriptor(self) -> FieldDescriptor:
        return self.components[0].descriptor

    @property
    def dim(self) -> int:
        return len(self.components)

    @classmethod
    def from_rationals(cls, values: Sequence, descriptor: FieldDescriptor) -> "Vector":
        return cls(tuple(embed_rational(Fraction(v), 1, descriptor) for v in values))

    def to_rationals(self) -> tuple[Fraction, ...]:
        return tuple(c.to_rational() for c in self.components)

    def __add__(self, other: "Vector") -> "Vector":
        return Vector(tuple(a + b for a, b in zip(self.components, other.components)))

    def __sub__(self, other: "Vector") -> "Vector":
        return Vector(tuple(a - b for a, b in zip(self.components, other.components)))

    def is_zero(self) -> bool:
        return all(c.is_zero() for c in self.components)


def field_dot(desc: FieldDescriptor, row, column):
    """The fold acc + a * x from zero over a row and a column of scalars of
    desc.  An empty row gives zero."""
    acc = desc.zero()
    for a, x in zip(row, column):
        acc = acc + a * x
    return acc


@dataclass(frozen=True)
class Operator:
    """n x m matrix of scalars acting by left multiplication."""

    entries: tuple

    def __post_init__(self):
        if not self.entries or not self.entries[0]:
            raise DimensionMismatch("empty operator")
        width = len(self.entries[0])
        if any(len(r) != width for r in self.entries):
            raise DimensionMismatch("ragged operator")

    @property
    def descriptor(self) -> FieldDescriptor:
        return self.entries[0][0].descriptor

    @property
    def shape(self) -> tuple[int, int]:
        return len(self.entries), len(self.entries[0])

    @classmethod
    def from_rationals(cls, rows: Sequence[Sequence], descriptor: FieldDescriptor) -> "Operator":
        return cls(
            tuple(
                tuple(embed_rational(Fraction(v), 1, descriptor) for v in row) for row in rows
            )
        )

    @classmethod
    def identity(cls, n: int, descriptor: FieldDescriptor) -> "Operator":
        one, zero = descriptor.one(), descriptor.zero()
        return cls(tuple(tuple(one if i == j else zero for j in range(n)) for i in range(n)))

    def _dot(self, row, column):
        desc = self.descriptor
        other = column[0].descriptor
        if other is not desc and other != desc:
            raise SchemaError("operands from different fields")
        return field_dot(desc, row, column)

    def apply(self, v: Vector) -> Vector:
        n, m = self.shape
        if v.dim != m:
            raise DimensionMismatch(f"operator is {n}x{m}, vector has dim {v.dim}")
        return Vector(tuple(self._dot(row, v.components) for row in self.entries))

    def compose(self, other: "Operator") -> "Operator":
        n, k = self.shape
        k2, m = other.shape
        if k != k2:
            raise DimensionMismatch("shape mismatch in composition")
        columns = tuple(zip(*other.entries))
        return Operator(tuple(
            tuple(self._dot(row, column) for column in columns) for row in self.entries
        ))

    def __add__(self, other: "Operator") -> "Operator":
        return Operator(
            tuple(tuple(a + b for a, b in zip(r, s)) for r, s in zip(self.entries, other.entries))
        )

    def __sub__(self, other: "Operator") -> "Operator":
        return Operator(
            tuple(tuple(a - b for a, b in zip(r, s)) for r, s in zip(self.entries, other.entries))
        )

    def __neg__(self) -> "Operator":
        return Operator(tuple(tuple(-a for a in r) for r in self.entries))

    def to_rationals(self) -> tuple[tuple[Fraction, ...], ...]:
        return tuple(tuple(a.to_rational() for a in r) for r in self.entries)


def vec_norm(v: Vector):
    """Max norm over component absolute values (ultrametric when padic)."""
    if v.descriptor.ultrametric:
        vals = [c.val for c in v.components if c.val is not None]
        return valuation_abs(v.descriptor.prime, min(vals)) if vals else Fraction(0)
    return max(field_abs(c) for c in v.components)


def operator_norm(A: Operator):
    """Exact operator norm for the max norm.

    Ultrametric: the largest entry absolute value.  Real: the largest row sum
    of entry absolute values.
    """
    if A.descriptor.ultrametric:
        return max(field_abs(a) for row in A.entries for a in row)
    return max(sum(field_abs(a) for a in row) for row in A.entries)


def _operator_norm_upper(A: Operator):
    if A.descriptor.ultrametric:
        return max(abs_upper_bound(a) for row in A.entries for a in row)
    return max(sum(abs_upper_bound(a) for a in row) for row in A.entries)


def invert_exact(A: Operator) -> Operator:
    """Gauss-Jordan inverse over field scalars, by elimination on [A | I].

    Each column pivots on its first entry of largest absolute value (over
    Q_p, of least valuation); a column whose largest entry is zero at
    tracked precision raises SingularMatrix.  Once column col is the pivot
    column, no later step reads columns up to col, so only the entries right
    of it are updated: the pivot row is divided by the pivot, and each other
    row updated by `a - factor * b`.
    """
    n, m = A.shape
    if n != m:
        raise DimensionMismatch("only square operators invert")
    desc = A.descriptor
    one, zero = desc.one(), desc.zero()
    work = [list(row) + [one if i == j else zero for j in range(n)] for i, row in enumerate(A.entries)]
    for col in range(n):
        pivot_row = max(range(col, n), key=lambda r: field_abs(work[r][col]))
        if work[pivot_row][col].is_zero():
            raise SingularMatrix(f"no nonzero pivot in column {col} at tracked precision")
        if pivot_row != col:
            work[col], work[pivot_row] = work[pivot_row], work[col]
        piv = work[col][col]
        top = [a / piv for a in work[col][col + 1:]]
        work[col][col + 1:] = top
        for i in range(n):
            if i == col:
                continue
            row = work[i]
            factor = row[col]
            if not factor.is_zero():
                row[col + 1:] = [a - factor * b for a, b in zip(row[col + 1:], top)]
    return Operator(tuple(tuple(row[n:]) for row in work))


def modular_solve(rows: Sequence[Sequence[int]], rhs: Sequence[int], p: int, width: int) -> list[int]:
    """The integer x with A x = rhs modulo p^width, A an integer matrix
    invertible mod p, by Gauss-Jordan elimination on [A | rhs].

    Each column pivots on its first entry prime to p, and the pivot row is
    scaled by that entry's inverse mod p^width, one `unit_inverse` (the
    Hensel inverse) per column; every entry is reduced mod p^width as it is
    updated.  The solution mod p^width is unique, whichever unit pivots are
    taken.  A column with no entry prime to p left raises SingularMatrix: A
    is singular mod p.
    """
    mod = p**width
    n = len(rows)
    work = [list(row) + [b] for row, b in zip(rows, rhs)]
    for col in range(n):
        pivot_row = next((r for r in range(col, n) if work[r][col] % p), None)
        if pivot_row is None:
            raise SingularMatrix(f"no unit pivot in column {col} modulo {p}")
        if pivot_row != col:
            work[col], work[pivot_row] = work[pivot_row], work[col]
        inverse = unit_inverse(work[col][col], p, width)
        top = [a * inverse % mod for a in work[col][col + 1:]]
        work[col][col + 1:] = top
        for i, row in enumerate(work):
            factor = row[col] % mod
            if factor and i != col:
                row[col + 1:] = [(a - factor * b) % mod for a, b in zip(row[col + 1:], top)]
    return [row[n] for row in work]


@dataclass(frozen=True)
class NeumannResult:
    """Unpacks as (inverse, bound); also carries the truncation tail bound."""

    inverse: "Operator"
    bound: object
    tail_bound: object

    def __iter__(self):
        return iter((self.inverse, self.bound))


NEUMANN_MAX_TERMS = 200  # real branch: terms summed at most


def neumann_invert(alpha: Operator) -> NeumannResult:
    """(id - alpha)^-1 as a truncated Neumann series, with its norm bound.

    Requires ||alpha|| < 1.  The padic branch sums until the next term no
    longer changes any tracked digit (exact from then on); the real branch
    stops below 1e-15 term norm or at NEUMANN_MAX_TERMS terms and reports the
    geometric tail ||alpha||^K / (1 - ||alpha||) left out.  The bound is the
    a priori 1/(1 - ||alpha||) on the norm of the inverse.
    """
    n, m = alpha.shape
    if n != m:
        raise DimensionMismatch("only square operators")
    desc = alpha.descriptor
    norm = _operator_norm_upper(alpha)
    if norm >= 1:
        raise NotAContraction(f"||alpha|| = {norm} >= 1")
    bound = 1 / (1 - norm) if desc.kind == "real" else Fraction(1) / (1 - Fraction(norm))
    total = Operator.identity(n, desc)
    term = total
    summed = 1
    padic_cap = NEUMANN_MAX_TERMS if desc.kind == "real" else 8 * (desc.precision + n + 4)
    for _ in range(padic_cap):
        term = term.compose(alpha)
        if desc.kind == "real":
            if operator_norm(term) < 1e-15:
                break
            total = total + term
            summed += 1
        else:
            nxt = total + term
            if all(
                _same_repr(a, b)
                for ra, rb in zip(nxt.entries, total.entries)
                for a, b in zip(ra, rb)
            ):
                break
            total = nxt
            summed += 1
    if desc.kind == "real":
        tail = float(norm) ** summed / (1 - float(norm)) if norm > 0 else 0.0
    else:
        # exact once the terms fall below tracked precision
        tail = Fraction(0)
    return NeumannResult(inverse=total, bound=bound, tail_bound=tail)


def _same_repr(a: PadicScalar, b: PadicScalar) -> bool:
    return a.val == b.val and a.unit == b.unit and a.prec == b.prec


def classify_isometry(alpha: Operator) -> str:
    """Place a square padic operator among {"in_omega", "isometry", "neither"}.

    "in_omega" means ||id - alpha|| < 1 (every such operator preserves the
    ultrametric max norm).  General isometries of the max norm are exactly
    the integral matrices with integral inverse (for integral alpha, the
    same as a unit determinant).
    """
    desc = alpha.descriptor
    if not desc.ultrametric:
        raise SchemaError("classification only applies to the ultrametric branch")
    n, m = alpha.shape
    if n != m:
        raise DimensionMismatch("only square operators")
    delta = Operator.identity(n, desc) - alpha
    if _operator_norm_upper(delta) < 1:
        return "in_omega"
    if _operator_norm_upper(alpha) > 1:
        return "neither"
    try:
        inverse = invert_exact(alpha)
    except SingularMatrix:
        return "neither"
    return "isometry" if _operator_norm_upper(inverse) <= 1 else "neither"


# ---------------------------------------------------------------------------
# Exact rational twins (certificate arithmetic)


def rat_vec_norm(v: Sequence, descriptor: FieldDescriptor) -> Fraction:
    return max((rational_abs(x, descriptor) for x in v), default=Fraction(0))


def rat_operator_norm(rows: Sequence[Sequence], descriptor: FieldDescriptor) -> Fraction:
    if descriptor.ultrametric:
        return max(rational_abs(a, descriptor) for row in rows for a in row)
    return max(sum(rational_abs(a, descriptor) for a in row) for row in rows)


def rat_identity(n: int) -> tuple[tuple[Fraction, ...], ...]:
    return tuple(tuple(Fraction(int(i == j)) for j in range(n)) for i in range(n))


def rat_mat_vec(rows: Sequence[Sequence], v: Sequence) -> tuple[Fraction, ...]:
    """A.v over the rationals, the Fraction view of `int_mat_vec`.  An entry
    that is not an int or a Fraction is read through Fraction first."""
    return int_vector_fractions(int_mat_vec(int_matrix(rows), int_vector(_exact(v))))


def _exact(values: Sequence) -> list:
    return [x if type(x) in RATIONAL_TYPES else Fraction(x) for x in values]


# ---------------------------------------------------------------------------
# Integer vectors: a rational vector as (numerators, den) over one
# denominator den > 0, which need not be reduced against the numerators


def ratio_vector(pairs) -> tuple[tuple[int, ...], int]:
    """The rationals n/d of pairs (n, d), d > 0, over the lcm of the d."""
    den = math.lcm(*(d for _, d in pairs))
    return tuple(n * (den // d) for n, d in pairs), den


def int_vector(values: Sequence) -> tuple[tuple[int, ...], int]:
    """Ints and Fractions over the lcm of their denominators."""
    return ratio_vector([(x.numerator, x.denominator) for x in values])


def int_vector_fractions(v) -> tuple[Fraction, ...]:
    """The coordinates of an integer vector, one normalised Fraction each."""
    nums, den = v
    return tuple(Fraction(n, den) for n in nums)


def int_vec_sub(u, v):
    """u - v over the product of the denominators, or over their common one."""
    (a, d), (b, e) = u, v
    if d == e:
        return tuple(x - y for x, y in zip(a, b)), d
    return tuple(x * e - y * d for x, y in zip(a, b)), d * e


def int_vec_scale(t, v):
    """t*v for a rational t = (n, d), d > 0."""
    tn = t[0]
    return tuple(tn * a for a in v[0]), t[1] * v[1]


def int_vec_add_scaled(x, y, t):
    """x + t*y for a rational t = (n, d), d > 0: the numerators
    a*d_y*t_d + t_n*d_x*b over d_x*d_y*t_d."""
    (a, dx), (b, dy), (tn, td) = x, y, t
    k, l = dy * td, tn * dx
    return tuple(u * k + l * w for u, w in zip(a, b)), dx * k


def int_vec_divided(u, v, t):
    """(u - v)/t for a rational t = (n, d) != 0, d > 0: the numerators
    (a*d_v - b*d_u) * t_d over d_u*d_v*t_n, the sign of t_n moved to the
    numerators."""
    (a, du), (b, dv), (tn, td) = u, v, t
    if tn < 0:
        tn, td = -tn, -td
    return tuple((x * dv - w * du) * td for x, w in zip(a, b)), du * dv * tn


def int_vectors_equal(u, v) -> bool:
    """Equal rational vectors, by cross-multiplication."""
    (a, d), (b, e) = u, v
    return all(x * e == y * d for x, y in zip(a, b))


def int_matrix(rows: Sequence[Sequence]) -> tuple[tuple[tuple[int, ...], ...], int]:
    """Rational rows as (integer rows, D) over the lcm D of all denominators."""
    rows = [_exact(row) for row in rows]
    D = math.lcm(*(a.denominator for row in rows for a in row))
    return tuple(tuple(a.numerator * (D // a.denominator) for a in row) for row in rows), D


def int_mat_vec(matrix, v):
    """M.v for an integer matrix (rows, D), the rational matrix rows / D."""
    (rows, D), (nums, den) = matrix, v
    return tuple(sum(map(mul, row, nums)) for row in rows), D * den


def int_vec_norm(v, descriptor: FieldDescriptor) -> Fraction:
    """The max norm of an integer vector, one Fraction: over Q_p p^-w with w
    the valuation of the gcd of the numerators less that of den, over the
    reals the largest numerator in absolute value over den."""
    nums, den = v
    if descriptor.ultrametric:
        g = math.gcd(*nums)
        if not g:
            return Fraction(0)
        p = descriptor.prime
        return valuation_abs(p, int_valuation(g, p) - int_valuation(den, p))
    return Fraction(max(map(abs, nums), default=0), den)


def rat_mat_invert(rows: Sequence[Sequence]) -> tuple[tuple[Fraction, ...], ...]:
    """Exact inverse over the rationals, by fraction-free Gauss-Jordan
    elimination (Bareiss, "Sylvester's identity and multistep
    integer-preserving Gaussian elimination", Math. Comp. 22, 1968).

    Row i is scaled to integers by the lcm s_i of its denominators, and
    [S M | I] is eliminated in integers: each update
    (pivot * a - factor * b) // previous pivot divides exactly, since every
    entry is a minor of [S M | I].  That leaves [d I | X] with
    X = d (S M)^-1, so M^-1[i][j] = X[i][j] * s_j / d, one Fraction per
    entry.  A column whose remaining entries are all zero is the first one
    that depends on the columns before it, whichever nonzero pivots were
    taken, and raises SingularMatrix.
    """
    n = len(rows)
    if any(len(r) != n for r in rows):
        raise DimensionMismatch("only square matrices invert")
    rats = [_exact(row) for row in rows]
    scale = [math.lcm(*(x.denominator for x in row)) for row in rats]
    work = [
        [x.numerator * (s // x.denominator) for x in row] + [int(i == j) for j in range(n)]
        for i, (row, s) in enumerate(zip(rats, scale))
    ]
    prev = 1
    for col in range(n):
        pivot_row = next((r for r in range(col, n) if work[r][col]), None)
        if pivot_row is None:
            raise SingularMatrix(f"column {col} has no nonzero pivot")
        if pivot_row != col:
            work[col], work[pivot_row] = work[pivot_row], work[col]
        top = work[col]
        piv = top[col]
        for r in range(n):
            if r == col:
                continue
            row = work[r]
            factor = row[col]
            # left of col, row r holds at most its diagonal, which X does not need
            for j in range(col + 1, 2 * n):
                row[j] = (piv * row[j] - factor * top[j]) // prev
            row[col] = 0
        prev = piv
    return tuple(
        tuple(Fraction(a * s, prev) for a, s in zip(row[n:], scale)) for row in work
    )


# ---------------------------------------------------------------------------
# Balls


@dataclass(frozen=True)
class Ball:
    """center + radius in the value group; padic radii are powers of p.

    The center is kept as exact rationals (the embedded Vector is derived),
    so membership and all coefficient bounds over the ball stay exact.
    """

    descriptor: FieldDescriptor
    center_exact: tuple
    radius: Fraction
    closed: bool = True

    def __post_init__(self):
        object.__setattr__(
            self, "center_exact", tuple(_rational(c, "center") for c in self.center_exact)
        )
        object.__setattr__(self, "radius", _rational(self.radius, "radius"))
        if not self.descriptor.valid_radius(self.radius):
            raise SchemaError(
                f"radius {self.radius} not attainable in this value group"
            )

    @cached_property
    def center(self) -> Vector:
        return Vector.from_rationals(self.center_exact, self.descriptor)

    @cached_property
    def _radius_exponent(self) -> int:
        """k with radius p^-k, for a p-adic ball."""
        return -rational_valuation(self.radius, self.descriptor.prime)

    @property
    def dim(self) -> int:
        return len(self.center_exact)

    def contains_rational(self, point: Sequence) -> bool:
        if len(point) != self.dim:
            raise DimensionMismatch(f"point has {len(point)} coordinates, ball {self.dim}")
        d = max(
            rational_abs(Fraction(x) - c, self.descriptor)
            for x, c in zip(point, self.center_exact)
        )
        return d <= self.radius if self.closed else d < self.radius

    def contains_tracked(self, v: Vector) -> bool:
        """Membership at tracked precision (never reports a false escape).

        Over Q_p the radius is p^-k, so |a - c| = p^-v is inside exactly when
        v >= k (closed) or v > k (open)."""
        center = self.center
        if self.descriptor.ultrametric:
            k = self._radius_exponent
            for a, c in zip(v.components, center.components):
                val = (a - c).val
                if val is not None and (val < k if self.closed else val <= k):
                    return False
            return True
        slack = self.descriptor.tolerance * max(1.0, float(self.radius))
        for a, c in zip(v.components, center.components):
            diff = a - c
            if diff.is_zero():
                continue
            d = field_abs(diff)
            if self.closed:
                if d > self.radius + slack:
                    return False
            elif d >= self.radius + slack:
                return False
        return True

    def contains_ball(self, other: "Ball") -> bool:
        """Is every point of `other` in this ball?

        Over Q_p an open ball of radius s is the closed one of radius s/p,
        and a closed ball is inside a closed one when both its distance and
        its radius are within that radius.  Over the reals other is inside
        when dist + its radius <= this radius, strictly when this ball is
        open and other closed."""
        if other.dim != self.dim:
            raise DimensionMismatch(f"ball has {other.dim} coordinates, this one {self.dim}")
        dist = max(
            rational_abs(a - b, self.descriptor)
            for a, b in zip(self.center_exact, other.center_exact)
        )
        if self.descriptor.ultrametric:
            p = self.descriptor.prime
            r = self.radius if self.closed else self.radius / p
            s = other.radius if other.closed else other.radius / p
            return dist <= r and s <= r
        reach = dist + other.radius
        return reach < self.radius if other.closed and not self.closed else reach <= self.radius

    def coordinate_sups(self) -> tuple[Fraction, ...]:
        """Per-coordinate sup of |x_i| over the ball (exact)."""
        out = []
        for c in self.center_exact:
            ac = rational_abs(c, self.descriptor)
            if self.descriptor.ultrametric:
                out.append(max(ac, self.radius))
            else:
                out.append(ac + self.radius)
        return tuple(out)
