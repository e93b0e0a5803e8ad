"""Finite-dimensional vectors, operators, balls and the Neumann-series machinery.

Everything is max-norm based: the operator norm is the max entry absolute
value in the ultrametric case and the max row sum in the real case, both in
closed form.  Over field scalars there is one Gauss-Jordan elimination, on
[A | B]: the inverse eliminates on [A | I], a solve of A x = v on the
column v, forming no inverse, and only the isometry test reads the
determinant.
Over Q_p each row update is one fused `a - f * b` kernel.  Rational twins
of the matrix routines (suffix ``rat_``) are exact (the inverse eliminates
in integers) and back the certificate computations.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field as dc_field
from fractions import Fraction
from typing import Sequence

from .errors import DimensionMismatch, NotAContraction, SchemaError, SingularMatrix
from .field import (
    FieldDescriptor,
    PadicScalar,
    RATIONAL_TYPES,
    abs_upper_bound,
    embed_rational,
    field_abs,
    padic_sub_product,
    rational_abs,
    rational_valuation,
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

    def apply(self, v: Vector) -> Vector:
        n, m = self.shape
        if v.dim != m:
            raise DimensionMismatch(f"operator is {n}x{m}, vector has dim {v.dim}")
        out = []
        for row in self.entries:
            acc = self.descriptor.zero()
            for a, x in zip(row, v.components):
                acc = acc + a * x
            out.append(acc)
        return Vector(tuple(out))

    def compose(self, other: "Operator") -> "Operator":
        n, k = self.shape
        k2, m = other.shape
        if k != k2:
            raise DimensionMismatch("shape mismatch in composition")
        rows = []
        for i in range(n):
            row = []
            for j in range(m):
                acc = self.descriptor.zero()
                for t in range(k):
                    acc = acc + self.entries[i][t] * other.entries[t][j]
                row.append(acc)
            rows.append(tuple(row))
        return Operator(tuple(rows))

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


def _field_gauss_jordan(A: Operator, B=None):
    """Gauss-Jordan elimination over field scalars on [A | B]: (X rows, det)
    with A X = B.

    B is a sequence of rows, the identity when omitted: X is then A^-1, and
    only then is det, A's determinant, formed (None otherwise).  A solve
    passes its right-hand side as one column and forms no inverse.

    Each column pivots on its first entry of largest absolute value (over
    Q_p, of least valuation); a column whose largest entry is zero at
    tracked precision raises SingularMatrix.  Once column col is the pivot
    column, no later step reads columns up to col, so only the entries right
    of it are updated.  Over Q_p the pivot row is scaled by one inverse
    r = 1/piv: a * r and a / piv agree in valuation, digits and precision,
    since r keeps all of piv's digits; and each row update a - factor * b
    is one `padic_sub_product`.  Real rows are divided, as a * (1/piv) would
    round differently, and updated by `a - factor * b`.
    """
    desc = A.descriptor
    ultra = desc.ultrametric
    one = desc.one()
    n = len(A.entries)
    det = None
    if B is None:
        zero = desc.zero()
        B = [[one if i == j else zero for j in range(n)] for i in range(n)]
        det = one
    work = [list(a) + list(b) for a, b in zip(A.entries, B)]
    for col in range(n):
        if ultra:
            pivot_row = min(range(col, n), key=lambda r: _pivot_valuation(work[r][col]))
        else:
            pivot_row = max(range(col, n), key=lambda r: field_abs(work[r][col]))
        if work[pivot_row][col].is_zero():
            raise SingularMatrix(f"no nonzero pivot in column {col} at tracked precision")
        if pivot_row != col:
            work[col], work[pivot_row] = work[pivot_row], work[col]
            if det is not None:
                det = -det
        piv = work[col][col]
        if det is not None:
            det = det * piv
        if ultra:
            r = one / piv
            top = [a * r for a in work[col][col + 1:]]
        else:
            top = [a / piv for a in work[col][col + 1:]]
        work[col][col + 1:] = top
        for i in range(n):
            if i == col:
                continue
            row = work[i]
            factor = row[col]
            if factor.is_zero():
                continue
            if ultra:
                row[col + 1:] = [padic_sub_product(a, factor, b) for a, b in zip(row[col + 1:], top)]
            else:
                row[col + 1:] = [a - factor * b for a, b in zip(row[col + 1:], top)]
    return [row[n:] for row in work], det


def _pivot_valuation(a: PadicScalar):
    """Rank of a pivot candidate: its valuation, infinite at tracked zero."""
    return math.inf if a.val is None else a.val


def invert_exact(A: Operator) -> Operator:
    """Gauss-Jordan inverse, pivoting on the entry of maximal absolute value."""
    n, m = A.shape
    if n != m:
        raise DimensionMismatch("only square operators invert")
    inv, _ = _field_gauss_jordan(A)
    return Operator(tuple(tuple(row) for row in inv))


def solve_exact(A: Operator, v: Vector) -> Vector:
    """The x with A x = v, by the same elimination on [A | v]: no inverse,
    no product with it."""
    n, m = A.shape
    if n != m or v.dim != n:
        raise DimensionMismatch(f"operator is {n}x{m}, vector has dim {v.dim}")
    x, _ = _field_gauss_jordan(A, [(c,) for c in v.components])
    return Vector(tuple(row[0] for row in x))


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


def classify_isometry(alpha: Operator, samples: int = 32, seed: int = 0) -> str:
    """Place a square padic operator among {"in_omega", "isometry", "neither"}.

    "in_omega" means ||id - alpha|| < 1 (every such operator preserves the
    ultrametric max norm).  General isometries of the max norm are exactly
    the integral matrices with unit determinant; a deterministic sampled
    norm-preservation check cross-validates the criterion.
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
        _, det = _field_gauss_jordan(alpha)
    except SingularMatrix:
        return "neither"
    if field_abs(det) != 1:
        return "neither"
    rng = random.Random(seed)
    points = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    for _ in range(samples):
        points.append([rng.randint(-50, 50) for _ in range(n)])
    for pt in points:
        if all(x == 0 for x in pt):
            continue
        v = Vector.from_rationals(pt, desc)
        if vec_norm(alpha.apply(v)) != vec_norm(v):
            return "neither"
    return "isometry"


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
    """A.v over the rationals, in integers: with v = n/V over the lcm V of
    its denominators and row i = r/R_i over the lcm of its own, entry i is
    sum(r * n) / (R_i * V), one Fraction.  An entry that is not an int or a
    Fraction is read through Fraction first."""
    v = _exact(v)
    V = math.lcm(*(x.denominator for x in v))
    nums = [x.numerator * (V // x.denominator) for x in v]
    out = []
    for row in rows:
        row = _exact(row)
        R = math.lcm(*(a.denominator for a in row))
        total = 0
        for a, n in zip(row, nums):
            total += a.numerator * (R // a.denominator) * n
        out.append(Fraction(total, R * V))
    return tuple(out)


def _exact(values: Sequence) -> list:
    return [x if type(x) in RATIONAL_TYPES else Fraction(x) for x in values]


def rat_vec_sub(u: Sequence, v: Sequence) -> tuple[Fraction, ...]:
    """u - v for int and Fraction entries, one Fraction per coordinate."""
    return tuple(
        Fraction(a.numerator * b.denominator - b.numerator * a.denominator, a.denominator * b.denominator)
        for a, b in zip(u, v)
    )


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
    rats = [[x if isinstance(x, (int, Fraction)) else Fraction(x) for x in row] for row in rows]
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
    _center_cache: dict = dc_field(default_factory=dict, compare=False, repr=False)

    def __post_init__(self):
        object.__setattr__(
            self, "center_exact", tuple(Fraction(c) for c in self.center_exact)
        )
        object.__setattr__(self, "radius", Fraction(self.radius))
        if not self.descriptor.valid_radius(self.radius):
            raise SchemaError(
                f"radius {self.radius} not attainable in this value group"
            )

    @property
    def center(self) -> Vector:
        key = "v"
        if key not in self._center_cache:
            self._center_cache[key] = Vector.from_rationals(self.center_exact, self.descriptor)
        return self._center_cache[key]

    @property
    def _radius_exponent(self) -> int:
        """k with radius p^-k, for a p-adic ball."""
        key = "k"
        if key not in self._center_cache:
            self._center_cache[key] = -rational_valuation(self.radius, self.descriptor.prime)
        return self._center_cache[key]

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
        dist = max(
            rational_abs(a - b, self.descriptor)
            for a, b in zip(self.center_exact, other.center_exact)
        )
        if self.descriptor.ultrametric:
            return other.radius <= self.radius and dist <= self.radius
        return dist + other.radius <= self.radius

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
