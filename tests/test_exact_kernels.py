"""The integer kernels of the certificate layer against the Fraction code they
replaced.

The functions prefixed `_fraction_` are verbatim copies of the Fraction
versions of the rational Gauss-Jordan inverse, the partial-map Jacobian, the
telescoped Lipschitz fold and the affine builder, as they were before those
kernels worked in integers.  Exact results are unique rationals, so the
kernels must return equal values, and raise the same errors with the same
messages, on every seeded case.
"""

import math
import operator
import random
from fractions import Fraction

import pytest

from ultrafix import calculus
from ultrafix.calculus import MapSpec, affine_map, jacobian_exact, telescoped_lipschitz
from ultrafix.errors import DimensionMismatch, SingularMatrix
from ultrafix.field import FieldDescriptor, rational_abs
from ultrafix.linalg import Ball, rat_mat_invert

FIELDS = (None, 2, 3, 5, 7)  # the reals, then Q2, Q3, Q5, Q7


def _field(p):
    return FieldDescriptor.real() if p is None else FieldDescriptor.padic(p, 6)


# ---------------------------------------------------------------------------
# verbatim copies


def _fraction_gauss_jordan(rows, one, zero, is_zero, size, singular: str):
    """Gauss-Jordan elimination of a square matrix: (inverse rows, determinant).

    The scalar protocol: `one` and `zero`, a zero test and a pivot size.  Each
    column pivots on its entry of largest size; a column whose largest entry
    is zero raises SingularMatrix with `singular` formatted by the column.
    """
    n = len(rows)
    work = [list(row) for row in rows]
    inv = [[one if i == j else zero for j in range(n)] for i in range(n)]
    det = one
    for col in range(n):
        pivot_row = max(range(col, n), key=lambda r: size(work[r][col]))
        if is_zero(work[pivot_row][col]):
            raise SingularMatrix(singular.format(col))
        if pivot_row != col:
            work[col], work[pivot_row] = work[pivot_row], work[col]
            inv[col], inv[pivot_row] = inv[pivot_row], inv[col]
            det = -det
        piv = work[col][col]
        det = det * piv
        work[col] = [a / piv for a in work[col]]
        inv[col] = [a / piv for a in inv[col]]
        for r in range(n):
            if r == col:
                continue
            factor = work[r][col]
            if is_zero(factor):
                continue
            work[r] = [a - factor * b for a, b in zip(work[r], work[col])]
            inv[r] = [a - factor * b for a, b in zip(inv[r], inv[col])]
    return inv, det


def _fraction_rat_mat_invert(rows):
    """Exact inverse over the rationals."""
    n = len(rows)
    if any(len(r) != n for r in rows):
        raise DimensionMismatch("only square matrices invert")
    inv, _ = _fraction_gauss_jordan(
        [[Fraction(x) for x in row] for row in rows], Fraction(1), Fraction(0),
        operator.not_, abs, "column {} has no nonzero pivot",
    )
    return tuple(tuple(row) for row in inv)


def _fraction_partial_map(f, j):
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


def _fraction_jacobian_exact(f, x):
    """The derivative at a rational point, as exact rational rows."""
    xs = tuple(Fraction(v) for v in x)
    if len(xs) != f.domain_dim:
        raise DimensionMismatch(f"expected {f.domain_dim} coordinates, got {len(xs)}")
    cols = [calculus.eval_map(p, xs) for p in (_fraction_partial_map(f, j) for j in range(f.domain_dim))]
    return tuple(
        tuple(cols[j][i] for j in range(f.domain_dim)) for i in range(f.codomain_dim)
    )


def _fraction_telescoped_lipschitz(f, sups, var_indices, descriptor):
    """Upper bound on the Lipschitz constant in the chosen variables, with the
    remaining variables ranging over the same coordinate sups.

    Telescoping coordinate-by-coordinate bounds each one-variable difference
    z^k - y^k by k*s^(k-1) (real) or s^(k-1) (ultrametric) times |z - y|.
    """
    chosen = set(var_indices)
    zero = Fraction(0)
    row_bounds = []
    for monomials in f.outputs:
        per_var: dict[int, Fraction] = {j: zero for j in chosen}
        for exps, coef in monomials:
            c = rational_abs(coef, descriptor)
            for j in chosen:
                if exps[j] == 0:
                    continue
                term = c
                for i, e in enumerate(exps):
                    if i == j:
                        if e - 1:
                            term *= sups[i] ** (e - 1)
                        if not descriptor.ultrametric:
                            term *= e
                    elif e:
                        term *= sups[i] ** e
                if descriptor.ultrametric:
                    per_var[j] = max(per_var[j], term)
                else:
                    per_var[j] += term
        if descriptor.ultrametric:
            row_bounds.append(max(per_var.values(), default=zero))
        else:
            row_bounds.append(sum(per_var.values(), zero))
    return max(row_bounds, default=zero)


def _fraction_affine_map(f, rows, linear=None, shift=None):
    """x -> rows.f(x) + linear.x + shift as an exact polynomial map on f's domain.

    rows has one column per output of f, linear one per variable; a term whose
    coefficient sums to zero drops out of the MapSpec.
    """
    m = f.domain_dim
    if any(len(r) != f.codomain_dim for r in rows) or (
        linear is not None
        and (len(linear) != len(rows) or any(len(r) != m for r in linear))
    ):
        raise DimensionMismatch("linear part shape mismatch")
    units = tuple(tuple(int(v == j) for v in range(m)) for j in range(m))
    outputs = []
    for i, row in enumerate(rows):
        acc: dict[tuple[int, ...], Fraction] = {}
        for a, monomials in zip(row, f.outputs):
            if a:
                for exps, c in monomials:
                    acc[exps] = acc.get(exps, 0) + a * c
        if linear is not None:
            for exps, b in zip(units, linear[i]):
                acc[exps] = acc.get(exps, 0) + b
        if shift is not None:
            acc[(0,) * m] = acc.get((0,) * m, 0) + shift[i]
        outputs.append(tuple(acc.items()))
    return MapSpec(m, tuple(outputs), f.domain)


def _fraction_normalize_output(monomials):
    acc: dict[tuple[int, ...], Fraction] = {}
    for exps, coef in monomials:
        exps = tuple(int(e) for e in exps)
        coef = Fraction(coef)
        if coef == 0:
            continue
        acc[exps] = acc.get(exps, Fraction(0)) + coef
    return tuple(sorted((e, c) for e, c in acc.items() if c != 0))


# ---------------------------------------------------------------------------
# seeded cases


def _outcome(fn, *args):
    """The value of fn(*args), or the kind and message of its error."""
    try:
        return "value", fn(*args)
    except (SingularMatrix, DimensionMismatch) as exc:
        return type(exc).__name__, str(exc)


def _rational(rng, p=None, size=9):
    """A rational with about a third of them zero; over Q_p numerators and
    denominators divisible by p come up too."""
    if rng.random() < 0.3:
        return Fraction(0)
    factor = 1 if p is None else Fraction(p) ** rng.randint(-2, 2)
    return Fraction(rng.randint(-size, size), rng.randint(1, 6)) * factor


def _seeded_matrix(rng, n):
    """Rows with zero entries; in about half of them a column is a
    combination of the columns before it (a zero column when it is the
    first), or two rows are equal.  Entries are Fractions, or sometimes
    ints, strings or floats, as callers may pass them."""
    rows = [[_rational(rng) for _ in range(n)] for _ in range(n)]
    shape = rng.random()
    if shape < 0.35:
        c = rng.randrange(n)
        weights = [_rational(rng, size=3) for _ in range(c)]
        for row in rows:
            row[c] = sum((w * row[j] for j, w in enumerate(weights)), Fraction(0))
    elif shape < 0.5 and n > 1:
        i, j = rng.sample(range(n), 2)
        rows[i] = list(rows[j])
    form = rng.random()
    if form < 0.15:
        rows = [[int(x * 6) for x in row] for row in rows]
    elif form < 0.2:
        rows = [[str(x) for x in row] for row in rows]
    elif form < 0.25:
        rows = [[x.numerator / 2 ** (x.denominator % 3) for x in row] for row in rows]
    return rows


def test_rat_mat_invert_equals_the_fraction_elimination():
    rng = random.Random(20261019)
    singular = regular = 0
    columns = set()
    for n in range(1, 9):
        for _ in range(60):
            rows = _seeded_matrix(rng, n)
            got = _outcome(rat_mat_invert, rows)
            assert got == _outcome(_fraction_rat_mat_invert, rows)
            if got[0] == "value":
                regular += 1
                assert all(type(a) is Fraction for row in got[1] for a in row)
            else:
                singular += 1
                columns.add(got[1])
    assert regular >= 200 and singular >= 150
    assert {f"column {c} has no nonzero pivot" for c in range(8)} <= columns
    for rows in ([], [[1, 2]], [[1, 2], [3]], [[0]], [[0, 0], [0, 0]]):
        assert _outcome(rat_mat_invert, rows) == _outcome(_fraction_rat_mat_invert, rows)


def _seeded_map(rng, p, nvars, outputs):
    """Monomials of degree 0-4, about one in five of them constant or
    linear, with coefficients of every size in the field's value group."""
    rows = []
    for _ in range(outputs):
        row = []
        for _ in range(rng.randint(0, 5)):
            exps = [0] * nvars
            for _ in range(rng.choice((0, 1, 2, 2, 3, 4))):
                exps[rng.randrange(nvars)] += 1
            row.append((_rational(rng, p) or Fraction(1, 3), tuple(exps)))
        rows.append(row)
    return MapSpec.from_coefficients(nvars, rows)


def _seeded_point(rng, p, dim):
    return tuple(_rational(rng, p, size=4) for _ in range(dim))


def test_jacobian_exact_equals_the_partial_map_jacobian():
    rng = random.Random(9)
    cases = zeros = 0
    for p in FIELDS:
        for nvars in (1, 2, 3, 4):
            for outputs in (1, 2, 3):
                for _ in range(6):
                    f = _seeded_map(rng, p, nvars, outputs)
                    x = _seeded_point(rng, p, nvars)
                    assert jacobian_exact(f, x) == _fraction_jacobian_exact(f, x)
                    cases += 1
                    zeros += 0 in x
    assert cases == 360 and zeros >= 150
    for x in ((), (1, 2, 3)):  # the wrong number of coordinates
        assert _outcome(jacobian_exact, f, x) == _outcome(_fraction_jacobian_exact, f, x)


def test_jacobian_exact_builds_no_map(monkeypatch):
    f = _seeded_map(random.Random(4), 5, 3, 3)
    built = []
    real_fill = MapSpec._fill  # every MapSpec, built or constructed, is filled here
    monkeypatch.setattr(MapSpec, "_fill", lambda self, *args: built.append(self) or real_fill(self, *args))
    rows = jacobian_exact(f, (Fraction(1, 2), 0, 3))
    assert built == []
    monkeypatch.undo()
    assert rows == _fraction_jacobian_exact(f, (Fraction(1, 2), 0, 3))


def _seeded_sups(rng, p, dim):
    """Coordinate sups: zero, below 1, 1 and above 1; p-powers over Q_p."""
    if p is None:
        return tuple(rng.choice((Fraction(0), Fraction(rng.randint(1, 9), rng.randint(1, 9)))) for _ in range(dim))
    return tuple(Fraction(0) if rng.random() < 0.2 else Fraction(p) ** rng.randint(-3, 3) for _ in range(dim))


def test_telescoped_lipschitz_equals_the_fraction_fold():
    rng = random.Random(11)
    cases = 0
    seen = set()
    for p in FIELDS:
        desc = _field(p)
        for nvars in (1, 2, 3, 4):
            for _ in range(20):
                f = _seeded_map(rng, p, nvars, rng.randint(1, 3))
                sups = _seeded_sups(rng, p, nvars)
                params = rng.randint(0, nvars)  # the chosen variables follow the parameters
                chosen = range(params, nvars) if rng.random() < 0.7 else rng.sample(range(nvars), rng.randint(0, nvars))
                got = telescoped_lipschitz(f, sups, chosen, desc)
                assert got == _fraction_telescoped_lipschitz(f, sups, chosen, desc)
                assert type(got) is Fraction
                cases += 1
                seen.add((got == 0, got > 1, 0 in sups, any(s > 1 for s in sups)))
    assert cases == 400
    assert len(seen) >= 8  # zero and positive bounds, bounds above 1, zero sups, sups above 1


def test_ultrametric_sups_must_be_absolute_values():
    f = MapSpec.from_coefficients(1, [[(1, (2,))]])
    with pytest.raises(ValueError, match="not a power of 5"):
        telescoped_lipschitz(f, (Fraction(2, 5),), (0,), _field(5))


def test_affine_map_equals_the_fraction_builder():
    rng = random.Random(12)
    cases = 0
    for p in FIELDS:
        desc = _field(p)
        for nvars in (1, 2, 3):
            for outputs in (1, 2, 3):
                for k in range(8):
                    f = _seeded_map(rng, p, nvars, outputs)
                    if k % 2:
                        radius = Fraction(1, 2) if p is None else Fraction(1, p)
                        f = MapSpec(f.domain_dim, f.outputs, Ball(desc, (0,) * nvars, radius))
                    n = rng.randint(1, 3)
                    rows = [[_rational(rng, p) for _ in range(outputs)] for _ in range(n)]
                    linear = None if k % 3 == 0 else [[_rational(rng, p) for _ in range(nvars)] for _ in range(n)]
                    shift = None if k % 4 == 1 else [_rational(rng, p) for _ in range(n)]
                    if k == 7:  # ints, as the tests and the CLI fuzz pass them
                        rows = [[int(a * 6) for a in row] for row in rows]
                    got = affine_map(f, rows, linear, shift)
                    assert got == _fraction_affine_map(f, rows, linear, shift)
                    assert got.domain == f.domain
                    cases += 1
    assert cases == 360
    f = _seeded_map(rng, 5, 2, 2)
    for rows, linear in (([[1]], None), ([[1, 0]], [[1]]), ([[1, 0]], [[1, 0], [0, 1]])):
        assert _outcome(affine_map, f, rows, linear) == _outcome(_fraction_affine_map, f, rows, linear)


def test_normalized_outputs_equal_the_coercing_ones():
    rng = random.Random(13)
    for _ in range(200):
        monomials = []
        for _ in range(rng.randint(0, 6)):
            exps = tuple(rng.randint(0, 2) for _ in range(2))
            form = rng.random()
            if form < 0.2:
                exps = list(exps)
            elif form < 0.3:
                exps = tuple(bool(e) for e in exps)
            coef = rng.choice((_rational(rng), rng.randint(-2, 2), "1/3", -Fraction(1, 3), 0.5))
            monomials.append((exps, coef))
        f = MapSpec(2, (monomials,))
        got = f.outputs[0]
        assert got == _fraction_normalize_output(monomials)
        assert all(type(e) is int for exps, _ in got for e in exps)
        assert all(type(c) is Fraction for _, c in got)
        D = math.lcm(*(c.denominator for _, c in got))
        assert f.table == ((D, tuple((c.numerator * (D // c.denominator), e) for e, c in got)),)
