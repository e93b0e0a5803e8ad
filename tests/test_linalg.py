import itertools
import random
from fractions import Fraction

import pytest

from ultrafix import (
    Ball,
    FieldDescriptor,
    NotAContraction,
    Operator,
    SchemaError,
    SingularMatrix,
    Vector,
    classify_isometry,
    invert_exact,
    neumann_invert,
    operator_norm,
    rational_abs,
    vec_norm,
)
from ultrafix.field import PadicScalar
from ultrafix.linalg import rat_mat_invert, rat_operator_norm


def brute_force_norm_padic(rows, desc, rng, samples=400):
    """Sampled sup of ||A v|| / ||v|| over random rational vectors."""
    A = Operator.from_rationals(rows, desc)
    best = Fraction(0)
    m = len(rows[0])
    for _ in range(samples):
        coords = [Fraction(rng.randint(-50, 50), rng.randint(1, 9)) for _ in range(m)]
        if all(c == 0 for c in coords):
            continue
        v = Vector.from_rationals(coords, desc)
        best = max(best, field_abs_ratio(A, v))
    return best


def field_abs_ratio(A, v):
    return vec_norm(A.apply(v)) / vec_norm(v)


def test_operator_norm_padic_vs_bruteforce(q5):
    rows = [[5, 1], [25, 5]]
    A = Operator.from_rationals(rows, q5)
    norm = operator_norm(A)
    assert norm == 1
    sampled = brute_force_norm_padic(rows, q5, random.Random(0))
    assert sampled <= norm
    # the sup is attained on a basis vector here
    e2 = Vector.from_rationals((0, 1), q5)
    assert vec_norm(A.apply(e2)) == norm


def test_operator_norm_real_vs_sign_vectors(real):
    rows = [[1, 2], [3, 4]]
    A = Operator.from_rationals(rows, real)
    norm = operator_norm(A)
    # oracle: the max-norm operator norm is attained on a sign vector
    best = 0.0
    for s1 in (-1, 1):
        for s2 in (-1, 1):
            v = Vector.from_rationals((s1, s2), real)
            best = max(best, vec_norm(A.apply(v)))
    assert best == pytest.approx(7.0)
    assert norm == pytest.approx(best)


def test_operator_norm_zero(q5):
    A = Operator.from_rationals([[0, 0], [0, 0]], q5)
    assert operator_norm(A) == 0


def test_norm_bounds_application(q5, real):
    rng = random.Random(5)
    for desc in (q5, real):
        for _ in range(50):
            rows = [
                [Fraction(rng.randint(-20, 20), rng.randint(1, 5)) for _ in range(2)]
                for _ in range(2)
            ]
            A = Operator.from_rationals(rows, desc)
            v = Vector.from_rationals(
                (Fraction(rng.randint(-9, 9), 1), Fraction(rng.randint(-9, 9), 1)), desc
            )
            if vec_norm(v) == 0:
                continue
            lhs = vec_norm(A.apply(v))
            rhs = operator_norm(A) * vec_norm(v)
            if desc.ultrametric:
                assert lhs <= rhs
            else:
                assert lhs <= rhs + 1e-9


def test_vec_norm_examples(q5, real):
    assert vec_norm(Vector.from_rationals((5, 1), q5)) == 1
    assert vec_norm(Vector.from_rationals((0, 0), q5)) == 0
    assert vec_norm(Vector.from_rationals((3, -4), real)) == 4


def test_invert_exact_examples(q5):
    identity = Operator.identity(3, q5)
    assert_matrix_equal(invert_exact(identity), identity)
    diag = Operator.from_rationals([[5, 0], [0, 1]], q5)
    assert_matrix_equal(invert_exact(diag), Operator.from_rationals([[Fraction(1, 5), 0], [0, 1]], q5))
    uni = Operator.from_rationals([[1, 1], [0, 1]], q5)
    assert_matrix_equal(invert_exact(uni), Operator.from_rationals([[1, -1], [0, 1]], q5))


def assert_matrix_equal(A, B):
    for ra, rb in zip(A.entries, B.entries):
        for a, b in zip(ra, rb):
            assert a == b


def test_invert_exact_random_roundtrip(q5, real):
    rng = random.Random(8)
    for desc in (q5, real):
        done = 0
        while done < 30:
            rows = [
                [Fraction(rng.randint(-9, 9), rng.randint(1, 4)) for _ in range(3)]
                for _ in range(3)
            ]
            try:
                rat_mat_invert(rows)
            except SingularMatrix:
                continue
            A = Operator.from_rationals(rows, desc)
            prod = A.compose(invert_exact(A))
            identity = Operator.identity(3, desc)
            for ra, rb in zip(prod.entries, identity.entries):
                for a, b in zip(ra, rb):
                    assert a == b
            done += 1


def test_invert_singular(q5):
    with pytest.raises(SingularMatrix):
        invert_exact(Operator.from_rationals([[1, 2], [2, 4]], q5))


def test_neumann_nilpotent_real(real):
    alpha = Operator.from_rationals([[0, Fraction(1, 2)], [0, 0]], real)
    inv, bound = neumann_invert(alpha)
    assert inv.entries[0][1].value == 0.5 and inv.entries[0][0].value == 1.0
    assert bound == pytest.approx(2.0)
    assert operator_norm(inv) <= bound


def test_neumann_padic_golden(q5):
    alpha = Operator.from_rationals([[5]], q5)
    inv, bound = neumann_invert(alpha)
    # oracle: geometric series sums to (1-5)^-1 = -1/4; check 4 * result = -1 mod 5^4
    got = inv.entries[0][0]
    assert (4 * got.to_rational() + 1) % 5**4 == 0
    assert got.digit_list() == [1, 1, 1, 1]
    assert bound == Fraction(5, 4)


def test_neumann_zero(real):
    inv, bound = neumann_invert(Operator.from_rationals([[0]], real))
    assert inv.entries[0][0].value == 1.0 and bound == 1.0


def test_neumann_rejects_expansion(q5):
    with pytest.raises(NotAContraction):
        neumann_invert(Operator.from_rationals([[1]], q5))


def test_neumann_padic_nilpotent_terminates_exactly(q5):
    alpha = Operator.from_rationals([[0, 5, 10], [0, 0, 15], [0, 0, 0]], q5)
    inv, bound = neumann_invert(alpha)
    prod = (Operator.identity(3, q5) - alpha).compose(inv)
    for i in range(3):
        for j in range(3):
            want = q5.one() if i == j else q5.zero()
            assert prod.entries[i][j] == want
    res = neumann_invert(alpha)
    assert res.tail_bound == 0


def test_neumann_random_compose_to_identity(q5_deep, real):
    rng = random.Random(21)
    for desc in (q5_deep, real):
        for _ in range(30):
            n = rng.randint(1, 3)
            if desc.ultrametric:
                rows = [
                    [Fraction(5 * rng.randint(-9, 9), rng.choice((1, 2, 3, 4, 6))) for _ in range(n)]
                    for _ in range(n)
                ]
            else:
                rows = [
                    [Fraction(rng.randint(-9, 9), 40 * n) for _ in range(n)]
                    for _ in range(n)
                ]
            alpha = Operator.from_rationals(rows, desc)
            if operator_norm(alpha) >= 1:
                continue
            inv, bound = neumann_invert(alpha)
            prod = (Operator.identity(n, desc) - alpha).compose(inv)
            for i in range(n):
                for j in range(n):
                    want = desc.one() if i == j else desc.zero()
                    assert prod.entries[i][j] == want
            if desc.ultrametric:
                assert operator_norm(inv) <= bound
            else:
                assert operator_norm(inv) <= bound + 1e-9


def test_submultiplicativity(q5, real):
    rng = random.Random(2)
    for desc in (q5, real):
        for _ in range(40):
            rows1 = [[Fraction(rng.randint(-9, 9), rng.randint(1, 4)) for _ in range(2)] for _ in range(2)]
            rows2 = [[Fraction(rng.randint(-9, 9), rng.randint(1, 4)) for _ in range(2)] for _ in range(2)]
            A = Operator.from_rationals(rows1, desc)
            B = Operator.from_rationals(rows2, desc)
            lhs = operator_norm(A.compose(B))
            rhs = operator_norm(A) * operator_norm(B)
            assert lhs <= rhs + (0 if desc.ultrametric else 1e-9)


def test_minimal_distortion(q5, real):
    rng = random.Random(13)
    for desc in (q5, real):
        done = 0
        while done < 25:
            rows = [[Fraction(rng.randint(-9, 9)) for _ in range(2)] for _ in range(2)]
            try:
                inv_rows = rat_mat_invert(rows)
            except SingularMatrix:
                continue
            A = Operator.from_rationals(rows, desc)
            norm_inv = rat_operator_norm(inv_rows, desc)
            v = Vector.from_rationals((rng.randint(-9, 9), rng.randint(-9, 9) or 1), desc)
            lhs = vec_norm(A.apply(v))
            rhs = vec_norm(v) / norm_inv
            if desc.ultrametric:
                assert lhs >= rhs
            else:
                assert lhs >= float(rhs) - 1e-9
            done += 1


def test_classify_isometry_examples(q5):
    near_identity = Operator.from_rationals([[1, 5], [0, 1]], q5)
    assert classify_isometry(near_identity) == "in_omega"
    assert classify_isometry(Operator.from_rationals([[5, 0], [0, 1]], q5)) == "neither"
    assert classify_isometry(Operator.identity(2, q5)) == "in_omega"
    # a permutation preserves norms without being close to the identity
    assert classify_isometry(Operator.from_rationals([[0, 1], [1, 0]], q5)) == "isometry"


def test_in_omega_preserves_norms(q5):
    rng = random.Random(4)
    for _ in range(20):
        rows = [
            [5 * rng.randint(-5, 5) + (1 if i == j else 0) for j in range(2)]
            for i in range(2)
        ]
        alpha = Operator.from_rationals(rows, q5)
        assert classify_isometry(alpha) == "in_omega"
        for _ in range(25):
            v = Vector.from_rationals((rng.randint(-99, 99), rng.randint(-99, 99)), q5)
            if vec_norm(v) == 0:
                continue
            assert vec_norm(alpha.apply(v)) == vec_norm(v)


def test_classify_rejects_real(real):
    with pytest.raises(SchemaError):
        classify_isometry(Operator.identity(2, real))


def test_ball_radius_validation(q5, real):
    with pytest.raises(SchemaError):
        Ball(q5, (0,), Fraction(1, 2))
    with pytest.raises(SchemaError):
        Ball(real, (0,), Fraction(-1))
    ball = Ball(q5, (0,), Fraction(1, 5))
    assert ball.contains_rational((5,)) and not ball.contains_rational((1,))
    open_ball = Ball(q5, (0,), Fraction(1, 5), closed=False)
    assert not open_ball.contains_rational((5,)) and open_ball.contains_rational((25,))


def test_contains_ball_reads_open_and_closed(q5, real):
    # over Q5 the open B(0, 1/5) is the closed B[0, 1/25], and |5| = 1/5
    open_q5 = Ball(q5, (0,), Fraction(1, 5), closed=False)
    assert not open_q5.contains_ball(Ball(q5, (5,), Fraction(1, 25)))
    assert not open_q5.contains_ball(Ball(q5, (0,), Fraction(1, 5)))
    assert open_q5.contains_ball(Ball(q5, (25,), Fraction(1, 25)))
    assert open_q5.contains_ball(Ball(q5, (0,), Fraction(1, 5), closed=False))
    assert not open_q5.contains_ball(Ball(q5, (5,), Fraction(1, 5), closed=False))
    assert Ball(q5, (0,), Fraction(1, 25)).contains_ball(Ball(q5, (0,), Fraction(1, 5), closed=False))
    # over the reals the open B(0, 1) misses 1, which B[1/2, 1/2] holds
    open_real = Ball(real, (0,), 1, closed=False)
    assert not open_real.contains_ball(Ball(real, (Fraction(1, 2),), Fraction(1, 2)))
    assert open_real.contains_ball(Ball(real, (Fraction(1, 2),), Fraction(1, 2), closed=False))
    assert open_real.contains_ball(Ball(real, (Fraction(1, 2),), Fraction(1, 4)))
    assert Ball(real, (0,), 1).contains_ball(Ball(real, (Fraction(1, 2),), Fraction(1, 2)))
    assert Ball(real, (0,), 1).contains_ball(Ball(real, (Fraction(-1, 2),), Fraction(1, 2), closed=False))


def _farthest_points(ball, other):
    """Points of `other` (or of its closure, for an open real ball) that
    lie in `ball` exactly when other is inside it.

    Over Q_p: other's centre b and each b + p^k e_j, with p^-k the largest
    distance from b inside other, which ball misses when other's radius
    passes its own.
    Over the reals: b moved by other's radius away from ball's centre along
    a coordinate of largest distance, the farthest point of other's closure.
    """
    desc, b = ball.descriptor, other.center_exact
    if desc.ultrametric:
        p = desc.prime
        s = other.radius if other.closed else other.radius / p
        step = 1 / s
        return [b] + [tuple(x + step * (i == j) for i, x in enumerate(b)) for j in range(len(b))]
    gaps = [x - c for x, c in zip(b, ball.center_exact)]
    j = max(range(len(b)), key=lambda i: abs(gaps[i]))
    sign = 1 if gaps[j] >= 0 else -1
    return [tuple(x + sign * other.radius * (i == j) for i, x in enumerate(b))]


def test_contains_ball_agrees_with_its_farthest_points():
    rng = random.Random(2610)
    outcomes = {True: 0, False: 0}
    for p in (None, 3, 5, 7):
        desc = FieldDescriptor.real() if p is None else FieldDescriptor.padic(p, 6)
        for _ in range(300):
            n = rng.randint(1, 3)
            if p is None:
                r = Fraction(rng.randint(1, 12), rng.randint(1, 4))
                s = Fraction(rng.randint(1, 12), rng.randint(1, 8))
                c = [Fraction(rng.randint(-8, 8), rng.randint(1, 4)) for _ in range(n)]
                b = [x + rng.choice((0, s, -s, r - s, s - r, Fraction(rng.randint(-8, 8), 4))) for x in c]
            else:
                k = rng.randint(-2, 2)
                r = Fraction(p) ** k
                s = r * Fraction(p) ** rng.randint(-2, 1)
                c = [Fraction(rng.randint(-p * p, p * p), p ** rng.randint(0, 2)) for _ in range(n)]
                b = [x + Fraction(rng.randint(-p, p)) * Fraction(p) ** rng.randint(-k - 2, -k + 2) for x in c]
            ball = Ball(desc, c, r, closed=rng.random() < 0.5)
            other = Ball(desc, b, s, closed=rng.random() < 0.5)
            points = _farthest_points(ball, other)
            if p is None and not other.closed:
                # the closure's farthest point decides, as in a closed ball
                want = all(Ball(desc, c, r).contains_rational(w) for w in points)
            else:
                assert all(other.contains_rational(w) for w in points)
                want = all(ball.contains_rational(w) for w in points)
            assert ball.contains_ball(other) == want, (desc, ball, other)
            outcomes[want] += 1
    assert min(outcomes.values()) >= 300, outcomes


def test_ball_tracked_membership(q5):
    ball = Ball(q5, (0,), Fraction(1, 5))
    inside = Vector.from_rationals((10,), q5)
    outside = Vector.from_rationals((1,), q5)
    assert ball.contains_tracked(inside)
    assert not ball.contains_tracked(outside)


def _fraction_det(rows):
    """Leibniz expansion: an exact determinant that shares no code with elimination."""
    n = len(rows)
    total = Fraction(0)
    for perm in itertools.permutations(range(n)):
        inversions = sum(perm[i] > perm[j] for i in range(n) for j in range(i + 1, n))
        term = Fraction(-1 if inversions % 2 else 1)
        for i, j in enumerate(perm):
            term *= rows[i][j]
        total += term
    return total


def _reference_class(rows, p):
    def p_abs(q):
        return rational_abs(q, FieldDescriptor.padic(p, 6))

    n = len(rows)
    if all(p_abs((1 if i == j else 0) - rows[i][j]) < 1 for i in range(n) for j in range(n)):
        return "in_omega"
    integral = all(p_abs(a) <= 1 for row in rows for a in row)
    det = _fraction_det(rows)
    return "isometry" if integral and det != 0 and p_abs(det) == 1 else "neither"


@pytest.mark.parametrize("p", [5, 7])
def test_classify_isometry_matches_exact_determinants(p):
    desc = FieldDescriptor.padic(p, 6)
    rng = random.Random(100 + p)
    seen = {"in_omega": 0, "isometry": 0, "neither": 0}
    swaps = 0
    for k in range(150):
        n = rng.randint(2, 4)
        rows = [[Fraction(rng.randint(-6, 6)) for _ in range(n)] for _ in range(n)]
        if k % 3 == 0:
            rows[0][0] = Fraction(0)  # the first column pivots off the diagonal
        if k % 7 == 0:
            rows = [[(1 if i == j else 0) + p * a for j, a in enumerate(row)] for i, row in enumerate(rows)]
        if k % 11 == 0:
            rows[-1] = list(rows[0])  # singular
        if k % 13 == 0:
            rows[rng.randrange(n)][rng.randrange(n)] /= p  # not integral
        if rows[0][0] == 0 and any(rows[i][0] for i in range(1, n)):
            swaps += 1
        want = _reference_class(rows, p)
        assert classify_isometry(Operator.from_rationals(rows, desc)) == want, rows
        seen[want] += 1
    assert min(seen.values()) >= 10 and swaps >= 30, (seen, swaps)


# ---------------------------------------------------------------------------
# p-adic Operator.apply and Operator.compose against the scalar fold: each
# step of the fused kernel must give the digits acc + a * x gives


def _fold(row, column, zero):
    acc = zero
    for a, x in zip(row, column):
        acc = acc + a * x
    return acc


def _padic_entry(rng, desc, kinds):
    """The exact zero, a bounded zero O(p^m), or a value of valuation -3..3
    that knows 1..N digits."""
    p, r = desc.prime, rng.random()
    if r < 0.12:
        kinds["exact_zero"] += 1
        return desc.zero()
    if r < 0.25:
        kinds["bounded_zero"] += 1
        return PadicScalar(desc, None, 0, rng.randint(-3, 4))
    val, digits = rng.randint(-3, 3), rng.randint(1, desc.precision)
    kinds["truncated"] += digits < desc.precision
    unit = rng.randrange(1, p**digits)
    return PadicScalar(desc, val, unit + (unit % p == 0), val + digits)


def _raw(x):
    return (x.val, x.unit, x.prec)


def test_padic_apply_and_compose_are_the_scalar_fold():
    rng = random.Random(7100)
    kinds = {"exact_zero": 0, "bounded_zero": 0, "truncated": 0, "cancelled": 0}
    shapes = set()
    for p in (2, 3, 5, 7):
        for _ in range(150):
            desc = FieldDescriptor.padic(p, rng.randint(1, 12))
            n, k, m = rng.randint(1, 4), rng.randint(1, 4), rng.randint(1, 4)
            shapes.add((n, k))
            A = Operator(tuple(tuple(_padic_entry(rng, desc, kinds) for _ in range(k)) for _ in range(n)))
            B = Operator(tuple(tuple(_padic_entry(rng, desc, kinds) for _ in range(m)) for _ in range(k)))
            v = Vector(tuple(_padic_entry(rng, desc, kinds) for _ in range(k)))
            zero = desc.zero()
            got = A.apply(v).components
            assert [_raw(x) for x in got] == [_raw(_fold(row, v.components, zero)) for row in A.entries]
            columns = list(zip(*B.entries))
            want = [[_raw(_fold(row, col, zero)) for col in columns] for row in A.entries]
            assert [[_raw(x) for x in row] for row in A.compose(B).entries] == want
            kinds["cancelled"] += sum(
                x.val is None and any(a.val is not None and b.val is not None for a, b in zip(row, v.components))
                for row, x in zip(A.entries, got)
            )
    assert len(shapes) == 16
    assert min(kinds.values()) >= 200, kinds


def test_apply_and_compose_refuse_operands_of_another_field(q5, real):
    A = Operator.from_rationals(((1, 2), (3, 4)), q5)
    for other in (FieldDescriptor.padic(7, 4), real):
        with pytest.raises(SchemaError, match="operands from different fields"):
            A.apply(Vector.from_rationals((1, 1), other))
        with pytest.raises(SchemaError, match="operands from different fields"):
            A.compose(Operator.from_rationals(((1,), (1,)), other))


def test_modular_solve_on_unit_pivots():
    # integer systems invertible mod p: A x = b modulo p^width, whichever
    # unit pivot each column takes; no unit pivot left raises SingularMatrix
    from ultrafix.errors import SingularMatrix
    from ultrafix.linalg import modular_solve

    rng = random.Random(8200)
    swapped = singular = 0
    for _ in range(400):
        p, n, width = rng.choice((2, 3, 5, 7)), rng.randint(1, 4), rng.randint(1, 60)
        mod = p**width
        # I - D with D = 0 mod p, as a Newton pass poses it, and entries of either sign
        rows = [[int(i == j) + p * rng.randrange(-mod, mod) for j in range(n)] for i in range(n)]
        if n > 1 and rng.random() < 0.3:  # no unit on the diagonal: the pivot is found below
            rows[0], rows[1] = rows[1], rows[0]
            swapped += 1
        if rng.random() < 0.2:  # a column of multiples of p
            j = rng.randrange(n)
            for row in rows:
                row[j] *= p
            with pytest.raises(SingularMatrix, match="no unit pivot"):
                modular_solve(rows, [0] * n, p, width)
            singular += 1
            continue
        rhs = [rng.randrange(mod) for _ in range(n)]
        x = modular_solve(rows, rhs, p, width)
        assert all(0 <= c < mod for c in x)
        for row, b in zip(rows, rhs):
            assert (sum(a * c for a, c in zip(row, x)) - b) % mod == 0
    assert swapped >= 50 and singular >= 50
