"""Output checks that do not trust the code under test.

Every reference value here is computed from the generated inputs with exact
`Fraction` arithmetic written in this file: polynomial evaluation,
p-adic valuations and the decoding of the CLI's digit encoding.  Nothing
from `ultrafix` is called; solver outputs are only read.

Each check returns None when the output is correct and a one-line reason
when it is not.
"""

from __future__ import annotations

from fractions import Fraction

INF = float("inf")


def poly_eval(rows, point):
    """Evaluate a polynomial map given as rows of (coef, exponents) exactly."""
    out = []
    for row in rows:
        acc = Fraction(0)
        for coef, exps in row:
            term = Fraction(coef)
            for x, e in zip(point, exps):
                if e:
                    term *= Fraction(x) ** e
            acc += term
        out.append(acc)
    return tuple(out)


def jacobian_at(rows, point):
    """Exact Jacobian rows of a polynomial map at a rational point."""
    n = len(point)
    jac = []
    for row in rows:
        out = [Fraction(0)] * n
        for coef, exps in row:
            for j in range(n):
                if not exps[j]:
                    continue
                term = Fraction(coef) * exps[j]
                for i, (x, e) in enumerate(zip(point, exps)):
                    power = e - 1 if i == j else e
                    if power:
                        term *= Fraction(x) ** power
                out[j] += term
        jac.append(tuple(out))
    return tuple(jac)


def val_p(q, p: int):
    """p-adic valuation of a rational; infinity for zero."""
    q = Fraction(q)
    if q == 0:
        return INF
    v, num, den = 0, q.numerator, q.denominator
    while num % p == 0:
        num //= p
        v += 1
    while den % p == 0:
        den //= p
        v -= 1
    return v


def padic_scalar(s):
    """(exact representative, absolute precision) of a returned p-adic scalar.

    Reads the scalar's fields directly: unit * p^val known modulo p^prec; a
    value with no known digits is 0 modulo p^prec; the exact zero has
    infinite precision.
    """
    p = s.descriptor.prime
    if s.val is None:
        return Fraction(0), (INF if s.prec is None else s.prec)
    return Fraction(s.unit) * Fraction(p) ** s.val, s.prec


def decode_padic_json(enc, p: int):
    """(value, known precision) of the CLI encoding {"val": k, "digits": [...]}.

    Trailing zero digits are trimmed by the encoder, so anchor + len(digits)
    is a lower bound on the precision the solver claimed.
    """
    anchor, digits = enc["val"], enc["digits"]
    if anchor is None:
        return Fraction(0), INF
    value = sum(Fraction(d) * Fraction(p) ** (anchor + i) for i, d in enumerate(digits))
    return value, anchor + len(digits)


def padic_ball_violation(solution, center, radius: Fraction, p: int):
    """Reason the point is outside the closed p-adic ball, or None."""
    need = -val_p(radius, p)  # |x - c| <= p^-e  <=>  v(x - c) >= e
    for x, c in zip(solution, center):
        if val_p(Fraction(x) - Fraction(c), p) < need:
            return f"solution coordinate {x} outside the ball of radius {radius}"
    return None


def padic_residual_violation(rows, point, target, k, p: int):
    """Reason f(point) = target fails modulo p^k, or None."""
    if k < 1:
        return f"no proven digits (precision {k})"
    for i, (fx, t) in enumerate(zip(poly_eval(rows, point), target)):
        v = val_p(fx - Fraction(t), p)
        if v < k:
            return f"output {i}: f(v) - c has valuation {v} below the proven {k}"
    return None


def real_ball_violation(solution, center, radius):
    for x, c in zip(solution, center):
        if abs(Fraction(x) - Fraction(c)) > Fraction(radius):
            return f"solution coordinate {x} outside the ball of radius {radius}"
    return None


def real_residual_violation(rows, point, target, bound):
    """Reason the exact residual max|f(point) - target| exceeds bound, or None."""
    residual = max(abs(fx - Fraction(t)) for fx, t in zip(poly_eval(rows, point), target))
    if residual > bound:
        return f"exact residual {float(residual):.3e} above the claimed {float(bound):.3e}"
    return None


def check_golden(text: str, golden: str):
    if text == golden:
        return None
    at = next((i for i, (a, b) in enumerate(zip(text, golden)) if a != b), min(len(text), len(golden)))
    return f"output differs from the golden file at character {at}"


def check_certificate(cert: dict, rows, center, p: int | None):
    """A certificate's anchor is the Jacobian at the ball center, A_inv is its
    inverse and the constants satisfy their defining relations.

    p-adic constants are exact "num/den" strings and are checked exactly;
    real constants are decimals and are checked to 1e-9 relative.
    """
    jac = jacobian_at(rows, center)
    if p is None:
        # real constants travel as the doubles nearest the exact values
        jac = tuple(tuple(Fraction(float(v)) for v in row) for row in jac)
        tol = Fraction(1, 10**9)
    else:
        tol = Fraction(0)
    A = tuple(tuple(Fraction(v) for v in row) for row in cert["A"])
    A_inv = [[Fraction(v) for v in row] for row in cert["A_inv"]]
    if A != jac:
        return "certificate anchor is not the Jacobian at the center"
    n = len(A)
    for i in range(n):
        for j in range(n):
            entry = sum(A[i][k] * A_inv[k][j] for k in range(n))
            if abs(entry - (1 if i == j else 0)) > tol * n * 10:
                return "A * A_inv is not the identity"
    c = {key: Fraction(cert[key]) for key in ("sigma", "norm_A", "norm_A_inv", "a", "b", "alpha", "beta")}
    if not c["sigma"] * c["norm_A_inv"] < 1:
        return "sigma is not below 1/||A^-1||"
    relations = (
        (c["a"], 1 / c["norm_A_inv"] - c["sigma"]),
        (c["b"], c["norm_A"] + c["sigma"]),
        (c["alpha"], 1 - c["sigma"] * c["norm_A_inv"]),
        (c["beta"], 1 + c["sigma"] * c["norm_A_inv"]),
    )
    for got, want in relations:
        if abs(got - want) > tol * max(1, abs(want)):
            return f"certificate constant {float(got)} does not match {float(want)}"
    return None
