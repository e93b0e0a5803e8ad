"""JSON encodings of scalars, maps, balls, certificates and reports.

Padic scalars encode as {"val": k, "digits": [d0, ...]}: digits of the known
residue in base p, anchored at min(valuation, 0) with trailing zeros trimmed.
Exact rationals travel as "num/den" strings; real values as JSON numbers.
A JSON decimal is read as the double it parses to, so a radius 0.2 is
3602879701896397/18014398509481984, not 1/5 (over Q5 not a radius at
all); a string, a decimal one included, and a --tol are read exactly:
write "1/5".
Certificate constants are exact strings on the padic side and decimals on the
real side, each real bound on its safe side (`ROUNDING`).
"""

from __future__ import annotations

import math
from fractions import Fraction

from . import calculus
from .calculus import IdentityReport, MapSpec
from .contraction import ContractionProblem, FixedPointReport
from .errors import BudgetExceeded, SchemaError
from .field import FieldDescriptor, PadicScalar, RealScalar, Scalar, frac_str
from .implicit import ImplicitSolution, ParamWindow
from .inverse import ImageDescription, InversionCertificate
from .linalg import Ball, Operator, Vector

SCHEMA_VERSION = "1"


def parse_rational(value) -> Fraction:
    if isinstance(value, bool):
        raise SchemaError(f"expected a rational, got {value!r}")
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, float):
        if not math.isfinite(value):  # NaN, Infinity, or a literal past the doubles
            raise SchemaError(f"expected a finite rational, got {value!r}")
        return Fraction(value)
    if isinstance(value, str):
        try:
            return Fraction(value)
        except (ValueError, ZeroDivisionError) as exc:
            raise SchemaError(f"bad rational {value!r}") from exc
    raise SchemaError(f"expected a rational, got {value!r}")


ROUNDING = {
    **dict.fromkeys(("norm_A", "norm_A_inv", "sigma", "b", "beta", "theta", "bound"), math.inf),
    **dict.fromkeys(("a", "alpha", "delta", "target_radius", "p_radius"), -math.inf),
}
"""The side each real constant prints on, by the key it prints under: upper
bounds round up, lower bounds and the radii of the balls a claim ranges
over round down, so that the printed double still states the bound (Rump,
"Verification methods", Acta Numerica 19, 2010, on directed rounding).
Every other real, a value rather than a bound, prints as the nearest
double."""


def encode_constant(q, descriptor: FieldDescriptor, role: str | None = None):
    """q as an exact string over Q_p; over the reals the nearest double,
    stepped once toward the side `ROUNDING` gives `role` when it lies on the
    other side of q.  An exact double does not move, and a positive upper
    bound that underflows prints as the least positive double."""
    if descriptor.ultrametric:
        return frac_str(q)
    try:
        x = float(q)
    except OverflowError as exc:
        raise SchemaError(f"real constant {frac_str(q)} is out of the range of a double") from exc
    side = ROUNDING.get(role)
    if side is not None:
        n, d = x.as_integer_ratio()
        gap = n * q.denominator - q.numerator * d  # the sign of x - q
        if gap and (gap < 0) == (side > 0):
            x = math.nextafter(x, side)
    return x


def encode_scalar(s: Scalar):
    if isinstance(s, RealScalar):
        return s.value
    if not isinstance(s, PadicScalar):
        raise SchemaError(f"cannot encode {s!r}")
    if s.is_exact_zero():
        return {"val": None, "digits": []}
    if s.val is None:
        return {"val": s.prec, "digits": []}
    anchor = min(s.val, 0)
    digits = [0] * (s.val - anchor) + s.digit_list()
    while digits and digits[-1] == 0:
        digits.pop()
    return {"val": anchor, "digits": digits}


def encode_vector(v: Vector):
    return [encode_scalar(c) for c in v.components]


def encode_operator(op: Operator):
    return [[encode_scalar(a) for a in row] for row in op.entries]


def _parse_int(value, what: str) -> int:
    """An int, or a string of one; no bools, no floats."""
    if isinstance(value, int) and not isinstance(value, bool):
        return value
    if isinstance(value, str):
        try:
            return int(value)
        except ValueError:
            pass
    raise SchemaError(f"{what} must be an integer, got {value!r}")


def _parse_float(value, what: str) -> float:
    """A JSON number, or a string of one; no bools."""
    if isinstance(value, (int, float, str)) and not isinstance(value, bool):
        try:
            return float(value)
        except (ValueError, OverflowError):
            pass
    raise SchemaError(f"{what} must be a number, got {value!r}")


def parse_field(data) -> FieldDescriptor:
    if not isinstance(data, dict) or "kind" not in data:
        raise SchemaError("field descriptor needs a 'kind'")
    kind = data["kind"]
    if kind == "padic":
        try:
            prime, precision = data["prime"], data["precision"]
        except KeyError as exc:
            raise SchemaError(f"padic field needs {exc}") from exc
        return FieldDescriptor.padic(
            _parse_int(prime, "prime"), _parse_int(precision, "precision")
        )
    if kind == "real":
        tolerance = _parse_float(data.get("tolerance", 1e-9), "tolerance")
        return FieldDescriptor.real(tolerance)
    raise SchemaError(f"unknown field kind {kind!r}")


def encode_ball(ball: Ball, radius_role: str | None = None):
    desc = ball.descriptor
    return {
        "center": [encode_constant(c, desc) for c in ball.center_exact],
        "radius": encode_constant(ball.radius, desc, radius_role),
        "closed": ball.closed,
    }


def parse_flag(data: dict, key: str, default: bool) -> bool:
    """data[key] when it is a JSON true or false, `default` when the key is
    absent; any other value is refused."""
    value = data.get(key, default)
    if not isinstance(value, bool):
        raise SchemaError(f"'{key}' must be true or false, got {value!r}")
    return value


def parse_ball(data, descriptor: FieldDescriptor) -> Ball:
    if not isinstance(data, dict):
        raise SchemaError("ball must be an object")
    try:
        center = data["center"]
        if not isinstance(center, list):
            raise SchemaError("ball center must be a list of rationals")
        center = [parse_rational(c) for c in center]
        radius = parse_rational(data["radius"])
    except KeyError as exc:
        raise SchemaError(f"ball needs {exc}") from exc
    return Ball(descriptor, tuple(center), radius, parse_flag(data, "closed", True))


def encode_map(f: MapSpec):
    out = {
        "vars": f.domain_dim,
        "outputs": [
            [{"coef": frac_str(c), "exp": list(e)} for e, c in monomials]
            for monomials in f.outputs
        ],
    }
    if f.domain is not None:
        out["domain"] = encode_ball(f.domain)
    return out


def parse_map(data, descriptor: FieldDescriptor | None = None) -> MapSpec:
    if not isinstance(data, dict):
        raise SchemaError("map must be an object")
    try:
        m = _parse_int(data["vars"], "vars")
        if m < 1:
            raise SchemaError(f"a map needs at least one variable, got vars = {m}")
        outputs = []
        for row in data["outputs"]:
            monomials = []
            for mono in row:
                exps = tuple(_parse_int(e, "exponent") for e in mono["exp"])
                degree, budget = sum(exps), calculus.DEGREE_BUDGET
                if degree > budget:
                    raise BudgetExceeded(
                        f"a monomial of degree {degree} exceeds the degree budget of {budget}",
                        degree=degree, budget=budget,
                    )
                monomials.append((exps, parse_rational(mono["coef"])))
            outputs.append(tuple(monomials))
    except (KeyError, TypeError) as exc:
        raise SchemaError(f"bad map encoding: {exc}") from exc
    if not outputs:
        raise SchemaError("a map needs at least one output")
    domain = None
    if data.get("domain") is not None:
        if descriptor is None:
            raise SchemaError("map domain needs a field descriptor")
        domain = parse_ball(data["domain"], descriptor)
    return MapSpec(m, tuple(outputs), domain)


def encode_certificate(cert: InversionCertificate):
    desc = cert.descriptor
    enc = lambda q: encode_constant(q, desc)
    return {
        "A": [[enc(v) for v in row] for row in cert.A],
        "A_inv": [[enc(v) for v in row] for row in cert.A_inv],
        **{
            key: encode_constant(getattr(cert, key), desc, key)
            for key in ("norm_A", "norm_A_inv", "sigma", "a", "b", "alpha", "beta", "theta")
        },
        "ball": encode_ball(cert.ball),
        "ultrametric": cert.ultrametric,
    }


def encode_image(img: ImageDescription):
    desc = img.descriptor
    enc = lambda q: encode_constant(q, desc)
    out = {
        "center": [enc(c) for c in img.center],
        "A": [[enc(v) for v in row] for row in img.A],
        "radius": enc(img.radius),
        "exact": img.exact,
    }
    if not img.exact:
        out.update(
            inner_radius=enc(img.inner_radius),
            outer_radius=enc(img.outer_radius),
            skew_inner=enc(img.skew_inner),
            skew_outer=enc(img.skew_outer),
        )
    return out


REPORT_BUDGET = 2**20
"""The most characters the step list of a `fixpoint` report may take as
the CLI prints it.  Each step lists its bound theta^k d0 and its actual
size, exact rationals over Q_p, so the list grows quadratically with the
step count: over Q5 the golden map's report is 0.79 MB at N = 1000 and
11.5 MB at N = 4000.  `check_report_budget` refuses a larger one before
the first step."""

_STEP_LAYOUT = 63
"""Characters of one printed step besides its two constants: the keys,
quotes, indentation and line breaks at the report's depth."""


def check_report_budget(problem: ContractionProblem, steps: int) -> None:
    """Raise BudgetExceeded (`steps`, `size`, `budget`) when the step list
    of a `fixpoint` report of `steps` steps would pass REPORT_BUDGET.

    The size is estimated before any step, from logarithms: step k prints
    two constants the size of its bound theta^k d0, "num/den" with the
    digits of a^k c and b^k d over Q_p (theta = a/b, d0 = c/d), a double of
    at most 24 characters over the reals.
    """
    if problem.descriptor.ultrametric:
        theta, d0 = problem.theta, problem.initial_displacement()
        growth = sum(math.log10(max(n, 1)) for n in (theta.numerator, theta.denominator))
        start = math.log10(max(d0.numerator, 1)) + math.log10(d0.denominator) + 5  # digits, "/" and quotes
        constant = growth * (steps - 1) / 2 + start  # the mean over k < steps
    else:
        constant = 24
    size = math.ceil(steps * (_STEP_LAYOUT + 2 * constant))
    if size > REPORT_BUDGET:
        raise BudgetExceeded(
            f"a fixpoint report of {steps} steps would print about {size} characters "
            f"of steps, above the budget of {REPORT_BUDGET}",
            steps=steps, size=size, budget=REPORT_BUDGET,
        )


def encode_fixed_point_report(report: FixedPointReport, descriptor: FieldDescriptor):
    enc = lambda q, role=None: encode_constant(q, descriptor, role)
    steps = [
        {"bound": enc(b, "bound"), "actual": enc(Fraction(a))}
        for b, a in zip(report.apriori_bounds, report.step_distances)
    ]
    return {
        "fixed_point": encode_vector(report.fixed_point),
        "iterations": report.iterations,
        "theta": enc(report.theta, "theta"),
        "initial_distance": enc(report.initial_distance),
        "achieved_distance": enc(Fraction(report.achieved_distance)),
        "steps": steps,
    }


def encode_window(window: ParamWindow):
    desc = window.descriptor
    target = (
        encode_image(window.target_ball)
        if isinstance(window.target_ball, ImageDescription)
        else encode_ball(window.target_ball, "target_radius")
    )
    return {
        "p_ball": encode_ball(window.p_ball, "p_radius"),
        "state_ball": encode_ball(window.state_ball),
        "target": target,
        "delta": encode_constant(window.delta, desc, "delta"),
        "z0": [encode_constant(z, desc) for z in window.z0],
        "certificate": encode_certificate(window.cert),
    }


def encode_implicit_solution(sol: ImplicitSolution, descriptor: FieldDescriptor):
    return {
        "value": encode_vector(sol.lambda_value),
        "derivative": encode_operator(sol.derivative),
        "residual": encode_constant(Fraction(sol.residual), descriptor),
    }


def encode_identity_report(report: IdentityReport):
    out = []
    for res in report.results:
        entry = {
            "identity": res.name,
            "samples": res.samples,
            "failures": res.failures,
            "passed": res.passed,
        }
        if res.counterexample is not None:
            entry["counterexample"] = _encode_witness(res.counterexample)
        out.append(entry)
    return {"passed": report.passed, "identities": out}


def _encode_witness(witness: dict):
    out = {}
    for key, value in witness.items():
        if isinstance(value, tuple):
            out[key] = [_encode_witness_value(v) for v in value]
        else:
            out[key] = _encode_witness_value(value)
    return out


def _encode_witness_value(v):
    if isinstance(v, Scalar):
        return encode_scalar(v)
    if isinstance(v, Fraction):
        return frac_str(v)
    return v
