"""Seeded workloads for the ultrafix benchmark.

A workload is a fixed schedule of operation slots, the *round*.  The seed and
the round index choose every coefficient, target and sample seed; the slot
list (which field, dimension and precision each operation uses) depends on
the round index only, and its sizes not at all.  A run repeats whole rounds,
so its latency percentiles and throughput describe the same mix of operation
sizes on every seed.

Problems are certifiable by construction, never by retrying the solver:

* p-adic maps have a unimodular integer linear part A (det A prime to p) and
  p-integral terms of degree 2-3.  On B_{1/p}(0) their strictness modulus
  against A is at most 1/p < 1 = 1/|A^-1|, and any target in pZ^n lies in
  f(B_{1/p}(0)) = A.B_{1/p}(0).
* real maps have a diagonally dominant linear part (|a_ii| >= 2, off-diagonal
  row sums <= 1/2, so |A^-1| <= 2/3) and at most three terms of degree 2-3
  with coefficients <= 1/8.  On B_{1/2}(0) their strictness is <= 3/8, well
  below 1/|A^-1| >= 3/2, and targets of size <= 1/4 pull back inside the
  certified image.

Every operation builds its own MapSpec, so the per-map caches start cold, as
they do for a CLI caller.
"""

from __future__ import annotations

import io
import json
import random
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

import ultrafix
from ultrafix import cli

import oracle

ROOT = Path(__file__).resolve().parent.parent
FIXTURES = ROOT / "tests" / "fixtures"
GOLDEN = ROOT / "tests" / "golden"

PRIMES = (3, 5, 7)
REAL_TOL = Fraction(1e-9)  # the real field's default tolerance, as the double it is


@dataclass
class Op:
    """One operation: its kind and its generated inputs (exact values only)."""

    kind: str
    spec: dict

    def run(self):
        return RUNNERS[self.kind](self.spec)

    def check(self, output):
        """(failure reason or None, proven p-adic digits of the result)."""
        return CHECKS[self.kind](self.spec, output)


def describe(ops) -> str:
    """Canonical text of a round's inputs (for determinism checks)."""
    return json.dumps([[op.kind, op.spec] for op in ops], default=str, sort_keys=True)


# ---------------------------------------------------------------------------
# generators


def _frac(q: Fraction) -> str:
    return f"{q.numerator}/{q.denominator}"


def _unit_vector(j: int, nvars: int) -> tuple:
    return tuple(1 if i == j else 0 for i in range(nvars))


def _monomial(rng, nvars: int, degree: int, first: int = 0) -> tuple:
    exps = [0] * nvars
    for _ in range(degree):
        exps[rng.randrange(first, nvars)] += 1
    return tuple(exps)


def _p_integral(rng, p: int) -> Fraction:
    return Fraction(rng.choice((-3, -2, -1, 1, 2, 3)), rng.choice([d for d in (1, 2, 3, 4) if d % p]))


def _p_unit(rng, p: int) -> int:
    """An integer prime to p."""
    return rng.choice((-1, 1)) * (rng.randint(1, p - 1) + p * rng.randint(0, p - 1))


def unimodular(rng, p: int, n: int):
    """L*U with L unit lower triangular and U upper triangular with units
    mod p on the diagonal, so det is prime to p and A^-1 is p-integral."""
    lower = [[1 if i == j else (rng.randint(-2, 2) if j < i else 0) for j in range(n)] for i in range(n)]
    upper = [[_p_unit(rng, p) if i == j else (rng.randint(-2, 2) if j > i else 0) for j in range(n)] for i in range(n)]
    return [[sum(lower[i][k] * upper[k][j] for k in range(n)) for j in range(n)] for i in range(n)]


def padic_map(rng, p: int, n: int, params: int = 0):
    """Rows over params + n variables: B q + A x + u x^a + c z^b per row.

    A is unimodular and B has unit entries; x^a is a degree-2 monomial in the
    state variables with a unit coefficient u, z^b a degree-3 monomial in all
    variables with a p-integral coefficient c.  So on B_{1/p}(0) the
    strictness modulus is exactly 1/p and the solver's contraction constant
    and step count do not depend on the seed.
    """
    nvars = params + n
    A = unimodular(rng, p, n)
    rows = []
    for i in range(n):
        row = [(Fraction(rng.choice((-2, -1, 1, 2))), _unit_vector(j, nvars)) for j in range(params)]
        row += [(Fraction(A[i][j]), _unit_vector(params + j, nvars)) for j in range(n) if A[i][j]]
        row.append((Fraction(_p_unit(rng, p), rng.choice([d for d in (1, 2, 4) if d % p])), _monomial(rng, nvars, 2, params)))
        row.append((_p_integral(rng, p), _monomial(rng, nvars, 3)))
        rows.append(row)
    return rows


def padic_fixpoint_map(rng, p: int, n: int):
    """p*b + p*L x + p-integral terms of degree 2-3: a self-map of
    B_{1/p}(0) with contraction constant at most 1/p."""
    rows = []
    for _ in range(n):
        row = [(Fraction(p * rng.randint(1, 9)), (0,) * n)]
        row += [(Fraction(p * rng.randint(-3, 3)), _unit_vector(j, n)) for j in range(n)]
        row += [(_p_integral(rng, p), _monomial(rng, n, rng.randint(2, 3))) for _ in range(2)]
        rows.append(row)
    return rows


def real_map(rng, n: int, params: int = 0):
    """Rows over params + n variables: B q + A x + up to three terms of degree
    2-3 in the state variables, A diagonally dominant, |B| <= 1/2."""
    nvars = params + n
    rows = []
    for i in range(n):
        row = [(Fraction(rng.randint(-4, 4), 8), _unit_vector(j, nvars)) for j in range(params)]
        for j in range(n):
            if i == j:
                coef = Fraction(rng.choice((-1, 1)) * (8 + rng.randint(0, 8)), 4)
            else:
                coef = Fraction(rng.randint(-4, 4), 8 * (n - 1))
            row.append((coef, _unit_vector(params + j, nvars)))
        for _ in range(rng.randint(1, 3)):
            row.append((Fraction(rng.choice((-1, 1)), 8), _monomial(rng, nvars, rng.randint(2, 3), params)))
        rows.append(row)
    return rows


def real_fixpoint_map(rng, n: int):
    """b + L x + two terms of degree 2-3 on B_1(0): Lipschitz <= 1/4 + 3/8 and
    |b| <= 1/4 <= (1 - theta) r, so the iteration is admissible."""
    rows = []
    for _ in range(n):
        row = [(Fraction(rng.randint(-2, 2), 8), (0,) * n)]
        row += [(Fraction(rng.randint(-2, 2), 8 * n), _unit_vector(j, n)) for j in range(n)]
        row += [(Fraction(rng.choice((-1, 1)), 16), _monomial(rng, n, rng.randint(2, 3))) for _ in range(2)]
        rows.append(row)
    return rows


def identity_map(rng, m: int, n: int):
    """A random map as in acceptance criterion 1: 2-4 monomials per output,
    degree <= 4, small rational coefficients."""
    rows = []
    for _ in range(n):
        rows.append(
            [
                (Fraction(rng.randint(-4, 4) or 1, rng.randint(1, 3)), _monomial(rng, m, rng.randint(0, 4)))
                for _ in range(rng.randint(2, 4))
            ]
        )
    return rows


def _padic_target(rng, p: int, n: int):
    """A target of valuation exactly 1 in each coordinate, so the distance
    the solver starts from is 1/p on every seed."""
    return tuple(Fraction(p * _p_unit(rng, p), rng.choice([d for d in (1, 2, 4) if d % p])) for _ in range(n))


def _real_target(rng, n: int):
    return tuple(Fraction(rng.randint(-8, 8), 32) for _ in range(n))


# ---------------------------------------------------------------------------
# deep_padic: certify + local_invert (and build_window + solve_implicit) at
# 128..1024 digits over Q3, Q5, Q7


_COMBOS = tuple((p, n) for p in PRIMES for n in (1, 2))


def deep_schedule(index: int):
    """(kind, prime, state dimension, digits N) of the 20 slots of round
    `index`; 4 of them implicit.

    7 solves at N = 128 and 10 at N = 256 put both the median and p80 inside
    the N = 256 group; 2 solves at 512 and 1 at 1024 carry half of the time.
    The primes of the N >= 512 slots rotate with the round index, so a run of
    three or more rounds solves at 1024 digits over Q3, Q5 and Q7.
    Two-variable solves sometimes stop short of N digits, which makes their
    cost depend on the seed; they run at N <= 512, where a run has enough of
    them to average that out, and the N = 1024 solve is one-variable.
    """
    p, q = PRIMES[index % 3], PRIMES[(index + 1) % 3]
    return (
        tuple(("invert", prime, n, 128) for prime, n in _COMBOS)
        + (("implicit", q, 1, 128),)
        + tuple(("invert", prime, n, 256) for prime, n in _COMBOS)
        + (("implicit", 3, 1, 256), ("implicit", 5, 2, 256), ("implicit", 7, 1, 256), ("invert", p, 2, 256))
        + (("invert", p, 1, 512), ("invert", q, 2, 512))
        + (("invert", p, 1, 1024),)
    )


def deep_padic_round(rng, index: int) -> list[Op]:
    ops = []
    for kind, p, n, N in deep_schedule(index):
        if kind == "invert":
            spec = {"p": p, "N": N, "n": n, "rows": padic_map(rng, p, n), "target": _padic_target(rng, p, n)}
            ops.append(Op("padic_invert", spec))
        else:
            spec = {"p": p, "N": N, "n": n, "rows": padic_map(rng, p, n, params=1), "q": (Fraction(p * _p_unit(rng, p)),)}
            ops.append(Op("padic_implicit", spec))
    rng.shuffle(ops)
    return ops


def _run_padic_invert(s):
    desc = ultrafix.FieldDescriptor.padic(s["p"], s["N"])
    f = ultrafix.MapSpec.from_coefficients(s["n"], s["rows"])
    cert = ultrafix.certify(f, ultrafix.Ball(desc, (0,) * s["n"], Fraction(1, s["p"])))
    return ultrafix.local_invert(cert, f, s["target"])


def _check_padic_invert(s, solution):
    values, precs = zip(*(oracle.padic_scalar(c) for c in solution.components))
    k = min(precs)
    p, n = s["p"], s["n"]
    reason = oracle.padic_ball_violation(values, (0,) * n, Fraction(1, p), p)
    reason = reason or oracle.padic_residual_violation(s["rows"], values, s["target"], k, p)
    return reason, _digits(k, s)


def _run_padic_implicit(s):
    desc = ultrafix.FieldDescriptor.padic(s["p"], s["N"])
    f = ultrafix.MapSpec.from_coefficients(1 + s["n"], s["rows"])
    window = ultrafix.build_window(f, (0,), (0,) * s["n"], descriptor=desc)
    return window, ultrafix.solve_implicit(window, f, s["q"])


def _check_padic_implicit(s, output):
    window, solution = output
    values, precs = zip(*(oracle.padic_scalar(c) for c in solution.lambda_value.components))
    k = min(precs)
    p, n = s["p"], s["n"]
    z0 = oracle.poly_eval(s["rows"], (0,) * (1 + n))
    reason = oracle.padic_ball_violation(values, (0,) * n, window.state_ball.radius, p)
    reason = reason or oracle.padic_residual_violation(s["rows"], s["q"] + values, z0, k, p)
    return reason, _digits(k, s)


def _digits(k, s) -> int:
    """Proven digits of a solve: its absolute precision k, or N for an exact
    solution."""
    return s["N"] if k == oracle.INF else k


# ---------------------------------------------------------------------------
# request_mix: in-process cli.run on the five golden requests and on seeded
# requests of all five commands over Q5, Q7 (N <= 16) and the reals


GOLDEN_REQUESTS = {
    "invert_golden": ["invert", "--map", "maps/plus_square.json", "--field", "fields/q5n4.json", "--geometry", "geo/invert_golden.json"],
    "certify_affine": ["certify", "--map", "maps/affine.json", "--field", "fields/real.json", "--geometry", "geo/certify_affine.json"],
    "fixpoint_golden": ["fixpoint", "--map", "maps/five_plus_square.json", "--field", "fields/q5n4.json", "--geometry", "geo/fixpoint_golden.json"],
    "implicit_golden": ["implicit", "--map", "maps/saddle.json", "--field", "fields/q5n4.json", "--geometry", "geo/implicit_golden.json"],
    "check_clean": ["check", "--map", "maps/plus_square.json", "--field", "fields/q5n4.json", "--samples", "40", "--seed", "11"],
}
_FILE_FLAGS = ("--map", "--field", "--geometry")
# (command, field: prime or None for the reals, dimension)
REQUEST_SCHEDULE = (
    tuple(("certify", field, n) for n in range(1, 7) for field in (5, 7, None))
    + tuple(("invert", field, n) for n in range(1, 7) for field in (5, 7, None))
    + tuple(("fixpoint", field, n) for n in range(1, 4) for field in (5, 7, None))
    + tuple(("implicit", field, n) for n in range(1, 3) for field in (5, 7, None))
    + (("check", None, 1), ("check", 5, 2), ("check", 7, 3))
)
CHECK_SAMPLES = 8


def _golden_op(name: str) -> Op:
    argv = list(GOLDEN_REQUESTS[name])
    for i, arg in enumerate(argv[:-1]):
        if arg in _FILE_FLAGS:
            argv[i + 1] = str(FIXTURES / argv[i + 1])
    return Op("cli", {"check": "golden", "argv": argv, "golden": (GOLDEN / f"{name}.json").read_text()})


def _map_json(nvars: int, rows) -> str:
    return json.dumps({"vars": nvars, "outputs": [[{"coef": _frac(c), "exp": list(e)} for c, e in row] for row in rows]})


def _field_json(prime, N) -> str:
    return json.dumps({"kind": "real"} if prime is None else {"kind": "padic", "prime": prime, "precision": N})


def _cli_op(rng, command: str, prime, n: int) -> Op:
    N = rng.choice((4, 8, 12, 16))
    spec = {"check": command, "p": prime, "n": n}
    radius = Fraction(1, 2) if prime is None else Fraction(1, prime)
    ball = {"center": ["0/1"] * n, "radius": _frac(radius)}
    if command in ("certify", "invert"):
        rows = real_map(rng, n) if prime is None else padic_map(rng, prime, n)
        geometry = {"ball": ball}
        if command == "invert":
            spec["target"] = _real_target(rng, n) if prime is None else _padic_target(rng, prime, n)
            geometry["target"] = [_frac(t) for t in spec["target"]]
        spec["radius"] = radius
    elif command == "fixpoint":
        if prime is None:
            rows, radius = real_fixpoint_map(rng, n), Fraction(1)
        else:
            rows = padic_fixpoint_map(rng, prime, n)
        geometry = {"domain": {"center": ["0/1"] * n, "radius": _frac(radius)}, "x0": ["0/1"] * n}
        spec["radius"] = radius
    elif command == "implicit":
        rows = real_map(rng, n, params=1) if prime is None else padic_map(rng, prime, n, params=1)
        q = Fraction(rng.randint(-4, 4), 8) if prime is None else Fraction(prime * _p_unit(rng, prime))
        spec["q"] = (q,)
        geometry = {"p0": ["0/1"], "x0": ["0/1"] * n, "p": [_frac(q)]}
    else:  # check: m = n in 1..3, exact only or also over Q5/Q7
        N = rng.choice((6, 8, 12, 16))
        rows = identity_map(rng, n, n)
        argv = ["check", "--map", _map_json(n, rows), "--samples", str(CHECK_SAMPLES), "--seed", str(rng.randrange(10**6))]
        if prime is not None:
            argv += ["--field", _field_json(prime, N)]
        spec.update(rows=rows, argv=argv)
        return Op("cli", spec)
    nvars = n + (1 if command == "implicit" else 0)
    spec["rows"] = rows
    spec["argv"] = [command, "--map", _map_json(nvars, rows), "--field", _field_json(prime, N), "--geometry", json.dumps(geometry)]
    return Op("cli", spec)


def request_mix_round(rng, index: int) -> list[Op]:
    ops = [_golden_op(name) for name in GOLDEN_REQUESTS]
    ops += [_cli_op(rng, command, prime, n) for command, prime, n in REQUEST_SCHEDULE]
    rng.shuffle(ops)
    return ops


def _run_cli(s):
    stream = io.StringIO()
    code = cli.run(s["argv"], stream)
    return code, stream.getvalue()


def _decode_solution(values, p):
    if p is None:
        return tuple(Fraction(v) for v in values), None
    decoded, precs = zip(*(oracle.decode_padic_json(v, p) for v in values))
    return decoded, min(precs)


def _check_cli(s, output):
    code, text = output
    if code != 0:
        return f"exit code {code}: {text[:200]}", 0
    kind = s["check"]
    if kind == "golden":
        return oracle.check_golden(text, s["golden"]), 0
    result = json.loads(text)["result"]
    p, n, rows = s.get("p"), s.get("n"), s.get("rows")
    zeros = (0,) * (n or 0)
    if kind == "certify":
        return oracle.check_certificate(result["certificate"], rows, zeros, p), 0
    if kind == "check":
        for report in result["reports"].values():
            if not report["passed"] or any(r["samples"] != CHECK_SAMPLES for r in report["identities"]):
                return "identity report did not pass", 0
        return None, 0
    if kind == "invert":
        point, k = _decode_solution(result["solution"], p)
        target, params, center, radius = s["target"], (), zeros, s["radius"]
        b = Fraction(result["certificate"]["b"])
    elif kind == "fixpoint":
        report = result["report"]
        point, k = _decode_solution(report["fixed_point"], p)
        target, params, center, radius = point, (), zeros, s["radius"]
        # |x - x*| <= tol gives |g(x) - x| <= (1 + theta) tol
        b = 1 + Fraction(report["theta"])
    else:  # implicit
        window, solution = result["window"], result["solution"]
        point, k = _decode_solution(solution["value"], p)
        params = s["q"]
        target = oracle.poly_eval(rows, (0,) * (1 + n))
        center, radius = zeros, Fraction(window["state_ball"]["radius"])
        b = Fraction(window["certificate"]["b"])
    if p is None:
        # |v - v*| <= tol gives |f(v) - c| <= b tol
        reason = oracle.real_ball_violation(point, center, radius)
        return reason or oracle.real_residual_violation(rows, params + point, target, b * REAL_TOL), 0
    reason = oracle.padic_ball_violation(point, center, radius, p)
    return reason or oracle.padic_residual_violation(rows, params + point, target, k, p), k


# ---------------------------------------------------------------------------
# identity_sampling: check_identities on random maps (exact and Q5 at N = 6)
# and verify_distortion on certified balls over Q5 and the reals


IDENTITY_SAMPLES = 12
DISTORTION_PAIRS = 60
IDENTITY_FIELD = (5, 6)
# (kind, field: prime or None, m, n)
IDENTITY_SCHEDULE = (
    tuple(("identities", field, m, n) for m in (1, 2, 3) for n in (1, 2, 3) for field in (None, 5))
    + tuple(("distortion", field, n, n) for n in (1, 2, 3) for field in (5, None))
)


def identity_sampling_round(rng, index: int) -> list[Op]:
    ops = []
    for kind, prime, m, n in IDENTITY_SCHEDULE:
        seed = rng.randrange(10**6)
        if kind == "identities":
            spec = {"m": m, "rows": identity_map(rng, m, n), "field": prime, "seed": seed}
        else:
            rows = real_map(rng, n) if prime is None else padic_map(rng, prime, n)
            radius = Fraction(1, 2) if prime is None else Fraction(1, prime)
            spec = {"n": n, "rows": rows, "field": prime, "radius": radius, "seed": seed}
        ops.append(Op(kind, spec))
    rng.shuffle(ops)
    return ops


def _run_identities(s):
    f = ultrafix.MapSpec.from_coefficients(s["m"], s["rows"])
    desc = None if s["field"] is None else ultrafix.FieldDescriptor.padic(*IDENTITY_FIELD)
    return ultrafix.check_identities(f, IDENTITY_SAMPLES, s["seed"], desc)


def _check_identities(s, report):
    if not report.passed or any(r.samples != IDENTITY_SAMPLES for r in report.results):
        return "identity report did not pass", 0
    return None, 0


def _run_distortion(s):
    n = s["n"]
    desc = ultrafix.FieldDescriptor.real() if s["field"] is None else ultrafix.FieldDescriptor.padic(s["field"], IDENTITY_FIELD[1])
    f = ultrafix.MapSpec.from_coefficients(n, s["rows"])
    cert = ultrafix.certify(f, ultrafix.Ball(desc, (0,) * n, s["radius"]))
    return ultrafix.verify_distortion(cert, f, DISTORTION_PAIRS, s["seed"])


def _check_distortion(s, report):
    if not report.passed or report.pairs != DISTORTION_PAIRS:
        return "distortion report did not pass", 0
    return None, 0


RUNNERS = {
    "padic_invert": _run_padic_invert,
    "padic_implicit": _run_padic_implicit,
    "cli": _run_cli,
    "identities": _run_identities,
    "distortion": _run_distortion,
}
CHECKS = {
    "padic_invert": _check_padic_invert,
    "padic_implicit": _check_padic_implicit,
    "cli": _check_cli,
    "identities": _check_identities,
    "distortion": _check_distortion,
}


@dataclass(frozen=True)
class Workload:
    """A round generator plus the run-shape constants chosen for it.

    tail: the latency percentile reported as latency_tail_ms.  It sits inside
    one group of similar operations of the round, away from the boundary
    between size classes, so it does not jump when a run has one more round.
    min_ops: enough operations for ten samples beyond the tail percentile.
    trace_rounds: rounds in a traced run (fixed, so counts repeat exactly).
    cycle: a timed run ends after a multiple of this many rounds, the period
    of the round schedule, so every run holds the same mix of slots.
    """

    build: object
    tail: float
    min_ops: int
    trace_rounds: int
    cycle: int = 1


WORKLOADS = {
    "deep_padic": Workload(deep_padic_round, tail=0.80, min_ops=60, trace_rounds=3, cycle=3),
    "request_mix": Workload(request_mix_round, tail=0.98, min_ops=500, trace_rounds=2),
    "identity_sampling": Workload(identity_sampling_round, tail=0.95, min_ops=200, trace_rounds=2),
}


def make_round(workload: str, seed: int, index: int) -> list[Op]:
    """The operations of one round; the same (workload, seed, index) always
    gives byte-identical inputs."""
    return WORKLOADS[workload].build(random.Random(f"{workload}/{seed}/{index}"), index)
