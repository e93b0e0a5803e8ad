import io
import json
import math
import os
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest

from ultrafix import BudgetExceeded, FieldDescriptor, calculus, cli, contraction, jsonio
from ultrafix.field import frac_str

FIXTURES = Path(__file__).parent / "fixtures"
GOLDEN = Path(__file__).parent / "golden"
# the subprocess runs the copy of ultrafix that this test imported
PACKAGE_ROOT = str(Path(cli.__file__).resolve().parents[1])

CASES = {
    "invert_golden": [
        "invert",
        "--map", str(FIXTURES / "maps/plus_square.json"),
        "--field", str(FIXTURES / "fields/q5n4.json"),
        "--geometry", str(FIXTURES / "geo/invert_golden.json"),
    ],
    "certify_affine": [
        "certify",
        "--map", str(FIXTURES / "maps/affine.json"),
        "--field", str(FIXTURES / "fields/real.json"),
        "--geometry", str(FIXTURES / "geo/certify_affine.json"),
    ],
    "fixpoint_golden": [
        "fixpoint",
        "--map", str(FIXTURES / "maps/five_plus_square.json"),
        "--field", str(FIXTURES / "fields/q5n4.json"),
        "--geometry", str(FIXTURES / "geo/fixpoint_golden.json"),
    ],
    "implicit_golden": [
        "implicit",
        "--map", str(FIXTURES / "maps/saddle.json"),
        "--field", str(FIXTURES / "fields/q5n4.json"),
        "--geometry", str(FIXTURES / "geo/implicit_golden.json"),
    ],
    # the invert and implicit requests at N = 64, each one Newton solve
    "invert_newton": [
        "invert",
        "--map", str(FIXTURES / "maps/plus_square.json"),
        "--field", str(FIXTURES / "fields/q5n64.json"),
        "--geometry", str(FIXTURES / "geo/invert_golden.json"),
    ],
    "implicit_newton": [
        "implicit",
        "--map", str(FIXTURES / "maps/saddle.json"),
        "--field", str(FIXTURES / "fields/q5n64.json"),
        "--geometry", str(FIXTURES / "geo/implicit_golden.json"),
    ],
    # the invert request at N = 256: a Newton solve whose answer has valuation
    # 1, so the a priori cap binds below its 257 carried digits
    "invert_newton_deep": [
        "invert",
        "--map", str(FIXTURES / "maps/plus_square.json"),
        "--field", str(FIXTURES / "fields/q5n256.json"),
        "--geometry", str(FIXTURES / "geo/invert_golden.json"),
    ],
    # x + x^2/5 on B[0, 1/25]: its frame carries 1 guard digit, and the
    # Taylor floor of its Newton steps is 2v - 1
    "invert_guard": [
        "invert",
        "--map", str(FIXTURES / "maps/plus_fifth_square.json"),
        "--field", str(FIXTURES / "fields/q5n64.json"),
        "--geometry", str(FIXTURES / "geo/invert_guard.json"),
    ],
    "check_clean": [
        "check",
        "--map", str(FIXTURES / "maps/plus_square.json"),
        "--field", str(FIXTURES / "fields/q5n4.json"),
        "--samples", "40",
        "--seed", "11",
    ],
    # a Banach fixpoint whose iterates settle before its planned steps end:
    # all 12 digits, which the close proves from the residual of its answer
    "fixpoint_q5n12": [
        "fixpoint",
        "--map", str(FIXTURES / "maps/thirty_quadratic.json"),
        "--field", str(FIXTURES / "fields/q5n12.json"),
        "--geometry", str(FIXTURES / "geo/fixpoint_golden.json"),
    ],
    # the same Banach fixpoint under a supplied theta = 1/3, not a power of 5:
    # it prints the bounds theta^k d0, and plans with 5^-1, the largest
    # power of 5 below theta
    "fixpoint_supplied_theta": [
        "fixpoint",
        "--map", str(FIXTURES / "maps/thirty_quadratic.json"),
        "--field", str(FIXTURES / "fields/q5n12.json"),
        "--geometry", str(FIXTURES / "geo/fixpoint_supplied_theta.json"),
    ],
    # 5x + 1 on B[0, 1] under theta = 1/3: planned with 5^-1, its 12 steps
    # prove all 12 digits
    "fixpoint_rounded_theta": [
        "fixpoint",
        "--map", str(FIXTURES / "maps/five_x_plus_one.json"),
        "--field", str(FIXTURES / "fields/q5n12.json"),
        "--geometry", str(FIXTURES / "geo/fixpoint_rounded_theta.json"),
    ],
    # a 2-variable invert, and an implicit request at a coarse --tol: their
    # plans take 3 steps and 1, and their answers Newton passes all the same
    "invert_pair": [
        "invert",
        "--map", str(FIXTURES / "maps/quadric_pair.json"),
        "--field", str(FIXTURES / "fields/q5n4.json"),
        "--geometry", str(FIXTURES / "geo/invert_pair.json"),
    ],
    "implicit_coarse": [
        "implicit",
        "--map", str(FIXTURES / "maps/saddle.json"),
        "--field", str(FIXTURES / "fields/q5n4.json"),
        "--geometry", str(FIXTURES / "geo/implicit_golden.json"),
        "--tol", "1/25",
    ],
    # real solutions: the invert and implicit requests over the reals
    "invert_real": [
        "invert",
        "--map", str(FIXTURES / "maps/plus_square.json"),
        "--field", str(FIXTURES / "fields/real.json"),
        "--geometry", str(FIXTURES / "geo/invert_real.json"),
    ],
    "implicit_real": [
        "implicit",
        "--map", str(FIXTURES / "maps/saddle.json"),
        "--field", str(FIXTURES / "fields/real.json"),
        "--geometry", str(FIXTURES / "geo/implicit_real.json"),
    ],
}

# the mutant checks fail (exit 1) and print their reports; the exact-only one
# prints multi-coordinate lhs and rhs from the integer vectors of the suite
MUTANT_CASES = {
    "check_mutant": [
        "check",
        "--map", str(FIXTURES / "maps/plus_square.json"),
        "--field", str(FIXTURES / "fields/q5n4.json"),
        "--samples", "40",
        "--geometry", str(FIXTURES / "geo/check_mutant.json"),
    ],
    "check_mutant_exact": [
        "check",
        "--map", str(FIXTURES / "maps/quadric_pair.json"),
        "--samples", "40",
        "--geometry", str(FIXTURES / "geo/check_mutant.json"),
    ],
    # the same 2-variable mutant over Q7 at 16 digits: its field report
    # prints 16-digit counterexamples of the Q_p sampler
    "check_mutant_q7": [
        "check",
        "--map", str(FIXTURES / "maps/quadric_pair.json"),
        "--field", str(FIXTURES / "fields/q7n16.json"),
        "--samples", "40",
        "--geometry", str(FIXTURES / "geo/check_mutant.json"),
    ],
}


def run_cli(args):
    path = os.pathsep.join(filter(None, [PACKAGE_ROOT, os.environ.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-m", "ultrafix.cli", *args],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
    )


@pytest.mark.parametrize("name", sorted(CASES))
def test_cli_fixture_matches_golden_and_reruns_identically(name):
    first = run_cli(CASES[name])
    second = run_cli(CASES[name])
    assert first.returncode == 0, first.stdout + first.stderr
    assert first.stdout == second.stdout
    golden = (GOLDEN / f"{name}.json").read_text()
    assert first.stdout == golden


@pytest.mark.parametrize("name", sorted(MUTANT_CASES))
def test_cli_mutant_check_matches_golden_with_exit_1(name):
    out = run_cli(MUTANT_CASES[name])
    assert out.returncode == 1, out.stderr
    assert out.stdout == (GOLDEN / f"{name}.json").read_text()


def test_cli_invert_solution_digits():
    out = run_cli(CASES["invert_golden"])
    payload = json.loads(out.stdout)
    assert payload["result"]["solution"] == [{"digits": [0, 1, 4, 1], "val": 0}]
    assert payload["result"]["certificate"]["sigma"] == "1/5"


def test_cli_fixpoint_digits():
    out = run_cli(CASES["fixpoint_golden"])
    payload = json.loads(out.stdout)
    assert payload["result"]["report"]["fixed_point"] == [
        {"digits": [0, 1, 1, 2], "val": 0}
    ]


def _valuation(q: Fraction, p: int):
    """v_p(q) of a nonzero rational."""
    v, num, den = 0, q.numerator, q.denominator
    while num % p == 0:
        num, v = num // p, v + 1
    while den % p == 0:
        den, v = den // p, v - 1
    return v


def _decoded(enc, p: int):
    """(value, digits) of a printed p-adic scalar: anchor + len(digits) is
    the absolute precision it prints."""
    anchor, digits = enc["val"], enc["digits"]
    return sum(Fraction(d) * Fraction(p) ** (anchor + i) for i, d in enumerate(digits)), anchor + len(digits)


def _image(outputs, point):
    """The outputs of a printed map at a point of Fractions."""
    return [
        sum(Fraction(m["coef"]) * math.prod(x**e for x, e in zip(point, m["exp"])) for m in row)
        for row in outputs
    ]


@pytest.mark.parametrize(
    "command, fmap, p, N, geometry",
    [
        # seed 5 rounds 1 and 2 of the benchmark's request mix, which proved 8,
        # 7 and 3 digits when the Banach close truncated its answer to the a
        # priori bound of the steps it ran
        pytest.param("fixpoint", {"vars": 1, "outputs": [[
            {"coef": "30/1", "exp": [0]}, {"coef": "-5/1", "exp": [1]},
            {"coef": "-3/2", "exp": [2]}, {"coef": "-3/1", "exp": [2]}]]},
            5, 12, {"domain": {"center": ["0/1"], "radius": "1/5"}, "x0": ["0/1"]}, id="fixpoint-q5-n12"),
        pytest.param("fixpoint", {"vars": 1, "outputs": [[
            {"coef": "28/1", "exp": [0]}, {"coef": "21/1", "exp": [1]},
            {"coef": "1/2", "exp": [2]}, {"coef": "-3/2", "exp": [3]}]]},
            7, 8, {"domain": {"center": ["0/1"], "radius": "1/7"}, "x0": ["0/1"]}, id="fixpoint-q7-n8"),
        pytest.param("implicit", {"vars": 3, "outputs": [
            [{"coef": "-1/1", "exp": [1, 0, 0]}, {"coef": "-18/1", "exp": [0, 1, 0]},
             {"coef": "-1/1", "exp": [0, 0, 1]}, {"coef": "-23/4", "exp": [0, 1, 1]},
             {"coef": "1/3", "exp": [2, 0, 1]}],
            [{"coef": "-2/1", "exp": [1, 0, 0]}, {"coef": "-36/1", "exp": [0, 1, 0]},
             {"coef": "20/1", "exp": [0, 0, 1]}, {"coef": "17/2", "exp": [0, 1, 1]},
             {"coef": "1/2", "exp": [1, 1, 1]}]]},
            7, 16, {"p0": ["0/1"], "x0": ["0/1", "0/1"], "p": ["-259/1"]}, id="implicit-q7-n16"),
    ],
)
def test_cli_banach_solves_print_all_their_digits(command, fmap, p, N, geometry):
    field = {"kind": "padic", "prime": p, "precision": N}
    out = run_cli([command, "--map", json.dumps(fmap), "--field", json.dumps(field), "--geometry", json.dumps(geometry)])
    assert out.returncode == 0, out.stdout + out.stderr
    result = json.loads(out.stdout)["result"]
    if command == "fixpoint":
        printed, params = result["report"]["fixed_point"], []
    else:
        printed, params = result["solution"]["value"], [Fraction(q) for q in geometry["p"]]
    point = []
    for enc in printed:
        x, digits = _decoded(enc, p)
        assert digits == N
        point.append(x)
    image = _image(fmap["outputs"], params + point)
    # a fixed point solves g(x) = x; the implicit map has no constant term,
    # so its target f(p0, x0) is 0
    residual = [a - b for a, b in zip(image, point)] if command == "fixpoint" else image
    assert all(r == 0 or _valuation(r, p) >= N for r in residual)


def test_cli_check_mutant_fails_with_witness():
    result = run_cli(
        [
            "check",
            "--map", str(FIXTURES / "maps/plus_square.json"),
            "--field", str(FIXTURES / "fields/q5n4.json"),
            "--samples", "40",
            "--geometry", str(FIXTURES / "geo/check_mutant.json"),
        ]
    )
    assert result.returncode == 1
    payload = json.loads(result.stdout)
    assert payload["error"]["witness"]["failures"] > 0
    assert "counterexample" in payload["error"]["witness"]


def test_cli_schema_errors_exit_2():
    bad_map = run_cli(
        ["certify", "--map", '{"vars": 1}', "--field", '{"kind": "real"}']
    )
    assert bad_map.returncode == 2
    bad_field = run_cli(
        [
            "certify",
            "--map", str(FIXTURES / "maps/affine.json"),
            "--field", '{"kind": "padic"}',
        ]
    )
    assert bad_field.returncode == 2


def test_cli_solver_error_exit_1():
    # target outside the certified image
    result = run_cli(
        [
            "invert",
            "--map", str(FIXTURES / "maps/plus_square.json"),
            "--field", str(FIXTURES / "fields/q5n4.json"),
            "--geometry",
            json.dumps(
                {
                    "ball": {"center": ["0/1"], "radius": "1/5"},
                    "target": ["1/1"],
                }
            ),
        ]
    )
    assert result.returncode == 1
    payload = json.loads(result.stdout)
    assert payload["error"]["kind"] == "TargetOutsideGuarantee"


def run_in_process(args):
    out = io.StringIO()
    code = cli.run(args, stream=out)
    return code, json.loads(out.getvalue())


@pytest.mark.parametrize("tol", ["0", "-1/5", "0/7"])
def test_cli_nonpositive_tol_is_a_schema_error(tol):
    code, payload = run_in_process([*CASES["fixpoint_golden"], f"--tol={tol}"])
    assert code == 2
    assert payload["error"]["kind"] == "SchemaError"
    assert "--tol" in payload["error"]["message"]


def with_field(name, field):
    """The golden request `name` with its --field replaced."""
    args = CASES[name][:]
    args[args.index("--field") + 1] = field if isinstance(field, str) else json.dumps(field)
    return args


@pytest.mark.parametrize(
    "name, field",
    [
        ("fixpoint_golden", {"kind": "padic", "prime": "x", "precision": 4}),
        ("fixpoint_golden", {"kind": "padic", "prime": 5.5, "precision": 4}),
        ("fixpoint_golden", {"kind": "padic", "prime": True, "precision": 4}),
        ("fixpoint_golden", {"kind": "padic", "prime": 5, "precision": 4.0}),
        ("fixpoint_golden", {"kind": "padic", "prime": 5, "precision": [4]}),
        ("certify_affine", {"kind": "real", "tolerance": "nan"}),
        ("certify_affine", {"kind": "real", "tolerance": "inf"}),
        ("certify_affine", {"kind": "real", "tolerance": 0}),
        ("certify_affine", {"kind": "real", "tolerance": -1}),
        ("certify_affine", {"kind": "real", "tolerance": "abc"}),
        ("certify_affine", {"kind": "real", "tolerance": None}),
        ("fixpoint_golden", {"kind": "padic", "prime": 2**127 - 1, "precision": 4}),
        ("fixpoint_golden", {"kind": "padic", "prime": 41041, "precision": 4}),
        # json.loads raised a plain ValueError / RecursionError (tracebacks)
        pytest.param(
            "fixpoint_golden",
            '{"kind": "padic", "prime": 5, "precision": 1' + "1" * sys.get_int_max_str_digits() + "}",
            id="fixpoint_golden-precision-past-the-int-to-str-limit",
        ),
        pytest.param("fixpoint_golden", "[" * 100_000 + "]" * 100_000, id="fixpoint_golden-deep-nesting"),
    ],
)
def test_cli_malformed_field_exits_2(name, field):
    code, payload = run_in_process(with_field(name, field))
    assert code == 2
    assert payload["error"]["kind"] == "SchemaError"


def test_cli_integer_strings_are_accepted_for_prime_and_precision():
    field = '{"kind": "padic", "prime": "5", "precision": "4"}'
    out = io.StringIO()
    assert cli.run(with_field("fixpoint_golden", field), stream=out) == 0
    assert out.getvalue() == (GOLDEN / "fixpoint_golden.json").read_text()


def with_map(name, fmap):
    """The golden request `name` with its --map replaced."""
    args = CASES[name][:]
    args[args.index("--map") + 1] = json.dumps(fmap)
    return args


def plus_square_with(exponent=2, nvars=1):
    return {
        "vars": nvars,
        "outputs": [[{"coef": "1/1", "exp": [1]}, {"coef": "1/1", "exp": [exponent]}]],
    }


@pytest.mark.parametrize(
    "fmap",
    [
        plus_square_with(exponent=1.5),  # was read as 1: x + x solved, exit 0
        plus_square_with(exponent="x"),
        plus_square_with(exponent="1/0"),
        plus_square_with(exponent="1e400"),
        plus_square_with(exponent=True),
        plus_square_with(nvars=1.5),
        plus_square_with(nvars="x"),
    ],
)
def test_cli_malformed_map_exits_2(fmap):
    code, payload = run_in_process(with_map("invert_golden", fmap))
    assert code == 2
    assert payload["error"]["kind"] == "SchemaError"


NO_VARIABLES = {"vars": 0, "outputs": []}
CONSTANT = {"vars": 0, "outputs": [[{"coef": "1/1", "exp": []}]]}


@pytest.mark.parametrize(
    "command, fmap, geometry, message",
    [
        # were ValueError tracebacks (max() of an empty sequence)
        pytest.param("certify", NO_VARIABLES, {"ball": {"center": [], "radius": "1/5"}}, "vars = 0",
                     id="certify-no-variables"),
        pytest.param("invert", NO_VARIABLES, {"ball": {"center": [], "radius": "1/5"}, "target": []},
                     "vars = 0", id="invert-no-variables"),
        pytest.param("fixpoint", NO_VARIABLES, {"domain": {"center": [], "radius": "1/5"}, "x0": []},
                     "vars = 0", id="fixpoint-no-variables"),
        # was a TypeError traceback (Fraction / PadicScalar)
        pytest.param("check", CONSTANT, None, "vars = 0", id="check-constant"),
        # was an IndexError traceback in the mutation
        pytest.param("check", {"vars": 1, "outputs": []}, {"mutation": "quotient-offset"},
                     "at least one output", id="check-mutant-no-outputs"),
        # exited 1 with DimensionMismatch
        pytest.param("invert", {"vars": -1, "outputs": []}, str(FIXTURES / "geo/invert_golden.json"),
                     "vars = -1", id="invert-negative-variables"),
    ],
)
def test_cli_maps_with_no_variables_or_no_outputs_exit_2(command, fmap, geometry, message):
    args = [command, "--map", json.dumps(fmap), "--field", str(FIXTURES / "fields/q5n4.json")]
    if geometry is not None:
        args += ["--geometry", geometry if isinstance(geometry, str) else json.dumps(geometry)]
    code, payload = run_in_process(args)
    assert code == 2
    assert payload["error"]["kind"] == "SchemaError" and message in payload["error"]["message"]


@pytest.mark.parametrize("name", ["fixpoint_golden", "invert_golden"])
def test_cli_unreachable_target_past_the_int_to_str_limit_exits_1(name):
    # 199 999 steps exceed MAX_STEPS; the message prints the target 1/5^200000
    field = {"kind": "padic", "prime": 5, "precision": 200000}
    code, payload = run_in_process(with_field(name, field))
    assert code == 1
    assert payload["error"]["kind"] == "NotAContraction"
    message = payload["error"]["message"]
    assert message.startswith("a priori bound cannot reach 1/")
    assert message.endswith(str(5**200000 % 10**20).zfill(20) + " in reasonable time")


@pytest.mark.parametrize(
    "name, flag, payload, kind",
    [
        # a ball center that is not a list (was a TypeError traceback)
        ("certify_affine", "--geometry", {"ball": {"center": 2, "radius": 2}}, "SchemaError"),
        ("fixpoint_golden", "--geometry", {"domain": {"center": None, "radius": "1/5"}, "x0": ["0/1"]}, "SchemaError"),
        # points and balls of the wrong dimension (were IndexError / ValueError tracebacks)
        ("invert_golden", "--geometry", {"ball": {"center": [], "radius": "1/5"}, "target": ["5/1"]}, "DimensionMismatch"),
        ("certify_affine", "--geometry", {"ball": {"center": ["0/1"], "radius": 2}, "A": []}, "DimensionMismatch"),
        ("fixpoint_golden", "--geometry", {"domain": {"center": ["0/1"], "radius": "1/5"}, "x0": []}, "DimensionMismatch"),
        ("implicit_golden", "--geometry", {"p0": ["0/1"], "x0": ["0/1"], "p": []}, "DimensionMismatch"),
        # a real constant beyond the range of a double (was an OverflowError traceback)
        ("certify_affine", "--geometry", {"ball": {"center": ["0/1"], "radius": "1e400"}}, "SchemaError"),
        # targets of the wrong length (were answered, cut to fit by a zip)
        ("invert_pair", "--geometry", {"ball": {"center": ["0/1", "0/1"], "radius": "1/5"}, "target": ["5/1"]},
         "DimensionMismatch"),
        ("invert_golden", "--geometry", {"ball": {"center": ["0/1"], "radius": "1/5", "closed": True},
                                         "target": ["5/1", "7/1", "1/3"]}, "DimensionMismatch"),
        ("implicit_golden", "--geometry", {"p0": ["0/1"], "x0": ["0/1"], "p": ["5/1"], "exact_image": True,
                                           "z0": ["0/1", "3/1"]}, "DimensionMismatch"),
        # NaN, Infinity and 1e400, which json.loads reads as floats no
        # Fraction holds (were ValueError and OverflowError tracebacks)
        ("invert_golden", "--geometry", {"ball": {"center": [math.nan], "radius": "1/5"}, "target": ["5/1"]},
         "SchemaError"),
        ("invert_golden", "--geometry", {"ball": {"center": ["0/1"], "radius": math.inf}, "target": ["5/1"]},
         "SchemaError"),
        ("invert_golden", "--geometry", {"ball": {"center": ["0/1"], "radius": "1/5"}, "target": [float("1e400")]},
         "SchemaError"),
        ("invert_golden", "--map", {"vars": 1, "outputs": [[{"coef": math.nan, "exp": [1]}]]}, "SchemaError"),
        ("implicit_golden", "--geometry", {"p0": ["0/1"], "x0": ["0/1"], "p": [-math.inf]}, "SchemaError"),
        # flags that are not JSON true or false (bool() read "false" as true)
        *[("invert_golden", "--geometry", {"ball": {"center": ["0/1"], "radius": "1/5", "closed": flag},
                                           "target": ["5/1"]}, "SchemaError") for flag in ("false", 0, None, [])],
        *[("implicit_golden", "--geometry", {"p0": ["0/1"], "x0": ["0/1"], "p": ["5/1"], "exact_image": flag},
           "SchemaError") for flag in ("false", 0, None, [])],
    ],
)
def test_cli_fuzz_findings_exit_with_json(name, flag, payload, kind):
    args = CASES[name][:]
    args[args.index(flag) + 1] = json.dumps(payload)
    code, out = run_in_process(args)
    assert code == (2 if kind == "SchemaError" else 1)
    assert out["error"]["kind"] == kind


def saddle_with(linear):
    """f(p, x) = linear x + x^2 - p."""
    return {
        "vars": 2,
        "outputs": [[{"coef": linear, "exp": [0, 1]}, {"coef": "1", "exp": [0, 2]}, {"coef": "-1", "exp": [1, 0]}]],
    }


@pytest.mark.parametrize("linear, p", [("10", "1/4"), ("100", "1/2")])
def test_cli_real_implicit_answers_stand_on_their_exact_close(linear, p):
    # lambda = 0 after a plan of 0 steps, within the target of lambda* by
    # the exact close (1/32 at linear = 10), but a re-check of f(p, lambda)
    # against (1 + theta) tol, which left out ||A||, refused it with
    # NotAFixedPoint
    args = [
        "implicit", "--map", json.dumps(saddle_with(linear)), "--field", '{"kind": "real"}',
        "--geometry", json.dumps({"p0": ["0"], "x0": ["0"], "p": [p]}), "--tol", "1/10",
    ]
    code, payload = run_in_process(args)
    out = run_cli(args)
    assert code == out.returncode == 0, payload
    assert json.loads(out.stdout) == payload
    (lam,) = map(Fraction, payload["result"]["solution"]["value"])
    # f(p, x) increases in x on [lam - 1/10, lam + 1/10] and changes sign
    # there, so lambda* lies within the target of lam
    a, low, high = int(linear), lam - Fraction(1, 10), lam + Fraction(1, 10)
    assert low > Fraction(-a, 2)
    assert a * low + low**2 <= Fraction(p) <= a * high + high**2


def test_cli_padic_target_finer_than_the_answer_digits_is_not_refused():
    # the answer keeps the 4 digits it proves; 5^-12 is not refused
    code, payload = run_in_process([*CASES["invert_golden"], "--tol", str(Fraction(1, 5**12))])
    assert code == 0
    assert payload["result"]["solution"] == [{"digits": [0, 1, 4, 1], "val": 0}]


CLOSED_FIFTH = {"center": ["0"], "radius": "1/5", "closed": True}


@pytest.mark.parametrize("field, geometry, code, kind, detail", [
    ("q5n4", {"ball": CLOSED_FIFTH, "target": ["5"]}, 0, None, [{"digits": [0, 1, 4, 1], "val": 0}]),
    ("q5n4", {"ball": CLOSED_FIFTH, "target": ["1"]}, 1, "TargetOutsideGuarantee",
     "pulled-back target distance 1 exceeds the certified 1/5"),
    ("q5n4", {"ball": {**CLOSED_FIFTH, "closed": False}, "target": ["5"]}, 1, "NotAdmissible",
     "d(f(x0), x0) = 1/5 exceeds the admissible displacement for radius 1/5"),
    ("real", {"ball": CLOSED_FIFTH, "target": ["4/25"]}, 1, "TargetOutsideGuarantee",
     "pulled-back target distance 4/25 exceeds the certified 3/25"),
    ("real", {"ball": CLOSED_FIFTH, "target": ["1/5"]}, 1, "TargetOutsideGuarantee",
     "pulled-back target distance 1/5 exceeds the certified 3/25"),
    ("q5n4", {"ball": CLOSED_FIFTH, "base": ["0"], "radius": "1/25", "target": ["25"]}, 0, None,
     [{"digits": [0, 0, 1], "val": 0}]),
], ids=["q5-answers", "q5-outside", "q5-open-ball", "real-outside", "real-radius", "q5-sub-ball"])
def test_cli_invert_refuses_targets_outside_its_guarantee(field, geometry, code, kind, detail):
    # x + x^2: |A^-1 (c - f(base))| must be within s over Q_p and alpha s =
    # 3/25 over the reals; an open ball of radius s also refuses d0 = s
    args = ["invert", "--map", str(FIXTURES / "maps/plus_square.json"),
            "--field", str(FIXTURES / f"fields/{field}.json"), "--geometry", json.dumps(geometry)]
    got, payload = run_in_process(args)
    assert got == code
    if code == 0:
        assert payload["result"]["solution"] == detail
        return
    error = payload["error"]
    assert (error["kind"], error["message"]) == (kind, detail)
    if kind == "NotAdmissible":
        assert error["d0"] == "1/5"


def test_cli_json_decimal_is_its_double_and_a_string_decimal_is_exact():
    # "radius": 0.2 is the double nearest 1/5, no power of 5; "0.2" and
    # --tol 0.2 are 1/5 exactly
    args = CASES["invert_golden"][:]
    at = args.index("--geometry") + 1
    geometry = json.loads(Path(args[at]).read_text())

    def with_radius(radius):
        args[at] = json.dumps({**geometry, "ball": {**geometry["ball"], "radius": radius}})
        return run_in_process(args)

    code, payload = with_radius(0.2)
    assert code == 2 and Fraction(0.2) == Fraction(3602879701896397, 18014398509481984)
    assert (payload["error"]["kind"], payload["error"]["message"]) == (
        "SchemaError", "radius 3602879701896397/18014398509481984 not attainable in this value group")
    assert with_radius("0.2") == (0, json.loads((GOLDEN / "invert_golden.json").read_text()))
    decimal, exact = (run_in_process([*CASES["fixpoint_golden"], "--tol", tol]) for tol in ("0.2", "1/5"))
    assert decimal == exact and decimal[0] == 0


def test_cli_not_certifiable_past_the_int_to_str_limit_exits_1():
    # sigma = 5^10000 has 6 990 digits; its message and details printed it by str()
    geometry = {"ball": {"center": ["0/1"], "radius": f"{5**5000}/1"}}
    cube = {"vars": 1, "outputs": [[{"coef": "1/1", "exp": [1]}, {"coef": "1/1", "exp": [3]}]]}
    args = with_map("invert_golden", cube)
    args[0] = "certify"
    args[args.index("--geometry") + 1] = json.dumps(geometry)
    code, payload = run_in_process(args)
    assert code == 1
    error = payload["error"]
    assert error["kind"] == "NotCertifiable"
    assert (error["sigma"], error["threshold"]) == (frac_str(5**10000), "1/1")
    assert error["message"].endswith(f"{frac_str(5**10000)} is not below 1/|A^-1| = 1/1")


@pytest.mark.parametrize(
    "path",
    [
        pytest.param("", id="empty"),
        pytest.param(str(FIXTURES / "maps"), id="directory"),
        pytest.param("x" * 5000, id="name-too-long"),
    ],
)
def test_cli_unreadable_map_path_exits_2(path):
    # a directory (the empty path is ".") or a name too long for the file
    # system was an IsADirectoryError / OSError traceback
    code, payload = run_in_process(["check", "--map", path])
    assert code == 2
    assert payload["error"]["kind"] == "SchemaError"


def test_cli_runs_in_one_process_match_first_runs(capsys):
    """The parser is built once and reused: later runs in the same process
    print the same bytes and exit codes as a first run."""
    assert cli.build_parser() is cli.build_parser()
    usage_error = ["invert", "--map", str(FIXTURES / "maps/plus_square.json")]
    first = run_cli(usage_error)
    assert first.returncode == 2 and first.stdout == ""
    order = [*sorted(CASES), "usage", "invert_golden", "check_clean", "usage", *sorted(CASES)]
    for name in order:
        out = io.StringIO()
        code = cli.run(usage_error if name == "usage" else CASES[name], stream=out)
        if name == "usage":
            assert (code, out.getvalue(), capsys.readouterr().err) == (2, "", first.stderr)
        else:
            assert (code, out.getvalue()) == (0, (GOLDEN / f"{name}.json").read_text()), name


def test_cli_real_target_below_double_resolution_exits_1():
    # the true fixed point of 3/40 + x/2 is 3/20; doubles cannot certify 10^-30:
    # 3/20 is no double, so the exact bound of the answer stays positive
    fmap = json.dumps({"vars": 1, "outputs": [[{"coef": "3/40", "exp": [0]},
                                               {"coef": "1/2", "exp": [1]}]]})
    args = ["fixpoint", "--map", fmap, "--field", json.dumps({"kind": "real"}),
            "--geometry", str(FIXTURES / "geo/fixpoint_golden.json")]
    code, payload = run_in_process([*args, "--tol", "1/" + "1" + "0" * 30])
    assert code == 1
    error = payload["error"]
    assert error["kind"] == "PrecisionExhausted"
    assert error["target"] == "1/" + "1" + "0" * 30
    # |x - 3/20| for the double x the orbit stops at, since the bound
    # |g(x) - x| / (1 - theta) of an affine map is its true error; the
    # doubles next to 3/20 are 2^-55 apart
    assert Fraction(1, 10**30) < Fraction(error["bound"]) < Fraction(1, 2**53)
    code, payload = run_in_process([*args, "--tol", "1/" + "1" + "0" * 13])
    assert code == 0
    assert abs(payload["result"]["report"]["fixed_point"][0] - 0.15) <= 1e-13


def test_cli_precision_over_the_budget_exits_1_at_once():
    # 10^30 digits spun in embed_rational, which formed 5^(10^30)
    field = {"kind": "padic", "prime": 5, "precision": 10**30}
    start = time.perf_counter()
    code, payload = run_in_process(with_field("check_clean", field))
    assert time.perf_counter() - start < 1
    assert code == 1
    assert payload["error"]["kind"] == "BudgetExceeded"
    assert payload["error"]["precision"] == str(10**30)
    # the budget is 2^20 bits of p^N: 2^19 digits over Q2 (and Q3), 349 525 over Q5
    for prime, most in ((2, 2**19), (3, 2**19), (5, 349_525)):
        assert FieldDescriptor.padic(prime, most).precision == most
        with pytest.raises(BudgetExceeded):
            FieldDescriptor.padic(prime, most + 1)


def test_cli_window_not_found_carries_its_numbers():
    # f(p, x) = x + 10^30 x^2 - p over the reals: sigma = 2 10^30 r stays
    # above tau = 1/2 down to the 60th radius, 2^-59
    fmap = json.dumps({"vars": 2, "outputs": [[{"coef": "1", "exp": [0, 1]},
                                               {"coef": str(10**30), "exp": [0, 2]},
                                               {"coef": "-1", "exp": [1, 0]}]]})
    geometry = json.dumps({"p0": ["0"], "x0": ["0"], "p": ["0"]})
    code, payload = run_in_process(["implicit", "--map", fmap, "--field", json.dumps({"kind": "real"}),
                                    "--geometry", geometry])
    assert code == 1
    assert payload["error"] == {
        "kind": "WindowNotFound",
        "message": "strictness bound stayed above 1/2 after 60 shrinks",
        "radius": f"1/{2**59}",
        "sigma": f"{5**30}/{2**28}",
        "tau": "1/2",
    }


@pytest.mark.parametrize("samples", ["0", "-3"])
def test_cli_check_nonpositive_samples_is_a_schema_error(samples):
    # --samples -3 passed with 0 samples of every identity
    code, payload = run_in_process(["check", "--map", str(FIXTURES / "maps/plus_square.json"),
                                    "--samples", samples])
    assert code == 2
    assert payload["error"]["kind"] == "SchemaError"


def test_cli_check_samples_over_the_budget_exit_1_before_sampling(monkeypatch):
    args = CASES["check_clean"][:]
    at = args.index("--samples") + 1
    for samples in (calculus.SAMPLE_BUDGET + 1, 10**9):  # 10^9 would run for days
        args[at] = str(samples)
        start = time.perf_counter()
        code, payload = run_in_process(args)
        assert time.perf_counter() - start < 1
        assert code == 1
        assert payload["error"]["kind"] == "BudgetExceeded"
        assert (payload["error"]["samples"], payload["error"]["budget"]) == (samples, calculus.SAMPLE_BUDGET)
    # the boundary, with the budget lowered to the 40 samples of check_clean
    # so the run stays short: 40 passes with the golden output, 41 does not
    monkeypatch.setattr(calculus, "SAMPLE_BUDGET", 40)
    out = io.StringIO()
    assert cli.run(CASES["check_clean"], stream=out) == 0
    assert out.getvalue() == (GOLDEN / "check_clean.json").read_text()
    args[at] = "41"
    assert run_in_process(args)[0] == 1


@pytest.mark.parametrize("command", ["invert", "certify", "fixpoint", "implicit"])
@pytest.mark.parametrize("flag", [["--samples", "-3"], ["--samples", "8"], ["--seed", "11"]])
def test_cli_sampling_flags_belong_to_check_alone(command, flag):
    # only check draws samples; `certify ... --samples -3` used to exit 0
    name = next(n for n in CASES if CASES[n][0] == command)
    out = io.StringIO()
    assert cli.run([*CASES[name], *flag], stream=out) == 2
    assert out.getvalue() == ""  # argparse reports the usage error on stderr


@pytest.mark.parametrize("command", ["certify", "check"])
@pytest.mark.parametrize("tol", ["-5", "0", "1/625"])
def test_cli_tol_belongs_to_the_solving_commands(command, tol):
    # only invert, implicit and fixpoint solve to a target precision;
    # `certify ... --tol -5` used to exit 0
    name = next(n for n in CASES if CASES[n][0] == command)
    out = io.StringIO()
    assert cli.run([*CASES[name], "--tol", tol], stream=out) == 2
    assert out.getvalue() == ""  # argparse reports the usage error on stderr


def _monomial_map(degree):
    return json.dumps({"vars": 1, "outputs": [[{"coef": "1", "exp": [1]}, {"coef": "1", "exp": [degree]}]]})


def test_cli_degree_over_the_budget_exits_1_at_once(monkeypatch):
    for degree in (calculus.DEGREE_BUDGET + 1, 10**9):  # 10^9 would not finish
        start = time.perf_counter()
        code, payload = run_in_process(["check", "--map", _monomial_map(degree), "--samples", "8"])
        assert time.perf_counter() - start < 1
        assert code == 1
        assert payload["error"]["kind"] == "BudgetExceeded"
        assert (payload["error"]["degree"], payload["error"]["budget"]) == (degree, calculus.DEGREE_BUDGET)
    # the boundary, with the budget lowered to the degree 2 of plus_square:
    # 2 gives the golden output, 3 does not
    monkeypatch.setattr(calculus, "DEGREE_BUDGET", 2)
    out = io.StringIO()
    assert cli.run(CASES["check_clean"], stream=out) == 0
    assert out.getvalue() == (GOLDEN / "check_clean.json").read_text()
    code, payload = run_in_process(["check", "--map", _monomial_map(3), "--samples", "8"])
    assert (code, payload["error"]["degree"], payload["error"]["budget"]) == (1, 3, 2)


AFFINE_99 = json.dumps({"vars": 1, "outputs": [[{"coef": "3/400", "exp": [0]}, {"coef": "99/100", "exp": [1]}]]})
UNIT_BALL = json.dumps({"domain": {"center": ["0"], "radius": "1", "closed": True}, "x0": ["0"], "theta": "99/100"})


def _affine_99_fixpoint(k: int):
    args = ["fixpoint", "--map", AFFINE_99, "--field", json.dumps({"kind": "real", "tolerance": 1e-9}),
            "--geometry", UNIT_BALL, "--tol", f"1/{2**k}"]
    return run_in_process(args)


def test_cli_real_fixpoint_meets_its_target_or_refuses_it():
    # 99/100 x + 3/400 on B_1(0): --tol 2^-44 exited 0 with 0.7499999999999376,
    # 6.24e-14 from the fixed point 3/4, as its rounding went uncounted
    code, payload = _affine_99_fixpoint(44)
    assert code == 0
    x = payload["result"]["report"]["fixed_point"][0]
    assert abs(Fraction(x) - Fraction(3, 4)) <= Fraction(1, 2**44)
    # 2^-47 is above the double resolution 2^-52 of the ball, but below the
    # exact bound of the answer the doubles reach, about 1.10e-14
    code, payload = _affine_99_fixpoint(47)
    assert code == 1
    error = payload["error"]
    assert (error["kind"], error["target"]) == ("PrecisionExhausted", f"1/{2**47}")
    assert Fraction(1, 2**47) < Fraction(error["bound"]) < Fraction(1, 2**46)


def test_cli_real_fixpoint_certifies_its_answer_not_a_rounding_model():
    # the same solve rested on an a priori model of its rounding, about
    # 3.32e-14, and refused 2^-45 and 2^-46; the exact bound of the answer
    # meets both, within 2.01e-14 and 1.24e-14 of 3/4
    for k in (45, 46):
        code, payload = _affine_99_fixpoint(k)
        assert code == 0, payload
        x = payload["result"]["report"]["fixed_point"][0]
        assert abs(Fraction(x) - Fraction(3, 4)) <= Fraction(1, 2**k)


def test_cli_fixpoint_takes_a_theta_only_above_the_lipschitz_bound():
    # x^2 over the reals on B[0, 1] from 1/4 has Lipschitz bound 2: a supplied
    # theta of 1/2 exited 0 and printed "theta": 0.5
    square = json.dumps({"vars": 1, "outputs": [[{"coef": "1", "exp": [2]}]]})
    real = json.dumps({"kind": "real", "tolerance": 1e-9})
    geometry = {"domain": {"center": ["0"], "radius": "1", "closed": True}, "x0": ["1/4"], "theta": "1/2"}
    code, payload = run_in_process(["fixpoint", "--map", square, "--field", real, "--geometry", json.dumps(geometry)])
    assert code == 1
    error = payload["error"]
    assert (error["kind"], error["lipschitz"], error["theta"]) == ("NotAContraction", "2/1", "1/2")
    # on B[0, 1/4] the bound is 1/2: that theta, and any above it, is taken as supplied
    for theta in ("1/2", "3/4"):
        geometry = {"domain": {"center": ["0"], "radius": "1/4", "closed": True}, "x0": ["1/16"], "theta": theta}
        code, payload = run_in_process(["fixpoint", "--map", square, "--field", real, "--geometry", json.dumps(geometry)])
        assert code == 0 and payload["result"]["report"]["theta"] == float(Fraction(theta))


def test_cli_check_samples_times_cost_over_the_budget_exit_1_before_sampling(monkeypatch):
    args = ["check", "--map", _monomial_map(1024), "--samples", "100000"]
    start = time.perf_counter()
    code, payload = run_in_process(args)
    assert time.perf_counter() - start < 1
    assert code == 1
    error = payload["error"]
    assert error["kind"] == "BudgetExceeded"
    assert (error["samples"], error["cost"], error["budget"]) == (100000, 2048, calculus.CHECK_COST_BUDGET)
    # the 1000-sample default of x + x^1024 stays within it
    assert 1000 * calculus.evaluation_cost(calculus.MapSpec.from_coefficients(1, [[(1, (1,)), (1, (1024,))]])) \
        <= calculus.CHECK_COST_BUDGET
    # the boundary, with the budget lowered to the 40 samples of check_clean
    # times the cost 4 of x + x^2: 40 gives the golden output, 41 does not
    monkeypatch.setattr(calculus, "CHECK_COST_BUDGET", 160)
    out = io.StringIO()
    assert cli.run(CASES["check_clean"], stream=out) == 0
    assert out.getvalue() == (GOLDEN / "check_clean.json").read_text()
    check = CASES["check_clean"][:]
    check[check.index("--samples") + 1] = "41"
    code, payload = run_in_process(check)
    assert (code, payload["error"]["samples"], payload["error"]["cost"]) == (1, 41, 4)


def test_cli_check_mutant_output_is_pinned_byte_for_byte():
    args = ["check",
            "--map", str(FIXTURES / "maps/plus_square.json"),
            "--field", str(FIXTURES / "fields/q5n4.json"),
            "--samples", "40",
            "--geometry", str(FIXTURES / "geo/check_mutant.json")]
    out = io.StringIO()
    code = cli.run(args, stream=out)
    assert (code, out.getvalue()) == (1, (GOLDEN / "check_mutant.json").read_text())
    # the witness is the first failing identity, exact report first
    error = json.loads(out.getvalue())["error"]
    failing = [e for r in error["reports"].values() for e in r["identities"] if not e["passed"]]
    assert error["witness"] == failing[0] == error["reports"]["exact"]["identities"][0]


def _exact_image_request(field):
    geo = json.loads((FIXTURES / "geo/implicit_golden.json").read_text())
    args = with_field("implicit_golden", field)
    args[args.index("--geometry") + 1] = json.dumps({**geo, "exact_image": True})
    return args


def test_cli_implicit_exact_image_over_q5():
    code, payload = run_in_process(_exact_image_request(str(FIXTURES / "fields/q5n4.json")))
    assert code == 0
    golden = json.loads((GOLDEN / "implicit_golden.json").read_text())["result"]
    result = payload["result"]
    # the exact common image f(p0, x0) + A.B_r(0) replaces the target ball
    assert result["window"].pop("target") == {"center": ["0/1"], "A": [["1/1"]], "radius": "1/5", "exact": True}
    del golden["window"]["target"]
    assert result == golden


def test_cli_implicit_exact_image_over_the_reals_is_a_schema_error():
    code, payload = run_in_process(_exact_image_request({"kind": "real"}))
    assert code == 2
    assert payload["error"] == {"kind": "SchemaError",
                                "message": "exact images exist only over ultrametric fields"}


def _printed_steps(text):
    """The characters of the step list of a printed fixpoint report."""
    start = text.index('"steps": [') + len('"steps": [')
    return text.index("\n      ]", start) - start


def test_cli_fixpoint_report_over_the_budget_exits_1_before_the_first_step(monkeypatch):
    # the golden map over Q5 (the golden itself has 3 steps): 999 steps at
    # N = 1000 print 0.77 MB of steps, within the budget; 1999 at N = 2000
    # would print about 2.9 MB
    q5 = {"kind": "padic", "prime": 5, "precision": 1000}
    out = io.StringIO()
    assert cli.run(with_field("fixpoint_golden", q5), stream=out) == 0
    printed = _printed_steps(out.getvalue())
    assert 0.7e6 < printed < jsonio.REPORT_BUDGET
    # the budget is checked on the solve's plan: no pass runs
    solved = []
    real_pass = contraction._newton_pass
    monkeypatch.setattr(contraction, "_newton_pass", lambda *args: solved.append(args) or real_pass(*args))
    start = time.perf_counter()
    code, payload = run_in_process(with_field("fixpoint_golden", dict(q5, precision=2000)))
    assert time.perf_counter() - start < 0.5
    assert (code, payload["error"]["kind"], solved) == (1, "BudgetExceeded", [])
    error = payload["error"]
    assert (error["steps"], error["budget"]) == (1999, jsonio.REPORT_BUDGET) and 2.8e6 < error["size"] < 3e6
    # the estimate is within 1% of what N = 1000 prints
    monkeypatch.setattr(jsonio, "REPORT_BUDGET", 0)
    code, payload = run_in_process(with_field("fixpoint_golden", q5))
    assert (code, payload["error"]["steps"], solved) == (1, 999, [])
    assert abs(payload["error"]["size"] - printed) < printed / 100


def test_cli_fixpoint_plans_its_solve_once(monkeypatch):
    # the report budget reads the step count of the solve's own plan
    plans, real_init = [], contraction._Exponents.__init__
    monkeypatch.setattr(contraction._Exponents, "__init__", lambda *args: plans.append(args) or real_init(*args))
    out = io.StringIO()
    assert cli.run(CASES["fixpoint_q5n12"], stream=out) == 0
    assert out.getvalue() == (GOLDEN / "fixpoint_q5n12.json").read_text()
    assert len(plans) == 1


def test_cli_certify_refuses_a_ball_outside_an_open_domain():
    # over Q5 the open B(0, 1/5) is the closed B[0, 1/25]: B[5, 1/25] is
    # outside it, as |5| = 1/5, while B[25, 1/25] is inside
    plus_square = json.loads((FIXTURES / "maps/plus_square.json").read_text())
    plus_square["domain"] = {"center": ["0/1"], "radius": "1/5", "closed": False}
    q5 = {"kind": "padic", "prime": 5, "precision": 8}

    def certify(center):
        geometry = {"ball": {"center": [center], "radius": "1/25"}}
        return run_in_process([
            "certify", "--map", json.dumps(plus_square), "--field", json.dumps(q5),
            "--geometry", json.dumps(geometry),
        ])

    code, payload = certify("5/1")
    assert code == 1, payload
    assert payload["error"] == {"kind": "DomainViolation", "message": "ball is not inside the map's domain"}
    code, payload = certify("25/1")
    assert code == 0 and payload["result"]["certificate"]["ball"]["center"] == ["25/1"], payload
