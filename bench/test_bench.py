"""Tests of the benchmark itself: span arithmetic, the output oracle, input
determinism, repeatable traced counts and agreement with BENCHMARK.json.

    PYTHONPATH=src python -m pytest -q bench/test_bench.py
"""

from __future__ import annotations

import json
from fractions import Fraction

import run

run.import_program()

import layers  # noqa: E402
import workloads  # noqa: E402
from clock import REFERENCE_S, ReferenceClock  # noqa: E402
from spans import Span, Tracer, group_time, self_times  # noqa: E402

import ultrafix  # noqa: E402
from ultrafix import contraction, implicit, inverse  # noqa: E402


def _first(ops, **want):
    return next(op for op in ops if all(op.spec.get(k) == v for k, v in want.items()))


def test_self_time_on_a_synthetic_span_tree():
    spans = [
        Span("root", "bench", 0.0, 10.0, -1, 0),
        Span("a", "inverse", 1.0, 4.0, 0, 0, folded=0.5),
        Span("b", "linalg", 3.0, 6.0, 0, 0),  # overlaps a: the union [1, 6] is covered
        Span("c", "calculus", 2.0, 3.0, 1, 0),
        Span("a", "inverse", 2.5, 2.75, 3, 0),  # nested inside another "a" via c
    ]
    assert self_times(spans) == [5.0, 1.5, 3.0, 0.75, 0.25]
    # a nested call of the same group counts once
    assert group_time(spans, {"a"}) == (1, 3.0)
    assert group_time(spans, {"b", "c"}) == (2, 4.0)


def test_reference_clock_scales_by_the_kernel_time_nearby():
    clock = ReferenceClock()
    # the kernel runs at reference speed until t = 10, then twice as slow
    clock.times = [0.1 * i for i in range(200)]
    clock.seconds = [REFERENCE_S if t < 10 else 2 * REFERENCE_S for t in clock.times]
    assert clock.scale(3.0, 3.5) == 1.0
    assert clock.scale(15.0, 15.1) == 0.5
    # past the last sample: the nearest samples decide
    assert clock.scale(100.0, 100.5) == 0.5


def test_oracle_rejects_a_solution_with_one_digit_flipped():
    op = _first(workloads.make_round("request_mix", 3, 0), check="invert", p=5, n=2)
    code, text = op.run()
    assert code == 0 and op.check((code, text))[0] is None
    payload = json.loads(text)
    digits = payload["result"]["solution"][0]["digits"]
    assert len(digits) >= 2
    digits[1] = (digits[1] + 1) % 5
    flipped = json.dumps(payload, sort_keys=True, indent=2) + "\n"
    assert op.check((0, flipped))[0] is not None


def test_oracle_rejects_an_in_process_solution_with_one_digit_flipped():
    desc = ultrafix.FieldDescriptor.padic(5, 16)
    spec = {"p": 5, "N": 16, "n": 1, "rows": [[(Fraction(1), (1,)), (Fraction(1), (2,))]], "target": (Fraction(5),)}
    op = workloads.Op("padic_invert", spec)
    solution = op.run()
    assert op.check(solution)[0] is None
    (s,) = solution.components
    bad = ultrafix.PadicScalar(desc, s.val, s.unit + (1 if s.unit // 5 % 5 != 4 else -1) * 5, s.prec)
    assert op.check(ultrafix.Vector((bad,)))[0] is not None


def test_oracle_rejects_a_golden_with_one_byte_changed():
    op = _first(workloads.make_round("request_mix", 3, 0), check="golden")
    code, text = op.run()
    assert op.check((code, text)) == (None, 0)
    changed = text[:40] + chr(ord(text[40]) ^ 1) + text[41:]
    assert op.check((code, changed))[0] is not None


def test_generators_are_deterministic():
    for name in workloads.WORKLOADS:
        first = workloads.describe(workloads.make_round(name, 7, 1))
        assert first == workloads.describe(workloads.make_round(name, 7, 1))
        assert first != workloads.describe(workloads.make_round(name, 8, 1))


def test_tracer_rebinds_every_import_and_restores_it():
    original = contraction.iterate_fixed_point
    tracer = Tracer()
    tracer.install()
    try:
        wrapped = contraction.iterate_fixed_point
        assert wrapped is not original
        assert inverse.iterate_fixed_point is wrapped and implicit.iterate_fixed_point is wrapped
    finally:
        tracer.uninstall()
    assert contraction.iterate_fixed_point is original
    assert inverse.iterate_fixed_point is original and ultrafix.iterate_fixed_point is original


def test_traced_counts_repeat_exactly():
    ops = workloads.make_round("request_mix", 5, 0)[:20]
    ops += workloads.make_round("identity_sampling", 5, 0)[:4]
    counts = []
    for _ in range(2):
        tracer, traced_s, failed = run.trace_ops(ops)
        assert failed == 0
        metrics = layers.compute(tracer, traced_s, traced_s, len(ops))
        counts.append({k: v for k, v in metrics.items() if layers.UNITS[k] == layers.COUNT})
    assert counts[0] == counts[1]
    assert counts[0]["cli.requests"] == sum(op.kind == "cli" for op in ops)


def test_benchmark_json_matches_the_code():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == list(layers.PER_LAYER)


def test_errors_raised_out_of_a_layer_are_counted():
    geometry = json.dumps({"ball": {"center": ["0/1"], "radius": "1/5"}, "target": ["1/1"]})
    field = json.dumps({"kind": "padic", "prime": 5, "precision": 4})
    plus_square = json.dumps({"vars": 1, "outputs": [[{"coef": "1/1", "exp": [1]}, {"coef": "1/1", "exp": [2]}]]})
    op = workloads.Op("cli", {"check": "invert", "argv": ["invert", "--map", plus_square, "--field", field,
                                                         "--geometry", geometry]})
    tracer, traced_s, failed = run.trace_ops([op])
    assert failed == 1
    assert tracer.errors == {("inverse", "TargetOutsideGuarantee"): 1}
    assert layers.compute(tracer, traced_s, traced_s, 1)["cli.exit_nonzero"] == 1
