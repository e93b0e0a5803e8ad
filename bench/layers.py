"""Per-layer metrics of a traced run, computed from the recorded spans.

Names and units here are the `per_layer` list of BENCHMARK.json; a test
keeps the two in step.  A layer that did no work on a workload reports 0 for
its counts, times and ratios.
"""

from __future__ import annotations

from collections import Counter
from fractions import Fraction

from spans import FOLDED, LAYERS, group_time, self_times

COUNT, SECONDS, RATIO = "count", "s", "ratio"

# (name, unit, better)
PER_LAYER = (
    ("field.ops", COUNT, "lower"),
    ("field.s", SECONDS, "lower"),
    ("field.int_valuation_calls", COUNT, "lower"),
    ("field.embed_calls", COUNT, "lower"),
    ("linalg.invert_calls", COUNT, "lower"),
    ("linalg.invert_s", SECONDS, "lower"),
    ("linalg.norm_calls", COUNT, "lower"),
    ("linalg.self_s", SECONDS, "lower"),
    ("calculus.eval_map_calls", COUNT, "lower"),
    ("calculus.eval_map_s", SECONDS, "lower"),
    ("calculus.bounds_s", SECONDS, "lower"),
    ("calculus.check_identities_s", SECONDS, "lower"),
    ("calculus.self_s", SECONDS, "lower"),
    ("contraction.calls", COUNT, "lower"),
    ("contraction.iterations", COUNT, "lower"),
    ("contraction.self_s", SECONDS, "lower"),
    ("contraction.digits_per_iteration", "digit/iter", "higher"),
    ("contraction.digit_yield", RATIO, "higher"),
    ("inverse.certify_calls", COUNT, "lower"),
    ("inverse.certify_s", SECONDS, "lower"),
    ("inverse.self_s", SECONDS, "lower"),
    ("inverse.distortion_pairs", COUNT, "lower"),
    ("implicit.build_window_s", SECONDS, "lower"),
    ("implicit.solve_s", SECONDS, "lower"),
    ("implicit.self_s", SECONDS, "lower"),
    ("implicit.shrink_steps", COUNT, "lower"),
    ("jsonio.calls", COUNT, "lower"),
    ("jsonio.parse_s", SECONDS, "lower"),
    ("jsonio.encode_s", SECONDS, "lower"),
    ("cli.requests", COUNT, "lower"),
    ("cli.self_s", SECONDS, "lower"),
    ("cli.exit_nonzero", COUNT, "lower"),
    ("sampling.draws", COUNT, "lower"),
    ("sampling.pairs", COUNT, "lower"),
    ("sampling.accept_ratio", RATIO, "higher"),
    *((f"{layer}.share", RATIO, "lower") for layer in LAYERS),
    *((f"{layer}.errors", COUNT, "lower") for layer in LAYERS),
    ("trace.ops_per_s_untraced", "1/s", "higher"),
    ("trace.ops_per_s_traced", "1/s", "higher"),
    ("trace.overhead", RATIO, "lower"),
    ("trace.spans", COUNT, "lower"),
)
UNITS = {name: unit for name, unit, _ in PER_LAYER}

ROOT_SPAN = ("bench.op", "bench")


def _requested_digits(target, p: int) -> int:
    """Digits asked for by a target precision p^-e (the smallest such e)."""
    target, e = Fraction(target), 0
    while Fraction(1, p**e) > target:
        e += 1
    return e


def _fixed_point_hook(tracer, args, kwargs, report):
    tracer.counts["contraction.iterations"] += report.iterations
    problem = args[0]
    desc = problem.domain.descriptor
    if not desc.ultrametric:
        return
    target = kwargs.get("target_precision", args[1] if len(args) > 1 else None)
    requested = desc.precision if target is None else _requested_digits(target, desc.prime)
    precs = [c.prec for c in report.fixed_point.components if c.prec is not None]
    tracer.counts["contraction.padic_iterations"] += report.iterations
    tracer.counts["contraction.proven_digits"] += min(precs) if precs else requested
    tracer.counts["contraction.requested_digits"] += requested


def _window_hook(tracer, args, kwargs, window):
    """Radius shrinks of build_window: both searches shrink by the same
    factor, the second starting where the first stopped, so their total is
    log_factor(initial radius / parameter radius)."""
    desc = window.state_ball.descriptor
    factor = desc.prime if desc.ultrametric else 2
    radius, steps = Fraction(kwargs.get("initial_radius", 1)), 0
    while radius > window.p_ball.radius:
        radius /= factor
        steps += 1
    tracer.counts["implicit.shrink_steps"] += steps


def _distortion_hook(tracer, args, kwargs, report):
    tracer.counts["inverse.distortion_pairs"] += report.pairs


def _cli_hook(tracer, args, kwargs, code):
    tracer.counts["cli.exit_nonzero"] += code != 0


HOOKS = {
    "contraction.iterate_fixed_point": _fixed_point_hook,
    "implicit.build_window": _window_hook,
    "inverse.verify_distortion": _distortion_hook,
    "cli.run": _cli_hook,
}


def _ratio(num, den) -> float:
    return num / den if den else 0.0


def compute(tracer, untraced_s: float, traced_s: float, ops: int) -> dict:
    """Every PER_LAYER metric from a finished tracer.

    untraced_s and traced_s are the summed operation times of the same
    operations run without and with tracing.
    """
    spans = tracer.spans()
    names = Counter(s.name for s in spans)
    layer_self = Counter()
    for s, t in zip(spans, self_times(spans)):
        layer_self[s.layer] += t
    for layer in FOLDED:
        layer_self[layer] += tracer.folded_seconds[layer]
    total = sum(s.end - s.start for s in spans if s.parent < 0)
    counts, calls = tracer.counts, tracer.calls

    def group(*members):
        return group_time(spans, members)

    def prefixed(prefix):
        return group(*(n for n in names if n.startswith(prefix)))

    invert_calls, invert_s = group("linalg.rat_mat_invert", "linalg.invert_exact")
    eval_calls, eval_s = group("calculus.eval_map", "calculus._eval_field")
    certify_calls, certify_s = group("inverse.certify")
    norm_names = ("vec_norm", "operator_norm", "rat_vec_norm", "rat_operator_norm",
                  "Ball.contains_rational", "Ball.contains_tracked", "Ball.contains_ball")
    draws, pairs = names["sampling.sample_in_ball"], names["sampling.sample_pair_in_ball"]
    out = {
        "field.ops": calls["field.field_arith"],
        "field.s": layer_self["field"],
        "field.int_valuation_calls": calls["field.int_valuation"],
        "field.embed_calls": calls["field.embed_rational"],
        "linalg.invert_calls": invert_calls,
        "linalg.invert_s": invert_s,
        "linalg.norm_calls": sum(names[f"linalg.{n}"] for n in norm_names),
        "linalg.self_s": layer_self["linalg"],
        "calculus.eval_map_calls": eval_calls,
        "calculus.eval_map_s": eval_s,
        "calculus.bounds_s": group("calculus.lipschitz_bound", "calculus.strictness_modulus",
                                   "calculus.telescoped_lipschitz")[1],
        "calculus.check_identities_s": group("calculus.check_identities")[1],
        "calculus.self_s": layer_self["calculus"],
        "contraction.calls": names["contraction.iterate_fixed_point"],
        "contraction.iterations": counts["contraction.iterations"],
        "contraction.self_s": layer_self["contraction"],
        "contraction.digits_per_iteration": _ratio(counts["contraction.proven_digits"],
                                                   counts["contraction.padic_iterations"]),
        "contraction.digit_yield": _ratio(counts["contraction.proven_digits"],
                                          counts["contraction.requested_digits"]),
        "inverse.certify_calls": certify_calls,
        "inverse.certify_s": certify_s,
        "inverse.self_s": layer_self["inverse"],
        "inverse.distortion_pairs": counts["inverse.distortion_pairs"],
        "implicit.build_window_s": group("implicit.build_window", "implicit.ultrametric_window")[1],
        "implicit.solve_s": group("implicit.solve_implicit")[1],
        "implicit.self_s": layer_self["implicit"],
        "implicit.shrink_steps": counts["implicit.shrink_steps"],
        "jsonio.calls": sum(1 for s in spans if s.layer == "jsonio"
                            and (s.parent < 0 or spans[s.parent].layer != "jsonio")),
        "jsonio.parse_s": prefixed("jsonio.parse_")[1],
        "jsonio.encode_s": prefixed("jsonio.encode_")[1],
        "cli.requests": names["cli.run"],
        "cli.self_s": layer_self["cli"],
        "cli.exit_nonzero": counts["cli.exit_nonzero"],
        "sampling.draws": draws,
        "sampling.pairs": pairs,
        "sampling.accept_ratio": _ratio(2 * pairs, draws),
    }
    errors = Counter()
    for (layer, _kind), n in tracer.errors.items():
        errors[layer] += n
    for layer in LAYERS:
        out[f"{layer}.share"] = _ratio(layer_self[layer], total)
        out[f"{layer}.errors"] = errors[layer]
    out["trace.ops_per_s_untraced"] = _ratio(ops, untraced_s)
    out["trace.ops_per_s_traced"] = _ratio(ops, traced_s)
    out["trace.overhead"] = _ratio(traced_s, untraced_s)
    out["trace.spans"] = len(spans)
    return out
