#!/usr/bin/env python3
"""ultrafix benchmark: one seeded workload, timed or traced.

    python3 bench/run.py --workload deep_padic --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout; the package is imported from
`src/`, the golden requests are read from `tests/`.  The load is a closed
loop: one client, one process, one thread, each operation sent when the
previous one has returned.

--trace 0 repeats whole rounds of the workload (see workloads.py) until
--seconds have passed and there are enough samples for the tail percentile,
then prints the end-to-end metrics.  Their times are scaled to a reference
machine speed with a fixed kernel timed between operations (clock.py), so
that the drift of a shared host does not show as a change of the program.
--trace 1 runs a fixed number of rounds once without and once with the span
recorder installed, prints the per-layer metrics and writes the spans to
.bench_trace/.  Every output is checked against references computed in
oracle.py; the last line of stdout is one JSON object, and the exit code is
1 if any operation failed.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

from clock import ReferenceClock

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
TRACE_DIR = ROOT / ".bench_trace"
SETUP_PROBES = 11
WARMUP_SAMPLES = 5  # reference-kernel samples before and after the timed loop

END_TO_END_UNITS = {
    "ops_per_s": "1/s",
    "latency_p50_ms": "ms",
    "latency_tail_ms": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--probe-setup", action="store_true",
                        help="import and generate the first round, then exit (times set-up)")
    return parser.parse_args(argv)


def import_program():
    """Import ultrafix from this checkout's src/, never from elsewhere."""
    if not (SRC / "ultrafix" / "__init__.py").is_file():
        raise SystemExit(f"bench: no ultrafix package under {SRC}")
    sys.path.insert(0, str(SRC))
    import ultrafix

    if Path(ultrafix.__file__).resolve().parent != (SRC / "ultrafix").resolve():
        raise SystemExit(f"bench: imported ultrafix from {ultrafix.__file__}, not {SRC}")


def execute(op):
    """Run one operation: (failure reason or None, seconds, proven digits)."""
    start = perf_counter()
    try:
        output = op.run()
    except Exception as exc:  # a failed operation is counted; the run goes on
        return f"{type(exc).__name__}: {exc}", perf_counter() - start, 0
    elapsed = perf_counter() - start
    try:
        reason, digits = op.check(output)
    except Exception as exc:  # a malformed output fails its check
        reason, digits = f"check raised {type(exc).__name__}: {exc}", 0
    return reason, elapsed, digits


def percentile(values, q: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def report_failure(op, reason) -> None:
    print(f"bench: FAILED {op.kind} {op.spec.get('check', '')}: {reason}", file=sys.stderr)


def time_setup(args) -> list[float]:
    """Wall time of fresh interpreters that import ultrafix and generate the
    first round: set-up as a CLI caller pays it, measured several times and
    scaled to the reference speed (see clock.py)."""
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--probe-setup"]
    clock, probes = ReferenceClock(), []
    for _ in range(SETUP_PROBES):
        clock.sample()
        start = perf_counter()
        # no timeout: with one, the wait polls in steps of up to 50 ms
        subprocess.run(cmd, cwd=ROOT, check=True, stdout=subprocess.DEVNULL)
        probes.append((start, perf_counter() - start))
    clock.sample()
    return [elapsed * clock.scale(start, start + elapsed) for start, elapsed in probes]


def environment() -> str:
    return (f"{platform.machine()} {platform.system()} {platform.release()}, "
            f"nproc {os.cpu_count()}, Python {platform.python_version()}")


def timed_run(args, workloads, first_round):
    """Closed loop over whole rounds; operation times are scaled to the
    reference speed with kernel samples taken between operations."""
    spec = workloads.WORKLOADS[args.workload]
    clock = ReferenceClock()
    for _ in range(WARMUP_SAMPLES):
        clock.sample()
    timed, digits, attempted, failed, rounds = [], 0, 0, 0, 0
    start = perf_counter()
    ops = first_round
    while True:
        for op in ops:
            clock.tick()
            began = perf_counter()
            reason, elapsed, proven = execute(op)
            attempted += 1
            timed.append((began, elapsed, reason is None))
            if reason is None:
                digits += proven
            else:
                failed += 1
                report_failure(op, reason)
        rounds += 1
        if rounds % spec.cycle == 0 and perf_counter() - start >= args.seconds and attempted >= spec.min_ops:
            break
        ops = workloads.make_round(args.workload, args.seed, rounds)
    for _ in range(WARMUP_SAMPLES):
        clock.sample()
    scales = [clock.scale(began, began + elapsed) for began, elapsed, _ in timed]
    latencies = [elapsed * k for (_, elapsed, ok), k in zip(timed, scales) if ok]
    busy = sum(elapsed * k for (_, elapsed, _), k in zip(timed, scales))
    raw_busy = sum(elapsed for _, elapsed, _ in timed)
    return latencies, busy, raw_busy, digits, attempted, failed, rounds


def main(argv=None) -> int:
    args = parse_args(argv)
    import_program()
    import workloads

    if args.workload not in workloads.WORKLOADS:
        raise SystemExit(f"bench: unknown workload {args.workload!r}; choose from {sorted(workloads.WORKLOADS)}")
    first_round = workloads.make_round(args.workload, args.seed, 0)
    if args.probe_setup:
        return 0
    if args.trace:
        return traced_run(args, workloads, first_round)

    setup = time_setup(args)
    latencies, busy, raw_busy, digits, attempted, failed, rounds = timed_run(args, workloads, first_round)
    if not latencies:
        raise SystemExit("bench: every operation failed")
    spec = workloads.WORKLOADS[args.workload]
    completed = attempted - failed
    tail = percentile(latencies, spec.tail)
    beyond = sum(1 for v in latencies if v > tail)
    metrics = {
        "ops_per_s": completed / busy,
        "latency_p50_ms": 1000 * percentile(latencies, 0.5),
        "latency_tail_ms": 1000 * tail,
        "setup_s": statistics.median(setup),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    print(f"workload {args.workload}, seed {args.seed}: {attempted} operations in {rounds} rounds "
          f"of {len(first_round)}, {raw_busy:.2f} s busy ({busy:.2f} s at reference speed); "
          f"fail_ratio {failed / attempted:.4g} ({failed} failed)")
    print(f"latency_p50_ms over {len(latencies)} samples; latency_tail_ms is p{100 * spec.tail:g} "
          f"with {beyond} samples beyond it")
    if args.workload == "deep_padic":
        print(f"digits_per_s {digits / busy:.6g} ({digits} proven p-adic digits)")
    print("setup_s samples: " + ", ".join(f"{t:.4f}" for t in setup))
    print(f"machine: {environment()}")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": END_TO_END_UNITS[name]} for name, value in metrics.items()},
    }
    print(json.dumps(result))
    return 0 if failed == 0 else 1


def trace_ops(ops):
    """Run the operations with the span recorder installed, one root span
    per operation: (tracer, summed operation seconds, failures)."""
    import layers
    from spans import Tracer

    tracer = Tracer(layers.HOOKS)
    tracer.install()
    traced_s, failed = 0.0, 0
    try:
        for index, op in enumerate(ops):
            tracer.op = index
            root = tracer.begin(*layers.ROOT_SPAN)
            try:
                reason, elapsed, _ = execute(op)
            finally:
                tracer.end(root)
            traced_s += elapsed
            if reason is not None:
                failed += 1
                report_failure(op, reason)
    finally:
        tracer.uninstall()
    return tracer, traced_s, failed


def traced_run(args, workloads, first_round) -> int:
    import layers

    spec = workloads.WORKLOADS[args.workload]
    ops = list(first_round)
    for index in range(1, spec.trace_rounds):
        ops += workloads.make_round(args.workload, args.seed, index)

    failed, untraced_s = 0, 0.0
    for op in ops:
        reason, elapsed, _ = execute(op)
        untraced_s += elapsed
        if reason is not None:
            failed += 1
            report_failure(op, reason)

    tracer, traced_s, traced_failed = trace_ops(ops)
    failed += traced_failed
    metrics = layers.compute(tracer, untraced_s, traced_s, len(ops))
    path = write_trace(args, tracer)
    print(f"workload {args.workload}, seed {args.seed}: {len(ops)} operations ({spec.trace_rounds} rounds) "
          f"run untraced then traced; {failed} failed; spans written to {path.relative_to(ROOT)}")
    for (layer, kind), n in sorted(tracer.errors.items()):
        print(f"{layer}.errors.{kind} {n}")
    for name, unit, _ in layers.PER_LAYER:
        print(f"  {name:36s} {metrics[name]:.6g} {unit}")
    print(f"machine: {environment()}")
    result = {
        "correct": failed == 0,
        "attempted": 2 * len(ops),
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit, _ in layers.PER_LAYER},
    }
    print(json.dumps(result))
    return 0 if failed == 0 else 1


def write_trace(args, tracer) -> Path:
    spans = tracer.spans()
    names = sorted({s.name for s in spans})
    index = {name: i for i, name in enumerate(names)}
    origin = spans[0].start if spans else 0.0
    TRACE_DIR.mkdir(exist_ok=True)
    path = TRACE_DIR / f"{args.workload}-seed{args.seed}.json"
    payload = {
        "workload": args.workload,
        "seed": args.seed,
        "columns": ["name", "layer", "start_s", "end_s", "parent", "op", "folded_s"],
        "names": names,
        "spans": [[index[s.name], s.layer, round(s.start - origin, 7), round(s.end - origin, 7),
                   s.parent, s.op, round(s.folded, 7)] for s in spans],
        "folded_calls": dict(tracer.calls),
        "errors": {f"{layer}.{kind}": n for (layer, kind), n in tracer.errors.items()},
    }
    path.write_text(json.dumps(payload, separators=(",", ":")))
    return path


if __name__ == "__main__":
    sys.exit(main())
