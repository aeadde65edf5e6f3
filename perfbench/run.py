"""Benchmark entry point: one workload, one seed, one run.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload cold-sweep --seed 1 --seconds 8 --trace 0

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` runs the same
op list once untraced and once with layer wrappers installed and prints
the per-layer metrics.  Every metric is printed with its unit; the last
line of standard output is one JSON object.  A detailed record of the run
(raw seconds and probe readings of every op and set-up) is written under
``.perfbench/runs/``.  The exit code is non-zero if any op failed.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
#: scratch space of a run, inside the checkout
WORK_ROOT = ROOT / ".perfbench"

#: set-ups per untraced run; ``setup_s`` is their median
SETUP_REPEATS = 3

END_TO_END_UNITS = {
    "op_p50_s": "s",
    "op_tail_s": "s",
    "ops_per_s": "1/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "startup_faults": "count",
    "startup_sim_ms": "ms",
    "fault_reduction": "ratio",
}


def _bootstrap() -> None:
    if not (SRC / "repro" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: simulator sources not found under "
                         f"{SRC}; run from the root of a full checkout")
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _finish_op(workload, ctx, expected_exact):
    """The between-ops callback: check, record exact values, compare."""
    def finish(op, result, record):
        failures, exact = workload.finish(ctx, op, result)
        record.failures.extend(failures)
        record.exact = exact
        reference = ctx.reference.setdefault(op.label, exact)
        if exact != reference:
            record.failures.append(f"{op.label}: exact values {exact} differ "
                                   f"from the first execution {reference}")
        if expected_exact is not None:
            committed = expected_exact.get(op.label)
            if committed is None or any(exact.get(k) != committed[k]
                                        for k in ("faults", "ref_faults")):
                record.failures.append(f"{op.label}: faults {exact} differ "
                                       f"from committed {committed}")
    return finish


def _setup(workload, ops, speed, harness):
    """One set-up in a fresh work directory: (context, timing)."""
    workdir = Path(tempfile.mkdtemp(dir=WORK_ROOT, prefix="work-"))
    return harness.timed(lambda: workload.setup(ops, workdir), speed)


def run(args) -> int:
    _bootstrap()
    import harness
    import layers
    from workloads import WORKLOADS, load_exact, pass_exact

    workload = WORKLOADS[args.workload]
    WORK_ROOT.mkdir(exist_ok=True)
    speed = harness.HostSpeed()
    ops = workload.ops(args.seed)
    passes = harness.passes_for(args.seconds, len(ops),
                                workload.nominal_op_s, workload.min_ops)
    expected_exact = load_exact(workload.name, args.seed)
    record = {"workload": workload.name, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace,
              "nominal_probe_s": speed.nominal_s,
              "ops": [op.label for op in ops], "passes": passes}

    layers.assert_unwrapped()
    repeats = 1 if args.trace else SETUP_REPEATS
    setups = []
    ctx = None
    for _ in range(repeats):
        if ctx is not None:
            ctx.close()
        ctx, timing = _setup(workload, ops, speed, harness)
        setups.append(timing)
    record["setups"] = [t.as_dict() for t in setups]
    finish = _finish_op(workload, ctx, expected_exact)
    label = (lambda op: op.label)
    run_op = (lambda op: workload.run_op(ctx, op))
    try:
        workload.prepare(ctx, ops)
        if args.trace:
            metrics, records = _traced(workload, ops, passes, label, run_op,
                                       finish, speed, harness, layers)
        else:
            records = harness.run_passes(ops, passes, label, run_op, finish,
                                         speed)
            metrics, record["tail_percentile"] = _end_to_end(
                records, setups, len(ops), harness, pass_exact)
    finally:
        ctx.close()
    failures = list(ctx.failures)
    failures += [f for r in records for f in r.failures]
    record["records"] = [r.as_dict() for r in records]
    record["setup_failures"] = list(ctx.failures)
    record["metrics"] = metrics
    _write_record(record, args)

    _print_report(workload, metrics, records, failures, args,
                  record.get("tail_percentile"))
    failed = sum(1 for r in records if r.failures) + (1 if ctx.failures else 0)
    result = {
        "correct": not failures,
        "attempted": len(records),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0 if not failures else 1


def _end_to_end(records, setups, ops_per_pass, harness, pass_exact):
    times = [r.timing.normalized_s for r in records]
    summary = harness.summarize_times(times)
    exact = pass_exact([r.exact for r in records[:ops_per_pass]])
    values = {
        "op_p50_s": summary["op_p50_s"],
        "op_tail_s": summary["op_tail_s"],
        "ops_per_s": summary["ops_per_s"],
        "setup_s": statistics.median(t.normalized_s for t in setups),
        "peak_rss_mb": _peak_rss_mb(),
        "startup_faults": exact["startup_faults"],
        "startup_sim_ms": exact["startup_sim_ms"],
        "fault_reduction": exact["fault_reduction"],
    }
    metrics = {name: (values[name], unit)
               for name, unit in END_TO_END_UNITS.items()}
    return metrics, summary["tail_percentile"]


def _traced(workload, ops, passes, label, run_op, finish, speed, harness,
            layers):
    """An untraced and a traced half of the run, same op list each."""
    half = max(1, passes // 2)
    untraced = harness.run_passes(ops, half, label, run_op, finish, speed)
    tracer = layers.LayerTracer()
    tracer.install()
    op_layers = []

    def traced_finish(op, result, record):
        raw = tracer.take()
        factor = record.timing.factor
        record.layers = {name: (value * factor
                                if name in layers.TIME_METRICS else value)
                         for name, value in raw.items()}
        op_layers.append(record.layers)
        finish(op, result, record)

    try:
        traced = harness.run_passes(ops, half, label, run_op, traced_finish,
                                    speed, around_op=tracer.op_scope)
    finally:
        tracer.uninstall()
    layers.assert_unwrapped()
    untraced_p50 = statistics.median(r.timing.normalized_s for r in untraced)
    traced_times = [r.timing.normalized_s for r in traced]
    values = layers.summarize(op_layers, traced_times,
                              statistics.median(traced_times), untraced_p50)
    metrics = {name: (values[name], layers.UNITS[name]) for name in values}
    return metrics, untraced + traced


def _write_record(record, args) -> None:
    runs = WORK_ROOT / "runs"
    runs.mkdir(parents=True, exist_ok=True)
    stamp = time.strftime("%Y%m%dT%H%M%S")
    path = runs / (f"{args.workload}-seed{args.seed}-trace{args.trace}-"
                   f"{stamp}-{os.getpid()}.json")
    path.write_text(json.dumps(record, indent=1, default=str))
    print(f"run record: {path.relative_to(ROOT)}")


def _print_report(workload, metrics, records, failures, args,
                  tail_percentile) -> None:
    print(f"perfbench {workload.name} seed {args.seed}: {len(records)} ops")
    for name, (value, unit) in metrics.items():
        note = ""
        if name == "op_tail_s":
            note = f"  (p{tail_percentile}, {len(records)} ops)"
        print(f"  {name:30s} {value:14.6g} {unit}{note}")
    if args.trace:
        import layers
        shares = layers.layer_shares({k: v for k, (v, _u) in metrics.items()})
        print("  share of traced op time:")
        for name, share in sorted(shares.items(), key=lambda kv: -kv[1]):
            if share > 0:
                print(f"    {name:28s} {100 * share:6.2f}%")
    for failure in failures[:20]:
        print(f"  FAILED: {failure}")
    if len(failures) > 20:
        print(f"  ... {len(failures) - 20} more failures")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("cold-sweep", "pgo-drift", "layout-search"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=8,
                        help="measured seconds at reference host speed; "
                             "rounded to whole passes over the op list")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return run(parser.parse_args(argv))


if __name__ == "__main__":
    sys.exit(main())
