"""Regenerate the committed expected files under ``perfbench/expected/``.

Run from the root of a checkout, only when a change to the simulator
deliberately changes program outputs or fault counts::

    python3 perfbench/make_expected.py

``outputs.json`` holds every pool program's output and result (several are
known independently: 168 primes below 1000 for Sieve, 2**10 - 1 moves for
Towers, 8660 for Permute).  ``exact-seed1.json`` holds the per-op fault
counts of one pass of each workload on the default seed.
"""

from __future__ import annotations

import json
import shutil
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402
from repro.eval.pipeline import WorkloadPipeline  # noqa: E402


def main() -> int:
    workloads.EXPECTED_DIR.mkdir(exist_ok=True)
    programs = sorted({name for w in workloads.WORKLOADS.values()
                       for name in w.POOL})
    outputs = {}
    for name in programs:
        pipeline = WorkloadPipeline(workloads.make_program(name))
        run = pipeline.measure(pipeline.build_baseline(seed=0))[0]
        outputs[name] = {"output": list(run.output), "result": run.result}
    workloads.OUTPUTS_FILE.write_text(json.dumps(outputs, indent=1) + "\n")

    seed = workloads.DEFAULT_SEED
    exact = {}
    scratch = HERE.parent / ".perfbench"
    scratch.mkdir(exist_ok=True)
    for workload in workloads.WORKLOADS.values():
        workdir = Path(tempfile.mkdtemp(dir=scratch, prefix="expected-"))
        try:
            ops = workload.ops(seed)
            ctx = workload.setup(ops, workdir)
            workload.prepare(ctx, ops)
            entries = {}
            for op in ops:
                failures, values = workload.finish(
                    ctx, op, workload.run_op(ctx, op))
                if failures or ctx.failures:
                    raise SystemExit(f"{op.label}: {failures + ctx.failures}")
                entries[op.label] = values
            exact[workload.name] = entries
            print(f"{workload.name}: {len(entries)} ops")
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
    path = workloads.EXPECTED_DIR / workloads.EXACT_FILE.format(seed=seed)
    path.write_text(json.dumps(exact, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
