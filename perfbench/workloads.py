"""The three benchmark workloads: seeded op lists, set-up, ops, checks.

Each op calls exactly one public entry point of the simulator:

* ``cold-sweep``: :meth:`repro.eval.pipeline.WorkloadPipeline.run_strategy`
  on a fresh pipeline over an empty artifact cache;
* ``pgo-drift``: :func:`repro.pgo.run_scenario` over a cache warmed in
  set-up;
* ``layout-search``: :func:`repro.ordering.optimize.optimize_workload`
  over a cache warmed in set-up.

Everything an op is checked against, and the exact fault numbers it
yields, is computed outside the timed region.
"""

from __future__ import annotations

import json
import math
import random
import shutil
import tempfile
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.cache import ArtifactCache
from repro.eval.pipeline import (
    PAPER_STRATEGY_SPECS,
    STRATEGY_COMBINED,
    StrategySpec,
    WorkloadPipeline,
    metric_for_strategy,
)
from repro.ordering.optimize import OptimizeConfig, optimize_workload
from repro.pgo import ACTION_REFRESH, DriftScenario, run_scenario
from repro.runtime.executor import ExecutionConfig
from repro.validation.differential import run_differential
from repro.validation.invariants import verify_layout
from repro.workloads.awfy.suite import awfy_workload
from repro.workloads.microservices.suite import (
    MICROSERVICE_NAMES,
    microservice_workload,
)

EXPECTED_DIR = Path(__file__).resolve().parent / "expected"
OUTPUTS_FILE = EXPECTED_DIR / "outputs.json"
#: per-op exact values on :data:`DEFAULT_SEED`, keyed by workload and op
EXACT_FILE = "exact-seed{seed}.json"
DEFAULT_SEED = 1

#: AWFY programs whose single iteration is startup-sized.  Mandelbrot,
#: Permute and Queens run long enough that the interpreter dominates.
SHORT_AWFY = ("Bounce", "CD", "DeltaBlue", "Havlak", "Json", "List",
              "NBody", "Richards", "Sieve", "Storage", "Towers")


def make_program(name: str):
    """The repro :class:`~repro.eval.pipeline.Workload` for a program name."""
    if name in MICROSERVICE_NAMES:
        return microservice_workload(name)
    return awfy_workload(name)


def load_outputs() -> Dict[str, Dict[str, Any]]:
    return json.loads(OUTPUTS_FILE.read_text())


def load_exact(workload: str, seed: int) -> Optional[Dict[str, Dict]]:
    """Committed per-op exact values, or None off the default seed."""
    if seed != DEFAULT_SEED:
        return None
    path = EXPECTED_DIR / EXACT_FILE.format(seed=seed)
    return json.loads(path.read_text())[workload]


def sim_ms(config: ExecutionConfig, ops: int, faults: float) -> float:
    """Simulated startup time by the executor's cost model, in ms.

    ``base + ops * op_time + fault_cost(faults)``: what
    :class:`repro.runtime.executor.BinaryExecutor` charges a run with
    ``ops`` interpreter steps and ``faults`` first-touch faults.
    """
    return 1000.0 * (config.base_startup_s + ops * config.op_time_s
                     + config.device.fault_cost(faults))


def check_output(program: str, metrics, outputs: Dict[str, Dict]) -> List[str]:
    """The program's output and result must equal the committed ones."""
    expected = outputs[program]
    failures = []
    if list(metrics.output) != expected["output"]:
        failures.append(f"{program}: output {metrics.output!r} != "
                        f"expected {expected['output']!r}")
    if metrics.result != expected["result"]:
        failures.append(f"{program}: result {metrics.result!r} != "
                        f"expected {expected['result']!r}")
    return failures


def pass_exact(exacts: Sequence[Dict[str, float]]) -> Dict[str, float]:
    """The end-to-end exact metrics of the images one pass produces.

    An op that failed before producing an image contributes nothing (the
    run is already marked incorrect).
    """
    exacts = [e for e in exacts if e]
    if not exacts:
        return {"startup_faults": 0.0, "startup_sim_ms": 0.0,
                "fault_reduction": 0.0}
    return {
        "startup_faults": sum(e["faults"] for e in exacts),
        "startup_sim_ms": sum(e["sim_ms"] for e in exacts),
        "fault_reduction": math.exp(
            sum(math.log(e["ref_faults"] / e["faults"]) for e in exacts)
            / len(exacts)),
    }


@dataclass(frozen=True)
class Op:
    """One unit of measured work."""

    program: str
    seed: int
    #: cold-sweep: the paper strategy; layout-search: the search seed;
    #: pgo-drift: unused
    variant: Any = None

    @property
    def label(self) -> str:
        variant = getattr(self.variant, "name", self.variant)
        tail = f"/{variant}" if variant is not None else ""
        return f"{self.program}{tail}/s{self.seed}"


class Context:
    """What set-up leaves for the ops: a work directory and references."""

    def __init__(self, workdir: Path) -> None:
        self.workdir = workdir
        #: the artifact cache set-up warms (unused by cold-sweep)
        self.cache_dir = workdir / "cache"
        self.outputs = load_outputs()
        self.programs: Dict[str, Any] = {}
        #: op label -> ops of the program's baseline run
        self.ops_count: Dict[str, int] = {}
        #: op label -> outcome of the op's warm-up execution in set-up
        self.warm: Dict[str, Any] = {}
        #: op label -> exact values of the op's first execution
        self.reference: Dict[str, Dict[str, float]] = {}
        self.failures: List[str] = []

    def close(self) -> None:
        shutil.rmtree(self.workdir, ignore_errors=True)


class BenchWorkload:
    """Interface of one workload; see the module docstring."""

    name = ""
    #: the programs the op list draws from
    POOL: Tuple[str, ...] = ()
    #: op cost at reference host speed, used only to size a run's passes
    nominal_op_s = 1.0
    #: each run covers whole passes with at least this many ops; from 22
    #: ops on, the tail percentile lies above the median
    min_ops = 22

    def ops(self, seed: int) -> List[Op]:
        raise NotImplementedError

    def setup(self, ops: Sequence[Op], workdir: Path) -> Context:
        """The work a user pays before the ops (timed as ``setup_s``)."""
        raise NotImplementedError

    def prepare(self, ctx: Context, ops: Sequence[Op]) -> None:
        """Untimed, after set-up: outputs, op counts, reference values."""

    def run_op(self, ctx: Context, op: Op) -> Any:
        raise NotImplementedError

    def finish(self, ctx: Context, op: Op, result: Any
               ) -> Tuple[List[str], Dict[str, float]]:
        """Check an op's result; return (failures, exact values)."""
        raise NotImplementedError

    def _programs(self, ctx: Context, ops: Sequence[Op]) -> None:
        for op in ops:
            if op.program not in ctx.programs:
                ctx.programs[op.program] = make_program(op.program)


class ColdSweep(BenchWorkload):
    """Uncached cells built from source, one fresh pipeline per op."""

    name = "cold-sweep"
    nominal_op_s = 0.62
    POOL = tuple(sorted(SHORT_AWFY + tuple(MICROSERVICE_NAMES)))

    def ops(self, seed: int) -> List[Op]:
        """Every pool program twice, under two complementary strategies.

        Strategy ``(i + offset) % 6`` and ``(i + offset + 3) % 6`` for the
        i-th program, so every pass holds each paper strategy 4 or 5 times
        and the pass's fault totals barely depend on the seed.
        """
        rng = random.Random(seed)
        offset = rng.randrange(len(PAPER_STRATEGY_SPECS))
        ops = []
        for index, program in enumerate(self.POOL):
            for shift in (0, 3):
                spec = PAPER_STRATEGY_SPECS[
                    (index + offset + shift) % len(PAPER_STRATEGY_SPECS)]
                ops.append(Op(program, rng.randrange(1 << 16), spec))
        rng.shuffle(ops)
        return ops

    def setup(self, ops: Sequence[Op], workdir: Path) -> Context:
        ctx = Context(workdir)
        self._programs(ctx, ops)
        return ctx

    def run_op(self, ctx: Context, op: Op) -> Any:
        cache_dir = Path(tempfile.mkdtemp(dir=ctx.workdir, prefix="cell-"))
        pipeline = WorkloadPipeline(ctx.programs[op.program],
                                    cache=ArtifactCache(cache_dir))
        baseline, optimized = pipeline.run_strategy(op.variant, seed=op.seed)
        return pipeline, cache_dir, baseline[0], optimized[0]

    def finish(self, ctx: Context, op: Op, result: Any
               ) -> Tuple[List[str], Dict[str, float]]:
        pipeline, cache_dir, base, opt = result
        outputs = ctx.outputs
        failures = check_output(op.program, base, outputs)
        failures += check_output(op.program, opt, outputs)
        spec: StrategySpec = op.variant
        profiles = pipeline.profile(seed=op.seed).profiles
        binary = pipeline.build_optimized(profiles, spec, seed=op.seed)
        if not verify_layout(binary).ok:
            failures.append(f"{op.label}: optimized layout fails verification")
        micro = pipeline.workload.microservice
        report = run_differential(pipeline.build_baseline(seed=op.seed),
                                  binary, pipeline.exec_config,
                                  workload=op.program, strategy=spec.name,
                                  microservice=micro)
        if not report.matches:
            failures.append(f"{op.label}: differential oracle diverged")
        shutil.rmtree(cache_dir, ignore_errors=True)
        produced = metric_for_strategy(opt, spec, micro)
        reference = metric_for_strategy(base, spec, micro)
        exact = {
            "faults": produced["text_faults"] + produced["heap_faults"],
            "ref_faults": reference["text_faults"] + reference["heap_faults"],
            "sim_ms": 1000.0 * produced["time_s"],
        }
        return failures, exact


class WarmCacheWorkload(BenchWorkload):
    """A workload whose ops run over an artifact cache warmed in set-up.

    Subclasses return ``(pipeline, outcome)`` from :meth:`run_op` and
    derive an op's exact values from the outcome in ``_exact``.
    """

    def _pipeline(self, ctx: Context, op: Op) -> WorkloadPipeline:
        raise NotImplementedError

    def _exact(self, ctx: Context, op: Op, pipeline, outcome
               ) -> Dict[str, float]:
        raise NotImplementedError

    def setup(self, ops: Sequence[Op], workdir: Path) -> Context:
        """Run every op once: compiles, profiles and builds into the cache."""
        ctx = Context(workdir)
        self._programs(ctx, ops)
        for op in ops:
            ctx.warm[op.label] = self.run_op(ctx, op)[1]
        return ctx

    def prepare(self, ctx: Context, ops: Sequence[Op]) -> None:
        """Check each program's baseline run; take references from warm-ups.

        The cache is warm, so the baseline build is a hit and only the run
        executes.
        """
        for op in ops:
            outcome = ctx.warm.pop(op.label)
            pipeline = self._pipeline(ctx, op)
            base = pipeline.measure(pipeline.build_baseline(seed=op.seed))[0]
            ctx.failures += check_output(op.program, base, ctx.outputs)
            ctx.ops_count[op.label] = base.ops
            ctx.reference[op.label] = self._exact(ctx, op, pipeline, outcome)


class PgoDrift(WarmCacheWorkload):
    """Three-epoch drift scenarios (retain, refresh, rollback) on Queens."""

    name = "pgo-drift"
    nominal_op_s = 0.40
    POOL = ("Queens",)
    #: scenarios per pass; each needs its own warm-up in set-up
    SCENARIOS = 4
    STRATEGY = STRATEGY_COMBINED

    def ops(self, seed: int) -> List[Op]:
        rng = random.Random(seed)
        return [Op(self.POOL[0], rng.randrange(1 << 16))
                for _ in range(self.SCENARIOS)]

    def _scenario(self, op: Op) -> DriftScenario:
        return DriftScenario(epochs=3, seed=op.seed, inject_bad_epoch=2)

    def _pipeline(self, ctx: Context, op: Op) -> WorkloadPipeline:
        return WorkloadPipeline(ctx.programs[op.program],
                                cache=ArtifactCache(ctx.cache_dir))

    def run_op(self, ctx: Context, op: Op) -> Any:
        pipeline = self._pipeline(ctx, op)
        return pipeline, run_scenario(pipeline, self.STRATEGY,
                                      scenario=self._scenario(op))

    def _exact(self, ctx: Context, op: Op, pipeline, outcome
               ) -> Dict[str, float]:
        refresh = [e for e in outcome.epochs if e.action == ACTION_REFRESH]
        if not refresh or refresh[0].candidate_faults is None:
            return {}
        epoch = refresh[0]
        return {
            "faults": epoch.candidate_faults,
            "ref_faults": epoch.deployed_faults_before,
            "sim_ms": sim_ms(pipeline.exec_config, ctx.ops_count[op.label],
                             epoch.candidate_faults),
        }

    def finish(self, ctx: Context, op: Op, result: Any
               ) -> Tuple[List[str], Dict[str, float]]:
        pipeline, outcome = result
        failures = []
        counts = (outcome.refreshes, outcome.rollbacks,
                  outcome.unguarded_regressions)
        if counts != (1, 1, 0):
            failures.append(f"{op.label}: refreshes/rollbacks/unguarded "
                            f"{counts} != (1, 1, 0)")
        for epoch in outcome.epochs:
            if epoch.action == ACTION_REFRESH and epoch.gate_failures:
                failures.append(f"{op.label}: refreshed candidate failed "
                                f"the canary: {epoch.gate_failures}")
        exact = self._exact(ctx, op, pipeline, outcome)
        if not exact:
            failures.append(f"{op.label}: no refreshed candidate")
        elif exact["faults"] >= exact["ref_faults"]:
            failures.append(f"{op.label}: refresh did not cut faults "
                            f"({exact['ref_faults']} -> {exact['faults']})")
        return failures, exact


class LayoutSearch(WarmCacheWorkload):
    """The search optimizer on short-running programs over a warm cache."""

    name = "layout-search"
    nominal_op_s = 0.45
    #: three short-running programs with close op costs, so the op median
    #: sits inside one dense cluster whatever the order
    POOL = ("Bounce", "DeltaBlue", "Richards")
    #: annealing cost evaluations per section, as in ``repro bench``'s
    #: optimize phase
    SEARCH_BUDGET = 200

    def ops(self, seed: int) -> List[Op]:
        rng = random.Random(seed)
        ops = [Op(program, rng.randrange(1 << 16), rng.randrange(1 << 16))
               for program in self.POOL]
        rng.shuffle(ops)
        return ops

    def _pipeline(self, ctx: Context, op: Op) -> WorkloadPipeline:
        return WorkloadPipeline(ctx.programs[op.program],
                                cache=ArtifactCache(ctx.cache_dir),
                                optimize_config=OptimizeConfig(
                                    budget=self.SEARCH_BUDGET, seed=op.variant))

    def run_op(self, ctx: Context, op: Op) -> Any:
        pipeline = self._pipeline(ctx, op)
        return pipeline, optimize_workload(pipeline, seed=op.seed)

    def _exact(self, ctx: Context, op: Op, pipeline, report
               ) -> Dict[str, float]:
        faults = sum(s.optimized_faults for s in report.sections)
        return {
            "faults": faults,
            "ref_faults": sum(s.seed_faults for s in report.sections),
            "sim_ms": sim_ms(pipeline.exec_config, ctx.ops_count[op.label],
                             faults),
        }

    def finish(self, ctx: Context, op: Op, result: Any
               ) -> Tuple[List[str], Dict[str, float]]:
        pipeline, report = result
        failures = []
        for section in report.sections:
            if section.skipped:
                failures.append(f"{op.label}: {section.section} skipped: "
                                f"{section.reason}")
            if not section.verified:
                failures.append(f"{op.label}: {section.strategy} layout "
                                "fails verification")
            if not section.differential_ok:
                failures.append(f"{op.label}: {section.strategy} "
                                "differential oracle diverged")
            if not section.never_worse:
                failures.append(
                    f"{op.label}: {section.strategy} worse than "
                    f"{section.seed_strategy} ({section.seed_faults} -> "
                    f"{section.optimized_faults})")
        return failures, self._exact(ctx, op, pipeline, report)


WORKLOADS: Dict[str, BenchWorkload] = {
    w.name: w for w in (ColdSweep(), PgoDrift(), LayoutSearch())
}
