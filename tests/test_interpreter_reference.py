"""Differential tests: the pre-decoded step loop against the reference.

The interpreter dispatches on pre-decoded int opcodes with frame state in
locals, and the executor memoizes method entry.  Op counts feed the time
model and every fault count is a function of the touch order, so both
must reproduce the string-dispatch loop and the unmemoized hooks kept in
``reference_interpreter.py`` exactly: ops, output, result, per-section
faults, the ordered fault stream, faulted pages, first-response numbers,
trace bytes and trace event counts, VMError messages, op-budget trips and
the step boundaries a nested build-time ``<clinit>`` produces.
"""

from __future__ import annotations

from dataclasses import replace

import pytest

import repro.image.heap as image_heap
import repro.runtime.executor as executor
from repro.eval.pipeline import WorkloadPipeline
from repro.minijava import compile_source
from repro.profiling.tracebuf import TraceSession
from repro.profiling.tracefile import MODE_DUMP_ON_FULL, MODE_MMAP
from repro.profiling.tracer import PathTracer
from repro.runtime.executor import run_binary
from repro.vm import Interpreter, ThreadState, VMError
from repro.vm.values import OpsBudgetError
from repro.workloads import (
    AWFY_NAMES,
    MICROSERVICE_NAMES,
    awfy_workload,
    microservice_workload,
)

from reference_interpreter import ReferenceExecHooks, ReferenceInterpreter

WORKLOADS = list(AWFY_NAMES) + list(MICROSERVICE_NAMES)


@pytest.fixture(scope="module")
def images():
    """name -> (pipeline, regular image, instrumented image), built once."""
    built = {}

    def get(name):
        if name not in built:
            workload = (microservice_workload(name) if name in MICROSERVICE_NAMES
                        else awfy_workload(name))
            pipeline = WorkloadPipeline(workload)
            built[name] = (pipeline, pipeline.build_baseline(seed=0),
                           pipeline.build_instrumented(seed=0))
        return built[name]

    return get


def _record(metrics):
    """Every exact field of a run (the time is a function of them)."""
    return {
        "ops": metrics.ops,
        "output": metrics.output,
        "result": metrics.result,
        "faults": metrics.faults,
        "fault_events": metrics.fault_events,
        "faulted_pages": metrics.faulted_pages,
        "resident_pages": metrics.resident_pages,
        "first_response_ops": metrics.first_response_ops,
        "first_response_faults": metrics.first_response_faults,
        "first_response_time_s": metrics.first_response_time_s,
        "trace_event_counts": metrics.trace_event_counts,
        "time_s": metrics.time_s,
    }


def _both(monkeypatch, run):
    """``run()`` under the decoded loop, then under the reference.

    Both runs number their threads from the same id (trace files name
    their thread).
    """
    first_thread = ThreadState._next_id
    mine = run()
    with monkeypatch.context() as patch:
        patch.setattr(ThreadState, "_next_id", first_thread)
        patch.setattr(executor, "Interpreter", ReferenceInterpreter)
        patch.setattr(executor, "ExecHooks", ReferenceExecHooks)
        theirs = run()
    return mine, theirs


@pytest.mark.parametrize("name", WORKLOADS)
def test_regular_run_matches_reference(name, images, monkeypatch):
    pipeline, regular, _ = images(name)
    config = replace(pipeline.exec_config, fault_observer=True)
    mine, theirs = _both(monkeypatch, lambda: run_binary(regular, config))
    assert mine.fault_events  # the observer saw the run
    assert _record(mine) == _record(theirs)
    if pipeline.workload.microservice:
        # the pipeline's microservice runs stop after the first response
        assert config.stop_on_first_response
        assert 0 < mine.first_response_ops <= mine.ops


@pytest.mark.parametrize("name", WORKLOADS)
def test_traced_run_matches_reference(name, images, monkeypatch):
    pipeline, _, instrumented = images(name)
    config = replace(pipeline.exec_config, fault_observer=True)
    mode = MODE_MMAP if pipeline.workload.microservice else MODE_DUMP_ON_FULL

    def traced():
        session = TraceSession(mode=mode)
        metrics = run_binary(instrumented, config,
                             tracer=PathTracer(instrumented.manifest, session))
        return metrics, session.trace_files()

    (mine, my_trace), (theirs, their_trace) = _both(monkeypatch, traced)
    assert mine.trace_event_counts["blocks"] > 0
    assert _record(mine) == _record(theirs)
    assert my_trace == their_trace


# -- interpreter-level checks ----------------------------------------------------

BUDGET_PROGRAM = """
class Cell { int v; Cell(int v) { this.v = v; } int get() { return v; } }
class Main {
    static int twice(int x) { return x * 2; }
    static int main() {
        int acc = 0;
        for (int i = 0; i < 40; i++) {
            Cell c = new Cell(i);
            acc += twice(c.get()) % 7;
        }
        println(acc);
        return acc;
    }
}
"""


def _run_main(cls, program, max_ops=50_000_000, quantum=500):
    interp = cls(program, max_ops=max_ops, quantum=quantum)
    thread = interp.spawn_main()
    try:
        interp.run()
    except VMError as exc:
        return interp, thread, exc
    return interp, thread, None


@pytest.mark.parametrize("quantum", [1, 7, 500])
def test_op_budget_trips_at_the_same_op(quantum):
    program = compile_source(BUDGET_PROGRAM)
    ref, ref_thread, error = _run_main(ReferenceInterpreter, program,
                                       quantum=quantum)
    assert error is None
    total = ref.ops_executed
    interp, thread, error = _run_main(Interpreter, program, quantum=quantum)
    assert error is None
    assert (interp.ops_executed, thread.result, interp.output) == (
        total, ref_thread.result, ref.output)
    # one op short: both raise before the op that would exceed the budget
    for cls in (Interpreter, ReferenceInterpreter):
        tripped, _, error = _run_main(cls, program, max_ops=total - 1,
                                      quantum=quantum)
        assert isinstance(error, OpsBudgetError)
        assert tripped.ops_executed == total - 1
    # exactly enough: completes
    interp, thread, error = _run_main(Interpreter, program, max_ops=total,
                                      quantum=quantum)
    assert error is None and interp.ops_executed == total


NESTED_CLINIT = """
class Table {
    static int[] squares = Table.fill();
    static int[] fill() {
        int[] out = new int[300];
        for (int i = 0; i < 300; i++) out[i] = i * i;
        return out;
    }
}
class Config {
    static int limit = Config.warmup() + Table.squares[17];
    static int warmup() {
        int acc = 0;
        for (int i = 0; i < 250; i++) acc += i;
        return acc;
    }
}
class Main {
    static int main() { return Config.limit; }
}
"""


def _logging_steps(cls, log):
    """``cls`` appending (thread, ops before, ops after) of each step."""

    class Logged(cls):
        def step(self, thread, budget):
            before = self.ops_executed
            super().step(thread, budget)
            log.append((thread.name, before, self.ops_executed))

    return Logged


def test_nested_build_time_clinit_matches_reference(monkeypatch):
    """A static access mid-step runs another class's <clinit> on the
    same interpreter: op totals and every step boundary must agree."""
    from repro.graal.reachability import analyze

    program = compile_source(NESTED_CLINIT)
    reachability = analyze(program)
    runs = {}
    for cls in (Interpreter, ReferenceInterpreter):
        log = []
        monkeypatch.setattr(image_heap, "Interpreter", _logging_steps(cls, log))
        initializer = image_heap.BuildTimeInitializer(program, seed=5)
        initializer.run(reachability)
        statics = initializer.statics
        runs[cls] = (initializer._interp.ops_executed, log,
                     statics["Config"].get("limit"),
                     statics["Table"].get("squares").values[-1])
    mine, theirs = runs[Interpreter], runs[ReferenceInterpreter]
    assert mine == theirs
    ops, log, limit, last_square = mine
    assert limit == sum(range(250)) + 17 * 17 and last_square == 299 * 299
    assert ops > 1000
    # the nested <clinit> ran inside an outer step
    outer = [entry for entry in log if entry[0] == "call:<clinit>"]
    assert any(after - before > 500 for _, before, after in outer)


ERROR_CASES = {
    "getfield_null": "Box b = null; return b.v;",
    "putfield_null": "Box b = null; b.v = 3; return 0;",
    "aload_null": "int[] a = null; return a[0];",
    "astore_null": "int[] a = null; a[0] = 1; return 0;",
    "length_null": "int[] a = null; return a.length;",
    "call_null": "Box b = null; return b.get();",
    "aload_bounds": "int[] a = new int[2]; return a[2];",
    "astore_bounds": "int[] a = new int[2]; a[-1] = 4; return 0;",
    "int_div_zero": "int z = 0; return 5 / z;",
    "int_mod_zero": "int z = 0; return 5 % z;",
    "double_div_zero": "double z = 0.0; double q = 1.5 / z; return 0;",
    "bad_cast": "Object o = new Box(); Other x = (Other) o; return 0;",
    "string_bounds": 'String s = "ab"; return s.charAt(5);',
    "negative_array": "int n = 0 - 3; int[] a = new int[n]; return 0;",
    "stack_overflow": "return Box.down(0);",
}

ERROR_PRELUDE = """
class Box {
    int v;
    int get() { return v; }
    static int down(int n) { return Box.down(n + 1); }
}
class Other { }
"""


@pytest.mark.parametrize("case", sorted(ERROR_CASES))
def test_vm_errors_match_reference(case):
    source = (ERROR_PRELUDE + "class Main { static int main() { "
              + ERROR_CASES[case] + " } }")
    program = compile_source(source)
    outcomes = []
    for cls in (Interpreter, ReferenceInterpreter):
        interp, thread, error = _run_main(cls, program)
        assert isinstance(error, VMError), case
        outcomes.append((type(error), str(error), interp.ops_executed,
                         [(f.method.signature, f.pc) for f in thread.frames]))
    assert outcomes[0] == outcomes[1]
    assert "line" in outcomes[0][1] or case in (
        "aload_bounds", "astore_bounds", "int_div_zero", "int_mod_zero",
        "negative_array", "stack_overflow")
