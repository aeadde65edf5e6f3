"""Layer wrappers: self-time accounting, scoping and clean removal."""

import sys
import types

import pytest

import layers


class StepClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


@pytest.fixture
def fake_layers():
    """A throwaway module with an outer call that makes an inner call."""
    module = types.ModuleType("perfbench_fake_layers")
    clock = StepClock()

    def inner():
        clock.now += 2.0

    def outer():
        clock.now += 1.0
        module.inner()
        clock.now += 3.0
        return "ok"

    module.inner = inner
    module.outer = outer
    sys.modules[module.__name__] = module
    targets = (
        layers.Target(module.__name__, "outer", "image.build_s",
                      lambda a, k, r, p: {"image.builds": 1}),
        layers.Target(module.__name__, "inner", "graal.analyze_s"),
    )
    yield module, clock, targets
    del sys.modules[module.__name__]


def test_self_time_excludes_wrapped_children(fake_layers):
    module, clock, targets = fake_layers
    tracer = layers.LayerTracer(clock=clock, targets=targets)
    tracer.install()
    try:
        assert tracer.op_scope(module.outer)() == "ok"
        op = tracer.take()
    finally:
        tracer.uninstall()
    assert op["image.build_s"] == 4.0
    assert op["graal.analyze_s"] == 2.0
    assert op["image.builds"] == 1


def test_nothing_is_recorded_outside_an_op(fake_layers):
    module, clock, targets = fake_layers
    tracer = layers.LayerTracer(clock=clock, targets=targets)
    tracer.install()
    try:
        module.outer()
        op = tracer.take()
    finally:
        tracer.uninstall()
    assert op["image.build_s"] == 0.0 and op["image.builds"] == 0.0


def test_wrappers_are_removed_before_untraced_runs():
    from repro.eval import pipeline
    from repro.runtime import executor

    original = executor.run_binary
    tracer = layers.LayerTracer()
    tracer.install()
    try:
        assert pipeline.run_binary is not original
        assert executor.run_binary is not original
        with pytest.raises(RuntimeError):
            layers.assert_unwrapped()
    finally:
        tracer.uninstall()
    assert executor.run_binary is original
    assert pipeline.run_binary is original
    layers.assert_unwrapped()
    for target in layers.TARGETS:
        _owner, _attr, current = layers._resolve(target)
        assert not getattr(current, "__perfbench_wrapper__", False)


def test_traced_frontend_call_counts_bytes_and_time():
    from repro.minijava import frontend

    source = "class Main { static int main() { return 6 * 7; } }"
    tracer = layers.LayerTracer()
    tracer.install()
    try:
        tracer.op_scope(lambda: frontend.compile_source(source))()
        op = tracer.take()
    finally:
        tracer.uninstall()
    assert op["minijava.bytes"] == len(source)
    assert op["minijava.parse_s"] > 0
    assert op["minijava.compile_s"] > 0


def test_summarize_self_times_and_unaccounted_add_up_to_op_time():
    op = {name: 0.0 for name in layers.TIME_METRICS + layers.COUNT_METRICS
          + layers._AUX_COUNTS}
    op.update({"runtime.run_s": 0.3, "cache.get_s": 0.1, "vm.ops": 600_000,
               "cache.gets": 4, "cache.hits": 3})
    out = layers.summarize([op, op], [0.5, 0.5], traced_p50=0.5,
                           untraced_p50=0.4)
    assert out["harness.unaccounted_s"] == pytest.approx(0.1)
    assert out["vm.mops_per_s"] == pytest.approx(2.0)
    assert out["cache.hit_ratio"] == 0.75
    assert out["harness.trace_overhead"] == pytest.approx(1.25)
    shares = layers.layer_shares(out)
    assert sum(shares.values()) == pytest.approx(1.0)
