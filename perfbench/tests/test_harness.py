"""Probe normalization, op lists and percentiles."""

import pytest

import harness
from workloads import WORKLOADS


class FakeClock:
    """A clock whose host runs ``slowdown`` times slower than reference."""

    def __init__(self, slowdown):
        self.now = 0.0
        self.slowdown = slowdown

    def __call__(self):
        return self.now

    def spend(self, reference_s):
        self.now += reference_s * self.slowdown


@pytest.mark.parametrize("slowdown", [0.5, 1.0, 1.6, 3.0])
def test_uniform_slowdown_cancels(slowdown):
    clock = FakeClock(slowdown)
    speed = harness.HostSpeed(nominal_s=0.02, clock=clock,
                              work=lambda: clock.spend(0.02))
    result, timing = harness.timed(lambda: clock.spend(0.75) or "done", speed)
    assert result == "done"
    assert timing.raw_s == pytest.approx(0.75 * slowdown)
    assert timing.normalized_s == pytest.approx(0.75)


def test_normalization_uses_mean_of_both_probes():
    timing = harness.Timing(raw_s=1.0, probe_before_s=0.01,
                            probe_after_s=0.03, nominal_s=0.02)
    assert timing.normalized_s == pytest.approx(1.0)
    assert timing.as_dict()["probe_after_s"] == 0.03


@pytest.mark.parametrize("n, pct, value", [
    (11, 9, 1),      # exactly 10 values beyond the lowest
    (20, 50, 10),
    (28, 64, 18),
    (100, 90, 90),
    (1000, 99, 990),
])
def test_tail_percentile_known_inputs(n, pct, value):
    values = list(range(n, 0, -1))  # order must not matter
    assert harness.tail_percentile(values) == (pct, value)
    assert sum(1 for v in values if v > value) >= harness.TAIL_BEYOND


def test_tail_percentile_needs_more_than_ten_values():
    with pytest.raises(ValueError):
        harness.tail_percentile(list(range(10)))


def test_summarize_times():
    summary = harness.summarize_times([1.0] * 10 + [2.0] * 11)
    assert summary["op_p50_s"] == 2.0
    assert summary["ops_per_s"] == pytest.approx(21 / 32.0)
    assert summary["tail_percentile"] == 52


def test_passes_are_whole_and_cover_min_ops():
    assert harness.passes_for(12, 28, 0.62, 11) == 1
    assert harness.passes_for(12, 4, 0.40, 12) == 8
    assert harness.passes_for(1, 3, 0.60, 12) == 4


def test_run_passes_repeats_the_op_list_and_checks_between_ops():
    seen = []
    speed = harness.HostSpeed(work=lambda: None)
    records = harness.run_passes(
        ["a", "b", "c"], 2, str, lambda op: op.upper(),
        lambda op, result, record: seen.append((op, result)), speed)
    assert [r.label for r in records] == ["a", "b", "c"] * 2
    assert [r.pass_index for r in records] == [0, 0, 0, 1, 1, 1]
    assert seen == [("a", "A"), ("b", "B"), ("c", "C")] * 2


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_same_seed_gives_identical_op_list(name):
    workload = WORKLOADS[name]
    first = workload.ops(7)
    assert first == workload.ops(7)
    assert [op.label for op in first] == [op.label for op in workload.ops(7)]
    assert first != workload.ops(8)
    assert {op.program for op in first} == set(workload.POOL)


def test_cold_sweep_pass_balances_paper_strategies():
    from repro.eval.pipeline import PAPER_STRATEGY_SPECS

    ops = WORKLOADS["cold-sweep"].ops(3)
    assert len(ops) == 28
    per_strategy = {spec.name: 0 for spec in PAPER_STRATEGY_SPECS}
    for op in ops:
        per_strategy[op.variant.name] += 1
    assert set(per_strategy.values()) <= {4, 5}
    assert {"Mandelbrot", "Permute", "Queens"}.isdisjoint(
        op.program for op in ops)


def test_probe_runs_with_the_garbage_collector_held_off():
    import gc

    seen = []
    speed = harness.HostSpeed(work=lambda: seen.append(gc.isenabled()))
    assert gc.isenabled()
    speed.read()
    assert seen == [False]
    assert gc.isenabled()
