"""Tests for the search-based layout optimizer (co-access graph + search).

The property suite pins the guarantees docs/optimizer.md promises:

* the co-access builder is permutation-invariant over its input traces;
* the chain-merge objective is superadditive under concatenation (merging
  two chains never loses locality credit), so greedy merging is monotone;
* the touched-only cost model equals full-layout costing, and the
  gain-table chain merge equals full O(n^3) rescoring (both against
  reference implementations kept here);
* same search seed => identical order => byte-identical built layout;
* ``optimize_workload`` searches each section once and runs the baseline
  once;
* end to end on Queens, the optimizer never loses to its seed strategy on
  simulated first-touch faults, and the search's predicted cost equals
  the faults replayed on the actually-built binary.
"""

import doctest
import random as stdlib_random

from fractions import Fraction

from hypothesis import example, given, settings
from hypothesis import strategies as st

import repro.ordering.optimize as optimize_module
import repro.ordering.profiles as profiles_module
import repro.validation.differential as differential_module
from repro.cache import ArtifactCache
from repro.eval.pipeline import (
    STRATEGY_CU,
    STRATEGY_CU_OPT,
    STRATEGY_HEAP_OPT,
    WorkloadPipeline,
)
from repro.ordering.coaccess import (
    CoAccessGraph,
    build_coaccess_graph,
    first_touch_ranks,
    layout_objective,
)
from repro.ordering.optimize import (
    CostModel,
    OptimizeConfig,
    PlaceableUnit,
    TouchEvent,
    chain_merge_order,
    code_problem,
    heap_problem,
    optimize_workload,
    search_order,
    simulated_faults,
    synthesize_optimizer_profiles,
)
from repro.workloads import awfy_workload

import pytest

UNIT_NAMES = [f"u{i}" for i in range(8)]

# a trace is a touch sequence over a small unit alphabet plus a weight
trace_st = st.tuples(
    st.lists(st.sampled_from(UNIT_NAMES), min_size=0, max_size=10),
    st.integers(min_value=0, max_value=4),
)


# ---------------------------------------------------------------------------
# co-access graph properties
# ---------------------------------------------------------------------------


@given(traces=st.lists(trace_st, max_size=8), seed=st.integers(0, 2**16))
def test_coaccess_builder_permutation_invariant(traces, seed):
    """The graph depends only on the multiset of traces, not their order."""
    graph = build_coaccess_graph(traces)
    shuffled = list(traces)
    stdlib_random.Random(seed).shuffle(shuffled)
    regraph = build_coaccess_graph(shuffled)
    assert graph.weights == regraph.weights
    assert graph.nodes == regraph.nodes


@given(traces=st.lists(trace_st, max_size=8))
def test_coaccess_weights_symmetric_and_positive(traces):
    graph = build_coaccess_graph(traces)
    for (u, v), weight in graph.weights.items():
        assert u < v  # canonical sorted-pair key, no self edges
        assert weight > 0
        assert graph.weight(u, v) == graph.weight(v, u) == weight


def test_coaccess_rejects_bad_inputs():
    with pytest.raises(ValueError):
        build_coaccess_graph([], window=0)
    with pytest.raises(ValueError):
        build_coaccess_graph([(["a", "b"], -1.0)])


def test_first_touch_ranks_collapses_repeats():
    assert first_touch_ranks(["a", "b", "a", "c", "b"]) == {
        "a": 0, "b": 1, "c": 2,
    }


@given(traces=st.lists(trace_st, min_size=1, max_size=6),
       split=st.integers(1, 7))
def test_objective_superadditive_under_concatenation(traces, split):
    """objective(A ++ B) >= objective(A) + objective(B) for disjoint A, B.

    Concatenation preserves every intra-chain gap and can only add
    non-negative cross terms — the monotonicity that makes greedy chain
    merging sound (each accepted merge has positive junction gain, and no
    merge can destroy credit already earned).
    """
    graph = build_coaccess_graph(traces)
    left = UNIT_NAMES[:split]
    right = UNIT_NAMES[split:]
    combined = layout_objective(graph, left + right)
    assert combined >= layout_objective(graph, left) + layout_objective(
        graph, right)


@given(traces=st.lists(trace_st, min_size=1, max_size=6))
@example(traces=[(["u0", "u2", "u1"], 1), (["u2", "u3"], 1)])
def test_chain_merge_never_loses_to_first_touch_order(traces):
    """Greedy merging only accepts positive-gain junctions, so the merged
    order's locality objective is >= the first-touch singleton order's."""
    graph = build_coaccess_graph(traces)
    hot = [name for name in UNIT_NAMES if name in graph.nodes]
    if not hot:
        return
    merged = chain_merge_order(graph, hot, graph.window)
    assert sorted(merged) == sorted(hot)  # a permutation, nothing dropped
    assert layout_objective(graph, merged) >= layout_objective(graph, hot)


def _reference_chain_merge(graph, hot, window):
    """The O(n^3) merge loop: rescore every ordered chain pair each step."""
    chains = [[name] for name in hot]
    rank = {name: index for index, name in enumerate(hot)}
    while len(chains) > 1:
        best_gain, best_pair = Fraction(0), None
        for i, left in enumerate(chains):
            for j, right in enumerate(chains):
                if i == j:
                    continue
                gain = optimize_module._junction_gain(graph, left, right,
                                                      window)
                if gain > best_gain or (
                    gain == best_gain and best_pair is not None and gain > 0
                    and (chains[best_pair[0]][0], chains[best_pair[1]][0])
                    > (left[0], right[0])
                ):
                    best_gain, best_pair = gain, (i, j)
        if best_pair is None:
            break
        i, j = best_pair
        merged = chains[i] + chains[j]
        chains = [c for index, c in enumerate(chains) if index not in (i, j)]
        chains.append(merged)
    chains.sort(key=lambda chain: min(rank[name] for name in chain))
    merged = [name for chain in chains for name in chain]
    if layout_objective(graph, hot, window) > layout_objective(
            graph, merged, window):
        return list(hot)
    return merged


MANY_UNITS = [f"n{i:02d}" for i in range(14)]


@given(traces=st.lists(
           st.tuples(st.lists(st.sampled_from(MANY_UNITS), max_size=14),
                     st.integers(min_value=0, max_value=3)),
           min_size=1, max_size=5),
       window=st.integers(min_value=1, max_value=9),
       data=st.data())
@settings(max_examples=150, deadline=None)
def test_gain_table_chain_merge_matches_full_rescoring(traces, window, data):
    """The incremental gain table picks exactly the merges the full
    O(n^3) rescoring picks (same gains, same tie-break), on random graphs,
    random hot orders and windows that differ from the graph's."""
    graph = build_coaccess_graph(traces)
    hot = data.draw(st.permutations(sorted(graph.nodes)))
    assert chain_merge_order(graph, hot, window) == _reference_chain_merge(
        graph, hot, window)


def _reference_faults(model, order):
    """Full-layout costing: place every unit, touch every event span."""
    offsets, offset = {}, 0
    for name in order:
        unit = model.units[name]
        offsets[name] = offset
        offset += optimize_module._align(unit.size, unit.align)
    resident = set()
    page = model.page_size
    for event in model.events:
        base = offsets[event.unit]
        for start, size in event.spans:
            if size > 0:
                resident.update(range((base + start) // page,
                                      (base + start + size - 1) // page + 1))
    return len(resident) + model.constant_faults


@st.composite
def cost_models(draw):
    count = draw(st.integers(min_value=1, max_value=12))
    units = {}
    for index in range(count):
        name = f"c{index}"
        units[name] = PlaceableUnit(
            name, draw(st.integers(min_value=0, max_value=3000)),
            draw(st.sampled_from([1, 8, 16, 64])))
    names = sorted(units)
    hot = draw(st.lists(st.sampled_from(names), max_size=3 * count))
    events = []
    for name in hot:
        size = units[name].size
        spans = draw(st.lists(st.tuples(
            st.integers(min_value=0, max_value=size),
            st.integers(min_value=-4, max_value=size + 8)),
            min_size=1, max_size=3))
        events.append(TouchEvent(unit=name, spans=tuple(spans)))
    model = CostModel(units=units, events=tuple(events),
                      page_size=draw(st.sampled_from([64, 256, 4096])),
                      constant_faults=draw(st.integers(0, 3)))
    return model, names


@given(case=cost_models(), data=st.data())
@settings(max_examples=200, deadline=None)
def test_touched_only_faults_match_full_layout(case, data):
    """Placing units only until every touched one has an offset costs the
    same as laying out everything, for any order — hot-first permutations
    and orders that interleave hot and cold units alike."""
    model, names = case
    hot = [event.unit for event in model.events]
    hot_first = sorted(names, key=lambda name: name not in hot)
    for order in (data.draw(st.permutations(names)), hot_first):
        assert model.faults(order) == _reference_faults(model, order)


def test_faults_reject_an_order_missing_a_touched_unit():
    model = CostModel(units={"a": PlaceableUnit("a", 10, 1),
                             "b": PlaceableUnit("b", 10, 1)},
                      events=(TouchEvent("b", ((0, 4),)),))
    with pytest.raises(KeyError):
        model.faults(["a"])


# ---------------------------------------------------------------------------
# end-to-end on a real workload (Queens)
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def queens_reference():
    """Shared reference build + profiles for the search-level tests."""
    pipeline = WorkloadPipeline(awfy_workload("Queens"))
    outcome = pipeline.profile(seed=0)
    reference = pipeline.build_optimized(outcome.profiles, None, seed=0)
    return pipeline, reference, outcome.profiles


def test_search_is_seed_deterministic(queens_reference):
    """Same OptimizeConfig => identical order and costs, call after call."""
    _pipeline, reference, bundle = queens_reference
    config = OptimizeConfig(budget=150)
    problem = code_problem(reference, bundle, config)
    first = search_order(problem, config)
    second = search_order(problem, config)
    assert first.order == second.order
    assert first.costs == second.costs
    assert first.best_name == second.best_name


def test_search_seed_changes_anneal_trajectory(queens_reference):
    """Different seeds may explore differently but never beat the gate:
    every result still contains the seed order as a candidate."""
    _pipeline, reference, bundle = queens_reference
    for seed in (1, 2, 99):
        config = OptimizeConfig(budget=100, seed=seed)
        problem = code_problem(reference, bundle, config)
        result = search_order(problem, config)
        assert result.best_cost <= result.seed_cost
        assert sorted(result.order) == sorted(problem.seed_order)


def test_synthesize_is_idempotent_and_pure(queens_reference):
    _pipeline, reference, bundle = queens_reference
    config = OptimizeConfig(budget=100)
    augmented = synthesize_optimizer_profiles(
        reference, bundle, ("code", "heap"), config)
    assert "cu-opt" not in bundle.code  # input bundle untouched
    assert "cu-opt" in augmented.code
    assert "heap-opt" in augmented.heap
    again = synthesize_optimizer_profiles(
        reference, augmented, ("code", "heap"), config)
    assert again.digest() == augmented.digest()


def test_problem_costs_match_built_binaries(queens_reference):
    """The virtual cost model's seed cost == simulated faults of the seed
    strategy's *built* binary, for both sections (model exactness)."""
    pipeline, reference, bundle = queens_reference
    config = OptimizeConfig(budget=100)
    from repro.image.sections import HEAP_SECTION, TEXT_SECTION

    code = code_problem(reference, bundle, config)
    cu_binary = pipeline.build_optimized(bundle, STRATEGY_CU, seed=0)
    assert code.model.faults(code.seed_order) == simulated_faults(
        cu_binary, bundle)[TEXT_SECTION]
    heap = heap_problem(reference, bundle, config)
    from repro.eval.pipeline import STRATEGY_HEAP_PATH

    heap_binary = pipeline.build_optimized(bundle, STRATEGY_HEAP_PATH, seed=0)
    assert heap.model.faults(heap.seed_order) == simulated_faults(
        heap_binary, bundle)[HEAP_SECTION]


def test_optimize_workload_never_worse_and_exact():
    """The PR-8 acceptance gate on one workload: never-worse, verified,
    differential-clean, and predicted == replayed for every section."""
    pipeline = WorkloadPipeline(
        awfy_workload("Queens"), optimize_config=OptimizeConfig(budget=150)
    )
    report = optimize_workload(pipeline)
    assert report.ok
    assert len(report.sections) == 2
    for section in report.sections:
        assert not section.skipped
        assert section.optimized_faults <= section.seed_faults
        assert section.predicted_faults == section.optimized_faults
        assert section.verified
        assert section.differential_ok
    # Queens' cold CU tails make the code search a strict win
    assert report.sections[0].improved


def test_optimize_workload_does_each_piece_of_work_once(tmp_path,
                                                       monkeypatch):
    """One search per section and one baseline run for both differential
    checks; the optimizer builds are the ones the pipeline derives on its
    own (its search path afterwards hits every cached image)."""
    calls = {"search": 0, "runs": 0}
    search, run = optimize_module.search_order, \
        differential_module.run_with_watchdog

    def counting_search(*args, **kwargs):
        calls["search"] += 1
        return search(*args, **kwargs)

    def counting_run(*args, **kwargs):
        calls["runs"] += 1
        return run(*args, **kwargs)

    monkeypatch.setattr(optimize_module, "search_order", counting_search)
    monkeypatch.setattr(differential_module, "run_with_watchdog",
                        counting_run)
    pipeline = WorkloadPipeline(
        awfy_workload("Bounce"), cache=ArtifactCache(tmp_path),
        optimize_config=OptimizeConfig(budget=50))
    report = optimize_workload(pipeline)
    assert report.ok
    assert calls == {"search": 2, "runs": 3}
    misses = pipeline.cache.stats.by_kind["image"][1]
    bundle = pipeline.profile().profiles
    for spec in (STRATEGY_CU_OPT, STRATEGY_HEAP_OPT):
        pipeline.build_optimized(bundle, spec)
    assert pipeline.cache.stats.by_kind["image"][1] == misses
    assert calls["search"] == 4


def test_same_seed_builds_byte_identical_layout():
    """Determinism guarantee: same search seed => same layout digest."""
    digests = []
    for _ in range(2):
        pipeline = WorkloadPipeline(
            awfy_workload("Queens"),
            optimize_config=OptimizeConfig(budget=120, seed=42),
        )
        outcome = pipeline.profile(seed=0)
        binary = pipeline.build_optimized(
            outcome.profiles, STRATEGY_CU_OPT, seed=0)
        digests.append(binary.layout_digest())
    assert digests[0] == digests[1]


def test_optimizer_strategies_flow_through_warm_cache(tmp_path):
    """cu-opt / heap-opt keep the warm 100%-hit-rate invariant: the
    augmented bundle is recomputed identically, so the second sweep of the
    same cell is served entirely from the cache."""
    from repro.cache import ArtifactCache

    for spec in (STRATEGY_CU_OPT, STRATEGY_HEAP_OPT):
        pipeline = WorkloadPipeline(
            awfy_workload("Queens"), cache=ArtifactCache(tmp_path / spec.name)
        )
        pipeline.run_strategy(spec, seed=3)
        warm = WorkloadPipeline(
            awfy_workload("Queens"), cache=ArtifactCache(tmp_path / spec.name)
        )
        cached = warm.cached_strategy_runs(spec, seed=3)
        assert cached is not None
        assert warm.cache.stats.misses == 0
        baseline_runs, optimized_runs = cached
        assert baseline_runs and optimized_runs


# ---------------------------------------------------------------------------
# satellite: the profiles.py doctest (pytest does not auto-collect doctests)
# ---------------------------------------------------------------------------


def test_profiles_doctests():
    results = doctest.testmod(profiles_module)
    assert results.attempted > 0
    assert results.failed == 0
