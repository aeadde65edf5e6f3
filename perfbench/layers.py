"""Per-layer self time and counts, from wrappers installed around layer APIs.

The traced run wraps the public functions at each layer boundary of the
simulator (frontend, graal, image builder, ordering, runtime, profiling,
post-processing, validation, PGO, artifact cache).  A wrapper records the
call's wall time; a layer's *self* time is that duration minus the time of
wrapped calls made inside it, so the self times of one op, plus what no
wrapper saw (``harness.unaccounted_s``), add up to the op's time.

Recording happens only inside :meth:`LayerTracer.op_scope`, so checks the
benchmark runs between ops never count.  :meth:`LayerTracer.uninstall`
restores every original; :func:`assert_unwrapped` proves that no wrapper
is left before untraced runs measure anything.
"""

from __future__ import annotations

import functools
import sys
import time
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Tuple

#: self-time metrics, in the order reports list them
TIME_METRICS = (
    "minijava.compile_s", "minijava.parse_s",
    "graal.analyze_s", "graal.inline_s",
    "image.build_s", "image.static_init_s", "image.snapshot_s",
    "ordering.ids_s", "ordering.order_s", "ordering.search_s",
    "runtime.run_s", "profiling.trace_s", "postproc.build_profiles_s",
    "validation.verify_s", "validation.differential_s",
    "pgo.replay_s", "pgo.drift_s", "pgo.merge_s",
    "cache.get_s", "cache.put_s",
)

#: count metrics reported per op
COUNT_METRICS = (
    "image.builds", "ordering.objects", "ordering.search_calls",
    "ordering.cost_evals", "runtime.runs", "vm.ops",
    "profiling.trace_bytes", "validation.rollbacks",
    "cache.gets", "cache.bytes_read", "cache.puts", "cache.bytes_written",
)

#: every per-layer metric the traced run reports -> its unit
UNITS = {
    **{name: "s" for name in TIME_METRICS},
    **{name: "count" for name in COUNT_METRICS},
    "profiling.trace_bytes": "bytes",
    "cache.bytes_read": "bytes",
    "cache.bytes_written": "bytes",
    "minijava.kb_per_s": "KiB/s",
    "ordering.cost_evals_per_s": "1/s",
    "vm.mops_per_s": "Mops/s",
    "cache.hit_ratio": "ratio",
    "harness.unaccounted_s": "s",
    "harness.trace_overhead": "ratio",
}

#: counts kept only to derive ratios
_AUX_COUNTS = ("minijava.bytes", "cache.hits")

Counter = Callable[[tuple, dict, Any, Any], Dict[str, float]]


@dataclass(frozen=True)
class Target:
    """One wrapped callable: ``module`` + dotted ``name`` inside it."""

    module: str
    name: str
    #: metric that receives the call's self time (or a function of the
    #: call's arguments returning it)
    layer: Any
    count: Optional[Counter] = None
    #: called before the wrapped call; its value reaches ``count``
    before: Optional[Callable[[tuple, dict], Any]] = None


def _arg(args: tuple, kwargs: dict, index: int, name: str,
         default: Any = None) -> Any:
    if len(args) > index:
        return args[index]
    return kwargs.get(name, default)


def _is_profiling(args: tuple, kwargs: dict) -> bool:
    from repro.profiling.tracer import PathTracer
    return isinstance(_arg(args, kwargs, 2, "tracer"), PathTracer)


def _run_layer(args: tuple, kwargs: dict) -> str:
    return "profiling.trace_s" if _is_profiling(args, kwargs) else "runtime.run_s"


def _run_counts(args, kwargs, result, _pre) -> Dict[str, float]:
    if _is_profiling(args, kwargs):
        session = _arg(args, kwargs, 2, "tracer").session
        return {"profiling.trace_bytes": session.total_stats().bytes_written}
    return {"runtime.runs": 1, "vm.ops": result.ops}


def _entry_size(args: tuple) -> int:
    # The store's own file layout: stat the entry instead of re-pickling
    # the value to learn its size.
    cache, kind, key = args[:3]
    try:
        return cache._entry_path(kind, key).stat().st_size
    except OSError:
        return 0


def _cache_get_before(args, kwargs) -> bool:
    # An in-memory memo hit reads no bytes from disk.
    cache, kind, key = args[:3]
    return (kind, key) in cache._memo


def _cache_get_counts(args, kwargs, result, memo_hit) -> Dict[str, float]:
    if result is None:
        return {"cache.gets": 1}
    counts = {"cache.gets": 1, "cache.hits": 1}
    if not memo_hit:
        counts["cache.bytes_read"] = _entry_size(args)
    return counts


def _cache_put_counts(args, kwargs, result, _pre) -> Dict[str, float]:
    if not result:
        return {}
    return {"cache.puts": 1, "cache.bytes_written": _entry_size(args)}


def _objects(args, kwargs, result, _pre) -> Dict[str, float]:
    return {"ordering.objects": len(args[0].objects)}


def _once(metric: str) -> Counter:
    return lambda args, kwargs, result, pre: {metric: 1}


TARGETS: Tuple[Target, ...] = (
    Target("repro.minijava.frontend", "compile_source", "minijava.compile_s",
           lambda a, k, r, p: {"minijava.bytes": len(_arg(a, k, 0, "source"))}),
    Target("repro.minijava.parser", "parse", "minijava.parse_s"),
    Target("repro.graal.reachability", "analyze", "graal.analyze_s"),
    Target("repro.graal.inliner", "form_compilation_units", "graal.inline_s"),
    Target("repro.image.builder", "NativeImageBuilder.build", "image.build_s",
           _once("image.builds")),
    Target("repro.image.heap", "BuildTimeInitializer.run",
           "image.static_init_s"),
    Target("repro.image.heap", "HeapSnapshotter.snapshot", "image.snapshot_s"),
    Target("repro.ordering.ids", "assign_incremental_ids", "ordering.ids_s",
           _objects),
    Target("repro.ordering.ids", "assign_structural_hashes", "ordering.ids_s",
           _objects),
    Target("repro.ordering.ids", "assign_heap_path_hashes", "ordering.ids_s",
           _objects),
    Target("repro.ordering.code_order", "order_compilation_units",
           "ordering.order_s"),
    Target("repro.ordering.heap_order", "match_and_order", "ordering.order_s"),
    Target("repro.ordering.optimize", "search_order", "ordering.search_s",
           _once("ordering.search_calls")),
    Target("repro.ordering.optimize", "CostModel.faults", "ordering.search_s",
           _once("ordering.cost_evals")),
    Target("repro.runtime.executor", "run_binary", _run_layer, _run_counts),
    Target("repro.postproc.framework", "build_profiles",
           "postproc.build_profiles_s"),
    Target("repro.validation.invariants", "verify_layout",
           "validation.verify_s"),
    Target("repro.validation.differential", "run_differential",
           "validation.differential_s"),
    Target("repro.validation.quarantine", "QuarantineRegistry.quarantine",
           "validation.verify_s", _once("validation.rollbacks")),
    Target("repro.pgo.drift", "replay_faults", "pgo.replay_s"),
    Target("repro.pgo.drift", "expected_faults", "pgo.replay_s"),
    Target("repro.pgo.drift", "detect_drift", "pgo.drift_s"),
    Target("repro.pgo.merge", "merge_mix", "pgo.merge_s"),
    Target("repro.cache.store", "ArtifactCache.get", "cache.get_s",
           _cache_get_counts, _cache_get_before),
    Target("repro.cache.store", "ArtifactCache.put", "cache.put_s",
           _cache_put_counts),
)


def _resolve(target: Target) -> Tuple[Any, str, Any]:
    """(owner object, attribute name, original callable) of a target."""
    owner: Any = sys.modules.get(target.module)
    if owner is None:
        __import__(target.module)
        owner = sys.modules[target.module]
    *path, attr = target.name.split(".")
    for part in path:
        owner = getattr(owner, part)
    return owner, attr, owner.__dict__[attr]


def _repro_modules() -> List[Any]:
    return [module for name, module in list(sys.modules.items())
            if module is not None
            and (name == "repro" or name.startswith("repro."))]


class LayerTracer:
    """Installs the wrappers and accumulates one op's layer costs."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter,
                 targets: Tuple[Target, ...] = TARGETS) -> None:
        self.clock = clock
        self.targets = targets
        self.active = False
        self._stack: List[List[float]] = []
        self._op: Dict[str, float] = {}
        #: (owner, attribute, original) for every patched binding
        self._patched: List[Tuple[Any, str, Any]] = []

    # -- installation ---------------------------------------------------------

    def install(self) -> None:
        """Wrap every target wherever a ``repro`` module binds it."""
        if self._patched:
            raise RuntimeError("layer wrappers are already installed")
        for target in self.targets:
            owner, attr, original = _resolve(target)
            wrapper = self._wrap(original, target)
            self._patched.append((owner, attr, original))
            setattr(owner, attr, wrapper)
            if isinstance(owner, type):
                continue
            for module in _repro_modules():
                for name, value in list(vars(module).items()):
                    if value is original:
                        self._patched.append((module, name, original))
                        setattr(module, name, wrapper)

    def uninstall(self) -> None:
        """Restore every original binding, also in modules imported since."""
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()
        for module in _repro_modules():
            for name, value in list(vars(module).items()):
                if getattr(value, "__perfbench_wrapper__", False):
                    setattr(module, name, value.__wrapped__)
        self.active = False

    # -- recording ------------------------------------------------------------

    def _wrap(self, original: Callable, target: Target) -> Callable:
        tracer = self
        layer = target.layer
        count = target.count
        before = target.before

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            if not tracer.active:
                return original(*args, **kwargs)
            pre = before(args, kwargs) if before is not None else None
            frame = [tracer.clock(), 0.0]
            tracer._stack.append(frame)
            try:
                result = original(*args, **kwargs)
            finally:
                duration = tracer.clock() - frame[0]
                tracer._stack.pop()
                if tracer._stack:
                    tracer._stack[-1][1] += duration
                key = layer(args, kwargs) if callable(layer) else layer
                tracer._add(key, duration - frame[1])
            if count is not None:
                for name, value in count(args, kwargs, result, pre).items():
                    tracer._add(name, value)
            return result

        wrapper.__perfbench_wrapper__ = True
        return wrapper

    def _add(self, name: str, value: float) -> None:
        self._op[name] = self._op.get(name, 0.0) + value

    def op_scope(self, fn: Callable[[], Any]) -> Callable[[], Any]:
        """``fn`` with recording switched on for exactly its duration."""
        def scoped():
            self._op = {}
            self._stack.clear()
            self.active = True
            try:
                return fn()
            finally:
                self.active = False
        return scoped

    def take(self) -> Dict[str, float]:
        """The last op's raw self times and counts (every metric present)."""
        op = {name: 0.0 for name in TIME_METRICS + COUNT_METRICS + _AUX_COUNTS}
        op.update(self._op)
        self._op = {}
        return op


def assert_unwrapped() -> None:
    """Raise if any ``repro`` module or class still binds a layer wrapper."""
    for module in _repro_modules():
        for name, value in list(vars(module).items()):
            if getattr(value, "__perfbench_wrapper__", False):
                raise RuntimeError(f"layer wrapper left on "
                                   f"{module.__name__}.{name}")
            if isinstance(value, type):
                for attr, member in list(vars(value).items()):
                    if getattr(member, "__perfbench_wrapper__", False):
                        raise RuntimeError(
                            f"layer wrapper left on {module.__name__}."
                            f"{name}.{attr}")


def summarize(ops: List[Dict[str, float]], op_times: List[float],
              traced_p50: float, untraced_p50: float) -> Dict[str, float]:
    """Per-op layer metrics of a traced pass.

    ``ops`` holds each op's self times and counts already scaled to
    reference host speed; ``op_times`` the matching normalized op times.
    """
    n = len(ops)
    total = {name: sum(op[name] for op in ops)
             for name in TIME_METRICS + COUNT_METRICS + _AUX_COUNTS}
    out = {name: total[name] / n for name in TIME_METRICS + COUNT_METRICS}
    frontend_s = total["minijava.compile_s"] + total["minijava.parse_s"]
    out["minijava.kb_per_s"] = _ratio(total["minijava.bytes"] / 1024.0,
                                      frontend_s)
    out["ordering.cost_evals_per_s"] = _ratio(total["ordering.cost_evals"],
                                              total["ordering.search_s"])
    out["vm.mops_per_s"] = _ratio(total["vm.ops"] / 1e6,
                                  total["runtime.run_s"])
    out["cache.hit_ratio"] = _ratio(total["cache.hits"], total["cache.gets"])
    accounted = sum(total[name] for name in TIME_METRICS)
    out["harness.unaccounted_s"] = (sum(op_times) - accounted) / n
    out["harness.trace_overhead"] = traced_p50 / untraced_p50
    return out


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator > 0 else 0.0


def layer_shares(metrics: Dict[str, float]) -> Dict[str, float]:
    """Each self-time metric's share of the mean traced op time."""
    op_s = sum(metrics[name] for name in TIME_METRICS)
    op_s += metrics["harness.unaccounted_s"]
    return {name: _ratio(metrics[name], op_s)
            for name in TIME_METRICS + ("harness.unaccounted_s",)}
