"""Measurement discipline: host-speed probe, whole-pass op loops, percentiles.

Host time on a shared machine drifts: the same pure-Python loop can run
2x faster or slower within minutes.  Every timed region is therefore
bracketed by a fixed pure-Python probe, and reported as

    normalized = raw * (NOMINAL_PROBE_S / mean(probe before, probe after))

i.e. in seconds at the reference host's speed.  A uniform slowdown of the
host stretches the region and the probes alike and cancels.

A run never loops until a timer expires.  It executes a fixed number of
complete passes over a seeded op list, so every run of one workload and
seed computes its percentiles over the same set of ops.
"""

from __future__ import annotations

import gc
import math
import pickle
import statistics
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

#: Probe reading on the reference host (2-core x86-64 container, CPython
#: 3.11) when no co-tenant slows it, estimated from the low end of several
#: hundred readings taken while its speed drifted.  It only scales
#: reported times.
NOMINAL_PROBE_S = 0.020

#: ``op_tail_s`` is the highest percentile with at least this many ops
#: beyond it.
TAIL_BEYOND = 10


class _ProbeNode:
    __slots__ = ("key", "weight")

    def __init__(self, key: int, weight: int) -> None:
        self.key = key
        self.weight = weight

    def score(self, factor: int) -> int:
        return (self.weight * factor + self.key) & 0xFFFF


class _ProbeRecord:
    def __init__(self, index: int) -> None:
        self.name = f"unit{index}"
        self.edges = [index, index + 1, (index * 31) & 1023]
        self.meta = {"size": index, "tag": str(index)}


class ProbeWork:
    """Fixed pure-Python work shaped like the simulator's op mix.

    Three parts, each a few milliseconds on the reference host:

    * an interpreter-like loop (method calls, attribute reads, dict
      get/set, list append, small-int arithmetic), like the MiniJava
      interpreter and the layout passes;
    * unpickling an object graph, like artifact-cache reads;
    * scattered reads over a table of several MB, so contention for the
      shared caches slows the probe as it slows the ops.

    A co-tenant that contends for the core alone slows the first part;
    one that thrashes the last-level cache slows the other two more.
    Mixing them keeps the probe's slowdown close to the ops' slowdown.
    """

    LOOPS = 16_000
    RECORDS = 6_000
    TABLE = 1 << 16
    READS = 1 << 14

    def __init__(self) -> None:
        self._payload = pickle.dumps(
            [_ProbeRecord(i) for i in range(self.RECORDS)],
            protocol=pickle.HIGHEST_PROTOCOL)
        self._table = [(i, i * 3) for i in range(self.TABLE)]
        self._order = [(i * 40503) % self.TABLE for i in range(self.READS)]

    def __call__(self) -> int:
        """Run the work once; returns a checksum so nothing is skipped."""
        table: Dict[int, int] = {}
        nodes: List[_ProbeNode] = []
        acc = 0
        for index in range(self.LOOPS):
            key = index & 127
            node = _ProbeNode(key, index)
            nodes.append(node)
            table[key] = table.get(key, 0) + node.score(3)
            if len(nodes) > 64:
                acc ^= sum(n.weight for n in nodes[-4:])
                nodes.clear()
            acc = (acc + table[key]) & 0xFFFFFFFF
        acc += len(pickle.loads(self._payload))
        rows = self._table
        for position in self._order:
            acc += rows[position][1]
        return acc


class HostSpeed:
    """Reads host speed as the wall time of a fixed :class:`ProbeWork`.

    ``clock`` and ``work`` are injectable so a test can drive a fake clock.
    """

    def __init__(self, nominal_s: float = NOMINAL_PROBE_S,
                 clock: Callable[[], float] = time.perf_counter,
                 work: Optional[Callable[[], Any]] = None) -> None:
        self.nominal_s = nominal_s
        self.clock = clock
        self.work = work if work is not None else ProbeWork()

    def read(self) -> float:
        """Probe wall time, with the cyclic garbage collector held off.

        The probe allocates; right after an op, whose result is still
        alive, an allocation-triggered full collection would walk the
        op's whole object graph and time the heap instead of the host.
        """
        enabled = gc.isenabled()
        gc.disable()
        try:
            start = self.clock()
            self.work()
            return self.clock() - start
        finally:
            if enabled:
                gc.enable()


@dataclass
class Timing:
    """One timed region with the probe readings beside it."""

    raw_s: float
    probe_before_s: float
    probe_after_s: float
    nominal_s: float

    @property
    def factor(self) -> float:
        """Multiplier from raw host seconds to reference-host seconds."""
        return self.nominal_s / ((self.probe_before_s + self.probe_after_s) / 2)

    @property
    def normalized_s(self) -> float:
        return self.raw_s * self.factor

    def as_dict(self) -> Dict[str, float]:
        return {"raw_s": self.raw_s, "probe_before_s": self.probe_before_s,
                "probe_after_s": self.probe_after_s,
                "normalized_s": self.normalized_s}


def timed(fn: Callable[[], Any], speed: HostSpeed) -> Tuple[Any, Timing]:
    """Run ``fn`` between two probe readings; return (result, timing)."""
    before = speed.read()
    start = speed.clock()
    result = fn()
    raw = speed.clock() - start
    after = speed.read()
    return result, Timing(raw, before, after, speed.nominal_s)


def tail_percentile(values: Sequence[float],
                    beyond: int = TAIL_BEYOND) -> Tuple[int, float]:
    """The highest whole percentile with at least ``beyond`` values above it.

    Nearest-rank definition: percentile ``P`` of ``n`` sorted values is the
    value at rank ``ceil(P * n / 100)``; ``n - rank`` values lie beyond it.
    Returns ``(P, value)``.  Needs more than ``beyond`` values.
    """
    n = len(values)
    if n <= beyond:
        raise ValueError(f"need more than {beyond} values for a tail "
                         f"percentile, got {n}")
    ordered = sorted(values)
    pct = (100 * (n - beyond)) // n
    rank = math.ceil(pct * n / 100)
    return pct, ordered[rank - 1]


@dataclass
class OpRecord:
    """One executed op: what it was, its timing, and its verdict."""

    pass_index: int
    label: str
    timing: Timing
    failures: List[str] = field(default_factory=list)
    exact: Optional[Dict[str, float]] = None
    layers: Optional[Dict[str, float]] = None

    def as_dict(self) -> Dict[str, Any]:
        entry: Dict[str, Any] = {"pass": self.pass_index, "op": self.label}
        entry.update(self.timing.as_dict())
        if self.failures:
            entry["failures"] = list(self.failures)
        if self.exact is not None:
            entry["exact"] = dict(self.exact)
        if self.layers is not None:
            entry["layers"] = dict(self.layers)
        return entry


def run_passes(ops: Sequence[Any], passes: int, label: Callable[[Any], str],
               run_op: Callable[[Any], Any],
               finish_op: Callable[[Any, Any, OpRecord], None],
               speed: HostSpeed,
               around_op: Optional[Callable[[Callable[[], Any]],
                                            Callable[[], Any]]] = None
               ) -> List[OpRecord]:
    """Execute ``passes`` complete passes over ``ops``.

    Between ops, outside the timed region: ``gc.collect()`` before the op,
    and ``finish_op(op, result, record)`` after it, which checks the
    result and may fill ``record.failures`` / ``record.exact``.
    ``around_op`` wraps the timed callable (the traced run uses it to
    scope layer recording to the op).
    """
    records: List[OpRecord] = []
    for pass_index in range(passes):
        for op in ops:
            gc.collect()
            call = (lambda op=op: run_op(op))
            if around_op is not None:
                call = around_op(call)
            result, timing = timed(call, speed)
            record = OpRecord(pass_index=pass_index, label=label(op),
                              timing=timing)
            finish_op(op, result, record)
            del result
            records.append(record)
    return records


def summarize_times(normalized: Sequence[float]) -> Dict[str, Any]:
    """p50, the tail percentile, and throughput over normalized op times."""
    pct, tail = tail_percentile(normalized)
    return {
        "op_p50_s": statistics.median(normalized),
        "op_tail_s": tail,
        "tail_percentile": pct,
        "ops_per_s": len(normalized) / sum(normalized),
    }


def passes_for(seconds: float, ops_per_pass: int, nominal_op_s: float,
               min_ops: int) -> int:
    """Whole passes that fill ``seconds`` at reference speed (>= ``min_ops``)."""
    by_time = round(seconds / (ops_per_pass * nominal_op_s))
    by_count = -(-min_ops // ops_per_pass)
    return max(1, by_time, by_count)
