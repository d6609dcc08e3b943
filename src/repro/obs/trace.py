"""Structured, causal tracing of simulated events.

Counters (:mod:`repro.machine.stats`) answer *how many*; this module
answers *which, when, and because of what*.  A :class:`TraceBuffer` is
a bounded ring of :class:`TraceEvent` records — task lifecycle,
message send/receive, RPC round trips, region state transitions, lock
and barrier epochs, application phases — each stamped with the
simulated cycle, the node it happened on, and a **causal parent id**
linking effects to the event that produced them (a receive points at
its send, an RPC return at its call).  Exporters
(:mod:`repro.obs.export`) turn the ring into JSONL or a
Chrome/Perfetto ``trace_event`` file.

Zero cost when off
------------------
Tracing follows the same construction-time-resolution discipline as
:func:`~repro.machine.stats.intern_key`: every layer decides **once,
at engine/kernel construction**, whether it is traced.  Hot paths hold
a pre-bound :class:`Tracer` handle (or ``None``) in a slot, so the
disabled path costs a single local load and branch — no string
formatting, no dict probe, no call.  The machine's message paths
(:class:`~repro.machine.machine.Machine` ``_deliver`` / ``rpc`` /
``reply`` and friends) follow the same rule: one method each, one
branch on the handle.
``tools/bench.py --baseline`` and the golden-trace tests enforce that
simulated cycles are bit-identical with tracing off *and* on — the
trace is pure observation and never perturbs scheduling.

Latency metrics ride on the same buffer: :meth:`TraceBuffer.hist`
returns power-of-two-bucketed :class:`Histogram` objects that the
machine (RPC round trips) and lock service (hold times) feed while
traced.
"""

from __future__ import annotations

from collections import Counter, deque
from typing import NamedTuple


class TraceEvent(NamedTuple):
    """One simulated event.

    ``parent`` is the id of the event that caused this one (``-1`` for
    roots): a ``msg.recv`` parents to its ``msg.send``, a ``msg.send``
    issued inside an RPC parents to the ``rpc.call``, an ``rpc.return``
    parents to its ``rpc.call``.  ``node`` is ``-1`` when the event is
    not tied to one node (kernel bookkeeping, global barrier release).
    ``data`` is a small dict, a string, or ``None``.
    """

    eid: int
    ts: int
    layer: str
    kind: str
    node: int
    parent: int
    data: object


class Histogram:
    """Power-of-two bucketed histogram of non-negative integers.

    Buckets are ``value.bit_length()`` (bucket *b* spans
    ``[2^(b-1), 2^b - 1]``; bucket 0 holds exact zeros), so a cycle
    latency needs one integer op to classify and percentiles come back
    as bucket upper bounds — approximate, but monotone and stable,
    which is what regression-hunting needs.
    """

    __slots__ = ("count", "total", "min", "max", "buckets")

    def __init__(self):
        self.count = 0
        self.total = 0
        self.min: int | None = None
        self.max = 0
        self.buckets: Counter = Counter()

    def add(self, value: int) -> None:
        self.count += 1
        self.total += value
        if self.min is None or value < self.min:
            self.min = value
        if value > self.max:
            self.max = value
        self.buckets[value.bit_length()] += 1

    def merge(self, other: "Histogram") -> "Histogram":
        """Fold ``other`` into this histogram in place; returns ``self``.

        Bucket counts add, so every percentile of the merged histogram
        equals the percentile of a single histogram fed both streams —
        exactly, because :meth:`add` classifies by value alone.  Used
        by :func:`repro.obs.export.run_summary` to aggregate per-node
        RPC latency histograms cluster-wide.
        """
        self.count += other.count
        self.total += other.total
        if other.min is not None and (self.min is None or other.min < self.min):
            self.min = other.min
        if other.max > self.max:
            self.max = other.max
        self.buckets.update(other.buckets)
        return self

    def copy(self) -> "Histogram":
        """An independent duplicate (merge target that leaves the source intact)."""
        h = Histogram()
        h.count = self.count
        h.total = self.total
        h.min = self.min
        h.max = self.max
        h.buckets = Counter(self.buckets)
        return h

    def percentile(self, p: float) -> int:
        """Upper bound of the bucket containing the ``p``-quantile,
        clamped to the observed maximum."""
        if self.count == 0:
            return 0
        need = p * self.count
        seen = 0
        for b in sorted(self.buckets):
            seen += self.buckets[b]
            if seen >= need:
                return min((1 << b) - 1, self.max) if b else 0
        return self.max  # pragma: no cover - need <= count always lands above

    def summary(self) -> dict:
        """JSON-friendly digest (mean exact; percentiles bucketed)."""
        return {
            "count": self.count,
            "total": self.total,
            "mean": round(self.total / self.count, 1) if self.count else 0,
            "min": self.min or 0,
            "max": self.max,
            "p50": self.percentile(0.50),
            "p90": self.percentile(0.90),
            "p99": self.percentile(0.99),
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Histogram(count={self.count}, total={self.total})"


class Tracer:
    """A per-layer emit handle bound to one :class:`TraceBuffer`.

    Layers hold exactly one of these (or ``None``) and call
    :meth:`emit`; the layer name is curried in so hot traced paths
    pass only what varies per event.
    """

    __slots__ = ("layer", "_emit")

    def __init__(self, buf: "TraceBuffer", layer: str):
        self.layer = layer
        self._emit = buf.emit

    def emit(self, ts: int, kind: str, node: int = -1, parent: int = -1, data=None) -> int:
        """Record one event; returns its id (for use as a later parent)."""
        return self._emit(ts, self.layer, kind, node, parent, data)


class TraceBuffer:
    """Bounded ring of trace events plus named latency histograms.

    The ring keeps the most recent ``capacity`` events; ``dropped``
    counts evictions so exporters can say "first N events lost" instead
    of silently truncating.  Event ids keep increasing across drops —
    causal parents of surviving events may therefore reference evicted
    ids, which exporters treat as unknown roots.
    """

    def __init__(self, capacity: int = 1 << 16, metrics=None):
        if capacity <= 0:
            raise ValueError(f"capacity must be positive: {capacity}")
        self.capacity = capacity
        self.dropped = 0
        self._events: deque = deque(maxlen=capacity)
        self._next_id = 0
        self.hists: dict[str, Histogram] = {}
        # Optional windowed-metrics sink (repro.obs.metrics.MetricsWindow).
        # Fed inline at emit time, so it sees every event even after the
        # ring has evicted it — a tiny ring plus metrics gives a full-run
        # series in bounded memory.  When None, emit() stays the
        # original two-branch append (the common case selects the plain
        # emit body once, at construction).
        self.metrics = metrics
        if metrics is not None:
            self.emit = self._emit_metered  # type: ignore[method-assign]
        # Current dispatch context: the event id heading the kernel
        # dispatch executing right now (a task.step or a msg.recv) and
        # its timestamp.  The kernel and machine publish it; traced
        # sends read it as their causal parent.  ctx_ts guards against
        # staleness — a context is only valid at its own cycle.
        self.ctx_eid = -1
        self.ctx_ts = -1

    # -- recording ------------------------------------------------------
    def emit(self, ts: int, layer: str, kind: str, node: int = -1, parent: int = -1, data=None) -> int:
        """Append an event; returns its id."""
        eid = self._next_id
        self._next_id = eid + 1
        q = self._events
        if len(q) == self.capacity:
            self.dropped += 1
        q.append(TraceEvent(eid, ts, layer, kind, node, parent, data))
        return eid

    def _emit_metered(self, ts: int, layer: str, kind: str, node: int = -1, parent: int = -1, data=None) -> int:
        """emit() variant installed when a MetricsWindow is attached."""
        eid = self._next_id
        self._next_id = eid + 1
        q = self._events
        if len(q) == self.capacity:
            self.dropped += 1
        q.append(TraceEvent(eid, ts, layer, kind, node, parent, data))
        self.metrics.observe(ts, kind, data)
        return eid

    def tracer(self, layer: str) -> Tracer:
        """A per-layer emit handle (build once, at layer construction)."""
        return Tracer(self, layer)

    def hist(self, name: str) -> Histogram:
        """The named histogram, created on first use."""
        h = self.hists.get(name)
        if h is None:
            h = self.hists[name] = Histogram()
        return h

    # -- reading --------------------------------------------------------
    def events(self) -> list[TraceEvent]:
        """Snapshot of the surviving events, oldest first."""
        return list(self._events)

    def __len__(self) -> int:
        return len(self._events)

    def clear(self) -> None:
        """Drop all events and histograms (ids keep increasing)."""
        self._events.clear()
        self.dropped = 0
        self.hists.clear()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"TraceBuffer({len(self._events)}/{self.capacity} events, "
            f"{self.dropped} dropped, {len(self.hists)} hists)"
        )
