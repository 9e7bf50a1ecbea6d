"""Structured event tracer for per-reference lifecycle spans.

A :class:`~repro.obs.probe.Probe` that turns the simulator's events
into one span per lifecycle stage of a trace record (``record`` ->
``tlb_lookup`` / ``walk`` -> ``mmu_cache`` / ``pt_access`` -> ``dram``
-> ``replay`` / ``access``), each carrying its sim-time begin/end
(cycles) and a small tag dict (outcome, level, kind, ...).  Spans are
stored as plain tuples so the on-path cost is one list append;
everything presentation-related happens at export time.  Attach it as
``SystemSimulator(..., probe=tracer)``.

Export target is the Chrome trace-event format (the JSON-array flavour),
loadable in ``chrome://tracing`` or https://ui.perfetto.dev: cores map
to Chrome *threads*, sim-time cycles map 1:1 onto microseconds.
"""

from __future__ import annotations

import json
from typing import TYPE_CHECKING, Any, Dict, List, Optional, Tuple

from repro.obs.probe import Probe, TlbHit

if TYPE_CHECKING:
    from repro.cache.hierarchy import AccessResult
    from repro.sim.trace import TraceRecord

#: (name, cpu, begin, end, tags_or_None).
Span = Tuple[str, int, int, int, Optional[Dict[str, Any]]]


class EventTracer(Probe):
    """Records complete spans in sim time.

    *limit* bounds memory on long runs: once reached, further events are
    counted in :attr:`dropped` instead of stored (the Chrome export
    notes the drop count in its metadata).
    """

    __slots__ = ("events", "dropped", "_limit")

    #: Default cap: ~10 spans per record on a 100k-record run.
    DEFAULT_LIMIT = 1_000_000

    def __init__(self, limit: Optional[int] = DEFAULT_LIMIT) -> None:
        #: (name, cpu, begin, end, tags_or_None) tuples.
        self.events: List[Span] = []
        self.dropped = 0
        self._limit = limit

    def __len__(self) -> int:
        return len(self.events)

    def span(
        self,
        name: str,
        cpu: int,
        begin: int,
        end: int,
        tags: Optional[Dict[str, Any]] = None,
    ) -> None:
        """Record a complete span ``[begin, end]`` (cycles) on *cpu*."""
        if self._limit is not None and len(self.events) >= self._limit:
            self.dropped += 1
            return
        self.events.append((name, cpu, begin, end, tags))

    # ------------------------------------------------------------------
    # Probe events: demand references only, plus every walk level that
    # referenced memory (IMP prefetch walks included)
    # ------------------------------------------------------------------

    def on_tlb(self, cpu: int, start: int, hit: Optional[TlbHit], demand: bool) -> None:
        if demand:
            extra = 0 if hit is None else hit[2]
            outcome = "miss" if hit is None else "l2" if extra else "l1"
            self.span("tlb_lookup", cpu, start, start + 1 + extra, {"outcome": outcome})

    def on_mmu_step(self, cpu: int, start: int, end: int, level: int, demand: bool) -> None:
        if demand:
            self.span("mmu_cache", cpu, start, end, {"level": level})

    def on_pt_step(
        self,
        cpu: int,
        start: int,
        end: int,
        level: int,
        result: AccessResult,
        request: Any,
        demand: bool,
    ) -> None:
        if request is None:
            self.span("pt_access", cpu, start, end, {"level": level, "hit": result.hit_level})
            return
        self.span("pt_access", cpu, start, end, {"level": level, "hit": "dram"})
        tags = {"kind": "pt", "leaf": request.pt_leaf, "outcome": request.outcome}
        self.span("dram", cpu, start + result.latency, end, tags)

    def on_walk(
        self, cpu: int, start: int, end: int, plan: Any, leaf_request: Any, demand: bool
    ) -> None:
        if demand:
            tags = {
                "levels": len(plan.steps),
                "leaf_dram": leaf_request is not None,
                "page_size": plan.entry.page_size,
            }
            self.span("walk", cpu, start, end, tags)

    def on_dram(self, cpu: int, request: Any, start: int, finish: int, service: str) -> None:
        self.span("dram", cpu, start, finish, {"kind": "demand", "outcome": request.outcome})

    def on_ref(
        self,
        cpu: int,
        record: TraceRecord,
        arrival: int,
        begin: int,
        finish: int,
        walked: bool,
        service: str,
    ) -> None:
        self.span("replay" if walked else "access", cpu, begin, finish, {"service": service})
        tags = {"vaddr": "0x%x" % record.vaddr, "walked": walked, "write": record.is_write}
        self.span("record", cpu, arrival, finish, tags)

    # ------------------------------------------------------------------
    # Export
    # ------------------------------------------------------------------

    def chrome_trace(self) -> List[Dict[str, Any]]:
        """Return the events as a Chrome trace-event list.

        Spans become ``ph="X"`` events with ``ts``/``dur``.  One cycle
        is rendered as one microsecond so the timeline zoom feels
        natural.
        """
        out: List[Dict[str, Any]] = []
        for name, cpu, begin, end, tags in self.events:
            event: Dict[str, Any] = {
                "name": name,
                "pid": 0,
                "tid": cpu,
                "ts": begin,
                "ph": "X",
                "dur": max(0, end - begin),
            }
            if tags:
                event["args"] = dict(tags)
            out.append(event)
        if self.dropped:
            out.append(
                {
                    "name": "tracer_dropped_events",
                    "ph": "i",
                    "s": "g",
                    "pid": 0,
                    "tid": 0,
                    "ts": 0,
                    "args": {"dropped": self.dropped},
                }
            )
        return out

    def write_chrome_trace(self, path: str) -> int:
        """Write the Chrome-trace JSON array to *path*; returns the
        number of events written."""
        events = self.chrome_trace()
        with open(path, "w") as stream:
            json.dump(events, stream)
        return len(events)

    def __repr__(self) -> str:
        return "EventTracer(%d events, %d dropped)" % (len(self.events), self.dropped)
