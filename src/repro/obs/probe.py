"""The instrumentation seam: one nullable probe per simulator.

``SystemSimulator(..., probe=probe)`` holds one :class:`Probe` or None.
Every emission site in the simulator tests ``probe is None`` once and,
when a probe is attached, calls the method named after the event.  The
base class's methods are no-ops, so a probe overrides only the events
it consumes; :class:`CompositeProbe` fans each event out to several.

The tracer (:class:`~repro.obs.tracer.EventTracer`), the timeline
(:class:`~repro.obs.timeline.TimelineRecorder`), the flight recorder and
the invariant audit (:mod:`repro.verify`) are all probes.  Events carry
sim-time cycles; ``demand`` is False for work an IMP prefetch does
outside any reference.  The event table is in docs/observability.md.

Probes observe and never steer: nothing a probe does may change the
machine's state, so ``result.stats`` is bit-identical with any probe
attached or none.
"""

from typing import TYPE_CHECKING, Any, Callable, Dict, Iterable, List, Optional, Tuple

if TYPE_CHECKING:
    from repro.cache.hierarchy import AccessResult
    from repro.sim.trace import TraceRecord

#: What :meth:`TlbHierarchy.lookup` returns on a hit:
#: ``(frame_base, page_size, extra_latency)``.
TlbHit = Tuple[int, int, int]


class Probe:
    """No-op observer of every simulator event (see module docstring).

    *machine* is the live :class:`~repro.sim.system.SystemSimulator`;
    *request* a :class:`~repro.sched.request.MemoryRequest`; *plan* a
    :class:`~repro.mmu.walker.WalkPlan`.
    """

    __slots__ = ()

    def on_start(self, machine: Any) -> None:
        """The run begins; the machine is fully built."""

    def on_tlb(self, cpu: int, start: int, hit: Optional[TlbHit], demand: bool) -> None:
        """A TLB lookup at *start*; *hit* is None on a miss.  A demand
        lookup opens a reference."""

    def on_mmu_step(self, cpu: int, start: int, end: int, level: int, demand: bool) -> None:
        """A walk level served by the MMU cache over [start, end)."""

    def on_pt_step(
        self,
        cpu: int,
        start: int,
        end: int,
        level: int,
        result: "AccessResult",
        request: Any,
        demand: bool,
    ) -> None:
        """A walk level that referenced memory: the cache probe at
        *start* gave *result*; *request* is the DRAM request that served
        the miss, or None.  Emitted once the entry arrives at *end*."""

    def on_walk(
        self, cpu: int, start: int, end: int, plan: Any, leaf_request: Any, demand: bool
    ) -> None:
        """A page walk finished and filled the TLB; *leaf_request* is
        the leaf PTE's DRAM request, or None when a cache served it."""

    def on_cache(
        self, cpu: int, begin: int, start: int, result: "AccessResult", demand: bool
    ) -> None:
        """A data-line probe of the cache hierarchy at *start*, after
        waiting from *begin* for an in-flight IMP prefetch of the line."""

    def on_overlap(self, cpu: int, start: int, result: "AccessResult") -> None:
        """A replay's probe at *start* hit a line a timely TEMPO
        prefetch had already placed in the LLC."""

    def on_dram(self, cpu: int, request: Any, start: int, finish: int, service: str) -> None:
        """DRAM served a reference's data access between *start* and
        *finish*; *service* is how (``dram``, ``row_buffer``, ``unaided``)."""

    def on_prefetch(self, cpu: int, start: int, end: int) -> None:
        """An IMP prefetch occupied the prefetch path over [start, end)."""

    def on_ref(
        self,
        cpu: int,
        record: "TraceRecord",
        arrival: int,
        begin: int,
        finish: int,
        walked: bool,
        service: str,
    ) -> None:
        """A reference retired at *finish*: it arrived at the TLB at
        *arrival*, its post-translation access began at *begin* and was
        served by *service* (a cache level, ``llc_prefetch`` or a DRAM
        service)."""

    def on_tick(self, machine: Any, time: int) -> None:
        """A record retired on a core whose clock reads *time*."""

    def on_finish(self, machine: Any, cycles: int) -> None:
        """The controller drained; the run took *cycles*."""

    def on_error(self, context: Dict[str, Any]) -> None:
        """A ReproError escapes the run; *context* becomes its crash
        report."""

    def on_service(self, channel: int, request: Any, start: int, end: int) -> None:
        """The memory controller serviced *request* on *channel*: its
        bank was busy over [start, end).  Covers every request kind."""


class CompositeProbe(Probe):
    """Fans every event out to *probes*, in order."""

    __slots__ = ("probes",)

    def __init__(self, probes: Iterable[Probe]) -> None:
        self.probes: List[Probe] = list(probes)


def _fan_out(event: str) -> Callable[..., None]:
    def fan_out(self: CompositeProbe, *args: Any) -> None:
        for probe in self.probes:
            getattr(probe, event)(*args)

    fan_out.__name__ = event
    fan_out.__qualname__ = "CompositeProbe." + event
    return fan_out


for _event in [name for name in vars(Probe) if name.startswith("on_")]:
    setattr(CompositeProbe, _event, _fan_out(_event))
