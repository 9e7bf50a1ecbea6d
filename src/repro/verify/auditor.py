"""Online invariant auditors over the live machine.

Each auditor inspects one subsystem of a running
:class:`~repro.sim.system.SystemSimulator` and yields
:class:`Violation` records for anything that cannot happen in a correct
model.  The invariants exploit *redundant* accounting: every quantity is
checked against an independently maintained second source (a counter
against a structure occupancy, a cached translation against the live
page table, a prefetch count against the leaf-PTE fetch count), so a
single dropped increment or corrupted entry is visible.

Auditors are read-only by contract: they use
:meth:`~repro.common.stats.StatGroup.peek` (never ``counter()``, which
would materialise zero-valued counters in the stats export) and
non-updating structure probes, so an audited run's statistics are
bit-identical to an unaudited one.

Some equations only hold when no record is mid-flight (a walk that has
been planned but not completed, a blocked core's queued request): those
are gated on the *quiescent* flag, true for single-core record
boundaries and for the final post-drain checkpoint.
"""

from __future__ import annotations

from typing import Any, Dict, Iterator, List, Optional

from repro.common.errors import InvariantViolation
from repro.obs.probe import Probe
from repro.verify.recorder import FlightRecorder

#: Row-buffer outcomes a serviced request can see (repro.dram.bank).
_DRAM_OUTCOMES = ("hit", "miss", "conflict")

#: Request kinds the controller schedules (repro.sched.request).
_REQUEST_KINDS = ("demand", "pt", "tempo_prefetch", "imp_prefetch", "writeback")

#: Checkpoint every N records in ``full`` mode.
FULL_INTERVAL = 256
#: Checkpoint every N records in ``sample`` mode.
SAMPLE_INTERVAL = 4096


class Violation:
    """One failed invariant: which auditor, which check, and the
    machine state that disproves it."""

    __slots__ = ("auditor", "invariant", "message", "context")

    def __init__(
        self,
        auditor: str,
        invariant: str,
        message: str,
        context: Optional[Dict[str, Any]] = None,
    ) -> None:
        self.auditor = auditor
        self.invariant = invariant
        self.message = message
        self.context: Dict[str, Any] = dict(context) if context else {}

    def as_dict(self) -> Dict[str, Any]:
        return {
            "auditor": self.auditor,
            "invariant": self.invariant,
            "message": self.message,
            "context": self.context,
        }

    def to_error(self) -> InvariantViolation:
        return InvariantViolation(
            self.auditor, self.invariant, self.message, self.context
        )

    def __repr__(self) -> str:
        return "Violation(%s/%s: %s)" % (self.auditor, self.invariant, self.message)


class InvariantAuditor:
    """Base class: one subsystem's invariants.

    Subclasses set :attr:`name` and implement :meth:`audit`, yielding a
    :class:`Violation` per failed check.  ``machine`` is a live
    :class:`~repro.sim.system.SystemSimulator`.
    """

    name = "auditor"

    def audit(self, machine: Any, quiescent: bool = False) -> Iterator[Violation]:
        raise NotImplementedError

    def _violation(
        self,
        invariant: str,
        message: str,
        context: Optional[Dict[str, Any]] = None,
    ) -> Violation:
        return Violation(self.name, invariant, message, context)


class StatConservationAuditor(InvariantAuditor):
    """Counters agree with their independently maintained doubles.

    * TLB: per-array hit counters sum to the hierarchy's ``l1_hits`` /
      ``l2_hits`` (each hierarchy hit increments exactly one array).
    * Caches: ``dirty_evictions <= evictions``.
    * Controller: for every request kind, ``served`` equals the sum of
      its per-outcome counters, and ``enqueued`` equals ``served`` plus
      requests still queued (plus late-cancelled TEMPO prefetches).
    * DRAM: the shared bank group's ``hit+miss+conflict`` equals total
      served requests (every service classifies exactly one outcome).
    * Walker (quiescent only): ``walks == completed + faulting``.
    """

    name = "stat_conservation"

    def audit(self, machine: Any, quiescent: bool = False) -> Iterator[Violation]:
        for core in machine.cores:
            tlb = core.tlb
            for level, arrays in (("l1", tlb._l1), ("l2", tlb._l2)):
                array_hits = sum(
                    array.stats.peek("hits") for array in arrays.values()
                )
                hierarchy_hits = tlb.stats.peek("%s_hits" % level)
                if array_hits != hierarchy_hits:
                    yield self._violation(
                        "tlb_%s_hit_sum" % level,
                        "per-array %s hits sum to %d but hierarchy counted %d"
                        % (level, array_hits, hierarchy_hits),
                        {"core": core.cpu},
                    )
            if quiescent:
                walker = core.walker.stats
                walks = walker.peek("walks")
                accounted = walker.peek("completed_walks") + walker.peek(
                    "faulting_walks"
                )
                if walks != accounted:
                    yield self._violation(
                        "walker_completion",
                        "%d walks planned but %d completed or faulted"
                        % (walks, accounted),
                        {"core": core.cpu},
                    )

        for cache in self._caches(machine):
            evictions = cache.stats.peek("evictions")
            dirty = cache.stats.peek("dirty_evictions")
            if dirty > evictions:
                yield self._violation(
                    "dirty_eviction_bound",
                    "%s: %d dirty evictions exceed %d total evictions"
                    % (cache.name, dirty, evictions),
                    {"cache": cache.name},
                )

        controller = machine.controller
        stats = controller.stats
        queued: Dict[str, int] = {}
        for request in controller.queued_requests():
            queued[request.kind] = queued.get(request.kind, 0) + 1
        total_served = 0
        for kind in _REQUEST_KINDS:
            served = stats.peek("served_%s" % kind)
            total_served += served
            outcome_sum = sum(
                stats.peek("outcome_%s_%s" % (kind, outcome))
                for outcome in _DRAM_OUTCOMES
            )
            if served != outcome_sum:
                yield self._violation(
                    "served_outcome_sum",
                    "%s: served %d but outcomes sum to %d"
                    % (kind, served, outcome_sum),
                    {"kind": kind},
                )
            enqueued = stats.peek("enqueued_%s" % kind)
            accounted = served + queued.get(kind, 0)
            if kind == "tempo_prefetch":
                accounted += stats.peek("prefetch_cancelled_late")
            if enqueued != accounted:
                yield self._violation(
                    "queue_accounting",
                    "%s: enqueued %d but served+queued%s account for %d"
                    % (
                        kind,
                        enqueued,
                        "+cancelled" if kind == "tempo_prefetch" else "",
                        accounted,
                    ),
                    {"kind": kind, "queued": queued.get(kind, 0)},
                )

        bank_stats = controller.device.stats.peek_child("bank")
        bank_total = sum(bank_stats.peek(outcome) for outcome in _DRAM_OUTCOMES)
        if bank_total != total_served:
            yield self._violation(
                "bank_outcome_total",
                "banks classified %d accesses but controller served %d"
                % (bank_total, total_served),
            )

    @staticmethod
    def _caches(machine: Any) -> Iterator[Any]:
        hierarchy = machine.hierarchy
        for cache in hierarchy.l1:
            yield cache
        for cache in hierarchy.l2:
            yield cache
        yield hierarchy.llc


class TlbCoherenceAuditor(InvariantAuditor):
    """Every cached translation re-validates against the live page
    table: the VPN must map to a present leaf entry of the array's page
    size whose frame matches the cached frame base (paper Sec. 2.1 --
    the TLB is a pure cache of the table, never an independent source)."""

    name = "tlb_coherence"

    def audit(self, machine: Any, quiescent: bool = False) -> Iterator[Violation]:
        for core in machine.cores:
            page_table = core.address_space.page_table
            tlb = core.tlb
            arrays = list(tlb._l1.values()) + list(tlb._l2.values())
            for array in arrays:
                for entries in array._sets:
                    for vpn, frame in entries.items():
                        vaddr = vpn << array._page_shift
                        result = page_table.walk(vaddr)
                        entry = result.entry
                        if result.faulted or entry is None:
                            yield self._violation(
                                "stale_translation",
                                "%s caches 0x%x -> 0x%x but the page table "
                                "has no mapping"
                                % (array.stats.name, vaddr, frame),
                                {"core": core.cpu, "vaddr": vaddr, "frame": frame},
                            )
                            continue
                        if (
                            entry.frame_paddr != frame
                            or entry.page_size != array.page_size
                        ):
                            yield self._violation(
                                "frame_mismatch",
                                "%s caches 0x%x -> 0x%x (%d B) but the page "
                                "table maps it to 0x%x (%d B)"
                                % (
                                    array.stats.name,
                                    vaddr,
                                    frame,
                                    array.page_size,
                                    entry.frame_paddr,
                                    entry.page_size,
                                ),
                                {"core": core.cpu, "vaddr": vaddr, "frame": frame},
                            )


class CacheSanityAuditor(InvariantAuditor):
    """Structural cache-state legality.

    * every line sits in the set its index selects (a "duplicate line"
      bug puts the same line id in two sets -- set-index consistency is
      the dict-based model's equivalent of the duplicate check);
    * no set exceeds its associativity;
    * occupancy is exactly ``fills + prefetch_fills - evictions`` (a
      cache level only ever drops a line by evicting it).
    """

    name = "cache_sanity"

    def audit(self, machine: Any, quiescent: bool = False) -> Iterator[Violation]:
        for cache in StatConservationAuditor._caches(machine):
            seen: Dict[int, int] = {}
            for index, entries in enumerate(cache._sets):
                if len(entries) > cache.assoc:
                    yield self._violation(
                        "set_overflow",
                        "%s set %d holds %d lines (associativity %d)"
                        % (cache.name, index, len(entries), cache.assoc),
                        {"cache": cache.name, "set": index},
                    )
                for line_id in entries:
                    home = line_id & cache._set_mask
                    if home != index:
                        yield self._violation(
                            "misplaced_line",
                            "%s: line 0x%x found in set %d but indexes to "
                            "set %d" % (cache.name, line_id, index, home),
                            {"cache": cache.name, "line_id": line_id},
                        )
                    if line_id in seen:
                        yield self._violation(
                            "duplicate_line",
                            "%s: line 0x%x present in sets %d and %d"
                            % (cache.name, line_id, seen[line_id], index),
                            {"cache": cache.name, "line_id": line_id},
                        )
                    seen[line_id] = index
            stats = cache.stats
            expected = stats.peek("fills") + stats.peek("prefetch_fills") - stats.peek("evictions")
            if cache.occupancy != expected:
                yield self._violation(
                    "occupancy_accounting",
                    "%s holds %d lines but fill/eviction counters "
                    "predict %d" % (cache.name, cache.occupancy, expected),
                    {"cache": cache.name, "occupancy": cache.occupancy},
                )


class DramLegalityAuditor(InvariantAuditor):
    """Bank/channel timing state never moves backwards.

    Stateful across checkpoints: remembers each bank's ``ready_at`` /
    ``next_refresh_at`` and each channel clock, and flags any rewind or
    non-integer drift (a float leaking into cycle arithmetic would
    silently break determinism long before it breaks results).
    """

    name = "dram_legality"

    def __init__(self) -> None:
        self._bank_marks: Dict[int, Any] = {}
        self._clock_marks: Dict[int, int] = {}

    def audit(self, machine: Any, quiescent: bool = False) -> Iterator[Violation]:
        controller = machine.controller
        for bank in controller.device.banks:
            context = {"bank": bank.bank_id}
            for field in ("ready_at", "reserved_until"):
                value = getattr(bank, field)
                if not isinstance(value, int):
                    yield self._violation(
                        "integer_cycles",
                        "bank %d %s is %r, not an integer cycle count"
                        % (bank.bank_id, field, value),
                        context,
                    )
            if bank.open_row is not None and (
                not isinstance(bank.open_row, int) or bank.open_row < 0
            ):
                yield self._violation(
                    "open_row_state",
                    "bank %d open_row is %r" % (bank.bank_id, bank.open_row),
                    context,
                )
            marks = self._bank_marks.get(bank.bank_id)
            if marks is not None:
                last_ready, last_refresh = marks
                if isinstance(bank.ready_at, int) and bank.ready_at < last_ready:
                    yield self._violation(
                        "ready_at_monotonic",
                        "bank %d ready_at rewound from %d to %d"
                        % (bank.bank_id, last_ready, bank.ready_at),
                        context,
                    )
                if (
                    bank.next_refresh_at is not None
                    and last_refresh is not None
                    and bank.next_refresh_at < last_refresh
                ):
                    yield self._violation(
                        "refresh_monotonic",
                        "bank %d next_refresh_at rewound from %d to %d"
                        % (bank.bank_id, last_refresh, bank.next_refresh_at),
                        context,
                    )
            self._bank_marks[bank.bank_id] = (bank.ready_at, bank.next_refresh_at)
        for channel, clock in enumerate(controller._clock):
            if not isinstance(clock, int):
                yield self._violation(
                    "integer_cycles",
                    "channel %d clock is %r, not an integer" % (channel, clock),
                    {"channel": channel},
                )
                continue
            last = self._clock_marks.get(channel)
            if last is not None and clock < last:
                yield self._violation(
                    "channel_clock_monotonic",
                    "channel %d clock rewound from %d to %d"
                    % (channel, last, clock),
                    {"channel": channel},
                )
            self._clock_marks[channel] = clock


class TempoCausalityAuditor(InvariantAuditor):
    """TEMPO's structural claim (paper Secs. 3-4): every prefetch traces
    to exactly one serviced leaf-PTE DRAM access, and none is ever built
    through a non-present translation.

    * with the engine active: ``prefetches_built + suppressed_not_present
      == served_pt_leaf`` (each serviced leaf fetch makes exactly one
      build-or-suppress decision), every accepted prefetch entered
      through the engine hook, and queue accounting closes;
    * queued prefetch targets are cache-line aligned and inside physical
      memory (the engine is non-speculative, Sec. 3);
    * with TEMPO off: zero tempo prefetches anywhere, and the walker
      never tagged a leaf request.
    """

    name = "tempo_causality"

    def audit(self, machine: Any, quiescent: bool = False) -> Iterator[Violation]:
        controller = machine.controller
        stats = controller.stats
        engine = machine.engine
        enqueued = stats.peek("enqueued_tempo_prefetch")
        served = stats.peek("served_tempo_prefetch")
        if engine is None or not engine.active:
            hook_accepted = stats.peek("tempo_prefetches_enqueued")
            if enqueued or served or hook_accepted:
                yield self._violation(
                    "prefetch_without_engine",
                    "tempo prefetches recorded (enqueued=%d served=%d "
                    "hook=%d) with the prefetch engine %s"
                    % (
                        enqueued,
                        served,
                        hook_accepted,
                        "absent" if engine is None else "inactive",
                    ),
                )
            if engine is None:
                for core in machine.cores:
                    tagged = core.walker.stats.peek("tagged_leaf_requests")
                    if tagged:
                        yield self._violation(
                            "tagging_without_engine",
                            "core %d tagged %d leaf requests with TEMPO off"
                            % (core.cpu, tagged),
                            {"core": core.cpu},
                        )
            return

        built = engine.stats.peek("prefetches_built")
        suppressed = engine.stats.peek("suppressed_not_present")
        served_leaf = stats.peek("served_pt_leaf")
        if built + suppressed != served_leaf:
            yield self._violation(
                "leaf_prefetch_bijection",
                "%d prefetches built + %d suppressed != %d serviced "
                "leaf-PTE fetches" % (built, suppressed, served_leaf),
            )
        hook_accepted = stats.peek("tempo_prefetches_enqueued")
        if enqueued != hook_accepted:
            yield self._violation(
                "prefetch_provenance",
                "%d tempo prefetches entered the queues but only %d came "
                "through the engine hook" % (enqueued, hook_accepted),
            )
        if enqueued > built:
            yield self._violation(
                "enqueue_bound",
                "%d tempo prefetches enqueued but the engine only built %d"
                % (enqueued, built),
            )
        queued = 0
        line_bytes = machine.config.llc.line_bytes
        phys_bytes = machine.allocator.phys_mem_bytes
        for request in controller.queued_requests():
            if request.kind != "tempo_prefetch":
                continue
            queued += 1
            if request.paddr % line_bytes:
                yield self._violation(
                    "prefetch_alignment",
                    "queued tempo prefetch 0x%x is not line-aligned"
                    % request.paddr,
                    {"paddr": request.paddr},
                )
            if not 0 <= request.paddr < phys_bytes:
                yield self._violation(
                    "prefetch_target_bounds",
                    "queued tempo prefetch 0x%x is outside physical "
                    "memory (%d bytes)" % (request.paddr, phys_bytes),
                    {"paddr": request.paddr},
                )
        cancelled = stats.peek("prefetch_cancelled_late")
        if enqueued != served + cancelled + queued:
            yield self._violation(
                "prefetch_accounting",
                "enqueued %d != served %d + cancelled %d + queued %d"
                % (enqueued, served, cancelled, queued),
            )


def default_auditors() -> List[InvariantAuditor]:
    return [
        StatConservationAuditor(),
        TlbCoherenceAuditor(),
        CacheSanityAuditor(),
        DramLegalityAuditor(),
        TempoCausalityAuditor(),
    ]


class AuditorSuite(Probe):
    """Drives the auditors at a record-count cadence.

    A :class:`~repro.obs.probe.Probe`: ``full`` checkpoints every
    :data:`FULL_INTERVAL` retired records, ``sample`` every
    :data:`SAMPLE_INTERVAL`; both run a final quiescent checkpoint after
    the controller drains and then put :meth:`summary` on the run
    manifest.  The first violation found raises
    :class:`~repro.common.errors.InvariantViolation` with the flight
    recorder's dump attached under ``context["flight_recorder"]``.
    """

    def __init__(
        self,
        mode: str,
        recorder: Optional[FlightRecorder] = None,
        auditors: Optional[List[InvariantAuditor]] = None,
        interval: Optional[int] = None,
        quiescent_ticks: bool = True,
    ) -> None:
        if mode not in ("sample", "full"):
            raise InvariantViolation(
                "suite",
                "mode",
                "unknown check-invariants mode %r" % (mode,),
                context={"mode": mode, "known": ["sample", "full"]},
            )
        self.mode = mode
        self.recorder = recorder
        self.auditors = auditors if auditors is not None else default_auditors()
        if interval is None:
            interval = FULL_INTERVAL if mode == "full" else SAMPLE_INTERVAL
        self.interval = interval
        #: Whether per-record ticks happen at globally quiescent points
        #: (true single-core; false while other cores are mid-record).
        self.quiescent_ticks = quiescent_ticks
        self.ticks = 0
        self.checkpoints = 0
        self.violations_found = 0
        self._since_checkpoint = 0

    def on_tick(self, machine: Any, time: int) -> None:
        """One record retired; checkpoint when the interval elapses."""
        self.ticks += 1
        self._since_checkpoint += 1
        if self._since_checkpoint >= self.interval:
            self.checkpoint(machine, quiescent=self.quiescent_ticks)

    def on_finish(self, machine: Any, cycles: int) -> None:
        self.checkpoint(machine, quiescent=True)
        machine.manifest.audit = self.summary()

    def checkpoint(self, machine: Any, quiescent: bool = False) -> None:
        """Run every auditor; raise on the first violation."""
        self._since_checkpoint = 0
        self.checkpoints += 1
        for auditor in self.auditors:
            for violation in auditor.audit(machine, quiescent=quiescent):
                self.violations_found += 1
                error = violation.to_error()
                if self.recorder is not None:
                    error.context["flight_recorder"] = self.recorder.dump()
                raise error

    def audit_all(self, machine: Any, quiescent: bool = True) -> List[Violation]:
        """Non-raising sweep of every auditor (tests, post-mortems)."""
        found: List[Violation] = []
        for auditor in self.auditors:
            found.extend(auditor.audit(machine, quiescent=quiescent))
        self.violations_found += len(found)
        return found

    def summary(self) -> Dict[str, Any]:
        info: Dict[str, Any] = {
            "mode": self.mode,
            "interval": self.interval,
            "ticks": self.ticks,
            "checkpoints": self.checkpoints,
            "violations": self.violations_found,
            "auditors": [auditor.name for auditor in self.auditors],
        }
        if self.recorder is not None:
            info["flight_recorder"] = {
                "capacity": self.recorder.capacity,
                "recorded": self.recorder.recorded,
                "dropped": self.recorder.dropped,
            }
        return info
