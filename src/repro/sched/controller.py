"""The memory controller: transaction queues, scheduling, DRAM access,
and TEMPO's prefetch triggering (paper Figure 7).

Timing model (DESIGN.md Sec. 5): per-channel clocks plus per-bank
``ready_at`` serialization.  A request's service start is::

    start = max(channel_clock, bank.ready_at, request.not_before)

The channel's command/data bus is occupied for ``bus_cycles`` per
request, so requests to *different* banks of one channel can overlap
their array access with each other's bus transfer -- a first-order model
of bank-level parallelism.  Completion as seen by the core adds the
fixed ``controller_overhead_cycles`` (queue entry/exit + on-chip
network).

Each channel's transaction queue has two parts: a list of demands,
page-table requests and prefetches, and a store of writebacks.  The
scheduler is offered the writebacks only when nothing in the list is
eligible, so writebacks go last.  ``enqueue`` decodes each request's
DRAM coordinates once and stores them on it; picks, reservations and
the access itself read them from there.

The store groups a channel's writebacks by (cpu, bank, ``not_before``),
everything a policy reads of a request but its row-hit status and age.
A group keeps its requests oldest first and indexes them by row-buffer
key (``Bank.buffer_key``).  A pick that reaches the writebacks offers
the scheduler, from each group, its oldest request and the oldest on
each key open in its bank (``Bank.open_keys``).  Every policy prefers
among such requests by row hit, then age (see :mod:`~repro.sched.
schedulers`), so the request it would take from all the writebacks is
among those offered: a pick costs time in proportion to the groups and
open keys, not to the backlog.

Most of the time a channel holds one request, and the controller skips
the queue work for it.  A ``submit_and_wait`` request that finds both
parts of its channel's queue empty is served on arrival: ``enqueue``
still sees it, and if the scheduler's ``pick_lone`` takes it at the
channel clock it goes straight to service.  Otherwise it waits in the
queue as usual.  Whenever a list offered to the scheduler holds one
request, the pick goes through ``pick_lone`` instead of the policy's
scan.  Either way the choice, the timing and every counter are those of
``pick``.

One rule, :meth:`MemoryController._earliest_available`, says when a
channel can next serve: each request's ``not_before``, pushed to the end
of a grace period its bank holds against its cpu; it gives both the
multicore driver's decision time and the clock jump after a refused
pick.  A pick that still refuses at that time means the rule and the
scheduler disagree, and the controller raises :class:`~repro.common.
errors.SimulationError` there instead of spinning on the channel.

TEMPO hooks, all active only when a :class:`~repro.core.prefetch_engine.
PrefetchEngine` is installed:

* tagged leaf-PT requests occupy two TxQ slots and, once serviced,
  trigger the engine to enqueue the replay-data prefetch (not
  schedulable until the anticipation window passes);
* serviced prefetches record a :class:`PrefetchOutcome` the system
  simulator uses to decide whether the replay enjoys an LLC hit, a
  row-buffer hit, or neither;
* after a prefetch, the bank is soft-reserved for the triggering CPU for
  the grace period (paper Sec. 4.3, Figure 16 right);
* when the transaction queue is full, incoming prefetches are dropped
  (the paper's "pathological cases" in Figure 11 left).
"""

import bisect

from repro.common.errors import SimulationError
from repro.common.stats import StatGroup
from repro.dram.bank import OUTCOME_CONFLICT, OUTCOME_HIT, OUTCOME_MISS, DramDevice
from repro.dram.subrow import SubRowSet
from repro.sched.request import (
    ALL_KINDS,
    KIND_PT,
    KIND_TEMPO_PREFETCH,
    KIND_WRITEBACK,
    MemoryRequest,
)
from repro.sched.schedulers import make_scheduler


class PrefetchOutcome:
    """What TEMPO managed to do for one walk's replay."""

    __slots__ = ("paddr", "row_ready_at", "llc_ready_at", "dropped")

    def __init__(self, paddr, row_ready_at=None, llc_ready_at=None, dropped=False):
        self.paddr = paddr
        self.row_ready_at = row_ready_at
        self.llc_ready_at = llc_ready_at
        self.dropped = dropped

    def __repr__(self):
        if self.dropped:
            return "PrefetchOutcome(dropped)"
        return "PrefetchOutcome(0x%x, row@%s, llc@%s)" % (
            self.paddr,
            self.row_ready_at,
            self.llc_ready_at,
        )


class _SchedulerContext:
    """Predicates the scheduler evaluates against live bank state, keyed
    by the coordinates ``enqueue`` decoded onto each request.  The
    controller keeps one and moves its ``now`` before each pick."""

    __slots__ = ("_banks", "now")

    def __init__(self, banks, now):
        self._banks = banks
        self.now = now

    def row_hit(self, request):
        bank = self._banks[request.bank_index]
        return bank.classify(request.row, self.now, request.row_offset) == OUTCOME_HIT

    def reserved_against(self, request):
        return self._banks[request.bank_index].reserved_against(request.cpu, self.now)


class _WritebackGroup:
    """One channel's queued writebacks of one (cpu, bank, ``not_before``).
    Entries are ``(enqueue_time, req_id, request)``, so sorting them is
    sorting by age: ``entries`` holds them all oldest first and
    ``by_key`` the same entries per row-buffer key."""

    __slots__ = ("entries", "by_key")

    def __init__(self):
        self.entries = []
        self.by_key = {}


class MemoryController:
    """See module docstring."""

    def __init__(self, system_config, energy_model=None, prefetch_engine=None):
        config = system_config
        self.config = config
        tempo_on = config.tempo.enabled and prefetch_engine is not None
        bank_factory = None
        if config.dram.subrows.enabled:
            bank_factory = SubRowSet(config.dram, config.num_cores)
        self.device = DramDevice(config.dram, config.row_policy, bank_factory)
        self.scheduler = make_scheduler(
            config.scheduler, tempo_enabled=tempo_on and config.tempo.txq_grouping
        )
        self.engine = prefetch_engine
        self.energy = energy_model
        self._banks_per_channel = config.dram.banks_per_channel
        self._bus_cycles = config.dram.bus_cycles
        self._overhead = config.dram.controller_overhead_cycles
        self._capacity = config.dram.txq_capacity
        self._banks = self.device.banks
        channels = config.dram.channels
        #: Per channel, the two parts of the module docstring: a list,
        #: and a dict of :class:`_WritebackGroup` by (cpu, bank_index,
        #: not_before) that holds no empty group.
        self._queues = [[] for _ in range(channels)]
        self._writebacks = [{} for _ in range(channels)]
        self._writeback_counts = [0] * channels
        #: TxQ slots held by each channel's queued requests (both parts).
        self._slots_used = [0] * channels
        self._clock = [0] * channels
        self._outcomes = {}
        self._context = _SchedulerContext(self._banks, 0)
        self.stats = StatGroup("controller")
        # Per-kind handles: no string formatting or lookup per request.
        stats = self.stats
        self._enqueued_counters = {
            kind: stats.counter_handle("enqueued_%s" % kind) for kind in ALL_KINDS
        }
        self._served_counters = {
            kind: stats.counter_handle("served_%s" % kind) for kind in ALL_KINDS
        }
        self._outcome_counters = {
            (kind, outcome): stats.counter_handle("outcome_%s_%s" % (kind, outcome))
            for kind in ALL_KINDS
            for outcome in (OUTCOME_HIT, OUTCOME_MISS, OUTCOME_CONFLICT)
        }
        self._latency_hists = {
            kind: stats.histogram_handle("latency_%s" % kind) for kind in ALL_KINDS
        }
        self._served_pt_leaf = stats.counter("served_pt_leaf")
        self._prefetch_dropped = stats.counter_handle("prefetch_dropped_txq_full")
        self._prefetch_cancelled = stats.counter_handle("prefetch_cancelled_late")
        self._tempo_prefetches_enqueued = stats.counter_handle("tempo_prefetches_enqueued")
        #: Nullable :class:`repro.obs.Probe`; :meth:`_service` reports
        #: every serviced request to it (channel, bank and TEMPO-engine
        #: occupancy).  The system simulator installs its own probe.
        self.probe = None

    # ------------------------------------------------------------------
    # Submission API (used by the system simulator)
    # ------------------------------------------------------------------

    def enqueue(self, request):
        """Decode *request*'s DRAM coordinates onto it and place it in its
        channel's transaction queue.

        Returns False when a prefetch was dropped for lack of TxQ space
        (demand/PT/writeback requests are always accepted -- the sources
        throttle themselves by blocking).
        """
        location = self.device.address_map.decode(request.paddr)
        channel = location.channel
        request.channel = channel
        request.bank_index = channel * self._banks_per_channel + location.bank
        request.row = location.row
        request.row_offset = location.row_offset
        slots = request.slots()
        if request.is_prefetch and self._slots_used[channel] + slots > self._capacity:
            self._prefetch_dropped.value += 1
            if request.kind == KIND_TEMPO_PREFETCH:
                self._outcomes[request.origin_pt_id] = PrefetchOutcome(
                    request.paddr, dropped=True
                )
            return False
        if request.kind == KIND_WRITEBACK:
            self._add_writeback(request)
        else:
            self._queues[channel].append(request)
        self._slots_used[channel] += slots
        self._enqueued_counters[request.kind].value += 1
        return True

    def _add_writeback(self, request):
        groups = self._writebacks[request.channel]
        group_key = (request.cpu, request.bank_index, request.not_before)
        group = groups.get(group_key)
        if group is None:
            group = groups[group_key] = _WritebackGroup()
        entry = (request.enqueue_time, request.req_id, request)
        bisect.insort(group.entries, entry)
        key = self._banks[request.bank_index].buffer_key(request.row, request.row_offset)
        bisect.insort(group.by_key.setdefault(key, []), entry)
        self._writeback_counts[request.channel] += 1

    def _remove_writeback(self, request):
        groups = self._writebacks[request.channel]
        group_key = (request.cpu, request.bank_index, request.not_before)
        group = groups[group_key]
        entry = (request.enqueue_time, request.req_id, request)
        key = self._banks[request.bank_index].buffer_key(request.row, request.row_offset)
        for entries in (group.entries, group.by_key[key]):
            del entries[bisect.bisect_left(entries, entry)]
        if not group.by_key[key]:
            del group.by_key[key]
        if not group.entries:
            del groups[group_key]
        self._writeback_counts[request.channel] -= 1

    def submit_and_wait(self, request, now):
        """Blocking demand path: enqueue, then serve on arrival when the
        request is alone on its channel and eligible, else drain until
        serviced.

        Returns the completion time as seen by the core (service end +
        controller/NoC overhead), or ``None`` when a prefetch-kind
        request was dropped at enqueue for lack of TxQ space.
        """
        if not self.enqueue(request):
            return None
        channel = request.channel
        if self._clock[channel] < now:
            self._clock[channel] = now
        now = self._clock[channel]
        queue = self._queues[channel]
        if len(queue) + self._writeback_counts[channel] == 1:
            # Alone on an idle channel: serve it on arrival when the
            # scheduler takes it now (what _service_next would do).
            context = self._context
            context.now = now
            if self.scheduler.pick_lone(request, now, context) is not None:
                if queue:
                    queue.pop()
                else:
                    self._remove_writeback(request)
                self._slots_used[channel] -= request.slots()
                self._service(channel, request)
                return request.finish_time
        while request.finish_time is None:
            self._service_next(channel)
        return request.finish_time

    def submit_async(self, request, now):
        """Fire-and-forget path (prefetches, writebacks).  The channel
        clock advances to *now* even when a prefetch is dropped."""
        accepted = self.enqueue(request)
        channel = request.channel
        if self._clock[channel] < now:
            self._clock[channel] = now
        return accepted

    def submit_writeback(self, paddr, cpu, now):
        request = MemoryRequest(
            paddr, KIND_WRITEBACK, cpu=cpu, is_write=True, enqueue_time=now
        )
        self.submit_async(request, now)
        return request

    def advance_to(self, time):
        """Service everything that can start before *time* (lets queued
        prefetches land within the slack window before a replay)."""
        for channel in range(len(self._queues)):
            self._drain_channel_until(channel, time)

    def drain_all(self):
        """Service every queued request (end-of-simulation cleanup).

        Returns the latest channel clock afterwards.
        """
        for channel in range(len(self._queues)):
            while self.has_pending(channel):
                self._service_next(channel)
        return max(self._clock)

    # ------------------------------------------------------------------
    # Event-driven interface (multicore driver)
    # ------------------------------------------------------------------

    @property
    def num_channels(self):
        return len(self._queues)

    def has_pending(self, channel):
        return bool(self._queues[channel] or self._writebacks[channel])

    def next_decision_time(self, channel):
        """Earliest time *channel* could service its next request, or
        ``None`` when its queue is empty.  The event-driven multicore
        driver services channels in decision-time order so cross-core
        causality holds."""
        if not (self._queues[channel] or self._writebacks[channel]):
            return None
        return self._earliest_available(channel, self._clock[channel])

    def service_one(self, channel):
        """Service exactly one request on *channel* (public wrapper)."""
        return self._service_next(channel)

    # ------------------------------------------------------------------
    # TEMPO bookkeeping
    # ------------------------------------------------------------------

    def take_prefetch_outcome(self, pt_req_id):
        """Pop the PrefetchOutcome recorded for a tagged PT request."""
        return self._outcomes.pop(pt_req_id, None)

    def cancel_prefetch(self, pt_req_id):
        """Remove a still-queued prefetch whose replay already went to
        DRAM on its own (late prefetch, now useless)."""
        for channel, queue in enumerate(self._queues):
            for position, request in enumerate(queue):
                if (
                    request.kind == KIND_TEMPO_PREFETCH
                    and request.origin_pt_id == pt_req_id
                ):
                    del queue[position]
                    self._slots_used[channel] -= request.slots()
                    self._prefetch_cancelled.value += 1
                    return True
        return False

    # ------------------------------------------------------------------
    # Service loop
    # ------------------------------------------------------------------

    def _drain_channel_until(self, channel, time):
        queue = self._queues[channel]
        groups = self._writebacks[channel]
        while (queue or groups) and self._clock[channel] < time:
            # A request is due before *time* when its not_before is; the
            # horizon does not look at grace reservations (ROADMAP item
            # 2's defect).
            earliest = time
            for request in queue:
                if request.not_before < earliest:
                    earliest = request.not_before
            for _, _, not_before in groups:
                if not_before < earliest:
                    earliest = not_before
            if earliest >= time:
                return
            self._service_next(channel)

    def _pick(self, channel, now):
        """The scheduler's choice at *now*, or None when nothing is
        eligible.  Writebacks are offered only when no other request is,
        so each ``pick`` sees the channel's list or writebacks alone; a
        list of one goes to ``pick_lone``."""
        context = self._context
        context.now = now
        scheduler = self.scheduler
        queue = self._queues[channel]
        request = None
        if len(queue) == 1:
            request = scheduler.pick_lone(queue[0], now, context)
        elif queue:
            request = scheduler.pick(queue, now, context)
        groups = self._writebacks[channel]
        if request is None and groups:
            offer = self._writeback_offer(groups, now)
            if len(offer) == 1:
                request = scheduler.pick_lone(offer[0], now, context)
            else:
                request = scheduler.pick(offer, now, context)
        return request

    def _writeback_offer(self, groups, now):
        """From each group, its oldest writeback and the oldest on each
        row-buffer key open in its bank at *now*: the writebacks a
        policy could take first (module docstring)."""
        banks = self._banks
        offer = []
        for (_, bank_index, _), group in groups.items():
            oldest = group.entries[0]
            offer.append(oldest[2])
            by_key = group.by_key
            for key in banks[bank_index].open_keys(now):
                line = by_key.get(key)
                if line is not None and line[0] is not oldest:
                    offer.append(line[0][2])
        return offer

    def _service_next(self, channel):
        """Schedule and service exactly one request on *channel*; None
        when its queue is empty."""
        queue = self._queues[channel]
        if not (queue or self._writebacks[channel]):
            return None
        now = self._clock[channel]
        request = self._pick(channel, now)
        if request is None:
            # Nothing eligible yet: jump to the earliest availability,
            # where the pick takes something (grace reservations always
            # expire).
            now = self._clock[channel] = self._earliest_available(channel, now)
            request = self._pick(channel, now)
            if request is None:
                raise self._refused_at_availability(channel, now)
        if request.kind == KIND_WRITEBACK:
            self._remove_writeback(request)
        else:
            queue.remove(request)
        self._slots_used[channel] -= request.slots()
        return self._service(channel, request)

    def _earliest_available(self, channel, now):
        """The earliest time from *now* on when a request queued on
        *channel* is schedulable: its ``not_before``, pushed to the end
        of a grace period its bank holds against its cpu then.  The
        channel must not be empty.  A writeback group's oldest stands
        for the group: they share cpu, bank and ``not_before``."""
        requests = self._queues[channel]
        groups = self._writebacks[channel]
        if groups:
            requests = requests + [group.entries[0][2] for group in groups.values()]
        banks = self._banks
        earliest = None
        for request in requests:
            available = request.not_before
            if available < now:
                available = now
            bank = banks[request.bank_index]
            if bank.reserved_against(request.cpu, available):
                available = bank.reserved_until
            if earliest is None or available < earliest:
                if available == now:
                    return now
                earliest = available
        return earliest

    def _refused_at_availability(self, channel, now):
        """The error for a pick that refuses every request on *channel*
        at the earliest availability *now*: looping would hang."""
        banks = self._banks
        queued = [
            {
                "req_id": request.req_id,
                "kind": request.kind,
                "cpu": request.cpu,
                "bank": request.bank_index,
                "not_before": request.not_before,
                "reserved_cpu": banks[request.bank_index].reserved_cpu,
                "reserved_until": banks[request.bank_index].reserved_until,
            }
            for request in self.queued_requests()
            if request.channel == channel
        ]
        return SimulationError(
            "the scheduler took nothing on channel %d at its earliest "
            "availability, cycle %d" % (channel, now),
            context={"channel": channel, "clock": now, "queued": queued},
        )

    def _service(self, channel, request):
        keep_open_extra = None
        latency_override = None
        if self.engine is not None and self.engine.active:
            if request.kind == KIND_PT and request.tempo_tagged:
                keep_open_extra = self.engine.config.wait_cycles
            elif request.kind == KIND_TEMPO_PREFETCH:
                # The row prefetch is a bare activation into the row
                # buffer (paper: 60-100 cycles), not a full column access.
                latency_override = self.engine.config.prefetch_row_cycles
        start, end, outcome = self.device.access(
            request.bank_index,
            request.row,
            self._clock[channel],
            keep_open_extra,
            request.cpu,
            request.is_prefetch,
            request.row_offset,
            latency_override,
        )
        request.start_time = start
        request.outcome = outcome
        request.finish_time = end + self._overhead
        # Bus occupied for the burst; the bank keeps working until `end`.
        self._clock[channel] = start + self._bus_cycles
        if self.probe is not None:
            self.probe.on_service(channel, request, start, end)
        self.scheduler.on_scheduled(request, start)
        if self.energy is not None:
            self.energy.record_dram_access(outcome, request.is_prefetch)
        kind = request.kind
        self._served_counters[kind].value += 1
        self._outcome_counters[kind, outcome].value += 1
        # Service-latency distribution per kind (enqueue -> core-visible
        # completion); percentiles surface in the metrics export.
        self._latency_hists[kind].record(request.finish_time - request.enqueue_time)
        if kind == KIND_PT and request.pt_leaf:
            self._served_pt_leaf.value += 1
        if self.engine is not None:
            self._post_service_hooks(request, end)
        return request

    def _post_service_hooks(self, request, end):
        if request.kind == KIND_PT and request.tempo_tagged:
            prefetch = self.engine.build_prefetch(request, end)
            if prefetch is not None:
                accepted = self.enqueue(prefetch)
                if accepted:
                    self._tempo_prefetches_enqueued.value += 1
            else:
                self._outcomes[request.req_id] = PrefetchOutcome(0, dropped=True)
        elif request.kind == KIND_TEMPO_PREFETCH:
            # The LLC ship-out starts when the row buffer has the data
            # (`end`); the controller-overhead return path overlaps it.
            self._outcomes[request.origin_pt_id] = PrefetchOutcome(
                request.paddr,
                row_ready_at=end,
                llc_ready_at=self.engine.llc_ready_time(end),
            )
            grace = self.engine.config.grace_period_cycles
            if grace > 0:
                self._banks[request.bank_index].reserve(request.cpu, end + grace)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    @property
    def now(self):
        return max(self._clock)

    def queued_requests(self):
        """Yield every request still waiting in any channel's queue."""
        for queue, groups in zip(self._queues, self._writebacks):
            yield from queue
            for group in groups.values():
                for entry in group.entries:
                    yield entry[2]

    def pending_requests(self):
        return sum(len(queue) for queue in self._queues) + sum(self._writeback_counts)

    def __repr__(self):
        return "MemoryController(%s, %d pending)" % (
            self.scheduler.name,
            self.pending_requests(),
        )
