"""The memory controller's queue handling in its earlier, whole-queue form.

The differential test in ``test_properties.py`` runs this controller and
:class:`~repro.sched.controller.MemoryController` on the same requests and
requires identical results.  Here every channel keeps one list holding all
request kinds, and every pick, decision time and drain scans that list.
Each bank lookup decodes the physical address again. TxQ occupancy is
summed over the queue at each prefetch. Writebacks yield to the other
kinds inside the pick: a policy sees the writebacks only when no other
queued request is eligible.  Service itself (:meth:`MemoryController._service`)
is shared.
"""

from repro.dram.bank import OUTCOME_HIT
from repro.sched.controller import MemoryController, PrefetchOutcome
from repro.sched.request import KIND_TEMPO_PREFETCH, KIND_WRITEBACK


class _PaddrContext:
    """Scheduler predicates that decode ``request.paddr`` on every call."""

    def __init__(self, device, now):
        self._device = device
        self.now = now

    def row_hit(self, request):
        return self._device.classify(request.paddr, self.now) == OUTCOME_HIT

    def reserved_against(self, request):
        bank = self._device.bank_for(request.paddr)
        return bank.reserved_against(request.cpu, self.now)


def _pick_writebacks_last(scheduler, pending, now, context):
    """*scheduler*'s choice from the mixed list *pending*: among the
    non-writebacks when one of them is eligible, else among the
    writebacks."""
    others = [request for request in pending if request.kind != KIND_WRITEBACK]
    if any(
        request.not_before <= now and not context.reserved_against(request)
        for request in others
    ):
        return scheduler.pick(others, now, context)
    writebacks = [request for request in pending if request.kind == KIND_WRITEBACK]
    return scheduler.pick(writebacks, now, context)


class SingleListController(MemoryController):
    """See module docstring; the writeback store stays empty."""

    def channel_of(self, paddr):
        return self.device.address_map.bank_index(paddr) // self._banks_per_channel

    def enqueue(self, request):
        address_map = self.device.address_map
        # The shared _service reads these; derive them without decode().
        request.bank_index = address_map.bank_index(request.paddr)
        request.channel = self.channel_of(request.paddr)
        request.row = address_map.row_of(request.paddr)
        request.row_offset = request.paddr - address_map.row_base_paddr(request.paddr)
        queue = self._queues[request.channel]
        if request.is_prefetch:
            used = sum(queued.slots() for queued in queue)
            if used + request.slots() > self._capacity:
                self.stats.counter("prefetch_dropped_txq_full").add()
                if request.kind == KIND_TEMPO_PREFETCH:
                    self._outcomes[request.origin_pt_id] = PrefetchOutcome(
                        request.paddr, dropped=True
                    )
                return False
        queue.append(request)
        self.stats.counter("enqueued_%s" % request.kind).add()
        return True

    def submit_and_wait(self, request, now):
        if not self.enqueue(request):
            return None
        channel = self.channel_of(request.paddr)
        if self._clock[channel] < now:
            self._clock[channel] = now
        while request.finish_time is None:
            self._service_next(channel)
        return request.finish_time

    def submit_async(self, request, now):
        channel = self.channel_of(request.paddr)
        if self._clock[channel] < now:
            self._clock[channel] = now
        return self.enqueue(request)

    def drain_all(self):
        for channel, queue in enumerate(self._queues):
            while queue:
                self._service_next(channel)
        return max(self._clock)

    def has_pending(self, channel):
        return bool(self._queues[channel])

    def next_decision_time(self, channel):
        queue = self._queues[channel]
        if not queue:
            return None
        now = self._clock[channel]
        earliest = min(self._available_at(request, now) for request in queue)
        return max(now, earliest)

    def cancel_prefetch(self, pt_req_id):
        for queue in self._queues:
            for position, request in enumerate(queue):
                if (
                    request.kind == KIND_TEMPO_PREFETCH
                    and request.origin_pt_id == pt_req_id
                ):
                    del queue[position]
                    self.stats.counter("prefetch_cancelled_late").add()
                    return True
        return False

    def _drain_channel_until(self, channel, time):
        queue = self._queues[channel]
        while queue:
            earliest = min(
                max(self._clock[channel], request.not_before) for request in queue
            )
            if earliest >= time:
                return
            self._service_next(channel)

    def _service_next(self, channel):
        queue = self._queues[channel]
        if not queue:
            return None
        now = self._clock[channel]
        context = _PaddrContext(self.device, now)
        request = _pick_writebacks_last(self.scheduler, queue, now, context)
        if request is None:
            self._clock[channel] = min(
                self._available_at(req, now) for req in queue
            )
            context = _PaddrContext(self.device, self._clock[channel])
            request = _pick_writebacks_last(
                self.scheduler, queue, self._clock[channel], context
            )
            if request is None:
                return None
        queue.remove(request)
        return self._service(channel, request)

    def _available_at(self, request, now):
        available = request.not_before
        bank = self.device.bank_for(request.paddr)
        if bank.reserved_against(request.cpu, max(now, available)):
            available = max(available, bank.reserved_until)
        return available

    def queued_requests(self):
        for queue in self._queues:
            yield from queue

    def pending_requests(self):
        return sum(len(queue) for queue in self._queues)
