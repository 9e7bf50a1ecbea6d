"""Tests for the memory controller (queues, TEMPO hooks, timing)."""

import random
from dataclasses import replace

import pytest

from repro.common.config import default_system_config
from repro.common.errors import SimulationError
from repro.core.prefetch_engine import PrefetchEngine
from repro.dram.bank import OUTCOME_HIT
from repro.dram.energy import EnergyModel
from repro.sched.controller import MemoryController
from repro.sched.request import (
    KIND_DEMAND,
    KIND_PT,
    KIND_TEMPO_PREFETCH,
    MemoryRequest,
)
from repro.vm.page_table import PageTableEntry


def _controller(tempo=True, **config_overrides):
    config = default_system_config().with_tempo(tempo)
    if config_overrides:
        config = config.copy_with(**config_overrides)
    engine = PrefetchEngine(config.tempo) if tempo else None
    energy = EnergyModel(config.energy, tempo_enabled=tempo)
    return MemoryController(config, energy, engine), config


def _tagged_pt(paddr=0x40000, frame=0xABC000, line=0, cpu=0):
    pte = PageTableEntry(present=True, is_leaf=True, frame_paddr=frame, page_size=4096)
    return MemoryRequest(
        paddr, KIND_PT, cpu=cpu, tempo_tagged=True, pte=pte,
        replay_line_index=line, pt_leaf=True,
    )


def test_demand_submit_and_wait_completes():
    controller, config = _controller(tempo=False)
    request = MemoryRequest(0x123456, KIND_DEMAND, enqueue_time=100)
    finish = controller.submit_and_wait(request, 100)
    assert finish == request.finish_time
    expected_min = 100 + config.dram.row_miss_cycles + config.dram.controller_overhead_cycles
    assert finish >= expected_min


def test_requests_to_same_bank_serialize():
    controller, config = _controller(tempo=False)
    first = MemoryRequest(0x0, KIND_DEMAND)
    second = MemoryRequest(0x100, KIND_DEMAND)  # same row, same bank
    end1 = controller.submit_and_wait(first, 0)
    controller.submit_and_wait(second, 0)
    assert second.start_time >= first.start_time
    assert second.outcome == OUTCOME_HIT  # open row


def test_tagged_pt_triggers_prefetch():
    controller, config = _controller(tempo=True)
    pt = _tagged_pt(frame=0xABC000, line=5)
    controller.submit_and_wait(pt, 0)
    assert controller.stats.counter("tempo_prefetches_enqueued").value == 1
    # Drain and collect the outcome.
    controller.drain_all()
    outcome = controller.take_prefetch_outcome(pt.req_id)
    assert outcome is not None and not outcome.dropped
    assert outcome.paddr == 0xABC000 + 5 * 64
    assert outcome.row_ready_at is not None
    assert outcome.llc_ready_at > outcome.row_ready_at


def test_prefetch_respects_wait_window():
    controller, config = _controller(tempo=True)
    pt = _tagged_pt()
    pt_finish = controller.submit_and_wait(pt, 0)
    controller.drain_all()
    outcome = controller.take_prefetch_outcome(pt.req_id)
    pt_end = pt_finish - config.dram.controller_overhead_cycles
    # The prefetch could not have started before end + wait_cycles.
    earliest_row_ready = pt_end + config.tempo.wait_cycles + 1
    assert outcome.row_ready_at >= earliest_row_ready


def test_prefetch_opens_target_row():
    controller, _ = _controller(tempo=True)
    pt = _tagged_pt(frame=0xABC000, line=5)
    controller.submit_and_wait(pt, 0)
    controller.drain_all()
    outcome = controller.take_prefetch_outcome(pt.req_id)
    assert controller.device.row_open(outcome.paddr, outcome.row_ready_at)


def test_untagged_pt_triggers_nothing():
    controller, _ = _controller(tempo=True)
    request = MemoryRequest(0x40000, KIND_PT, pt_leaf=True)
    controller.submit_and_wait(request, 0)
    assert controller.stats.counter("tempo_prefetches_enqueued").value == 0


def test_no_engine_no_prefetch():
    controller, _ = _controller(tempo=False)
    pt = _tagged_pt()
    controller.submit_and_wait(pt, 0)
    controller.drain_all()
    assert controller.take_prefetch_outcome(pt.req_id) is None


def test_cancel_prefetch_removes_queued():
    controller, _ = _controller(tempo=True)
    pt = _tagged_pt()
    controller.submit_and_wait(pt, 0)
    # The prefetch is queued (not_before in the future): cancel it.
    assert controller.cancel_prefetch(pt.req_id)
    controller.drain_all()
    assert controller.take_prefetch_outcome(pt.req_id) is None
    assert not controller.cancel_prefetch(pt.req_id)


def test_advance_to_services_due_prefetch():
    controller, config = _controller(tempo=True)
    pt = _tagged_pt()
    finish = controller.submit_and_wait(pt, 0)
    controller.advance_to(finish + 500)
    outcome = controller.take_prefetch_outcome(pt.req_id)
    assert outcome is not None


def test_advance_to_serves_writebacks_behind_future_requests():
    controller, _ = _controller(tempo=False)
    later = MemoryRequest(0x0, KIND_DEMAND, not_before=1000)
    controller.submit_async(later, 0)
    writeback = controller.submit_writeback(0x40, cpu=0, now=0)
    controller.advance_to(500)
    assert writeback.finish_time is not None
    assert later.finish_time is None
    assert controller.next_decision_time(later.channel) == 1000


@pytest.mark.xfail(
    strict=True,
    reason="advance_to stops on not_before but not on grace reservations, so it "
    "services a reserved-against request after its horizon (ROADMAP item 2)",
)
def test_advance_to_decides_nothing_past_its_horizon():
    config = default_system_config().copy_with(num_cores=2)
    controller = MemoryController(config, None, None)
    controller.device.bank_for(0x10000).reserve(0, 1000)
    request = MemoryRequest(0x10000, KIND_DEMAND, cpu=1)
    controller.submit_async(request, 0)
    controller.advance_to(100)
    assert request.start_time is None
    assert controller.now <= 100


class _RefusingScheduler:
    """A policy that takes nothing, so the pick after the clock jump
    refuses too.  It fails the test after a few hundred picks, so a
    controller that loops on the refusal fails instead of hanging."""

    name = "refusing"

    def __init__(self):
        self.picks = 0

    def pick(self, pending, now, context):
        return self.pick_lone(pending[0], now, context)

    def pick_lone(self, request, now, context):
        self.picks += 1
        assert self.picks < 300, "the controller kept picking on a refusal"
        return None

    def on_scheduled(self, request, now):
        raise AssertionError("a refusing policy scheduled %r" % (request,))


def test_a_pick_refused_at_the_earliest_availability_raises():
    """The clock jump after a refused pick goes to the channel's earliest
    availability, where the pick must take something.  When it does not,
    ``service_one`` and ``submit_and_wait`` raise instead of looping,
    naming the channel, its clock and each queued request with its
    bank's reservation."""
    controller, _ = _controller(tempo=False)
    controller.scheduler = _RefusingScheduler()
    controller.device.bank_for(0x40).reserve(0, 700)
    request = MemoryRequest(0x40, KIND_DEMAND, cpu=1, not_before=500)
    controller.submit_async(request, 100)
    writeback = controller.submit_writeback(0x0, cpu=0, now=100)
    assert writeback.channel == request.channel
    empty = 1 - request.channel
    assert not controller.has_pending(empty)
    assert controller.service_one(empty) is None

    with pytest.raises(SimulationError) as raised:
        controller.service_one(request.channel)
    context = raised.value.context
    assert context["channel"] == request.channel
    # The reserving cpu's writeback is available at 100; the demand
    # only at 700.
    assert context["clock"] == 100
    queued = {entry["req_id"]: entry for entry in context["queued"]}
    assert queued[request.req_id] == {
        "req_id": request.req_id,
        "kind": KIND_DEMAND,
        "cpu": 1,
        "bank": request.bank_index,
        "not_before": 500,
        "reserved_cpu": 0,
        "reserved_until": 700,
    }
    assert queued[writeback.req_id]["kind"] == "writeback"
    assert request.finish_time is None

    controller, _ = _controller(tempo=False)
    controller.scheduler = _RefusingScheduler()
    with pytest.raises(SimulationError):
        controller.submit_and_wait(MemoryRequest(0x40, KIND_DEMAND), 0)


def test_txq_overflow_drops_prefetches():
    controller, config = _controller(
        tempo=True, dram=replace(default_system_config().dram, txq_capacity=4)
    )
    # Stuff the queue with future-dated prefetches to one channel.
    base = 0x0
    for index in range(6):
        request = MemoryRequest(
            base, KIND_TEMPO_PREFETCH, not_before=10**9, origin_pt_id=1000 + index
        )
        controller.submit_async(request, 0)
    assert controller.stats.counter("prefetch_dropped_txq_full").value >= 2
    # Dropped prefetches record a dropped outcome for their walk.
    dropped = [
        controller.take_prefetch_outcome(1000 + index) for index in range(6)
    ]
    assert any(outcome is not None and outcome.dropped for outcome in dropped)


def _slots_by_channel(controller):
    used = [0] * controller.num_channels
    for request in controller.queued_requests():
        used[request.channel] += request.slots()
    return used


def test_txq_capacity_counts_writebacks_and_tagged_pts():
    """Queued writebacks hold TxQ slots like any request: two of them
    plus a two-slot tagged PT fill a four-slot queue, so the next
    prefetch is dropped.  The per-channel slot counter follows the queue
    through service and cancellation."""
    controller, _ = _controller(
        tempo=True, dram=replace(default_system_config().dram, txq_capacity=4)
    )
    controller.submit_writeback(0x0, cpu=0, now=0)
    controller.submit_writeback(0x40, cpu=0, now=0)
    pt = _tagged_pt(paddr=0x80)
    assert controller.submit_async(pt, 0)
    assert _slots_by_channel(controller)[pt.channel] == 4
    prefetch = MemoryRequest(
        0xC0, KIND_TEMPO_PREFETCH, not_before=10**9, origin_pt_id=999
    )
    assert not controller.submit_async(prefetch, 0)
    assert controller.stats.counter("prefetch_dropped_txq_full").value == 1
    assert controller.take_prefetch_outcome(999).dropped
    assert controller._slots_used == _slots_by_channel(controller)

    # Serving the tagged PT frees its two slots and queues its prefetch.
    assert controller.service_one(pt.channel) is pt
    assert controller.stats.counter("tempo_prefetches_enqueued").value == 1
    assert controller._slots_used == _slots_by_channel(controller)
    assert controller.cancel_prefetch(pt.req_id)
    assert controller._slots_used == _slots_by_channel(controller)
    controller.drain_all()
    assert controller._slots_used == [0] * controller.num_channels


def test_writebacks_yield_to_demands():
    """The controller offers writebacks to the scheduler only when no
    other request is eligible, under every policy: an older writeback
    waits for a younger demand, and goes ahead of a demand that is not
    yet schedulable."""
    for policy in ("fcfs", "frfcfs", "bliss", "atlas"):
        scheduler = replace(default_system_config().scheduler, policy=policy)
        controller, _ = _controller(tempo=False, scheduler=scheduler)
        writeback = controller.submit_writeback(0x9000, cpu=0, now=0)
        demand = MemoryRequest(0x0, KIND_DEMAND, enqueue_time=5)
        controller.submit_and_wait(demand, 5)
        # The writeback is still pending; the demand went first.
        assert controller.pending_requests() == 1
        assert writeback.finish_time is None

        later = MemoryRequest(0x40, KIND_DEMAND, enqueue_time=10, not_before=10**6)
        controller.submit_async(later, 10)
        assert controller.service_one(later.channel) is writeback
        assert controller.service_one(later.channel) is later
        assert later.start_time >= 10**6
        assert controller.pending_requests() == 0


def test_writeback_drain_offers_each_pick_a_few_requests():
    """Draining a backlog of 2,000 writebacks from one CPU, no list
    the scheduler is offered holds more than two writebacks per bank
    of the channel: each bank's oldest and its oldest on the open row."""
    controller, config = _controller(tempo=False)
    scheduler = controller.scheduler
    offered = []

    def pick(pending, now, context):
        offered.append(len(pending))
        return type(scheduler).pick(scheduler, pending, now, context)

    def pick_lone(request, now, context):
        offered.append(1)
        return type(scheduler).pick_lone(scheduler, request, now, context)

    scheduler.pick = pick
    scheduler.pick_lone = pick_lone
    rng = random.Random(0)
    writebacks = [
        controller.submit_writeback(rng.randrange(1 << 30) & ~63, cpu=0, now=index)
        for index in range(2000)
    ]
    controller.drain_all()
    assert controller.pending_requests() == 0
    assert all(request.finish_time is not None for request in writebacks)
    assert len(offered) >= 2000
    assert max(offered) <= 2 * config.dram.banks_per_channel


def test_grace_period_reserves_bank():
    controller, config = _controller(tempo=True)
    pt = _tagged_pt(cpu=3)
    controller.submit_and_wait(pt, 0)
    controller.drain_all()
    outcome = controller.take_prefetch_outcome(pt.req_id)
    bank = controller.device.bank_for(outcome.paddr)
    assert bank.reserved_cpu == 3
    assert bank.reserved_until > outcome.row_ready_at


def test_energy_recorded_per_access():
    controller, _ = _controller(tempo=False)
    before = controller.energy.stats.counter("dram_accesses").value
    controller.submit_and_wait(MemoryRequest(0x123, KIND_DEMAND), 0)
    assert controller.energy.stats.counter("dram_accesses").value == before + 1


def test_channels_progress_independently():
    controller, config = _controller(tempo=False)
    # 0x0 and 0x2000 land on different channels with the default map.
    first = MemoryRequest(0x0, KIND_DEMAND)
    second = MemoryRequest(0x2000, KIND_DEMAND)
    controller.submit_and_wait(first, 0)
    controller.submit_and_wait(second, 0)
    assert second.start_time == 0  # not serialized behind channel 0
