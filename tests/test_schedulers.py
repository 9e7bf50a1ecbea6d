"""Tests for FCFS / FR-FCFS / BLISS / TEMPO-grouping schedulers."""

from dataclasses import replace

import pytest

from repro.common.config import SchedulerConfig, default_system_config
from repro.common.errors import ConfigError
from repro.dram.energy import EnergyModel
from repro.sched.controller import MemoryController
from repro.sched.request import (
    KIND_DEMAND,
    KIND_PT,
    KIND_TEMPO_PREFETCH,
    KIND_WRITEBACK,
    MemoryRequest,
)
from repro.sched.schedulers import (
    BlissScheduler,
    FcfsScheduler,
    FrFcfsScheduler,
    TempoGroupingScheduler,
    make_scheduler,
)


class FakeContext:
    """Scheduler context with scripted row-hit / reservation answers."""

    def __init__(self, row_hits=(), reserved=()):
        self._row_hits = set(row_hits)
        self._reserved = set(reserved)

    def row_hit(self, request):
        return request.req_id in self._row_hits

    def reserved_against(self, request):
        return request.req_id in self._reserved


def _req(kind=KIND_DEMAND, cpu=0, enqueue=0, not_before=0, paddr=0x1000):
    return MemoryRequest(paddr, kind, cpu=cpu, enqueue_time=enqueue, not_before=not_before)


def test_fcfs_picks_oldest():
    scheduler = FcfsScheduler()
    newer = _req(enqueue=10)
    older = _req(enqueue=5)
    assert scheduler.pick([newer, older], 100, FakeContext()) is older


def test_fcfs_skips_future_not_before():
    scheduler = FcfsScheduler()
    future = _req(enqueue=0, not_before=500)
    assert scheduler.pick([future], 100, FakeContext()) is None


def test_writebacks_only_when_alone():
    """Writebacks go last: the controller offers them to the policy only
    when no other request is eligible, so an older writeback waits for a
    younger demand under FCFS; offered alone, the policy takes it."""
    config = default_system_config().with_tempo(False)
    config = config.copy_with(scheduler=replace(config.scheduler, policy="fcfs"))
    controller = MemoryController(config, EnergyModel(config.energy, tempo_enabled=False))
    writeback = _req(kind=KIND_WRITEBACK, enqueue=0)
    demand = _req(kind=KIND_DEMAND, enqueue=50)
    controller.submit_async(writeback, 0)
    controller.submit_async(demand, 50)
    assert controller.service_one(demand.channel) is demand
    assert controller.service_one(writeback.channel) is writeback
    assert FcfsScheduler().pick([writeback], 100, FakeContext()) is writeback


def test_frfcfs_prefers_row_hit_over_age():
    scheduler = FrFcfsScheduler()
    old_miss = _req(enqueue=0)
    young_hit = _req(enqueue=50)
    context = FakeContext(row_hits={young_hit.req_id})
    assert scheduler.pick([old_miss, young_hit], 100, context) is young_hit


def test_frfcfs_falls_back_to_oldest():
    scheduler = FrFcfsScheduler()
    older = _req(enqueue=0)
    newer = _req(enqueue=5)
    assert scheduler.pick([newer, older], 100, FakeContext()) is older


def test_reservation_delays_request():
    scheduler = FrFcfsScheduler()
    blocked = _req(cpu=1)
    context = FakeContext(reserved={blocked.req_id})
    assert scheduler.pick([blocked], 100, context) is None


def test_reservation_lets_others_through():
    scheduler = FrFcfsScheduler()
    blocked = _req(cpu=1, enqueue=0)
    free = _req(cpu=2, enqueue=50)
    context = FakeContext(reserved={blocked.req_id})
    assert scheduler.pick([blocked, free], 100, context) is free


# ---------------------------------------------------------------------
# BLISS
# ---------------------------------------------------------------------

@pytest.fixture
def bliss():
    return BlissScheduler(SchedulerConfig(policy="bliss"))


def test_bliss_requires_config():
    with pytest.raises(ConfigError):
        BlissScheduler(None)


def test_bliss_blacklists_after_consecutive_demands(bliss):
    config = bliss.config
    for _ in range(config.bliss_blacklist_threshold):
        bliss.on_scheduled(_req(cpu=0), now=10)
    assert bliss.blacklisted(0)


def test_bliss_counter_resets_on_cpu_switch(bliss):
    for _ in range(3):
        bliss.on_scheduled(_req(cpu=0), now=10)
    bliss.on_scheduled(_req(cpu=1), now=10)
    for _ in range(3):
        bliss.on_scheduled(_req(cpu=0), now=10)
    assert not bliss.blacklisted(0)


def test_bliss_prefetches_count_half(bliss):
    """Paper Sec. 4.3: +2 per demand, +1 per prefetch -- so it takes
    twice as many consecutive prefetches to blacklist."""
    threshold = bliss.config.bliss_blacklist_threshold
    for _ in range(2 * threshold - 1):
        bliss.on_scheduled(_req(kind=KIND_TEMPO_PREFETCH, cpu=0), now=10)
    assert not bliss.blacklisted(0)
    bliss.on_scheduled(_req(kind=KIND_TEMPO_PREFETCH, cpu=0), now=10)
    assert bliss.blacklisted(0)


def test_bliss_prefers_non_blacklisted(bliss):
    for _ in range(bliss.config.bliss_blacklist_threshold):
        bliss.on_scheduled(_req(cpu=0), now=10)
    bad = _req(cpu=0, enqueue=0)
    good = _req(cpu=1, enqueue=99)
    assert bliss.pick([bad, good], 100, FakeContext()) is good


def test_bliss_serves_blacklisted_when_alone(bliss):
    for _ in range(bliss.config.bliss_blacklist_threshold):
        bliss.on_scheduled(_req(cpu=0), now=10)
    bad = _req(cpu=0)
    assert bliss.pick([bad], 100, FakeContext()) is bad


def test_bliss_clears_periodically(bliss):
    interval = bliss.config.bliss_clearing_interval
    for _ in range(bliss.config.bliss_blacklist_threshold):
        bliss.on_scheduled(_req(cpu=0), now=10)
    assert bliss.blacklisted(0)
    bliss.pick([_req(cpu=0)], now=interval + 1, context=FakeContext())
    assert not bliss.blacklisted(0)


def test_bliss_writebacks_do_not_count(bliss):
    for _ in range(10):
        bliss.on_scheduled(_req(kind=KIND_WRITEBACK, cpu=0), now=10)
    assert not bliss.blacklisted(0)


# ---------------------------------------------------------------------
# TEMPO grouping wrapper
# ---------------------------------------------------------------------

def test_tempo_grouping_schedules_pt_first():
    scheduler = TempoGroupingScheduler(FrFcfsScheduler())
    demand = _req(kind=KIND_DEMAND, enqueue=0)
    pt = _req(kind=KIND_PT, enqueue=90)
    assert scheduler.pick([demand, pt], 100, FakeContext()) is pt


def test_tempo_grouping_groups_pt_by_row():
    scheduler = TempoGroupingScheduler(FrFcfsScheduler())
    pt_old_miss = _req(kind=KIND_PT, enqueue=0)
    pt_new_hit = _req(kind=KIND_PT, enqueue=50)
    context = FakeContext(row_hits={pt_new_hit.req_id})
    assert scheduler.pick([pt_old_miss, pt_new_hit], 100, context) is pt_new_hit


def test_tempo_grouping_prefetches_before_demands():
    scheduler = TempoGroupingScheduler(FrFcfsScheduler())
    demand = _req(kind=KIND_DEMAND, enqueue=0)
    prefetch = _req(kind=KIND_TEMPO_PREFETCH, enqueue=50)
    assert scheduler.pick([demand, prefetch], 100, FakeContext()) is prefetch


def test_tempo_grouping_falls_through_to_base():
    scheduler = TempoGroupingScheduler(FrFcfsScheduler())
    older = _req(kind=KIND_DEMAND, enqueue=0)
    newer = _req(kind=KIND_DEMAND, enqueue=5)
    assert scheduler.pick([newer, older], 100, FakeContext()) is older


def test_tempo_grouping_delegates_bliss_state():
    scheduler = TempoGroupingScheduler(BlissScheduler(SchedulerConfig(policy="bliss")))
    for _ in range(4):
        scheduler.on_scheduled(_req(cpu=0), now=10)
    assert scheduler.blacklisted(0)  # delegated via __getattr__


def test_make_scheduler_dispatch():
    assert isinstance(make_scheduler(SchedulerConfig(policy="fcfs")), FcfsScheduler)
    assert isinstance(make_scheduler(SchedulerConfig(policy="frfcfs")), FrFcfsScheduler)
    assert isinstance(make_scheduler(SchedulerConfig(policy="bliss")), BlissScheduler)
    wrapped = make_scheduler(SchedulerConfig(policy="frfcfs"), tempo_enabled=True)
    assert isinstance(wrapped, TempoGroupingScheduler)
    assert wrapped.name == "tempo+frfcfs"


# ---------------------------------------------------------------------
# ATLAS (extension)
# ---------------------------------------------------------------------

def _atlas():
    from repro.sched.schedulers import AtlasScheduler

    return AtlasScheduler(SchedulerConfig(policy="atlas", atlas_quantum_cycles=1000))


def test_atlas_requires_config():
    from repro.sched.schedulers import AtlasScheduler

    with pytest.raises(ConfigError):
        AtlasScheduler(None)


def test_atlas_prefers_least_served_cpu():
    scheduler = _atlas()
    for _ in range(5):
        scheduler.on_scheduled(_req(cpu=0), now=10)
    heavy = _req(cpu=0, enqueue=0)
    light = _req(cpu=1, enqueue=99)
    assert scheduler.pick([heavy, light], 100, FakeContext()) is light


def test_atlas_row_hit_breaks_ties_within_rank():
    scheduler = _atlas()
    old_miss = _req(cpu=0, enqueue=0)
    young_hit = _req(cpu=1, enqueue=50)
    # Both CPUs at zero attained service: same rank.
    context = FakeContext(row_hits={young_hit.req_id})
    assert scheduler.pick([old_miss, young_hit], 100, context) is young_hit


def test_atlas_quantum_reset():
    scheduler = _atlas()
    for _ in range(5):
        scheduler.on_scheduled(_req(cpu=0), now=10)
    assert scheduler.attained_service(0) == 5
    scheduler.pick([_req(cpu=0)], now=2000, context=FakeContext())
    assert scheduler.attained_service(0) == 0


def test_atlas_writebacks_unaccounted():
    scheduler = _atlas()
    scheduler.on_scheduled(_req(kind=KIND_WRITEBACK, cpu=0), now=10)
    assert scheduler.attained_service(0) == 0


def test_make_scheduler_atlas():
    from repro.sched.schedulers import AtlasScheduler

    assert isinstance(make_scheduler(SchedulerConfig(policy="atlas")), AtlasScheduler)


def test_atlas_runs_end_to_end():
    from dataclasses import replace
    from repro.common.config import default_system_config
    from repro.sim.runner import run_workload

    config = default_system_config()
    config = config.copy_with(scheduler=replace(config.scheduler, policy="atlas"))
    result = run_workload("xsbench", config, length=800, seed=0)
    assert result.core.cycles > 0
