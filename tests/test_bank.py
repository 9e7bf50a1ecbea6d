"""Tests for the bank row-buffer state machine + DRAM device."""

from dataclasses import replace

import pytest

from repro.common.config import DramConfig, RowPolicyConfig, SubRowConfig
from repro.dram.bank import (
    OUTCOME_CONFLICT,
    OUTCOME_HIT,
    OUTCOME_MISS,
    Bank,
    DramDevice,
)
from repro.dram.row_policy import ClosedRowPolicy, OpenRowPolicy, make_row_policy
from repro.dram.subrow import SubRowBank


def _bank(policy=None, config=None):
    config = config if config is not None else DramConfig()
    policy = policy if policy is not None else OpenRowPolicy()
    return Bank(0, 16, config, policy), config


def test_first_access_is_miss():
    bank, config = _bank()
    start, end, outcome = bank.access(7, now=100)
    assert outcome == OUTCOME_MISS
    assert (start, end) == (100, 100 + config.row_miss_cycles)


def test_same_row_hits_under_open_policy():
    bank, config = _bank()
    _, end, _ = bank.access(7, 0)
    start, end2, outcome = bank.access(7, end)
    assert outcome == OUTCOME_HIT
    assert end2 - start == config.row_hit_cycles


def test_different_row_conflicts_under_open_policy():
    bank, config = _bank()
    _, end, _ = bank.access(7, 0)
    _, _, outcome = bank.access(9, end)
    assert outcome == OUTCOME_CONFLICT


def test_closed_policy_turns_conflicts_into_misses():
    bank, _ = _bank(policy=ClosedRowPolicy())
    _, end, _ = bank.access(7, 0)
    _, _, outcome = bank.access(9, end)
    assert outcome == OUTCOME_MISS
    _, _, outcome = bank.access(9, end * 2)
    assert outcome == OUTCOME_MISS  # even same-row repeats miss


def test_bank_serializes_via_ready_at():
    bank, config = _bank()
    _, end, _ = bank.access(7, 0)
    start, _, _ = bank.access(7, now=end - 20)
    assert start == end


def test_adaptive_auto_close_converts_conflict_to_miss():
    policy = make_row_policy(RowPolicyConfig(policy="adaptive", predictor_initial_window=50))
    bank, _ = _bank(policy=policy)
    _, end, _ = bank.access(7, 0)
    # Arrive long after the predicted close: the row was put away.
    _, _, outcome = bank.access(9, end + 500)
    assert outcome == OUTCOME_MISS


def test_keep_open_extra_extends_closed_rows():
    bank, config = _bank(policy=ClosedRowPolicy())
    _, end, _ = bank.access(7, 0, keep_open_extra=10)
    # Within the anticipation window the row is still open.
    _, _, outcome = bank.access(7, end + 5)
    assert outcome == OUTCOME_HIT


def test_keep_open_extra_expires():
    bank, _ = _bank(policy=ClosedRowPolicy())
    _, end, _ = bank.access(7, 0, keep_open_extra=10)
    _, _, outcome = bank.access(7, end + 50)
    assert outcome == OUTCOME_MISS


def test_latency_override():
    bank, config = _bank()
    start, end, outcome = bank.access(7, 0, latency_override=60)
    assert end - start == 60
    assert outcome == OUTCOME_MISS


def test_classify_does_not_mutate():
    bank, _ = _bank()
    bank.access(7, 0)
    assert bank.classify(7, 10_000) == OUTCOME_HIT
    assert bank.classify(9, 10_000) == OUTCOME_CONFLICT
    assert bank.classify(7, 10_000) == OUTCOME_HIT  # unchanged


def test_reservation_semantics():
    bank, _ = _bank()
    bank.reserve(cpu=3, until=500)
    assert bank.reserved_against(cpu=1, now=100)
    assert not bank.reserved_against(cpu=3, now=100)  # owner passes
    assert not bank.reserved_against(cpu=1, now=500)  # expired


def test_effective_open_row_with_auto_close():
    policy = make_row_policy(RowPolicyConfig(policy="adaptive", predictor_initial_window=50))
    bank, _ = _bank(policy=policy)
    _, end, _ = bank.access(7, 0)
    assert bank.effective_open_row(end + 10) == 7
    assert bank.effective_open_row(end + 100) is None


# ---------------------------------------------------------------------
# DramDevice
# ---------------------------------------------------------------------

def test_device_builds_all_banks():
    device = DramDevice(DramConfig(), RowPolicyConfig())
    assert len(device.banks) == device.address_map.total_banks


def test_device_routes_by_address():
    device = DramDevice(DramConfig(), RowPolicyConfig(policy="open"))
    a, b = 0x0, 0x2000  # different 8 KB chunks -> different banks/channels
    assert device.bank_for(a) is not device.bank_for(b)


def _access(device, paddr, now):
    location = device.address_map.decode(paddr)
    return device.access(
        device.address_map.bank_index(paddr),
        location.row,
        now,
        row_offset=location.row_offset,
    )


def test_device_row_open_tracks_access():
    device = DramDevice(DramConfig(), RowPolicyConfig(policy="open"))
    paddr = 0x123456
    assert not device.row_open(paddr, 0)
    _, end, _ = _access(device, paddr, 0)
    assert device.row_open(paddr, end)
    assert device.row_open(paddr + 100, end)  # same row


def test_device_stats_aggregate_outcomes():
    device = DramDevice(DramConfig(), RowPolicyConfig(policy="open"))
    _, end, _ = _access(device, 0x1000, 0)
    _access(device, 0x1040, end)
    counters = device.stats.as_dict()
    assert counters["dram.bank.miss"] == 1
    assert counters["dram.bank.hit"] == 1


# ---------------------------------------------------------------------
# Refresh
# ---------------------------------------------------------------------

def test_refresh_closes_open_row():
    from dataclasses import replace

    config = replace(DramConfig(), refresh_interval_cycles=1000, refresh_cycles=100)
    bank = Bank(0, 16, config, OpenRowPolicy())
    bank.access(7, 0)
    # Crossing the refresh boundary precharges the bank: same row misses.
    _, _, outcome = bank.access(7, 1500)
    assert outcome == OUTCOME_MISS
    assert bank.stats.counter("refreshes").value >= 1


def test_refresh_delays_colliding_access():
    from dataclasses import replace

    config = replace(DramConfig(), refresh_interval_cycles=1000, refresh_cycles=100)
    bank = Bank(0, 16, config, OpenRowPolicy())
    # Arrive exactly at the refresh point: wait out the refresh.
    start, _, _ = bank.access(3, 1000)
    assert start >= 1100


def test_refresh_catches_up_after_idle():
    from dataclasses import replace

    config = replace(DramConfig(), refresh_interval_cycles=1000, refresh_cycles=100)
    bank = Bank(0, 16, config, OpenRowPolicy())
    bank.access(3, 50_000)  # many intervals passed while idle
    assert bank.next_refresh_at > 50_000
    # Idle-period refreshes do not stack their delays onto the access.
    assert bank.stats.counter("refreshes").value == 50


def test_refresh_disabled_with_zero_interval():
    from dataclasses import replace

    config = replace(DramConfig(), refresh_interval_cycles=0)
    bank = Bank(0, 16, config, OpenRowPolicy())
    bank.access(3, 10**7)
    assert bank.stats.counter("refreshes").value == 0
    _, _, outcome = bank.access(3, 2 * 10**7)
    assert outcome == OUTCOME_HIT  # never refreshed away


def _refreshing_bank(kind):
    """A bank of *kind* refreshing every 5,000 cycles for 300."""
    config = replace(DramConfig(), refresh_interval_cycles=5000, refresh_cycles=300)
    if kind == "rows":
        return Bank(0, 16, config, OpenRowPolicy())
    config = replace(config, subrows=SubRowConfig(enabled=True))
    return SubRowBank(0, 16, config, num_cpus=1)


@pytest.mark.xfail(
    strict=True,
    reason="classify ignores a refresh due by now; only access applies it "
    "(ROADMAP item 2, fixed with the next golden rewrite)",
)
@pytest.mark.parametrize("kind", ["rows", "subrows"])
def test_classify_sees_a_due_refresh(kind):
    """``classify`` answers what an ``access`` at the same time would
    see: row 7, opened at 4,000, is refreshed away by 5,100."""
    banks = [_refreshing_bank(kind), _refreshing_bank(kind)]
    for bank in banks:
        bank.access(7, 4000)
    predicted = banks[0].classify(7, 5100)
    _, _, outcome = banks[1].access(7, 5100)
    assert outcome == OUTCOME_MISS
    assert predicted == outcome
