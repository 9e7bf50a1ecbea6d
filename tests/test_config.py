"""Configuration validation tests (the Figure-9 machine contract)."""

from dataclasses import replace

import pytest

from repro.common.config import (
    CacheConfig,
    CoreConfig,
    DramConfig,
    RowPolicyConfig,
    SchedulerConfig,
    SubRowConfig,
    SystemConfig,
    TempoConfig,
    TlbConfig,
    VmConfig,
    default_system_config,
)
from repro.common.errors import ConfigError


def test_default_config_validates(config):
    assert config.validate() is config


def test_default_encodes_figure9_machine(config):
    # Two-level TLBs with split L1 arrays; L2 does not hold 1 GB pages.
    assert config.tlb.l1_entries_4k > config.tlb.l1_entries_2m > config.tlb.l1_entries_1g
    assert not config.tlb.l2_holds_1g
    # Three increasing cache levels.
    assert config.l1.size_bytes < config.l2.size_bytes < config.llc.size_bytes
    # DRAM row-buffer latencies: hit < miss <= conflict, with hits saving
    # well over half of a conflict (the paper's "as much as 66%").
    assert config.dram.row_hit_cycles < 0.5 * config.dram.row_conflict_cycles
    # TEMPO defaults: both prefetches on, 10-cycle wait, 15-cycle grace.
    assert config.tempo.enabled and config.tempo.row_prefetch and config.tempo.llc_prefetch
    assert config.tempo.wait_cycles == 10
    assert config.tempo.grace_period_cycles == 15
    # IMP defaults from prior work [44].
    assert config.imp.prefetch_table_entries == 16
    assert config.imp.indirect_pattern_detector_entries == 4
    assert config.imp.max_prefetch_distance == 16


def test_cache_config_rejects_non_power_of_two_sets():
    with pytest.raises(ConfigError):
        CacheConfig(size_bytes=3 * 1024, assoc=8).validate()


def test_cache_config_rejects_unknown_replacement():
    with pytest.raises(ConfigError):
        CacheConfig(size_bytes=32 * 1024, assoc=8, replacement="plru").validate()


def test_cache_config_rejects_lines_other_than_64_bytes(config):
    """Line ids, writeback addresses and DRAM request addresses all
    assume 64-byte lines, so no level may declare another size."""
    for line_bytes in (32, 128):
        with pytest.raises(ConfigError, match="64 bytes"):
            CacheConfig(size_bytes=32 * 1024, assoc=8, line_bytes=line_bytes).validate()
    bad = config.copy_with(l1=replace(config.l1, line_bytes=128))
    with pytest.raises(ConfigError, match="64 bytes"):
        bad.validate()


def test_cache_num_sets():
    cache = CacheConfig(size_bytes=32 * 1024, assoc=8, line_bytes=64)
    assert cache.num_sets == 64


def test_tlb_config_rejects_indivisible_assoc():
    with pytest.raises(ConfigError):
        TlbConfig(l1_entries_4k=60, l1_assoc_4k=8).validate()


def test_core_config_requires_increasing_latencies():
    with pytest.raises(ConfigError):
        CoreConfig(l1_latency=12, l2_latency=12).validate()


def test_dram_config_requires_hit_lt_miss_le_conflict():
    with pytest.raises(ConfigError):
        DramConfig(row_hit_cycles=100, row_miss_cycles=90).validate()
    with pytest.raises(ConfigError):
        DramConfig(row_miss_cycles=140, row_conflict_cycles=130).validate()


def test_dram_config_rejects_tiny_rows():
    with pytest.raises(ConfigError):
        DramConfig(row_bytes=2048).validate()


def test_subrow_config_requires_general_slots():
    with pytest.raises(ConfigError):
        SubRowConfig(num_subrows=4, dedicated_prefetch_subrows=4).validate()


def test_subrow_config_rejects_unknown_allocation():
    with pytest.raises(ConfigError):
        SubRowConfig(allocation="random").validate()


def test_row_policy_config_rejects_unknown_policy():
    with pytest.raises(ConfigError):
        RowPolicyConfig(policy="fancy").validate()


def test_scheduler_config_rejects_unknown_policy():
    with pytest.raises(ConfigError):
        SchedulerConfig(policy="parbs").validate()


def test_scheduler_config_accepts_all_implemented_policies():
    for policy in ("fcfs", "frfcfs", "bliss", "atlas"):
        SchedulerConfig(policy=policy).validate()


def test_tempo_llc_prefetch_requires_row_prefetch():
    with pytest.raises(ConfigError):
        TempoConfig(row_prefetch=False, llc_prefetch=True).validate()


def test_vm_config_rejects_double_hugetlbfs():
    with pytest.raises(ConfigError):
        VmConfig(hugetlbfs_2m=True, hugetlbfs_1g=True).validate()


def test_vm_config_rejects_bad_memhog():
    with pytest.raises(ConfigError):
        VmConfig(memhog_fraction=1.0).validate()
    with pytest.raises(ConfigError):
        VmConfig(memhog_fraction=-0.1).validate()


def test_with_tempo_toggles_without_mutating(config):
    off = config.with_tempo(False)
    assert not off.tempo.enabled
    assert config.tempo.enabled  # original untouched
    swept = config.with_tempo(True, wait_cycles=5)
    assert swept.tempo.wait_cycles == 5
    assert config.tempo.wait_cycles == 10


def test_copy_with_overrides_top_level(config):
    copied = config.copy_with(num_cores=4)
    assert copied.num_cores == 4
    assert config.num_cores == 1


def test_system_config_rejects_shrinking_hierarchy():
    config = default_system_config()
    bad = config.copy_with(l1=CacheConfig(size_bytes=8 * 1024 * 1024, assoc=16))
    with pytest.raises(ConfigError):
        bad.validate()


def test_validation_reaches_nested_configs():
    config = default_system_config()
    bad = config.copy_with(dram=replace(config.dram, subrows=SubRowConfig(num_subrows=0)))
    with pytest.raises(ConfigError):
        bad.validate()
