"""Configuration dataclasses for every modelled hardware structure.

The defaults encode the Figure-9 machine of the paper, scaled down so
pure-Python simulation stays tractable (see DESIGN.md Sec. 2: only the
*ratios* between footprint, TLB reach, leaf-page-table size and LLC
capacity govern the phenomena TEMPO exploits, and the scaled machine
preserves them).

All latencies are in CPU cycles.  All sizes are in bytes unless the field
name says otherwise.

Every config is frozen: ``config_hash`` (and so every result-cache key)
is taken from a config's fields, so a variant is a new object built with
``dataclasses.replace`` / :meth:`SystemConfig.copy_with` /
:meth:`SystemConfig.with_tempo`, and a write through an existing one
raises :class:`dataclasses.FrozenInstanceError`.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Any

from repro.common.constants import CACHE_LINE_BYTES, PAGE_SIZE_4K
from repro.common.errors import ConfigError


def _require(condition: bool, message: str, **context: Any) -> None:
    if not condition:
        raise ConfigError(message, context=context)


def _power_of_two(value: int) -> bool:
    return value > 0 and (value & (value - 1)) == 0


@dataclass(frozen=True)
class CoreConfig:
    """Blocking in-order core timing model (DESIGN.md Sec. 5)."""

    #: Cycles of non-memory work consumed per trace-record "gap unit".
    nonmem_cycles_per_gap: int = 1
    #: L1-D hit latency.
    l1_latency: int = 4
    #: L2 hit latency.
    l2_latency: int = 12
    #: Shared LLC hit latency.
    llc_latency: int = 42
    #: Cycles to fill the TLB and restart the pipeline after a walk; this
    #: plus the walk-return NoC overhead and the replay's L1/L2/LLC
    #: lookups forms TEMPO's 120+-cycle slack window (paper Sec. 3).
    tlb_fill_latency: int = 45

    def validate(self) -> None:
        _require(self.nonmem_cycles_per_gap >= 0, "nonmem_cycles_per_gap must be >= 0")
        _require(
            0 < self.l1_latency < self.l2_latency < self.llc_latency,
            "cache latencies must be increasing and positive",
        )
        _require(self.tlb_fill_latency >= 0, "tlb_fill_latency must be >= 0")


@dataclass(frozen=True)
class TlbConfig:
    """Two-level TLB hierarchy with per-page-size L1 arrays."""

    l1_entries_4k: int = 64
    l1_assoc_4k: int = 4
    l1_entries_2m: int = 32
    l1_assoc_2m: int = 4
    l1_entries_1g: int = 4
    l1_assoc_1g: int = 4
    #: Unified second-level TLB (all page sizes).
    l2_entries: int = 1024
    l2_assoc: int = 8
    l2_latency: int = 7
    #: Skylake's STLB does not hold 1 GB translations; they live only in
    #: the tiny dedicated L1 array.
    l2_holds_1g: bool = False

    def validate(self) -> None:
        for entries, assoc, label in (
            (self.l1_entries_4k, self.l1_assoc_4k, "L1-4K"),
            (self.l1_entries_2m, self.l1_assoc_2m, "L1-2M"),
            (self.l1_entries_1g, self.l1_assoc_1g, "L1-1G"),
            (self.l2_entries, self.l2_assoc, "L2"),
        ):
            _require(entries > 0, "%s TLB needs at least one entry" % label)
            _require(assoc > 0, "%s TLB associativity must be positive" % label)
            _require(entries % assoc == 0, "%s TLB entries not divisible by assoc" % label)
            _require(_power_of_two(entries // assoc), "%s TLB set count must be a power of two" % label)
        _require(self.l2_latency > 0, "L2 TLB latency must be positive")


@dataclass(frozen=True)
class MmuCacheConfig:
    """Page-walk caches holding L4/L3/L2 page-table entries.

    The paper notes MMU caches are ~32x smaller than TLBs yet enjoy
    better hit rates because upper-level entries map large address chunks.
    """

    entries_per_level: int = 32
    assoc: int = 4
    latency: int = 2

    def validate(self) -> None:
        _require(self.entries_per_level > 0, "MMU cache needs entries")
        _require(self.entries_per_level % self.assoc == 0, "MMU cache entries not divisible by assoc")
        _require(self.latency >= 0, "MMU cache latency must be >= 0")


@dataclass(frozen=True)
class CacheConfig:
    """One set-associative cache level."""

    size_bytes: int
    assoc: int
    line_bytes: int = CACHE_LINE_BYTES
    replacement: str = "lru"

    def validate(self) -> None:
        _require(self.size_bytes > 0, "cache size must be positive")
        _require(self.assoc > 0, "cache associativity must be positive")
        # Line ids, victims' writeback addresses and DRAM request
        # addresses all assume CACHE_LINE_BYTES lines.
        _require(
            self.line_bytes == CACHE_LINE_BYTES,
            "cache line size must be %d bytes, got %d" % (CACHE_LINE_BYTES, self.line_bytes),
        )
        sets = self.size_bytes // (self.assoc * self.line_bytes)
        _require(sets > 0, "cache too small for its associativity")
        _require(_power_of_two(sets), "cache set count must be a power of two")
        _require(self.replacement in ("lru", "random"), "unknown replacement %r" % self.replacement)

    @property
    def num_sets(self) -> int:
        return self.size_bytes // (self.assoc * self.line_bytes)


@dataclass(frozen=True)
class RowPolicyConfig:
    """DRAM row-buffer management policy (paper Sec. 4.3)."""

    #: One of "open", "closed", "adaptive".
    policy: str = "adaptive"
    #: Adaptive policy's prediction cache (Awasthi et al. [17]).
    predictor_sets: int = 2048
    predictor_ways: int = 4
    #: Adaptive policy: initial/maximum predicted keep-open window.
    predictor_initial_window: int = 200
    predictor_max_window: int = 2000

    def validate(self) -> None:
        _require(self.policy in ("open", "closed", "adaptive"), "unknown row policy %r" % self.policy)
        _require(self.predictor_sets > 0 and _power_of_two(self.predictor_sets), "predictor sets must be a power of two")
        _require(self.predictor_ways > 0, "predictor ways must be positive")
        _require(
            0 < self.predictor_initial_window <= self.predictor_max_window,
            "predictor windows must satisfy 0 < initial <= max",
        )


@dataclass(frozen=True)
class SubRowConfig:
    """Sub-row buffers replacing the per-bank row buffer (paper Sec. 4.4)."""

    enabled: bool = False
    num_subrows: int = 8
    #: "foa" (fairness-oriented) or "poa" (performance-oriented).
    allocation: str = "foa"
    #: Sub-rows reserved for TEMPO's post-translation prefetches.
    dedicated_prefetch_subrows: int = 2

    def validate(self) -> None:
        _require(self.num_subrows > 0, "need at least one sub-row")
        _require(self.allocation in ("foa", "poa"), "unknown sub-row allocation %r" % self.allocation)
        _require(
            0 <= self.dedicated_prefetch_subrows < self.num_subrows,
            "dedicated prefetch sub-rows must leave at least one general sub-row",
        )


@dataclass(frozen=True)
class DramConfig:
    """DRAM organization and DDR3-style timing.

    Latencies follow the paper's Sec. 2.3 numbers at ~3 GHz: row-buffer
    hits 10-15 ns (~40 cycles), misses/conflicts 30-50 ns (~90-130
    cycles), so hits improve access latency by up to ~66%.
    """

    channels: int = 2
    banks_per_channel: int = 8
    row_bytes: int = 8 * 1024
    #: Column access when the row is already open.
    row_hit_cycles: int = 40
    #: Activate + column access when the bank is precharged (row miss).
    row_miss_cycles: int = 110
    #: Precharge + activate + column access (row conflict).
    row_conflict_cycles: int = 150
    #: Fixed controller + on-chip-network overhead per DRAM access.
    controller_overhead_cycles: int = 20
    #: Channel/bus occupancy per request (data-burst transfer time).
    bus_cycles: int = 10
    #: Transaction-queue capacity per channel; tagged PT requests consume
    #: two slots (paper Sec. 4.1), and prefetches are dropped when full.
    txq_capacity: int = 32
    #: Refresh: every ``refresh_interval_cycles`` a bank performs an
    #: all-bank refresh taking ``refresh_cycles`` (tREFI/tRFC at ~3 GHz).
    #: 0 disables refresh.
    refresh_interval_cycles: int = 23400
    refresh_cycles: int = 1050
    subrows: SubRowConfig = field(default_factory=SubRowConfig)

    def validate(self) -> None:
        _require(self.channels > 0 and _power_of_two(self.channels), "channels must be a power of two")
        _require(self.banks_per_channel > 0 and _power_of_two(self.banks_per_channel), "banks must be a power of two")
        _require(_power_of_two(self.row_bytes), "row size must be a power of two")
        _require(self.row_bytes >= PAGE_SIZE_4K, "row must hold at least one 4 KB page")
        _require(
            0 < self.row_hit_cycles < self.row_miss_cycles <= self.row_conflict_cycles,
            "DRAM latencies must satisfy hit < miss <= conflict",
        )
        _require(self.controller_overhead_cycles >= 0, "controller overhead must be >= 0")
        _require(self.bus_cycles >= 0, "bus cycles must be >= 0")
        _require(self.txq_capacity >= 4, "transaction queue too small to be useful")
        _require(self.refresh_interval_cycles >= 0, "refresh interval must be >= 0")
        _require(self.refresh_cycles >= 0, "refresh duration must be >= 0")
        if self.refresh_interval_cycles:
            _require(
                self.refresh_cycles < self.refresh_interval_cycles,
                "refresh duration must be shorter than the interval",
            )
        self.subrows.validate()


@dataclass(frozen=True)
class SchedulerConfig:
    """Memory-scheduler selection and BLISS parameters."""

    #: One of "fcfs", "frfcfs", "bliss", "atlas".
    policy: str = "frfcfs"
    #: BLISS: consecutive requests from one CPU before blacklisting.
    bliss_blacklist_threshold: int = 4
    #: BLISS: blacklist clearing interval, in cycles.
    bliss_clearing_interval: int = 10000
    #: BLISS counter increment for a demand access (paper: 2).
    bliss_demand_increment: int = 2
    #: BLISS counter increment for a TEMPO prefetch (paper: 1, i.e. half).
    bliss_prefetch_increment: int = 1
    #: ATLAS: attained-service quantum (cycles) after which ranks reset.
    atlas_quantum_cycles: int = 100_000

    def validate(self) -> None:
        _require(
            self.policy in ("fcfs", "frfcfs", "bliss", "atlas"),
            "unknown scheduler %r" % self.policy,
        )
        _require(self.atlas_quantum_cycles > 0, "ATLAS quantum must be positive")
        _require(self.bliss_blacklist_threshold > 0, "BLISS threshold must be positive")
        _require(self.bliss_clearing_interval > 0, "BLISS clearing interval must be positive")
        _require(self.bliss_demand_increment > 0, "BLISS demand increment must be positive")
        _require(self.bliss_prefetch_increment >= 0, "BLISS prefetch increment must be >= 0")


@dataclass(frozen=True)
class TempoConfig:
    """The paper's contribution: translation-triggered prefetching."""

    enabled: bool = True
    #: Prefetch the replay's row into the DRAM row buffer.
    row_prefetch: bool = True
    #: Additionally push the replay's cache line into the LLC.
    llc_prefetch: bool = True
    #: Cycles to move the target row from the array to the row buffer.
    prefetch_row_cycles: int = 60
    #: Extra cycles to ship the line from the row buffer into the LLC.
    prefetch_llc_extra_cycles: int = 25
    #: Transaction-queue scanning (paper Sec. 4.3b): schedule queued
    #: page-table requests grouped by row, then their prefetches grouped
    #: by row.  Disable for the ablation study.
    txq_grouping: bool = True
    #: Open-row anticipation: cycles to keep a just-read page-table row
    #: open before closing it for the prefetch (paper Sec. 4.3: 10 best).
    wait_cycles: int = 10
    #: BLISS integration: cycles to keep the prefetched row open before
    #: switching to a competing application (paper Sec. 4.3: 15 best).
    grace_period_cycles: int = 15

    def validate(self) -> None:
        _require(self.prefetch_row_cycles > 0, "row prefetch latency must be positive")
        _require(self.prefetch_llc_extra_cycles >= 0, "LLC prefetch extra latency must be >= 0")
        _require(self.wait_cycles >= 0, "wait cycles must be >= 0")
        _require(self.grace_period_cycles >= 0, "grace period must be >= 0")
        if self.llc_prefetch and not self.row_prefetch:
            raise ConfigError(
                "LLC prefetch requires the row prefetch step (data moves array -> row buffer -> LLC)",
                context={
                    "llc_prefetch": self.llc_prefetch,
                    "row_prefetch": self.row_prefetch,
                },
            )


@dataclass(frozen=True)
class ImpConfig:
    """IMP indirect-memory prefetcher (Yu et al. [44]), default params."""

    enabled: bool = False
    prefetch_table_entries: int = 16
    indirect_pattern_detector_entries: int = 4
    max_prefetch_distance: int = 16

    def validate(self) -> None:
        _require(self.prefetch_table_entries > 0, "IMP table needs entries")
        _require(self.indirect_pattern_detector_entries > 0, "IPD needs entries")
        _require(self.max_prefetch_distance > 0, "IMP prefetch distance must be positive")


@dataclass(frozen=True)
class VmConfig:
    """OS virtual-memory model: allocation and superpage policy."""

    #: Modelled physical memory size.  The paper's machine has 4 TB; the
    #: frame allocator is lazy, so only touched frames cost host memory.
    phys_mem_bytes: int = 4 * 1024 * 1024 * 1024 * 1024
    #: Transparent 2 MB hugepages (Linux THP).
    thp_enabled: bool = True
    #: Explicit hugetlbfs reservations (overrides THP when set).
    hugetlbfs_2m: bool = False
    hugetlbfs_1g: bool = False
    #: Fraction of physical memory randomly pinned by memhog to induce
    #: fragmentation (paper Sec. 6.2: 0/0.25/0.5/0.75).
    memhog_fraction: float = 0.0

    def validate(self) -> None:
        _require(self.phys_mem_bytes >= PAGE_SIZE_4K, "physical memory too small")
        _require(_power_of_two(self.phys_mem_bytes), "physical memory must be a power of two")
        _require(0.0 <= self.memhog_fraction < 1.0, "memhog fraction must be in [0, 1)")
        if self.hugetlbfs_2m and self.hugetlbfs_1g:
            raise ConfigError(
                "choose one hugetlbfs page size",
                context={
                    "hugetlbfs_2m": self.hugetlbfs_2m,
                    "hugetlbfs_1g": self.hugetlbfs_1g,
                },
            )


@dataclass(frozen=True)
class EnergyConfig:
    """Analytical energy model (arbitrary units per event/cycle).

    Background (static) power dominates, so runtime reductions translate
    into the paper's 1-14% energy savings; per-command terms charge
    TEMPO for its extra prefetch activations.
    """

    background_power_per_kilocycle: float = 8.0
    act_pre_energy: float = 2.0
    array_read_energy: float = 1.0
    row_hit_read_energy: float = 0.4
    llc_access_energy: float = 0.1
    #: TEMPO area overhead: 3% on the controller's share of static power.
    tempo_static_overhead: float = 0.002

    def validate(self) -> None:
        for name in (
            "background_power_per_kilocycle",
            "act_pre_energy",
            "array_read_energy",
            "row_hit_read_energy",
            "llc_access_energy",
            "tempo_static_overhead",
        ):
            _require(getattr(self, name) >= 0, "%s must be >= 0" % name)


@dataclass(frozen=True)
class SystemConfig:
    """Top-level system description (the Figure-9 machine, scaled)."""

    core: CoreConfig = field(default_factory=CoreConfig)
    tlb: TlbConfig = field(default_factory=TlbConfig)
    mmu_cache: MmuCacheConfig = field(default_factory=MmuCacheConfig)
    l1: CacheConfig = field(default_factory=lambda: CacheConfig(size_bytes=32 * 1024, assoc=8))
    l2: CacheConfig = field(default_factory=lambda: CacheConfig(size_bytes=256 * 1024, assoc=8))
    llc: CacheConfig = field(default_factory=lambda: CacheConfig(size_bytes=2 * 1024 * 1024, assoc=16))
    dram: DramConfig = field(default_factory=DramConfig)
    row_policy: RowPolicyConfig = field(default_factory=RowPolicyConfig)
    scheduler: SchedulerConfig = field(default_factory=SchedulerConfig)
    tempo: TempoConfig = field(default_factory=TempoConfig)
    imp: ImpConfig = field(default_factory=ImpConfig)
    vm: VmConfig = field(default_factory=VmConfig)
    energy: EnergyConfig = field(default_factory=EnergyConfig)
    num_cores: int = 1
    seed: int = 1701

    def validate(self) -> SystemConfig:
        """Validate every sub-config; raises :class:`ConfigError`."""
        self.core.validate()
        self.tlb.validate()
        self.mmu_cache.validate()
        self.l1.validate()
        self.l2.validate()
        self.llc.validate()
        self.dram.validate()
        self.row_policy.validate()
        self.scheduler.validate()
        self.tempo.validate()
        self.imp.validate()
        self.vm.validate()
        self.energy.validate()
        _require(self.num_cores > 0, "need at least one core")
        _require(self.l1.size_bytes <= self.l2.size_bytes <= self.llc.size_bytes, "cache sizes must be non-decreasing")
        return self

    def with_tempo(self, enabled: bool = True, **overrides: Any) -> SystemConfig:
        """Return a copy with TEMPO toggled (and optional field overrides)."""
        tempo = replace(self.tempo, enabled=enabled, **overrides)
        return replace(self, tempo=tempo)

    def copy_with(self, **overrides: Any) -> SystemConfig:
        """Return a shallow-copied config with top-level overrides."""
        return replace(self, **overrides)


def default_system_config(**overrides: Any) -> SystemConfig:
    """The validated Skylake-like default machine (Figure 9, scaled)."""
    config = SystemConfig(**overrides)
    config.validate()
    return config
