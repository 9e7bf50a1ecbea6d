"""Sub-row buffers (Gulur et al. [18]; paper Secs. 4.4 and 6.4).

Each bank's monolithic row buffer is replaced by ``num_subrows`` smaller
buffers (default 8 x 1 KB for an 8 KB row).  A sub-row buffer holds one
*segment* -- a 1 KB-aligned slice -- of one row, so several rows can be
partially open at once, behaving like a tiny fully-associative cache of
row segments.

Allocation policies decide which sub-row a new activation may evict:

* **FOA** (fairness-oriented): sub-rows are statically partitioned
  round-robin across cores so no application can monopolize them.
* **POA** (performance-oriented): the partition is recomputed every
  epoch in proportion to each core's recent demand.

TEMPO's addition (paper Sec. 4.4): ``dedicated_prefetch_subrows`` slots
are reserved for post-translation prefetches, so prefetched replay data
is never evicted by unrelated demand activations before the replay
arrives.  Dedicating 2 of 8 performs best (Figure 17).
"""

from repro.common.errors import ConfigError
from repro.common.stats import StatGroup
from repro.dram.bank import OUTCOME_HIT, OUTCOME_MISS

#: POA repartitioning epoch, in accesses per bank.
POA_EPOCH_ACCESSES = 512

#: Owner tag for TEMPO-dedicated slots.
PREFETCH_OWNER = "prefetch"


class _Slot:
    __slots__ = ("content", "last_used", "owner")

    def __init__(self, owner):
        self.content = None  # (row, segment) or None
        self.last_used = -1
        self.owner = owner


class SubRowBank:
    """A bank whose row buffer is split into sub-row buffers.

    Interface-compatible with :class:`repro.dram.bank.Bank` (``access``
    / ``classify`` / ``reserve``), so the memory controller treats both
    uniformly.
    """

    def __init__(self, bank_id, total_banks, dram_config, num_cpus=1, stats=None):
        subrow_config = dram_config.subrows
        if not subrow_config.enabled:
            raise ConfigError(
                "SubRowBank requires subrows.enabled",
                context={"bank_id": bank_id, "subrows_enabled": subrow_config.enabled},
            )
        self.bank_id = bank_id
        self.total_banks = total_banks
        self._timing = dram_config
        self.num_subrows = subrow_config.num_subrows
        self.subrow_bytes = dram_config.row_bytes // self.num_subrows
        self.allocation = subrow_config.allocation
        self.num_cpus = max(num_cpus, 1)
        dedicated = subrow_config.dedicated_prefetch_subrows
        self.slots = [
            _Slot(PREFETCH_OWNER if index < dedicated else None)
            for index in range(self.num_subrows)
        ]
        self._assign_static_owners()
        self.ready_at = 0
        interval = dram_config.refresh_interval_cycles
        self.next_refresh_at = interval if interval else None
        self.reserved_cpu = None
        self.reserved_until = 0
        self._access_count = 0
        self._cpu_demand = [0] * self.num_cpus
        self.stats = stats if stats is not None else StatGroup("subrow_bank.%d" % bank_id)
        self._outcome_counters = {
            OUTCOME_HIT: self.stats.counter_handle(OUTCOME_HIT),
            OUTCOME_MISS: self.stats.counter_handle(OUTCOME_MISS),
        }
        self._refreshes = self.stats.counter_handle("refreshes")

    def _general_slots(self):
        return [slot for slot in self.slots if slot.owner != PREFETCH_OWNER]

    def _assign_static_owners(self):
        """FOA: round-robin static partition of the general slots."""
        for position, slot in enumerate(self._general_slots()):
            slot.owner = position % self.num_cpus

    def _repartition_poa(self):
        """POA: reassign general slots proportionally to recent demand."""
        general = self._general_slots()
        total_demand = sum(self._cpu_demand)
        if total_demand == 0:
            return
        shares = [
            max(1, round(len(general) * demand / total_demand))
            for demand in self._cpu_demand
        ]
        assignment = []
        for cpu, share in enumerate(shares):
            assignment.extend([cpu] * share)
        for slot, owner in zip(general, assignment):
            slot.owner = owner
        self._cpu_demand = [0] * self.num_cpus

    # ------------------------------------------------------------------
    # Bank-compatible interface
    # ------------------------------------------------------------------

    def _segment(self, row_offset):
        return row_offset // self.subrow_bytes

    def _apply_refresh(self, start):
        """Refresh precharges every sub-row buffer (all slots emptied)."""
        if self.next_refresh_at is None:
            return start
        interval = self._timing.refresh_interval_cycles
        duration = self._timing.refresh_cycles
        while start >= self.next_refresh_at:
            refresh_end = max(self.next_refresh_at, self.ready_at) + duration
            if start < refresh_end:
                start = refresh_end
            for slot in self.slots:
                slot.content = None
            self.next_refresh_at += interval
            self._refreshes.value += 1
        return start

    def classify(self, row, now, row_offset=0):
        target = (row, self._segment(row_offset))
        for slot in self.slots:
            if slot.content == target:
                return OUTCOME_HIT
        return OUTCOME_MISS

    def buffer_key(self, row, row_offset):
        """The sub-row buffer contents an access needs: ``(row,
        segment)``.  :meth:`classify` reports a hit exactly when this key
        is among :meth:`open_keys`."""
        return (row, self._segment(row_offset))

    def open_keys(self, now):
        """The ``(row, segment)`` held in each live sub-row buffer."""
        return [slot.content for slot in self.slots if slot.content is not None]

    def access(
        self,
        row,
        now,
        keep_open_extra=None,
        cpu=0,
        is_prefetch=False,
        row_offset=0,
        latency_override=None,
    ):
        """Access *row* at byte *row_offset*; returns (start, end, outcome).

        Sub-rows never pay the conflict penalty: a victim slot's
        precharge overlaps with the new activation (other slots keep
        serving), so non-hits cost a row miss.
        """
        start = now if now >= self.ready_at else self.ready_at
        start = self._apply_refresh(start)
        segment = self._segment(row_offset)
        target = (row, segment)
        cpu = cpu % self.num_cpus

        hit_slot = None
        for slot in self.slots:
            if slot.content == target:
                hit_slot = slot
                break

        if hit_slot is not None:
            outcome = OUTCOME_HIT
            latency = self._timing.row_hit_cycles
            hit_slot.last_used = start
        else:
            outcome = OUTCOME_MISS
            latency = self._timing.row_miss_cycles
            victim = self._choose_victim(cpu, is_prefetch)
            victim.content = target
            victim.last_used = start

        if latency_override is not None:
            latency = latency_override
        end = start + latency
        self.ready_at = end
        self._outcome_counters[outcome].value += 1
        if not is_prefetch:
            self._cpu_demand[cpu] += 1
        self._access_count += 1
        if self.allocation == "poa" and self._access_count % POA_EPOCH_ACCESSES == 0:
            self._repartition_poa()
        return start, end, outcome

    def _choose_victim(self, cpu, is_prefetch):
        """LRU within the permitted slot partition."""
        if is_prefetch:
            permitted = [slot for slot in self.slots if slot.owner == PREFETCH_OWNER]
            if not permitted:
                permitted = self._general_slots()
        else:
            permitted = [slot for slot in self.slots if slot.owner == cpu]
            if not permitted:
                permitted = self._general_slots()
        empty = [slot for slot in permitted if slot.content is None]
        if empty:
            return empty[0]
        return min(permitted, key=lambda slot: slot.last_used)

    def reserve(self, cpu, until):
        self.reserved_cpu = cpu
        self.reserved_until = until

    def reserved_against(self, cpu, now):
        return (
            self.reserved_cpu is not None
            and self.reserved_cpu != cpu
            and now < self.reserved_until
        )

    @property
    def open_row(self):
        """Most-recently-used slot's row (diagnostic only)."""
        live = [slot for slot in self.slots if slot.content is not None]
        if not live:
            return None
        return max(live, key=lambda slot: slot.last_used).content[0]

    def __repr__(self):
        live = sum(1 for slot in self.slots if slot.content is not None)
        return "SubRowBank(%d, %d/%d live)" % (self.bank_id, live, self.num_subrows)


class SubRowSet:
    """Factory helper wiring SubRowBanks into a DramDevice."""

    def __init__(self, dram_config, num_cpus):
        self.dram_config = dram_config
        self.num_cpus = num_cpus

    def __call__(self, bank_id, total_banks, stats):
        return SubRowBank(bank_id, total_banks, self.dram_config, self.num_cpus, stats)
