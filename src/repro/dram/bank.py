"""Per-bank row-buffer state machines and the DRAM device aggregate.

The model keys on the paper's Sec. 2.3 anatomy of an access:

* **row-buffer hit** -- the requested row is already latched: column
  access only.
* **row-buffer miss** -- the bank is precharged (no open row, or the
  policy auto-closed it off the critical path): activate + column.
* **row-buffer conflict** -- a *different* row is open: precharge on the
  critical path, then activate + column.

Banks serialize via ``ready_at``; the open-row lifetime is governed by a
row policy (:mod:`repro.dram.row_policy`).  TEMPO's two scheduling knobs
surface here: ``keep_open_until`` (the 10-cycle anticipation window that
holds a just-read page-table row open) and per-bank reservations used for
the BLISS grace period.
"""

from repro.common.stats import StatGroup
from repro.dram.address_map import AddressMap
from repro.dram.row_policy import make_row_policy

OUTCOME_HIT = "hit"
OUTCOME_MISS = "miss"
OUTCOME_CONFLICT = "conflict"


class Bank:
    """One DRAM bank: open-row state + timing."""

    __slots__ = (
        "bank_id",
        "total_banks",
        "_timing",
        "_policy",
        "open_row",
        "auto_close_at",
        "ready_at",
        "next_refresh_at",
        "reserved_cpu",
        "reserved_until",
        "stats",
        "_outcome_counters",
        "_refresh_counter",
    )

    def __init__(self, bank_id, total_banks, dram_config, policy, stats=None):
        self.bank_id = bank_id
        self.total_banks = total_banks
        self._timing = dram_config
        self._policy = policy
        self.open_row = None
        self.auto_close_at = None
        self.ready_at = 0
        # All banks of a rank refresh together every tREFI (an all-bank
        # refresh command), so the schedule is shared, not staggered.
        interval = dram_config.refresh_interval_cycles
        self.next_refresh_at = interval if interval else None
        #: BLISS grace period: (cpu, until) soft reservation.
        self.reserved_cpu = None
        self.reserved_until = 0
        self.stats = stats if stats is not None else StatGroup("bank.%d" % bank_id)
        self._outcome_counters = {
            OUTCOME_HIT: self.stats.counter(OUTCOME_HIT),
            OUTCOME_MISS: self.stats.counter(OUTCOME_MISS),
            OUTCOME_CONFLICT: self.stats.counter(OUTCOME_CONFLICT),
        }
        self._refresh_counter = self.stats.counter("refreshes")

    def _apply_refresh(self, start):
        """Perform the refreshes due by *start* (:meth:`access` calls
        this only when one is); returns the delayed earliest time the
        access can begin.  A refresh precharges the bank (closing the
        open row)."""
        interval = self._timing.refresh_interval_cycles
        duration = self._timing.refresh_cycles
        while start >= self.next_refresh_at:
            refresh_end = max(self.next_refresh_at, self.ready_at) + duration
            if start < refresh_end:
                start = refresh_end
            self.open_row = None
            self.auto_close_at = None
            self.next_refresh_at += interval
            self._refresh_counter.value += 1
        return start

    def effective_open_row(self, now):
        """The row that is *actually* open at time *now*, accounting for
        the policy's auto-close."""
        if self.open_row is None:
            return None
        if self.auto_close_at is not None and now >= self.auto_close_at:
            return None
        return self.open_row

    def classify(self, row, now, row_offset=0):
        """Outcome an access to *row* would see at *now* (no state change).

        *row_offset* is accepted for interface parity with
        :class:`~repro.dram.subrow.SubRowBank` (a whole-row buffer does
        not care which byte is touched).
        """
        effective = self.effective_open_row(now)
        if effective is None:
            return OUTCOME_MISS
        return OUTCOME_HIT if effective == row else OUTCOME_CONFLICT

    def buffer_key(self, row, row_offset):
        """The row-buffer contents an access to *row* needs: the row.
        :meth:`classify` reports a hit exactly when this key is among
        :meth:`open_keys`."""
        return row

    def open_keys(self, now):
        """The keys an access at *now* would hit: the open row, if any."""
        row = self.effective_open_row(now)
        return () if row is None else (row,)

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
        """Perform one column access to *row*.

        Returns ``(start, end, outcome)``.  *keep_open_extra* is TEMPO's
        anticipation window: the row will not auto-close until at least
        that many cycles after the access ends, even under closed or
        adaptive policies (paper Sec. 4.3a).  *latency_override* replaces
        the outcome-derived latency -- used for TEMPO's row prefetch,
        which is a bare activation (the paper's 60-100 cycles) rather
        than a full column access.  *cpu*, *is_prefetch* and
        *row_offset* exist for interface parity with
        :class:`~repro.dram.subrow.SubRowBank`.
        """
        start = now if now >= self.ready_at else self.ready_at
        if self.next_refresh_at is not None and start >= self.next_refresh_at:
            start = self._apply_refresh(start)
        prev_row = self.open_row
        was_open = self.effective_open_row(start) is not None

        if not was_open:
            outcome = OUTCOME_MISS
            latency = self._timing.row_miss_cycles
        elif prev_row == row:
            outcome = OUTCOME_HIT
            latency = self._timing.row_hit_cycles
        else:
            outcome = OUTCOME_CONFLICT
            latency = self._timing.row_conflict_cycles

        # The predictor's key for (bank, row), unique across banks.
        key = row * self.total_banks + self.bank_id
        if prev_row is not None and (prev_row != row or not was_open):
            # Teach the adaptive predictor about the transition it just
            # experienced, or about a missed hit: the same row, but it
            # had auto-closed.
            self._policy.record_transition(
                prev_row * self.total_banks + self.bank_id, key, was_open
            )

        if latency_override is not None:
            latency = latency_override
        end = start + latency
        self.ready_at = end
        self.open_row = row
        close_at = self._policy.close_time(key, end)
        if keep_open_extra is not None and close_at is not None:
            close_at = max(close_at, end + keep_open_extra)
        self.auto_close_at = close_at
        self._outcome_counters[outcome].value += 1
        return start, end, outcome

    def reserve(self, cpu, until):
        """Soft-reserve the bank for *cpu* (TEMPO's BLISS grace period)."""
        self.reserved_cpu = cpu
        self.reserved_until = until

    def reserved_against(self, cpu, now):
        """True when a *different* CPU should defer to a reservation."""
        return (
            self.reserved_cpu is not None
            and self.reserved_cpu != cpu
            and now < self.reserved_until
        )

    def __repr__(self):
        return "Bank(%d, open=%s)" % (self.bank_id, self.open_row)


class DramDevice:
    """All banks across all channels, plus the address map."""

    def __init__(self, dram_config, row_policy_config, bank_factory=None):
        self.config = dram_config
        self.address_map = AddressMap(dram_config)
        self.row_policy = make_row_policy(row_policy_config)
        self.stats = StatGroup("dram")
        total = self.address_map.total_banks
        make_bank = bank_factory if bank_factory is not None else self._default_bank
        # Every bank counts into one shared group: dram.bank.*.
        bank_stats = self.stats.child("bank")
        self.banks = [make_bank(bank_id, total, bank_stats) for bank_id in range(total)]

    def _default_bank(self, bank_id, total, stats):
        return Bank(bank_id, total, self.config, self.row_policy, stats)

    def bank_for(self, paddr):
        return self.banks[self.address_map.bank_index(paddr)]

    def access(
        self,
        bank_index,
        row,
        now,
        keep_open_extra=None,
        cpu=0,
        is_prefetch=False,
        row_offset=0,
        latency_override=None,
    ):
        """Access *row* of the bank at flat index *bank_index* (both from
        :meth:`AddressMap.decode`, which the memory controller runs once
        per request); returns ``(start, end, outcome)``."""
        return self.banks[bank_index].access(
            row, now, keep_open_extra, cpu, is_prefetch, row_offset, latency_override
        )

    def classify(self, paddr, now):
        """What outcome an access at *now* would see (no state change)."""
        location = self.address_map.decode(paddr)
        return self.bank_for(paddr).classify(location.row, now, location.row_offset)

    def row_open(self, paddr, now):
        """True when the row holding *paddr* is open at *now* -- the test
        deciding whether a TEMPO row prefetch still helps the replay."""
        return self.classify(paddr, now) == OUTCOME_HIT
