"""TEMPO's Prefetch Engine (paper Sec. 4.1, Figure 7).

When the memory controller services a *tagged* leaf page-table request
from DRAM, the engine:

1. identifies the 8-byte PTE within the fetched data and extracts the
   physical page number it stores;
2. checks the present bit -- non-present translations (page faults,
   Sec. 4.5) must not trigger prefetches;
3. concatenates the physical page number with the replay's cache-line
   index, which the modified page-table walker piggybacked on the
   request (the second transaction-queue slot);
4. emits a prefetch request: the DRAM row holding the replay target is
   activated into the row buffer, and the cache line is pushed to the
   LLC (``prefetch_llc_extra_cycles`` later).

The engine is non-speculative: the constructed address is exactly the
address the replay will request (paper Sec. 3, "Prefetching accuracy").
"""

from repro.common.addressing import cache_line_base, replay_address
from repro.common.stats import StatGroup
from repro.sched.request import KIND_TEMPO_PREFETCH, MemoryRequest


class PrefetchEngine:
    """The controller-side FSM that turns PT fetches into prefetches."""

    def __init__(self, tempo_config, name="tempo_engine"):
        tempo_config.validate()
        self.config = tempo_config
        self.stats = StatGroup(name)
        self._suppressed = self.stats.counter_handle("suppressed_not_present")
        self._built = self.stats.counter_handle("prefetches_built")

    @property
    def active(self):
        return self.config.enabled and self.config.row_prefetch

    def build_prefetch(self, pt_request, pt_finish_time):
        """Construct the replay-data prefetch for a serviced leaf-PT
        request, or ``None`` when no prefetch should be issued.

        *pt_finish_time* is when the PTE data became available at the
        controller; the prefetch may not start before the anticipation
        window (``wait_cycles``) elapses, giving queued page-table
        requests to the same row a chance to hit (paper Sec. 4.3a).
        """
        if not self.active:
            return None
        if not pt_request.tempo_tagged:
            return None
        pte = pt_request.pte
        if pte is None or not pte.present or not pte.is_leaf:
            # Unallocated translation: never prefetch through a fault.
            self._suppressed.value += 1
            return None
        target = replay_address(pte.frame_paddr, pt_request.replay_line_index)
        prefetch = MemoryRequest(
            paddr=cache_line_base(target),
            kind=KIND_TEMPO_PREFETCH,
            cpu=pt_request.cpu,
            enqueue_time=pt_finish_time,
            not_before=pt_finish_time + self.config.wait_cycles,
            origin_pt_id=pt_request.req_id,
        )
        self._built.value += 1
        return prefetch

    def llc_ready_time(self, prefetch_finish_time):
        """When the prefetched line lands in the LLC (``None`` when LLC
        prefetching is disabled and only the row buffer is warmed)."""
        if not self.config.llc_prefetch:
            return None
        return prefetch_finish_time + self.config.prefetch_llc_extra_cycles
