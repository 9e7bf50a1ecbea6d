"""IMP: Indirect Memory Prefetcher (Yu et al., MICRO 2015; paper Sec. 4.2).

IMP targets ``A[B[i]]`` patterns: it watches a sequential *index* stream
(B) and learns the affine relation ``addr = base + coeff * B[i]`` so it
can prefetch the irregular *target* stream (A) ahead of the demand
accesses.

Faithfulness note (documented in DESIGN.md): real IMP reads the index
array's *values* out of incoming cache lines to compute targets.  A
trace-driven simulator has no data values, so our workload generators
label each record with the *pattern stream* it belongs to, and the
simulator offers the prefetcher the upcoming addresses of the same
stream (the ground truth IMP would have computed).  The structural
limits that determine IMP's real-world coverage are all enforced here:

* only ``indirect_pattern_detector_entries`` streams can be *learning*
  at once (IPD capacity);
* a stream must be observed ``TRAIN_THRESHOLD`` times before it is
  promoted to the prefetch table and starts issuing;
* the prefetch table holds ``prefetch_table_entries`` trained streams
  (LRU);
* at most ``max_prefetch_distance`` accesses of lookahead, issued
  ``PREFETCH_DEGREE`` at a time.

This preserves the two interactions the paper studies: IMP prefetches
cross page boundaries (generating extra TLB misses and DRAM page-table
walks -- which TEMPO then accelerates), and IMP removes many non-PT DRAM
accesses (making the remaining PTW/replay accesses a bigger bottleneck).
"""

from repro.common.stats import StatGroup

#: Observations of a stream before IMP considers the pattern learned.
TRAIN_THRESHOLD = 8

#: Prefetches issued per triggering access once trained.
PREFETCH_DEGREE = 2


class _StreamState:
    __slots__ = ("observations", "trained", "issued_upto")

    def __init__(self):
        self.observations = 0
        self.trained = False
        self.issued_upto = -1


class ImpPrefetcher:
    """Structural IMP model; see module docstring."""

    def __init__(self, config, name="imp"):
        config.validate()
        self.config = config
        #: Streams currently being learned (IPD): pattern_id -> state.
        self._detector = {}
        #: Trained streams (prefetch table), LRU by dict order.
        self._table = {}
        self.stats = StatGroup(name)

    def observe(self, pattern_id, record_index, upcoming):
        """Digest one demand access and return prefetch targets.

        *pattern_id* labels the indirect stream (``None`` for accesses
        IMP cannot relate to an index array -- those never train).
        *record_index* is the trace position of the access.  *upcoming*
        is the list of ``(trace_index, vaddr)`` for the next accesses of
        the same stream, already clipped to ``max_prefetch_distance`` by
        the caller.

        Returns a list of virtual addresses to prefetch (possibly empty).
        """
        if pattern_id is None:
            return []
        state = self._table.get(pattern_id)
        if state is not None:
            # Refresh LRU position in the prefetch table.
            del self._table[pattern_id]
            self._table[pattern_id] = state
            return self._issue(state, record_index, upcoming)
        return self._learn(pattern_id, record_index, upcoming)

    def _learn(self, pattern_id, record_index, upcoming):
        state = self._detector.get(pattern_id)
        if state is None:
            if len(self._detector) >= self.config.indirect_pattern_detector_entries:
                # IPD full: evict the oldest learning stream.
                del self._detector[next(iter(self._detector))]
                self.stats.counter("ipd_evictions").add()
            state = _StreamState()
            self._detector[pattern_id] = state
        state.observations += 1
        if state.observations < TRAIN_THRESHOLD:
            return []
        # Promote to the prefetch table.
        del self._detector[pattern_id]
        if len(self._table) >= self.config.prefetch_table_entries:
            del self._table[next(iter(self._table))]
            self.stats.counter("table_evictions").add()
        state.trained = True
        self._table[pattern_id] = state
        self.stats.counter("streams_trained").add()
        return self._issue(state, record_index, upcoming)

    def _issue(self, state, record_index, upcoming):
        targets = []
        for trace_index, vaddr in upcoming:
            if trace_index <= state.issued_upto:
                continue
            if trace_index - record_index > self.config.max_prefetch_distance:
                break
            targets.append(vaddr)
            state.issued_upto = trace_index
            if len(targets) >= PREFETCH_DEGREE:
                break
        self.stats.counter("prefetches_issued").add(len(targets))
        return targets

    @property
    def trained_streams(self):
        return len(self._table)

    def __repr__(self):
        return "ImpPrefetcher(%d trained, %d learning)" % (
            len(self._table),
            len(self._detector),
        )
