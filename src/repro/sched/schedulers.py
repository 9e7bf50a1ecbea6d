"""Memory schedulers: FCFS, FR-FCFS (Rixner et al. [43]), BLISS
(Subramanian et al. [23, 24]), and TEMPO's transaction-queue grouping
wrapper (paper Sec. 4.3b).

A scheduler has three methods:

``pick(pending, now, context)``
    Choose the next request to service from a channel's pending list.
``pick_lone(request, now, context)``
    The same choice from a list of one, without the scan.  It returns
    exactly what ``pick([request], now, context)`` returns and leaves the
    policy in exactly the state that call would: periodic checks (BLISS's
    clearing, ATLAS's quantum) and counters included, also when the
    request is not eligible.  ``pick`` is its reference.  The controller
    calls it for a request that arrives at an idle channel and whenever
    the list it offers holds one request, which together are most picks.
``on_scheduled(request, now)``
    Learn that *request* was serviced at *now*.

The controller supplies a *context* with two predicates:

``row_hit(request)``
    Would this request hit the currently open row of its bank?
``reserved_against(request)``
    Is the request's bank soft-reserved for a different CPU (TEMPO's
    BLISS grace period, Sec. 4.3)?

Conventions shared by every policy:

* only requests with ``not_before <= now`` are eligible (``None`` is
  returned when nothing is; the controller then advances its clock);
* ``pending`` holds one class of request: the controller keeps
  writebacks apart and offers them only when none of its demands,
  page-table requests and prefetches is eligible, so writebacks go last
  without any policy testing for them;
* the choice depends on which requests are eligible, not on their order
  in ``pending``: every policy ends with the oldest by
  ``(enqueue_time, req_id)``;
* a policy may prefer one request over another that shares its cpu,
  bank, kind and ``not_before`` only by row hit, then by age.  The
  controller relies on it: from each such group of queued writebacks it
  offers only the oldest and the oldest on each open row-buffer key,
  which always include the request a pick over the whole group takes;
* reservations are *delays*: a bank inside another CPU's grace period is
  off-limits until the reservation expires (the paper keeps the
  prefetched row open before switching to a competing application's
  references -- Sec. 4.3).  Reservations always expire, so no request is
  deferred by more than the grace period.
"""

from repro.common.errors import ConfigError
from repro.common.stats import StatGroup
from repro.sched.request import KIND_PT, KIND_TEMPO_PREFETCH, KIND_WRITEBACK


def _eligible(pending, now, context):
    return [
        request
        for request in pending
        if request.not_before <= now and not context.reserved_against(request)
    ]


def _lone_pick(request, now, context):
    """``pick([request])`` for a policy whose choice from one eligible
    request is that request: *request* when it is eligible, else None."""
    if request.not_before <= now and not context.reserved_against(request):
        return request
    return None


def _oldest(candidates):
    return min(candidates, key=lambda request: (request.enqueue_time, request.req_id))


def _row_hit_oldest(candidates, context):
    """FR-FCFS core rule: oldest row-hitting request, else oldest.  A
    lone candidate wins either way (``row_hit`` is a pure predicate)."""
    if len(candidates) == 1:
        return candidates[0]
    hits = [request for request in candidates if context.row_hit(request)]
    return _oldest(hits) if hits else _oldest(candidates)


class FcfsScheduler:
    """Strict age order."""

    name = "fcfs"

    def __init__(self, config=None):
        self.stats = StatGroup("sched.fcfs")

    def pick(self, pending, now, context):
        candidates = _eligible(pending, now, context)
        if not candidates:
            return None
        return _oldest(candidates)

    def pick_lone(self, request, now, context):
        return _lone_pick(request, now, context)

    def on_scheduled(self, request, now):
        pass


class FrFcfsScheduler:
    """First-ready, first-come-first-served: row hits jump the queue."""

    name = "frfcfs"

    def __init__(self, config=None):
        self.stats = StatGroup("sched.frfcfs")

    def pick(self, pending, now, context):
        candidates = _eligible(pending, now, context)
        if not candidates:
            return None
        return _row_hit_oldest(candidates, context)

    def pick_lone(self, request, now, context):
        return _lone_pick(request, now, context)

    def on_scheduled(self, request, now):
        pass


class BlissScheduler:
    """Blacklisting memory scheduler.

    BLISS counts *consecutive* requests served from the same application;
    crossing the threshold blacklists that application (it caused
    interference), and blacklisted applications yield to the others.
    The blacklist clears periodically.

    TEMPO integration (paper Sec. 4.3): prefetches increment the
    consecutive counter with *half* the weight of demand references
    (``bliss_prefetch_increment`` = 1 vs ``bliss_demand_increment`` = 2
    by default); Figure 16 sweeps this ratio.
    """

    name = "bliss"

    def __init__(self, config):
        if config is None:
            raise ConfigError(
                "BlissScheduler needs a SchedulerConfig",
                context={"scheduler": "bliss"},
            )
        self.config = config
        self._blacklist = set()
        self._last_cpu = None
        self._consecutive_weight = 0
        self._next_clear = config.bliss_clearing_interval
        self.stats = StatGroup("sched.bliss")

    @property
    def _weighted_threshold(self):
        return self.config.bliss_blacklist_threshold * self.config.bliss_demand_increment

    def blacklisted(self, cpu):
        return cpu in self._blacklist

    def pick(self, pending, now, context):
        self._maybe_clear(now)
        candidates = _eligible(pending, now, context)
        if not candidates:
            return None
        favoured = [
            request for request in candidates if request.cpu not in self._blacklist
        ]
        pool = favoured if favoured else candidates
        return _row_hit_oldest(pool, context)

    def pick_lone(self, request, now, context):
        self._maybe_clear(now)
        return _lone_pick(request, now, context)

    def on_scheduled(self, request, now):
        self._maybe_clear(now)
        if request.kind == KIND_WRITEBACK:
            return
        if request.cpu != self._last_cpu:
            self._last_cpu = request.cpu
            self._consecutive_weight = 0
        increment = (
            self.config.bliss_prefetch_increment
            if request.is_prefetch
            else self.config.bliss_demand_increment
        )
        self._consecutive_weight += increment
        if self._consecutive_weight >= self._weighted_threshold:
            if request.cpu not in self._blacklist:
                self._blacklist.add(request.cpu)
                self.stats.counter("blacklistings").add()
            self._consecutive_weight = 0

    def _maybe_clear(self, now):
        if now >= self._next_clear:
            self._blacklist.clear()
            self._next_clear = now + self.config.bliss_clearing_interval
            self.stats.counter("clearings").add()


class AtlasScheduler:
    """ATLAS-style least-attained-service scheduling (Kim et al. [19]).

    Each CPU accumulates *attained service* -- the DRAM service time its
    requests have consumed in the current quantum.  Requests from the
    CPU with the least attained service rank first (so bursty heavy
    applications cannot starve light ones); row hits break ties within
    a rank, then age.  Ranks reset every quantum.

    This scheduler is an extension beyond the paper's evaluated set
    (BLISS); the paper cites ATLAS as related work, and the ablation
    benchmark compares TEMPO across all four schedulers.
    """

    name = "atlas"

    def __init__(self, config):
        if config is None:
            raise ConfigError(
                "AtlasScheduler needs a SchedulerConfig",
                context={"scheduler": "atlas"},
            )
        self.config = config
        self._attained = {}
        self._next_reset = config.atlas_quantum_cycles
        self.stats = StatGroup("sched.atlas")

    def attained_service(self, cpu):
        return self._attained.get(cpu, 0)

    def pick(self, pending, now, context):
        self._maybe_reset(now)
        candidates = _eligible(pending, now, context)
        if not candidates:
            return None
        least = min(self._attained.get(request.cpu, 0) for request in candidates)
        ranked = [
            request
            for request in candidates
            if self._attained.get(request.cpu, 0) == least
        ]
        return _row_hit_oldest(ranked, context)

    def pick_lone(self, request, now, context):
        self._maybe_reset(now)
        return _lone_pick(request, now, context)

    def on_scheduled(self, request, now):
        self._maybe_reset(now)
        if request.kind == KIND_WRITEBACK:
            return
        # Attained service is approximated by a unit charge per request;
        # the relative ranking (not the absolute number) is what matters.
        self._attained[request.cpu] = self._attained.get(request.cpu, 0) + 1

    def _maybe_reset(self, now):
        if now >= self._next_reset:
            self._attained.clear()
            self._next_reset = now + self.config.atlas_quantum_cycles
            self.stats.counter("quantum_resets").add()


class TempoGroupingScheduler:
    """TEMPO's transaction-queue scanning (paper Sec. 4.3b, Figure 8).

    Page-table requests lie on the critical path, so they go first --
    grouped so that translations sharing a DRAM row are serviced
    back-to-back.  Their prefetches follow, again grouped by row.
    Everything else falls through to the wrapped base policy.
    """

    def __init__(self, base):
        self.base = base
        self.name = "tempo+%s" % base.name
        self.stats = StatGroup("sched.tempo")
        self._pt_first = self.stats.counter_handle("pt_first")
        self._prefetch_grouped = self.stats.counter_handle("prefetch_grouped")

    def pick(self, pending, now, context):
        candidates = _eligible(pending, now, context)
        if not candidates:
            return None
        pt_requests = [request for request in candidates if request.kind == KIND_PT]
        if pt_requests:
            self._pt_first.value += 1
            return _row_hit_oldest(pt_requests, context)
        prefetches = [
            request for request in candidates if request.kind == KIND_TEMPO_PREFETCH
        ]
        if prefetches:
            self._prefetch_grouped.value += 1
            return _row_hit_oldest(prefetches, context)
        return self.base.pick(pending, now, context)

    def pick_lone(self, request, now, context):
        if request.not_before > now or context.reserved_against(request):
            return None
        kind = request.kind
        if kind == KIND_PT:
            self._pt_first.value += 1
            return request
        if kind == KIND_TEMPO_PREFETCH:
            self._prefetch_grouped.value += 1
            return request
        return self.base.pick_lone(request, now, context)

    def on_scheduled(self, request, now):
        self.base.on_scheduled(request, now)

    def __getattr__(self, attribute):
        # Delegate introspection helpers (e.g. BLISS's `blacklisted`).  An
        # instance that `copy` has not yet filled in has no `base`: miss
        # like any absent attribute instead of recursing.
        if attribute == "base":
            raise AttributeError(attribute)
        return getattr(self.base, attribute)


def make_scheduler(scheduler_config, tempo_enabled=False):
    """Build the configured scheduler, wrapped for TEMPO when enabled."""
    policy = scheduler_config.policy
    if policy == "fcfs":
        base = FcfsScheduler(scheduler_config)
    elif policy == "frfcfs":
        base = FrFcfsScheduler(scheduler_config)
    elif policy == "bliss":
        base = BlissScheduler(scheduler_config)
    elif policy == "atlas":
        base = AtlasScheduler(scheduler_config)
    else:
        raise ConfigError(
            "unknown scheduler %r" % (policy,),
            context={
                "policy": policy,
                "known": ["fcfs", "frfcfs", "bliss", "atlas"],
            },
        )
    return TempoGroupingScheduler(base) if tempo_enabled else base
