"""The trace-driven system simulator (paper Figures 5 and 6).

Each trace record flows through the full machine:

1. non-memory work (``gap`` cycles), then the TLB;
2. on a TLB miss, the page-table walk: MMU-cache probes, then real
   memory references per level through L1/L2/LLC and -- for misses --
   DRAM via the memory controller.  The leaf request carries TEMPO's tag
   and the replay's cache-line index;
3. when the leaf-PT access hit DRAM and TEMPO is on, the controller's
   prefetch engine has enqueued the replay-data prefetch; the simulator
   advances the controller to the replay's LLC-lookup time and asks what
   the prefetch achieved;
4. the post-translation (replay or regular) access runs through the
   caches and, if needed, DRAM -- enjoying the prefetched LLC line or
   open row when TEMPO was timely.

Cycle accounting lands in the Figure-1 buckets (DRAM-PTW / DRAM-Replay /
DRAM-Other), DRAM reference counting in the Figure-4 buckets, and replay
service classification in the Figure-11 buckets.

Multiprogrammed runs are event-driven: a record that needs the memory
controller continues as a generator that yields its memory requests; the
driver lets every core run until it blocks, then services the shared
memory controller's queues in
decision-time order until someone's request completes -- so requests
from different cores genuinely contend in the transaction queues.  Cores
share the LLC, the memory controller, and physical memory, but have
private L1/L2, TLBs, MMU caches, page tables, and address spaces
(separate processes).
"""

from repro.common.addressing import LINE_MASK, PAGE_OFFSET_MASKS, cache_line_base, translate
from repro.common.config import SystemConfig
from repro.common.errors import ConfigError, ReproError, SimulationError
from repro.common.rng import DeterministicRng
from repro.common.stats import StatGroup
from repro.cache.hierarchy import CacheHierarchy
from repro.cache.imp import ImpPrefetcher
from repro.core.prefetch_engine import PrefetchEngine
from repro.dram.energy import EnergyModel
from repro.mmu.mmu_cache import MmuCaches
from repro.mmu.tlb import TlbHierarchy
from repro.mmu.walker import PageTableWalker
from repro.obs.manifest import RunManifest
from repro.obs.probe import CompositeProbe
from repro.obs.profiler import PhaseProfiler
from repro.obs.registry import MetricsRegistry
from repro.sched.controller import MemoryController
from repro.sched.request import KIND_DEMAND, KIND_IMP_PREFETCH, KIND_PT, MemoryRequest
from repro.sim.metrics import (
    CoreResult,
    DramReferenceBreakdown,
    ReplayServiceBreakdown,
    RuntimeBreakdown,
    SimulationResult,
)
from repro.vm.address_space import AddressSpace
from repro.vm.frame_allocator import FrameAllocator
from repro.vm.superpage import make_policy


class _CoreContext:
    """Per-core machine state: one process on one core."""

    __slots__ = (
        "cpu",
        "trace",
        "address_space",
        "tlb",
        "mmu_caches",
        "walker",
        "imp",
        "time",
        "position",
        "measure_start_time",
        "measure_start_position",
        "runtime",
        "dram_refs",
        "replay_service",
        "pending_prefetch_lines",
        "next_same_pattern",
    )

    def __init__(self, cpu, trace, address_space, tlb, mmu_caches, walker, imp):
        self.cpu = cpu
        self.trace = trace
        self.address_space = address_space
        self.tlb = tlb
        self.mmu_caches = mmu_caches
        self.walker = walker
        self.imp = imp
        self.time = 0
        self.position = 0
        self.measure_start_time = 0
        self.measure_start_position = 0
        self.runtime = RuntimeBreakdown()
        self.dram_refs = DramReferenceBreakdown()
        self.replay_service = ReplayServiceBreakdown()
        #: In-flight IMP prefetches: line_id -> completion time.
        self.pending_prefetch_lines = {}
        self.next_same_pattern = trace.next_same_pattern() if imp is not None else None

    @property
    def done(self):
        return self.position >= len(self.trace.records)


class SystemSimulator:
    """See module docstring.  One or more traces, one shared memory
    system."""

    def __init__(self, config, traces, seed=None, probe=None, check_invariants=None):
        if isinstance(traces, (list, tuple)):
            trace_list = list(traces)
        else:
            trace_list = [traces]
        if not trace_list:
            raise SimulationError(
                "need at least one trace",
                context={"traces_type": type(traces).__name__},
            )
        if not isinstance(config, SystemConfig):
            raise ConfigError(
                "config must be a SystemConfig, got %s" % type(config).__name__,
                context={"config_type": type(config).__name__},
            )
        config.validate()
        if config.num_cores != len(trace_list):
            config = config.copy_with(num_cores=len(trace_list))
        self.config = config
        self.seed = seed if seed is not None else config.seed
        if check_invariants not in (None, "off"):
            # Imported lazily: repro.verify builds on this module.
            from repro.verify.auditor import AuditorSuite
            from repro.verify.recorder import FlightRecorder

            recorder = FlightRecorder()
            audit = AuditorSuite(
                check_invariants, recorder=recorder, quiescent_ticks=len(trace_list) == 1
            )
            probe = CompositeProbe(([] if probe is None else [probe]) + [recorder, audit])
        #: The nullable instrumentation seam (:class:`repro.obs.Probe`):
        #: each emission site pays one ``is None`` test when it is off,
        #: and nothing a probe records enters ``result.stats``.
        self.probe = probe
        self.profiler = PhaseProfiler()
        self.manifest = None
        rng = DeterministicRng(self.seed, "system")

        tempo_on = config.tempo.enabled
        self.allocator = FrameAllocator(config.vm.phys_mem_bytes, rng.derive("allocator"))
        self.hierarchy = CacheHierarchy(config, num_cores=len(trace_list))
        self.energy = EnergyModel(config.energy, tempo_enabled=tempo_on)
        self.engine = PrefetchEngine(config.tempo) if tempo_on else None
        self.controller = MemoryController(config, self.energy, self.engine)
        self.controller.probe = probe
        self.stats = StatGroup("system")
        # Hot-path handles: one histogram record per page-table walk and
        # per upper-level page-table access that reaches DRAM.
        self._walk_hist = self.stats.histogram("walk_cycles")
        self._ptw_dram_upper_level = self.stats.histogram_handle("ptw_dram_upper_level")

        # hugetlbfs pools must be reserved before memhog fragments memory.
        self.cores = []
        for cpu, trace in enumerate(trace_list):
            policy = make_policy(config.vm, self.allocator, trace.footprint_bytes)
            address_space = AddressSpace(self.allocator, policy)
            self._register_regions(address_space, trace)
            # Plain structure names: the metrics harvest scopes each
            # core's groups under a "core<N>" prefix.
            tlb = TlbHierarchy(config.tlb, "tlb")
            mmu_caches = MmuCaches(config.mmu_cache, "mmu_cache")
            walker = PageTableWalker(
                address_space.page_table, mmu_caches, tempo_tagging=tempo_on
            )
            imp = ImpPrefetcher(config.imp, "imp") if config.imp.enabled else None
            self.cores.append(
                _CoreContext(cpu, trace, address_space, tlb, mmu_caches, walker, imp)
            )
        self.allocator.apply_memhog(config.vm.memhog_fraction)

        core_config = config.core
        self._nonmem_per_gap = core_config.nonmem_cycles_per_gap
        self._llc_latency = core_config.llc_latency
        self._tlb_fill_latency = core_config.tlb_fill_latency
        self._mmu_latency = config.mmu_cache.latency
        self._imp_distance = config.imp.max_prefetch_distance

    @staticmethod
    def _register_regions(address_space, trace):
        for spec in trace.regions:
            region = address_space.allocate_region(
                spec.size, spec.name, spec.allow_superpages, spec.thp_eligibility
            )
            if region.base != spec.base:
                raise SimulationError(
                    "region %r planned at 0x%x but allocated at 0x%x -- "
                    "generator and AddressSpace layouts diverged"
                    % (spec.name, spec.base, region.base),
                    context={
                        "region": spec.name,
                        "trace": trace.name,
                        "planned_base_addr": spec.base,
                        "allocated_base_addr": region.base,
                    },
                )

    # ------------------------------------------------------------------
    # Top-level run loops
    # ------------------------------------------------------------------

    def run(self, max_records=None, warmup=None):
        """Simulate to completion (or *max_records* per core).

        *warmup* records per core (default: a third of the run) are
        simulated with full state effects but excluded from every
        reported metric -- the paper's traces capture steady-state
        execution, so first-touch transients (demand faults, cold upper
        page-table levels) must not pollute the breakdowns.

        Returns a :class:`~repro.sim.metrics.SimulationResult`.
        """
        limits = []
        for core in self.cores:
            limit = len(core.trace.records)
            if max_records is not None:
                limit = min(limit, max_records)
            limits.append(limit)
        if warmup is None:
            warmup = min(limits) // 3
        warmup = min(warmup, min(limits) - 1) if min(limits) > 0 else 0

        self.manifest = RunManifest(
            self.config,
            self.seed,
            [core.trace for core in self.cores],
            warmup_records=warmup,
        )
        probe = self.probe
        if probe is not None:
            probe.on_start(self)
        profiler = self.profiler
        try:
            if len(self.cores) == 1:
                profiler.begin("warmup" if warmup > 0 else "measure")
                self._run_single(self.cores[0], limits[0], warmup)
            else:
                profiler.begin("simulate")
                self._run_interleaved(limits, warmup)
            profiler.begin("drain")
            final_time = self.controller.drain_all()
            total_cycles = max(max(core.time for core in self.cores), final_time)
            if probe is not None:
                probe.on_finish(self, total_cycles)
        except ReproError as exc:
            self._report_crash(exc)
            raise
        profiler.end()
        self.manifest.timings = profiler.summary(
            records=sum(core.position for core in self.cores)
        )
        return self._build_result(total_cycles)

    def _report_crash(self, exc):
        """Flesh out an escaping error with machine state and emit the
        structured crash report (JSON on stderr)."""
        context = getattr(exc, "context", None)
        if context is None:
            return
        context.setdefault("cycle", max(core.time for core in self.cores))
        context.setdefault(
            "positions", {core.cpu: core.position for core in self.cores}
        )
        context.setdefault("pending_requests", self.controller.pending_requests())
        if self.probe is not None:
            self.probe.on_error(context)
        import json
        import sys

        report = {
            "error": type(exc).__name__,
            "message": str(exc),
            "context": context,
        }
        try:
            serialised = json.dumps(report, default=repr, indent=2)
        except (TypeError, ValueError):
            serialised = json.dumps(
                {"error": type(exc).__name__, "message": str(exc)}
            )
        sys.stderr.write(serialised + "\n")

    def _reset_measurement(self, core):
        """End of this core's warmup: zero its metric accumulators."""
        core.measure_start_time = core.time
        core.measure_start_position = core.position
        core.runtime = RuntimeBreakdown()
        core.dram_refs = DramReferenceBreakdown()
        core.replay_service = ReplayServiceBreakdown()

    def _run_single(self, core, limit, warmup):
        """Single-core driver: every record starts in :meth:`_reference`,
        which serves a TLB hit's DRAM access in place through the
        controller's ``submit_and_wait``; a walk or an IMP trigger
        finishes through its event generator, answered synchronously."""
        records = core.trace.records
        reference = self._reference
        submit = self.controller.submit_and_wait
        drive_events = self._drive_events
        probe = self.probe
        while core.position < limit:
            if core.position == warmup:
                self._reset_measurement(core)
                self.energy.reset()
                self.profiler.begin("measure")
            events = reference(core, records[core.position], submit)
            if events is not None:
                drive_events(events)
            core.position += 1
            if probe is not None:
                probe.on_tick(self, core.time)

    def _run_interleaved(self, limits, warmup):
        """Event-driven interleave of per-core streams.

        Cores advance until each blocks on a DRAM request (or runs out
        of records); only then does the controller service queues -- one
        request at a time, always on the channel with the earliest
        decision time -- until a blocked core's request completes and
        that core resumes.  Because a blocked core cannot submit again
        before its completion, every service decision sees every request
        that could causally compete with it.
        """
        controller = self.controller
        probe = self.probe
        warm_cores = 0
        # Per-cpu state: ("run", generator, reply) | ("blocked",) | None;
        # a None generator means "start the core's next record".
        state = {}
        blocked = {}  # req_id -> (cpu, generator, request)

        def has_next(core):
            """Whether the core has a record left (handling warmup)."""
            nonlocal warm_cores
            if core.position >= limits[core.cpu]:
                return False
            if core.position == warmup:
                self._reset_measurement(core)
                warm_cores += 1
                if warm_cores == len(self.cores):
                    self.energy.reset()
            return True

        _START = object()
        for core in self.cores:
            state[core.cpu] = ("run", None, _START) if has_next(core) else None
        cpus = sorted(state)
        channels = range(controller.num_channels)

        while True:
            # Phase A: run every unblocked core until it blocks or ends.
            for cpu in cpus:
                entry = state[cpu]
                if entry is None or entry[0] != "run":
                    continue
                _, events, reply = entry
                core = self.cores[cpu]
                while True:
                    if events is None:
                        events = self._reference(core, core.trace.records[core.position])
                        reply = _START
                    event = None
                    if events is not None:
                        try:
                            event = next(events) if reply is _START else events.send(reply)
                        except StopIteration:
                            events = None
                    if event is None:
                        # The record retired.
                        core.position += 1
                        if probe is not None:
                            probe.on_tick(self, core.time)
                        if not has_next(core):
                            state[cpu] = None
                            break
                        continue
                    if event[0] == "advance":
                        controller.advance_to(event[1])
                        reply = None
                        continue
                    # ("dram", request, submit_time)
                    request = event[1]
                    if not controller.submit_async(request, event[2]):
                        reply = None  # dropped prefetch-kind request
                        continue
                    blocked[request.req_id] = (cpu, events, request)
                    state[cpu] = ("blocked",)
                    break

            if not blocked:
                break  # every core finished its records

            # Phase B: service queues in decision-time order until at
            # least one blocked request completes.  An "advance" during
            # Phase A may already have serviced blocked requests, so the
            # blocked set is checked once here; after that a blocked
            # request completes only when it is the one serviced.
            resumed = []
            for req_id in list(blocked):
                if blocked[req_id][2].finish_time is not None:
                    resumed.append(blocked.pop(req_id))
            while not resumed:
                # The earliest decision time; a tie goes to the lowest
                # channel.
                channel = None
                for candidate in channels:
                    if controller.has_pending(candidate):
                        decision = controller.next_decision_time(candidate)
                        if channel is None or decision < earliest:
                            channel, earliest = candidate, decision
                if channel is None:
                    raise SimulationError(
                        "cores blocked on requests that are neither queued "
                        "nor serviced -- controller state is inconsistent",
                        context={
                            "blocked_requests": sorted(blocked),
                            "blocked_cores": sorted(
                                cpu for cpu, _, _ in blocked.values()
                            ),
                        },
                    )
                served = controller.service_one(channel)
                if served.req_id in blocked:
                    resumed.append(blocked.pop(served.req_id))
            for cpu, events, request in resumed:
                state[cpu] = ("run", events, request.finish_time)

    def _build_result(self, total_cycles):
        core_results = []
        measured_cycles = 0
        for core in self.cores:
            references = core.position - core.measure_start_position
            core.runtime.total_cycles = core.time - core.measure_start_time
            measured_cycles = max(measured_cycles, core.runtime.total_cycles)
            core_results.append(
                CoreResult(
                    core.trace.name,
                    references,
                    core.runtime,
                    core.dram_refs,
                    core.replay_service,
                )
            )
        total_cycles = measured_cycles if measured_cycles > 0 else total_cycles
        superpage_fraction = (
            sum(core.address_space.superpage_fraction() for core in self.cores)
            / len(self.cores)
        )
        stats = self.metrics_registry().collect()
        if self.manifest is not None:
            stats.update(self.manifest.flat())
        return SimulationResult(
            core_results,
            self.energy.total_energy(total_cycles),
            superpage_fraction,
            stats,
            manifest=self.manifest,
        )

    def metrics_registry(self):
        """Every StatGroup in the machine, scoped into one namespace:
        shared structures at top level, per-core structures under
        ``core<N>.`` prefixes."""
        registry = MetricsRegistry()
        registry.register(self.stats)  # system.*
        registry.register(self.controller.stats)  # controller.*
        registry.register(self.controller.scheduler.stats)  # sched.<kind>.*
        registry.register(self.controller.device.stats)  # dram.bank.*
        registry.register(self.controller.device.row_policy.stats)
        registry.register(self.energy.stats)  # energy.*
        registry.register(self.hierarchy.stats)  # caches.*
        registry.register(self.hierarchy.llc.stats)  # llc.*
        registry.register(self.allocator.stats)  # frame_allocator.*
        if self.engine is not None:
            registry.register(self.engine.stats)  # tempo_engine.*
        for core in self.cores:
            prefix = "core%d" % core.cpu
            registry.register(core.tlb.stats, prefix)  # core<N>.tlb.*
            registry.register_all(core.tlb.stat_groups(), "%s.tlb" % prefix)
            registry.register(core.mmu_caches.stats, prefix)
            registry.register(core.walker.stats, prefix)
            registry.register(self.hierarchy.l1[core.cpu].stats, prefix)
            registry.register(self.hierarchy.l2[core.cpu].stats, prefix)
            if core.imp is not None:
                registry.register(core.imp.stats, prefix)
            registry.register(core.address_space.stats, prefix)
            registry.register(core.address_space.page_table.stats, prefix)
        return registry

    # ------------------------------------------------------------------
    # Per-reference engine
    # ------------------------------------------------------------------

    # Every record starts synchronously in :meth:`_reference`, and a TLB
    # hit -- nearly every record -- retires right there (under the
    # multicore driver, only when the caches serve it).  Whatever else
    # needs the memory controller continues as a *generator*: each
    # memory-system interaction is yielded as an
    # event, and the driver supplies the completion time.  The
    # single-core driver answers events synchronously (identical timing
    # to a direct implementation); the multicore driver interleaves
    # events from all cores through the shared controller in
    # causally-correct order.
    #
    # Event protocol:
    #   ("dram", request, submit_time) -> reply: finish time, or None
    #       when a prefetch-kind request was dropped at enqueue.
    #   ("advance", time)              -> reply: None (controller has
    #       serviced everything schedulable before `time`).

    def _drive_events(self, events):
        """Run one record's event generator to completion, answering
        every event synchronously from the shared controller."""
        try:
            event = next(events)
            while True:
                if event[0] == "dram":
                    reply = self.controller.submit_and_wait(event[1], event[2])
                else:
                    self.controller.advance_to(event[1])
                    reply = None
                event = events.send(reply)
        except StopIteration:
            pass

    def _reference(self, core, record, submit=None):
        """Start one record; on a TLB hit, run the whole reference.

        This is the one definition of what a TLB hit does.  *submit* is
        the driver's synchronous DRAM service (the controller's
        ``submit_and_wait``), or None when the driver interleaves cores.
        When the access needs no controller, or *submit* serves it, the
        record retires here and the result is None -- or, with an IMP
        prefetcher, the IMP trigger's generator.  Otherwise the result
        is the event generator that finishes the record: the walk and
        replay after a TLB miss, or the DRAM access after a cache miss.
        """
        vaddr = record.vaddr
        time = core.time + record.gap * self._nonmem_per_gap
        if core.pending_prefetch_lines:
            self._expire_pending_prefetches(core, time)
        hit = core.tlb.lookup(vaddr)
        if self.probe is not None:
            self.probe.on_tlb(core.cpu, time, hit, True)
        if hit is None:
            return self._walked_record(core, record, time)
        frame, page_size, extra_latency = hit
        arrival = time
        time += 1 + extra_latency
        paddr = frame | (vaddr & PAGE_OFFSET_MASKS[page_size])
        begin = time
        time, result = self._probe_caches(core, record, paddr, time)
        if result.needs_dram:
            request = MemoryRequest(
                paddr & LINE_MASK,
                KIND_DEMAND,
                cpu=core.cpu,
                is_write=record.is_write,
                enqueue_time=time,
            )
            if submit is None:
                return self._regular_dram(core, record, paddr, request, arrival, begin, time)
            finish = submit(request, time)
            service = self._demand_served(core, record, paddr, request, time, finish, False)
            return self._retire(core, record, arrival, begin, finish, False, service)
        return self._retire(core, record, arrival, begin, time, False, result.hit_level)

    def _walked_record(self, core, record, arrival):
        """The rest of a record that missed the TLB (generator): the
        page walk, the replay access, and retirement."""
        vaddr = record.vaddr
        time = arrival + 1  # TLB probe that missed
        plan = core.walker.plan(vaddr)
        if plan.faulted:
            # Demand paging: the OS maps the page (steady-state traces,
            # so fault service time is not modelled -- see DESIGN.md).
            core.address_space.handle_fault(vaddr)
            plan = core.walker.plan(vaddr)
            if plan.faulted:
                raise SimulationError(
                    "walk still faults after demand mapping",
                    context={
                        "core": core.cpu,
                        "vaddr": vaddr,
                        "cycle": time,
                        "leaf_level": plan.leaf_level,
                    },
                )
        time, leaf_pt_request = yield from self._walk(core, plan, arrival, time, True)
        self._walk_hist.record(time - arrival)
        paddr = translate(vaddr, plan.entry.frame_paddr, plan.entry.page_size)
        begin = time
        time, service = yield from self._replay(core, record, paddr, time, leaf_pt_request)
        tail = self._retire(core, record, arrival, begin, time, True, service)
        if tail is not None:
            yield from tail

    def _regular_dram(self, core, record, paddr, request, arrival, begin, time):
        """The rest of a TLB hit whose access missed the caches, for a
        driver that interleaves cores (generator)."""
        finish = yield ("dram", request, time)
        service = self._demand_served(core, record, paddr, request, time, finish, False)
        tail = self._retire(core, record, arrival, begin, finish, False, service)
        if tail is not None:
            yield from tail

    def _retire(self, core, record, arrival, begin, time, walked, service):
        """Retire the record at *time*: hand the caches' dirty victims to
        the controller, report it, and advance the core's clock.  With
        an IMP prefetcher the result is the generator of the IMP trigger
        the retirement fires; otherwise None."""
        for paddr in self.hierarchy.drain_writebacks():
            self.controller.submit_writeback(paddr, core.cpu, time)
            core.dram_refs.writeback += 1
        if self.probe is not None:
            self.probe.on_ref(core.cpu, record, arrival, begin, time, walked, service)
        core.time = time
        if core.imp is not None:
            return self._imp_trigger(core, record, time)
        return None

    # -- translation ----------------------------------------------------

    def _walk(self, core, plan, begin, time, demand):
        """Perform *plan*'s memory references from *time*, then complete
        the walk and fill the TLB (generator).  Shared by demand walks
        and IMP's prefetch walks (*demand* False).  Returns ``(time,
        leaf_pt_request_or_None)``; the request is non-None only when
        the leaf access reached DRAM."""
        probe = self.probe
        leaf_pt_request = None
        for step in plan.steps:
            if step.from_mmu_cache:
                if probe is not None:
                    probe.on_mmu_step(
                        core.cpu, time, time + self._mmu_latency, step.level, demand
                    )
                time += self._mmu_latency
                continue
            time, dram_request = yield from self._fetch_pt_entry(core, plan, step, time, demand)
            if step.is_leaf and dram_request is not None:
                leaf_pt_request = dram_request
                core.dram_refs.walks_with_dram_leaf += 1
        core.walker.complete(plan)
        core.tlb.fill(plan.vaddr, plan.entry.frame_paddr, plan.entry.page_size)
        time += self._tlb_fill_latency
        if probe is not None:
            probe.on_walk(core.cpu, begin, time, plan, leaf_pt_request, demand)
        return time, leaf_pt_request

    def _fetch_pt_entry(self, core, plan, step, time, demand):
        """One walk memory reference through caches (and maybe DRAM)."""
        begin = time
        result = self.hierarchy.access(core.cpu, step.entry_paddr)
        time += result.latency
        if not result.needs_dram:
            if self.probe is not None:
                self.probe.on_pt_step(core.cpu, begin, time, step.level, result, None, demand)
            return time, None
        request = MemoryRequest(
            cache_line_base(step.entry_paddr),
            KIND_PT,
            cpu=core.cpu,
            enqueue_time=time,
            pt_leaf=step.is_leaf,
            tempo_tagged=step.is_leaf and core.walker.tempo_tagging,
            pte=plan.entry if step.is_leaf else None,
            replay_line_index=plan.replay_line_index,
        )
        finish = yield ("dram", request, time)
        core.runtime.dram_ptw_cycles += finish - time
        if step.is_leaf:
            core.dram_refs.ptw_leaf += 1
        else:
            core.dram_refs.ptw_upper += 1
            self._ptw_dram_upper_level.record(step.level)
        self.hierarchy.fill_from_memory(core.cpu, step.entry_paddr)
        self.energy.record_llc_fill()
        if self.probe is not None:
            self.probe.on_pt_step(core.cpu, begin, finish, step.level, result, request, demand)
        return finish, request

    # -- post-translation access -----------------------------------------

    def _probe_caches(self, core, record, paddr, time):
        """Probe the caches for a post-translation access, after waiting
        out an in-flight IMP prefetch of the same line (MSHR merge).
        Returns ``(time, result)``."""
        begin = time
        if core.pending_prefetch_lines:
            pending_completion = core.pending_prefetch_lines.pop(paddr & LINE_MASK, None)
            if pending_completion is not None and pending_completion > time:
                time = pending_completion
        result = self.hierarchy.access(core.cpu, paddr, record.is_write)
        if self.probe is not None:
            self.probe.on_cache(core.cpu, begin, time, result, True)
        return time + result.latency, result

    def _replay(self, core, record, paddr, time, leaf_pt_request):
        """The replay access after a walk (generator); returns its
        finish time and how it was served."""
        tempo_active = self.engine is not None and leaf_pt_request is not None
        outcome = None
        if tempo_active:
            # Let the queued prefetch land within the slack window, then
            # see what it achieved.
            llc_lookup_time = time + self._llc_latency
            yield ("advance", llc_lookup_time)
            outcome = self.controller.take_prefetch_outcome(leaf_pt_request.req_id)
            if (
                outcome is not None
                and not outcome.dropped
                and outcome.llc_ready_at is not None
                and outcome.llc_ready_at <= llc_lookup_time
            ):
                # Timely LLC prefetch: the replay hits in the LLC, and
                # its DRAM time was hidden by the prefetch.
                self.hierarchy.prefetch_fill_llc(cache_line_base(paddr))
                self.energy.record_llc_fill()
                result = self.hierarchy.access(core.cpu, paddr, record.is_write)
                core.replay_service.llc += 1
                if self.probe is not None:
                    self.probe.on_overlap(core.cpu, time, result)
                return time + result.latency, "llc_prefetch"

        time, result = self._probe_caches(core, record, paddr, time)
        if not result.needs_dram:
            if tempo_active:
                # Served on-chip anyway; count with the LLC bucket.
                core.replay_service.llc += 1
            return time, result.hit_level

        if tempo_active and outcome is None:
            # The prefetch never got serviced in time; it is useless now.
            self.controller.cancel_prefetch(leaf_pt_request.req_id)
        request = MemoryRequest(
            paddr & LINE_MASK,
            KIND_DEMAND,
            cpu=core.cpu,
            is_write=record.is_write,
            enqueue_time=time,
        )
        finish = yield ("dram", request, time)
        service = self._demand_served(
            core, record, paddr, request, time, finish, True, leaf_pt_request, outcome
        )
        return finish, service

    def _demand_served(
        self,
        core,
        record,
        paddr,
        request,
        time,
        finish,
        walked,
        leaf_pt_request=None,
        outcome=None,
    ):
        """Account a post-translation access DRAM served between *time*
        and *finish*: fill the caches, then charge a replay (*walked*)
        or a regular access.  Returns how DRAM served it."""
        dram_cycles = finish - time
        self.hierarchy.fill_from_memory(core.cpu, paddr, record.is_write)
        self.energy.record_llc_fill()

        service = "dram"
        if walked:
            core.runtime.dram_replay_cycles += dram_cycles
            core.dram_refs.replay += 1
            if leaf_pt_request is not None:
                core.dram_refs.replay_also_dram += 1
                if self.engine is not None:
                    row_prefetched = (
                        outcome is not None
                        and not outcome.dropped
                        and outcome.row_ready_at is not None
                    )
                    if row_prefetched and request.outcome == "hit":
                        core.replay_service.row_buffer += 1
                        service = "row_buffer"
                    else:
                        core.replay_service.unaided += 1
                        service = "unaided"
        else:
            core.runtime.dram_other_cycles += dram_cycles
            core.dram_refs.other += 1
        if self.probe is not None:
            self.probe.on_dram(core.cpu, request, time, finish, service)
        return service

    # -- IMP prefetching ---------------------------------------------------

    def _expire_pending_prefetches(self, core, time):
        if not core.pending_prefetch_lines:
            return
        expired = [
            line
            for line, completion in core.pending_prefetch_lines.items()
            if completion <= time
        ]
        for line in expired:
            del core.pending_prefetch_lines[line]

    def _imp_trigger(self, core, record, time):
        position = core.position
        next_same = core.next_same_pattern
        upcoming = []
        index = next_same[position]
        while index != -1 and index - position <= self._imp_distance:
            upcoming.append((index, core.trace.records[index].vaddr))
            if len(upcoming) >= 4:
                break
            index = next_same[index]
        targets = core.imp.observe(record.pattern, position, upcoming)
        for target_vaddr in targets:
            yield from self._issue_imp_prefetch(core, target_vaddr, time)

    def _issue_imp_prefetch(self, core, vaddr, time):
        """Run one IMP prefetch down its own (non-blocking) path.

        The prefetch performs a real translation -- including, on a TLB
        miss, a full walk whose leaf-PT DRAM access triggers TEMPO --
        then fetches the data line.  The core does not stall; instead
        the completion time gates when the prefetched line becomes
        usable (MSHR-style merge in :meth:`_probe_caches`).  The probe
        sees its occupancy but no attribution: it runs outside any
        reference.
        """
        probe = self.probe
        path_time = time
        hit = core.tlb.lookup(vaddr)
        if probe is not None:
            probe.on_tlb(core.cpu, time, hit, False)
        leaf_pt_request = None
        if hit is not None:
            frame, page_size, extra_latency = hit
            path_time += 1 + extra_latency
        else:
            plan = core.walker.plan(vaddr)
            if plan.faulted:
                # Prefetching must not fault pages in; drop it.
                core.imp.stats.counter("dropped_unmapped").add()
                return
            path_time, leaf_pt_request = yield from self._walk(
                core, plan, time, path_time, False
            )
            frame = plan.entry.frame_paddr
            page_size = plan.entry.page_size
        paddr = translate(vaddr, frame, page_size)
        line = cache_line_base(paddr)
        if line in core.pending_prefetch_lines:
            return

        tempo_active = self.engine is not None and leaf_pt_request is not None
        if tempo_active:
            llc_lookup_time = path_time + self._llc_latency
            yield ("advance", llc_lookup_time)
            outcome = self.controller.take_prefetch_outcome(leaf_pt_request.req_id)
            if (
                outcome is not None
                and not outcome.dropped
                and outcome.llc_ready_at is not None
                and outcome.llc_ready_at <= llc_lookup_time
            ):
                self.hierarchy.prefetch_fill_llc(line)
                self.energy.record_llc_fill()
                core.replay_service.llc += 1
                core.pending_prefetch_lines[line] = llc_lookup_time
                if probe is not None:
                    probe.on_prefetch(core.cpu, time, llc_lookup_time)
                return

        result = self.hierarchy.access(core.cpu, paddr)
        if probe is not None:
            probe.on_cache(core.cpu, path_time, path_time, result, False)
        path_time += result.latency
        if result.needs_dram:
            request = MemoryRequest(
                line, KIND_IMP_PREFETCH, cpu=core.cpu, enqueue_time=path_time
            )
            # Serviced on the prefetch path's own clock so bank state and
            # the completion time are real.
            finish = yield ("dram", request, path_time)
            if finish is None:  # dropped: TxQ full
                return
            path_time = finish
            self.hierarchy.fill_from_memory(core.cpu, paddr)
            self.energy.record_llc_fill()
            core.dram_refs.prefetch += 1
        core.pending_prefetch_lines[line] = path_time
        if probe is not None:
            probe.on_prefetch(core.cpu, time, path_time)
