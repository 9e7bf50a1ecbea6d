"""Property-based tests (hypothesis) on core data structures."""

import pytest
from hypothesis import Phase, given, settings
from hypothesis import strategies as st

from repro.common import addressing
from repro.common.config import CacheConfig, DramConfig, MmuCacheConfig, TlbConfig
from repro.common.constants import (
    CACHE_LINE_BYTES,
    CACHE_LINE_SHIFT,
    PAGE_SIZE_1G,
    PAGE_SIZE_2M,
    PAGE_SIZE_4K,
    VA_BITS,
)
from repro.common.errors import MappingError
from repro.common.rng import DeterministicRng
from repro.cache.cache import Cache
from repro.dram.address_map import AddressMap
from repro.mmu.mmu_cache import MmuCaches
from repro.mmu.tlb import SetAssociativeTlb
from repro.mmu.walker import PageTableWalker
from repro.vm.frame_allocator import FrameAllocator
from repro.vm.page_table import PageTable

vaddrs = st.integers(min_value=0, max_value=(1 << VA_BITS) - 1)
paddrs = st.integers(min_value=0, max_value=(1 << 44) - 1)
lines = st.integers(min_value=0, max_value=(1 << (44 - CACHE_LINE_SHIFT)) - 1)


@given(vaddrs)
def test_radix_indices_reconstruct_vpn(vaddr):
    """The four 9-bit indices are exactly the 4 KB VPN, re-sliced."""
    l4, l3, l2, l1 = addressing.radix_indices(vaddr)
    vpn = addressing.page_number(vaddr, PAGE_SIZE_4K)
    assert (((l4 * 512 + l3) * 512 + l2) * 512 + l1) == vpn


@given(vaddrs)
def test_page_split_roundtrip(vaddr):
    for page_size in (PAGE_SIZE_4K, PAGE_SIZE_2M):
        vpn, offset = addressing.split_vaddr(vaddr, page_size)
        assert addressing.page_address(vpn, page_size) + offset == addressing.canonical(vaddr)
        assert 0 <= offset < page_size


@given(vaddrs, paddrs)
def test_replay_address_always_line_of_translation(vaddr, frame_raw):
    """TEMPO's reconstruction is non-speculative for every address."""
    frame = addressing.page_base(frame_raw, PAGE_SIZE_4K)
    line_index = addressing.line_index_in_page(vaddr)
    reconstructed = addressing.replay_address(frame, line_index)
    actual = addressing.cache_line_base(addressing.translate(vaddr, frame))
    assert reconstructed == actual


@given(st.lists(lines, min_size=1, max_size=200))
def test_cache_occupancy_never_exceeds_capacity(line_ids):
    cache = Cache(CacheConfig(size_bytes=2048, assoc=2))
    capacity = cache.num_sets * cache.assoc
    for line in line_ids:
        cache.fill(line)
        assert cache.occupancy <= capacity


@given(st.lists(lines, min_size=1, max_size=200))
def test_cache_fill_then_lookup_hits(line_ids):
    cache = Cache(CacheConfig(size_bytes=8192, assoc=4))
    for line in line_ids:
        cache.fill(line)
        assert cache.lookup(line)  # most-recent line always present


_hierarchy_ops = st.lists(
    st.tuples(
        st.sampled_from(("access", "fill", "prefetch", "drain")),
        st.integers(min_value=0, max_value=1),  # cpu
        st.integers(min_value=0, max_value=7),  # line
        st.integers(min_value=0, max_value=CACHE_LINE_BYTES - 1),  # byte in the line
        st.booleans(),  # store
    ),
    # Most mismatches need a dirty line to cascade through two levels,
    # which takes a few dozen ops; shorter lists rarely reach one.
    min_size=20,
    max_size=60,
)


def _drive_hierarchy(hierarchy, ops, writeback_paddr):
    """Run *ops* against *hierarchy*; return everything a caller can
    observe.  *writeback_paddr* reads a drained writeback's address."""
    replies = []
    for action, cpu, line, offset, is_write in ops:
        paddr = line << CACHE_LINE_SHIFT | offset
        if action == "access":
            replies.append(hierarchy.access(cpu, paddr, is_write))
        elif action == "fill":
            replies.append(hierarchy.fill_from_memory(cpu, paddr, is_write))
        elif action == "prefetch":
            replies.append(hierarchy.prefetch_fill_llc(paddr))
        else:
            replies.append([writeback_paddr(wb) for wb in hierarchy.drain_writebacks()])
    replies.append([writeback_paddr(wb) for wb in hierarchy.drain_writebacks()])
    levels = hierarchy.l1 + hierarchy.l2 + [hierarchy.llc]
    return {
        "replies": replies,
        "caches": hierarchy.stats.as_dict(),
        "stats": [cache.stats.as_dict() for cache in levels],
        "sets": [[list(entries.items()) for entries in cache._sets] for cache in levels],
    }


@pytest.mark.parametrize("replacement", ("lru", "random"))
# No explain phase: it traces every example the shrinker tries, which
# made a failing example take minutes instead of seconds to shrink.
@settings(deadline=None, phases=tuple(phase for phase in Phase if phase is not Phase.explain))
@given(_hierarchy_ops)
def test_hierarchy_matches_per_address_reference(replacement, ops):
    """Line ids computed once per call and dirty-only victims change
    nothing anyone can observe: every reply, every drained writeback
    address, each level's counters and each set's lines, dirty bits
    and recency order equal the per-address reference's.  One- and
    two-set levels shared by 8 lines on 2 cores make most fills evict."""
    from repro.cache.hierarchy import CacheHierarchy
    from repro.common.config import default_system_config

    from tests.reference_cache import PerAddressHierarchy

    config = default_system_config().copy_with(
        l1=CacheConfig(size_bytes=128, assoc=2, replacement=replacement),
        l2=CacheConfig(size_bytes=256, assoc=2, replacement=replacement),
        llc=CacheConfig(size_bytes=256, assoc=4, replacement=replacement),
    )
    config.validate()
    reference = _drive_hierarchy(PerAddressHierarchy(config, 2), ops, lambda wb: wb.paddr)
    observed = _drive_hierarchy(CacheHierarchy(config, 2), ops, lambda paddr: paddr)
    # Raised by hand: a rewritten assert would have pytest diff the two
    # dicts for every failing example the shrinker tries.
    mismatched = [key for key in reference if observed[key] != reference[key]]
    if mismatched:
        raise AssertionError("differs from the reference in %s" % ", ".join(mismatched))


@given(st.lists(paddrs, min_size=1, max_size=100))
def test_address_map_decode_is_total_and_disjoint(addresses):
    amap = AddressMap(DramConfig())
    for address in addresses:
        location = amap.decode(address)
        # Re-encodable: fields identify exactly one bank.
        assert amap.bank_index(address) == (
            location.channel * amap.config.banks_per_channel + location.bank
        )
        # Same-line addresses always share a row.
        assert amap.same_row(address, addressing.cache_line_base(address))


@given(st.lists(st.tuples(vaddrs, paddrs), min_size=1, max_size=60))
def test_tlb_returns_only_inserted_translations(pairs):
    tlb = SetAssociativeTlb(16, 4, PAGE_SIZE_4K)
    truth = {}
    for vaddr, frame in pairs:
        frame = addressing.page_base(frame)
        tlb.insert(vaddr, frame)
        truth[addressing.page_number(vaddr)] = frame
    for vaddr, _ in pairs:
        found = tlb.lookup(vaddr)
        if found is not None:
            assert found == truth[addressing.page_number(vaddr)]


@settings(max_examples=25, deadline=None)
@given(
    st.lists(
        st.integers(min_value=0, max_value=(1 << 30) - 1),
        min_size=1,
        max_size=40,
        unique_by=lambda value: value >> 12,
    )
)
def test_page_table_walk_agrees_with_mappings(vaddr_seeds):
    """Whatever the OS maps, a subsequent walk must return exactly it."""
    allocator = FrameAllocator(8 * 1024**3, DeterministicRng(0, "prop"))
    table = PageTable(allocator)
    truth = {}
    for seed in vaddr_seeds:
        vbase = addressing.page_base(seed, PAGE_SIZE_4K)
        frame = allocator.alloc_4k()
        table.map(vbase, frame, PAGE_SIZE_4K)
        truth[vbase] = frame
    for vbase, frame in truth.items():
        result = table.walk(vbase + 123)
        assert not result.faulted
        assert result.entry.frame_paddr == frame
        assert result.leaf_level == 1
        assert len(result.accesses) == 4


# A few radix indices per level, so random mappings share table pages,
# collide with each other and leave holes.
_TABLE_INDICES = ((0, 1, 511), (0, 1, 2), (0, 1, 2, 3), (0, 1, 2, 3))  # L4, L3, L2, L1


def _vaddr(l4, l3, l2, l1, offset=0, high=0):
    return (high << 48) | (l4 << 39) | (l3 << 30) | (l2 << 21) | (l1 << 12) | offset


_table_vaddrs = st.tuples(*(st.sampled_from(indices) for indices in _TABLE_INDICES))
_mappings = st.lists(
    st.tuples(
        st.sampled_from((PAGE_SIZE_4K, PAGE_SIZE_4K, PAGE_SIZE_4K, PAGE_SIZE_2M, PAGE_SIZE_1G)),
        _table_vaddrs,
    ),
    max_size=30,
)
_probe_vaddrs = st.lists(
    st.one_of(
        st.tuples(
            _table_vaddrs,
            st.integers(min_value=0, max_value=PAGE_SIZE_4K - 1),
            st.integers(min_value=0, max_value=(1 << 16) - 1),  # bits 63:48
        ).map(lambda drawn: _vaddr(*drawn[0], offset=drawn[1], high=drawn[2])),
        st.integers(min_value=0, max_value=(1 << 64) - 1),
    ),
    min_size=1,
    max_size=30,
)


def _reference_walk(table, vaddr):
    """The radix descent spelled with the validated helpers:
    ``(accesses, entry)``, *entry* None when the walk faults."""
    accesses = []
    node = table.root
    for level in (4, 3, 2, 1):
        index = addressing.radix_index(vaddr, level)
        accesses.append((level, addressing.pte_address(node.base_paddr, index)))
        entry = node.entries.get(index)
        if entry is None or not entry.present:
            return accesses, None
        if entry.is_leaf:
            return accesses, entry
        node = entry.child
    raise AssertionError("non-leaf entry at L1")


@settings(max_examples=60, deadline=None)
@given(_mappings, _probe_vaddrs)
def test_walker_descent_matches_page_table_walk(mappings, vaddrs):
    """The walker's own descent reads exactly the entries
    ``PageTable.walk`` reads, and both equal the descent built from
    ``radix_index``/``pte_address``, for 4 KB, 2 MB and 1 GB leaves,
    holes, and addresses with bits above 47 set."""
    allocator = FrameAllocator(8 * 1024**3, DeterministicRng(0, "descent"))
    table = PageTable(allocator)
    truth = {}  # (vbase, page_size) -> frame
    for number, (page_size, indices) in enumerate(mappings, start=1):
        vbase = _vaddr(*indices) & ~(page_size - 1)
        try:
            table.map(vbase, number * page_size, page_size)
        except MappingError:
            continue  # covered by a superpage, or already mapped
        truth[(vbase, page_size)] = number * page_size
    # Also probe each mapping's last byte, and its base with bits 63:48 set.
    vaddrs = vaddrs + [
        probe for vbase, size in truth for probe in (vbase + size - 1, vbase | (0xFFFF << 48))
    ]
    walker = PageTableWalker(table, MmuCaches(MmuCacheConfig()))
    for vaddr in vaddrs:
        plan = walker.plan(vaddr)
        result = table.walk(vaddr)
        accesses, entry = _reference_walk(table, vaddr)
        assert [(step.level, step.entry_paddr) for step in plan.steps] == accesses
        assert list(result.accesses) == accesses
        assert plan.faulted == result.faulted == (entry is None)
        assert plan.leaf_level == result.leaf_level == accesses[-1][0]
        assert plan.entry is result.entry is entry
        leaf_flags = [step.is_leaf for step in plan.steps]
        assert leaf_flags == [False] * (len(accesses) - 1) + [entry is not None]
        covering = {
            (addressing.canonical(vaddr) & ~(size - 1), size)
            for size in (PAGE_SIZE_4K, PAGE_SIZE_2M, PAGE_SIZE_1G)
        } & set(truth)
        if entry is None:
            assert not covering
            assert not plan.tempo_tagged and plan.replay_line_index == 0
        else:
            vbase = addressing.page_base(addressing.canonical(vaddr), entry.page_size)
            assert covering == {(vbase, entry.page_size)}
            assert entry.frame_paddr == truth[(vbase, entry.page_size)]
            assert plan.replay_line_index == addressing.line_index_in_page(vaddr, entry.page_size)
            walker.complete(plan)
    assert walker.stats.counter("walks").value == len(vaddrs)


@settings(max_examples=25, deadline=None)
@given(st.lists(st.sampled_from(["4k", "2m", "free2m"]), min_size=1, max_size=60))
def test_allocator_never_hands_out_overlapping_memory(operations):
    allocator = FrameAllocator(4 * 1024**3, DeterministicRng(1, "prop2"))
    live = []  # (base, size)
    for operation in operations:
        if operation == "4k":
            live.append((allocator.alloc_4k(), PAGE_SIZE_4K))
        elif operation == "2m":
            frame = allocator.try_alloc_2m()
            if frame is not None:
                live.append((frame, PAGE_SIZE_2M))
        elif live and operation == "free2m":
            continue  # freeing 2M regions is not modelled; skip
    spans = sorted(live)
    for (base_a, size_a), (base_b, _) in zip(spans, spans[1:]):
        assert base_a + size_a <= base_b


@settings(max_examples=20, deadline=None)
@given(
    st.lists(st.tuples(st.integers(0, 63), st.booleans()), min_size=1, max_size=120)
)
def test_bank_timing_monotonic_and_outcomes_valid(accesses):
    from repro.dram.bank import Bank, OUTCOME_CONFLICT, OUTCOME_HIT, OUTCOME_MISS
    from repro.dram.row_policy import OpenRowPolicy

    bank = Bank(0, 16, DramConfig(), OpenRowPolicy())
    now = 0
    last_end = 0
    for row, jump in accesses:
        start, end, outcome = bank.access(row, now)
        assert outcome in (OUTCOME_HIT, OUTCOME_MISS, OUTCOME_CONFLICT)
        assert start >= now
        assert start >= last_end  # bank serializes
        assert end > start
        last_end = end
        now = end + (37 if jump else 0)


@settings(max_examples=30, deadline=None)
@given(
    st.booleans(),
    st.lists(
        st.tuples(
            st.integers(0, 5),  # row
            st.integers(0, DramConfig().row_bytes - 1),  # row offset
            st.integers(0, 3),  # cpu
            st.booleans(),  # prefetch
            st.integers(0, 3000),  # gap before the access
        ),
        min_size=1,
        max_size=60,
    ),
)
def test_bank_open_keys_agree_with_classify(subrows, accesses):
    """``classify`` reports a hit exactly when ``buffer_key`` is among
    ``open_keys``, for whole-row banks (the adaptive policy's
    auto-close and refresh included) and for sub-row banks, between
    every two accesses."""
    from dataclasses import replace

    from repro.common.config import RowPolicyConfig
    from repro.dram.bank import Bank, OUTCOME_HIT
    from repro.dram.row_policy import make_row_policy
    from repro.dram.subrow import SubRowBank

    config = DramConfig(refresh_interval_cycles=5000, refresh_cycles=300)
    if subrows:
        config = replace(config, subrows=replace(config.subrows, enabled=True))
        bank = SubRowBank(0, 16, config, num_cpus=4)
    else:
        bank = Bank(0, 16, config, make_row_policy(RowPolicyConfig()))
    now = 0
    for row, offset, cpu, prefetch, gap in accesses:
        for probe_now in (now, now + gap):
            for probe_row in range(6):
                for probe_offset in (0, offset, config.row_bytes - 1):
                    hit = bank.classify(probe_row, probe_now, probe_offset) == OUTCOME_HIT
                    key = bank.buffer_key(probe_row, probe_offset)
                    assert hit == (key in bank.open_keys(probe_now))
        now += gap
        _, now, _ = bank.access(row, now, None, cpu, prefetch, offset)


@settings(max_examples=15, deadline=None)
@given(
    st.lists(
        st.tuples(
            st.integers(min_value=0, max_value=(1 << 32) - 1),  # paddr
            st.sampled_from(["demand", "pt", "writeback"]),
            st.integers(min_value=0, max_value=3),  # cpu
        ),
        min_size=1,
        max_size=50,
    )
)
def test_controller_serves_everything_exactly_once(requests_spec):
    """Every submitted request is serviced once, with monotone per-bank
    start times and valid outcomes."""
    from repro.common.config import default_system_config
    from repro.sched.controller import MemoryController
    from repro.sched.request import MemoryRequest

    config = default_system_config().with_tempo(False)
    controller = MemoryController(config, None, None)
    submitted = []
    now = 0
    for paddr, kind, cpu in requests_spec:
        request = MemoryRequest(paddr & ~63, kind, cpu=cpu, enqueue_time=now)
        if kind == "writeback":
            controller.submit_async(request, now)
        else:
            finish = controller.submit_and_wait(request, now)
            assert finish is not None
            now = max(now, finish)
        submitted.append(request)
    controller.drain_all()
    assert controller.pending_requests() == 0
    for request in submitted:
        assert request.finish_time is not None
        assert request.outcome in ("hit", "miss", "conflict")
        assert request.start_time >= request.enqueue_time


_REQUEST_KINDS = ("demand", "pt", "tempo_prefetch", "imp_prefetch", "writeback")

_controller_ops = st.lists(
    st.tuples(
        st.sampled_from(
            ("async", "async", "async", "async", "wait", "wait", "service", "advance", "cancel")
        ),
        st.integers(min_value=0, max_value=(1 << 19) - 1),  # paddr
        st.sampled_from(_REQUEST_KINDS),
        st.integers(min_value=0, max_value=3),  # cpu, modulo the CPU count
        st.integers(min_value=0, max_value=300),  # time step / not_before lead
        st.booleans(),  # schedulable only in the future
        st.booleans(),  # TEMPO-tagged (page-table requests)
    ),
    min_size=5,
    max_size=60,
)


def _drive_controller(controller_class, config, num_cpus, ops):
    """Run *ops* against a fresh controller; return everything the
    caller can observe, with requests named by their position in *ops*
    (engine-built prefetches by their page-table request's)."""
    from repro.core.prefetch_engine import PrefetchEngine
    from repro.sched.controller import MemoryController
    from repro.sched.request import MemoryRequest
    from repro.vm.page_table import PageTableEntry

    engine = PrefetchEngine(config.tempo) if config.tempo.enabled else None
    controller = controller_class(config, None, engine)
    names = {}
    served = []
    on_scheduled = controller.scheduler.on_scheduled

    def record(request, start):
        served.append(request)
        on_scheduled(request, start)

    controller.scheduler.on_scheduled = record
    replies = []
    origins = []  # keys of the prefetch outcomes to compare
    now = 0
    for index, (action, paddr, kind, cpu, step, future, tag) in enumerate(ops):
        now += step
        if action == "service":
            pending = [
                channel
                for channel in range(controller.num_channels)
                if controller.has_pending(channel)
            ]
            if pending:
                channel = min(pending, key=controller.next_decision_time)
                replies.append(("decide", channel, controller.next_decision_time(channel)))
                controller.service_one(channel)
        elif action == "advance":
            controller.advance_to(now + step)
        elif action == "cancel":
            if origins:
                origin = origins[paddr % len(origins)]
                replies.append(("cancel", controller.cancel_prefetch(origin)))
        else:
            pte = None
            if kind == "pt" and tag:
                frame = ((paddr * 7919) & ((1 << 22) - 1)) << 12
                pte = PageTableEntry(
                    present=paddr % 4 != 0, is_leaf=True, frame_paddr=frame, page_size=4096
                )
            request = MemoryRequest(
                paddr & ~63,
                kind,
                cpu=cpu % num_cpus,
                is_write=kind == "writeback",
                enqueue_time=now,
                not_before=now + step if future else 0,
                pt_leaf=kind == "pt",
                tempo_tagged=pte is not None,
                pte=pte,
                replay_line_index=paddr % 64,
                origin_pt_id=-1 - index if kind == "tempo_prefetch" else None,
            )
            names[request.req_id] = index
            if pte is not None or kind == "tempo_prefetch":
                origins.append(request.req_id if pte is not None else -1 - index)
            if action == "wait":
                finish = controller.submit_and_wait(request, now)
                replies.append(("wait", finish))
                if finish is not None:
                    now = max(now, finish)
            else:
                replies.append(("async", controller.submit_async(request, now)))
        replies.append(("pending", controller.pending_requests()))
        if controller_class is MemoryController:
            used = [0] * controller.num_channels
            for request in controller.queued_requests():
                used[request.channel] += request.slots()
            assert controller._slots_used == used
    # drain_all walks the channels once, so a prefetch that a late
    # page-table request queues on an already drained channel stays.
    replies.append(("drain", controller.drain_all(), controller.pending_requests()))

    def name(request):
        if request.req_id in names:
            return names[request.req_id]
        return ("prefetch", names[request.origin_pt_id])

    outcomes = []
    for origin in origins:
        outcome = controller.take_prefetch_outcome(origin)
        outcomes.append(
            None
            if outcome is None
            else (outcome.paddr, outcome.row_ready_at, outcome.llc_ready_at, outcome.dropped)
        )
    return {
        "served": [
            (name(request), request.kind, request.start_time, request.finish_time, request.outcome)
            for request in served
        ],
        "replies": replies,
        "outcomes": outcomes,
        "controller": controller.stats.as_dict(),
        "sched": controller.scheduler.stats.as_dict(),
        # Under TEMPO grouping "sched" is the wrapper's group; the wrapped
        # policy keeps its own (BLISS clearings, ATLAS quantum resets).
        "base": getattr(controller.scheduler, "base", controller.scheduler).stats.as_dict(),
        "dram": controller.device.stats.as_dict(),
    }


@settings(max_examples=100, deadline=None)
@given(
    _controller_ops,
    st.sampled_from(("fcfs", "frfcfs", "bliss", "atlas")),
    st.sampled_from(("off", "on", "on+grouping")),
    st.integers(min_value=1, max_value=4),
    st.booleans(),
)
def test_controller_matches_whole_queue_reference(ops, policy, tempo, num_cpus, subrows):
    """Split queues and decode-once coordinates change nothing anyone
    can observe: service order, per-request timing and outcome, API
    replies, dropped prefetches and every controller, scheduler and DRAM
    counter equal the whole-queue reference's, with whole-row or
    sub-row banks."""
    _assert_matches_reference(ops, policy, tempo, num_cpus, subrows)


def _packed_paddr(row, bank, channel, offset):
    """The physical address at *offset* in *row* of *bank* on *channel*
    under the default address map (offset, channel, bank, row from the
    low bits up)."""
    address_map = AddressMap(DramConfig())
    above = (row << address_map.bank_bits | bank) << address_map.channel_bits | channel
    return above << address_map.row_shift | offset


# Four rows of three banks per channel: groups of several writebacks,
# rows that repeat, and (at 1 KB sub-rows) several buffer keys per row.
_packed_paddrs = st.builds(
    _packed_paddr,
    st.integers(min_value=0, max_value=3),
    st.integers(min_value=0, max_value=2),
    st.integers(min_value=0, max_value=1),
    st.integers(min_value=0, max_value=DramConfig().row_bytes - 1),
)

_packed_writebacks = st.tuples(
    st.just("async"),
    _packed_paddrs,
    st.just("writeback"),
    st.integers(min_value=0, max_value=3),  # cpu, modulo the CPU count
    # Mostly faster than DRAM serves them; a long step gives a not_before
    # lead that younger writebacks of the same cpu and bank overtake.
    st.one_of(st.integers(min_value=0, max_value=30), st.sampled_from((200, 600))),
    st.sampled_from((False, False, False, True)),  # a not_before lead
    st.just(False),
)

_packed_others = st.tuples(
    st.sampled_from(("wait", "wait", "service", "service", "advance")),
    _packed_paddrs,
    st.sampled_from(("demand", "pt")),
    st.integers(min_value=0, max_value=3),
    st.integers(min_value=0, max_value=300),
    st.booleans(),
    st.booleans(),
)


@st.composite
def _writeback_heavy_ops(draw):
    # Each writeback is followed, one time in five, by one of the other
    # ops.  Hypothesis shrinks one list like this far faster than a
    # permutation of two lists.
    ops = []
    for writeback in draw(st.lists(_packed_writebacks, min_size=30, max_size=200)):
        ops.append(writeback)
        if draw(st.integers(min_value=0, max_value=4)) == 4:
            ops.append(draw(_packed_others))
    return ops


@pytest.mark.parametrize("subrows", (False, True), ids=("rows", "subrows"))
@pytest.mark.parametrize("tempo", ("off", "on", "on+grouping"))
@pytest.mark.parametrize("policy", ("fcfs", "frfcfs", "bliss", "atlas"))
@settings(max_examples=5, deadline=None)
@given(_writeback_heavy_ops(), st.integers(min_value=1, max_value=4))
def test_writeback_store_matches_whole_queue_reference(
    policy, tempo, subrows, ops, num_cpus
):
    """The writeback store offers each pick a few requests per (cpu,
    bank, not_before) group instead of the whole backlog; with many
    writebacks per group, on repeating rows and sub-rows, nothing anyone
    can observe changes."""
    _assert_matches_reference(ops, policy, tempo, num_cpus, subrows)


def _assert_matches_reference(ops, policy, tempo, num_cpus, subrows):
    from dataclasses import replace

    from repro.common.config import default_system_config
    from repro.sched.controller import MemoryController

    from tests.reference_controller import SingleListController

    config = default_system_config()
    config = config.copy_with(
        num_cores=num_cpus,
        dram=replace(
            config.dram,
            txq_capacity=3,
            subrows=replace(config.dram.subrows, enabled=subrows),
        ),
        scheduler=replace(
            config.scheduler,
            policy=policy,
            bliss_clearing_interval=500,
            atlas_quantum_cycles=700,
        ),
    ).with_tempo(tempo != "off", txq_grouping=tempo == "on+grouping")
    reference = _drive_controller(SingleListController, config, num_cpus, ops)
    assert _drive_controller(MemoryController, config, num_cpus, ops) == reference


class _ScriptedContext:
    """Scheduler predicates answered per request: a row hit when its id
    is in ``row_hits``, and a reservation ``(cpu, until)`` standing in
    for its bank's, binding another CPU while ``now < until``."""

    def __init__(self):
        self.now = 0
        self.row_hits = set()
        self.reservations = {}

    def row_hit(self, request):
        return request.req_id in self.row_hits

    def reserved_against(self, request):
        reservation = self.reservations.get(request.req_id)
        return (
            reservation is not None
            and reservation[0] != request.cpu
            and self.now < reservation[1]
        )


_scripted_requests = st.tuples(
    st.sampled_from(_REQUEST_KINDS),
    st.integers(min_value=0, max_value=3),  # cpu, modulo the CPU count
    st.integers(min_value=-300, max_value=300),  # not_before - now
    st.sampled_from(("none", "own", "other")),  # whose reservation binds its bank
    st.integers(min_value=1, max_value=300),  # reservation left
    st.booleans(),  # row hit
)

_scheduler_history = st.lists(
    st.tuples(
        st.sampled_from(("pick", "scheduled")),
        st.integers(min_value=0, max_value=400),  # time step
        st.lists(_scripted_requests, min_size=1, max_size=4),
    ),
    max_size=12,
)


def _scripted_request(spec, now, num_cpus, context):
    from repro.sched.request import MemoryRequest

    kind, cpu, lead, reservation, left, hit = spec
    cpu %= num_cpus
    request = MemoryRequest(
        0x1000, kind, cpu=cpu, enqueue_time=now, not_before=max(0, now + lead)
    )
    if reservation != "none":
        owner = cpu if reservation == "own" else (cpu + 1) % 4
        context.reservations[request.req_id] = (owner, now + left)
    if hit:
        context.row_hits.add(request.req_id)
    return request


def _policy_state(scheduler):
    """Everything a policy decides with: each layer's attributes (counter
    handles by value) and its exported stats."""
    from repro.common.stats import Counter, StatGroup

    state = []
    for policy in (scheduler, getattr(scheduler, "base", scheduler)):
        attributes = {}
        for name, value in vars(policy).items():
            if isinstance(value, Counter):
                attributes[name] = value.value
            elif name != "base" and not isinstance(value, StatGroup):
                attributes[name] = value
        state.append((attributes, policy.stats.as_dict()))
    return state


@settings(max_examples=200, deadline=None)
@given(
    st.sampled_from(("fcfs", "frfcfs", "bliss", "atlas")),
    st.booleans(),  # TEMPO grouping
    st.integers(min_value=1, max_value=4),
    _scheduler_history,
    st.integers(min_value=0, max_value=400),
    _scripted_requests,
)
def test_pick_lone_matches_pick_on_one_request(
    policy, grouping, num_cpus, history, step, offered
):
    """``pick_lone(r)`` returns what ``pick([r])`` returns and leaves the
    policy in the same state, whatever history the policy has seen;
    after a refusal, a second ``pick_lone`` at the same time (the
    controller's refused arrival, then its pick) still equals one
    ``pick``, and so does the retry once the clock has jumped."""
    import copy
    from dataclasses import replace

    from repro.common.config import default_system_config
    from repro.sched.schedulers import make_scheduler

    # Short periods, so that most histories and offers cross a BLISS
    # clearing or an ATLAS quantum boundary.
    config = replace(
        default_system_config().scheduler,
        policy=policy,
        bliss_clearing_interval=200,
        atlas_quantum_cycles=300,
    )
    scheduler = make_scheduler(config, tempo_enabled=grouping)
    context = _ScriptedContext()
    now = 0
    for action, time_step, specs in history:
        now += time_step
        context.now = now
        requests = [_scripted_request(spec, now, num_cpus, context) for spec in specs]
        if action == "pick":
            scheduler.pick(requests, now, context)
        else:
            scheduler.on_scheduled(requests[0], now)

    now += step
    context.now = now
    request = _scripted_request(offered, now, num_cpus, context)
    twin = copy.deepcopy(scheduler)
    expected = scheduler.pick([request], now, context)
    assert expected is None or expected is request
    assert twin.pick_lone(request, now, context) is expected
    assert _policy_state(twin) == _policy_state(scheduler)
    if expected is None:
        assert twin.pick_lone(request, now, context) is None
        assert _policy_state(twin) == _policy_state(scheduler)
        reservation = context.reservations.get(request.req_id, (None, 0))
        now = max(now, request.not_before, reservation[1])
        context.now = now
        expected = scheduler.pick([request], now, context)
        assert expected is request
        assert twin.pick_lone(request, now, context) is expected
        assert _policy_state(twin) == _policy_state(scheduler)


@settings(max_examples=15, deadline=None)
@given(st.integers(min_value=0, max_value=2**20))
def test_system_simulator_deterministic_under_seeds(seed):
    """Same trace + same seed -> identical cycle counts (spot check)."""
    from repro.common.config import default_system_config
    from repro.sim.system import SystemSimulator
    from repro.workloads.base import TraceBuilder

    def build():
        builder = TraceBuilder("prop", seed=seed % 7)
        region = builder.region("data", 1 << 34)
        for index in range(120):
            builder.read(region.clustered(hot_chunks=32, tail=0.1), gap=1)
        return builder.build()

    config = default_system_config()
    first = SystemSimulator(config, [build()], seed=seed).run().total_cycles
    second = SystemSimulator(config, [build()], seed=seed).run().total_cycles
    assert first == second
