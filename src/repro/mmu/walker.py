"""Hardware page-table walker (paper Secs. 2.1 and 4.1).

On a TLB miss the walker traverses the radix tree L4 -> leaf.  Each level
is first probed in the MMU caches; misses become real memory references
that traverse the cache hierarchy and possibly DRAM.

TEMPO's modification (Sec. 4.1): the request for the *leaf* entry is
tagged with an identifier bit, and the replay's desired cache-line index
within the target page is appended to it (6 bits for 4 KB pages).  The
memory controller uses the tag to trigger the prefetch engine and the
line index to construct the replay's full physical address.

The walker here is a pure *sequencer*: it descends the page table itself,
from the root, probing the MMU caches level by level, and produces a
:class:`WalkPlan` describing the references to perform; the system
simulator executes them with real timing, then calls
:meth:`PageTableWalker.complete` to fill the MMU caches and TLB.  The
per-level index and entry address come from the same table
(``repro.common.addressing.RADIX_LEVELS``) that ``PageTable.walk`` and
``PageTable.map`` descend with.
"""

from repro.common.addressing import RADIX_INDEX_MASK, RADIX_LEVELS, line_index_in_page
from repro.common.constants import PTE_SHIFT, SIZE_FOR_LEAF_LEVEL
from repro.common.errors import MappingError, SimulationError
from repro.common.stats import StatGroup


class WalkStep:
    """One page-table level the walker visits."""

    __slots__ = ("level", "entry_paddr", "from_mmu_cache", "is_leaf")

    def __init__(self, level, entry_paddr, from_mmu_cache, is_leaf):
        self.level = level
        self.entry_paddr = entry_paddr
        self.from_mmu_cache = from_mmu_cache
        self.is_leaf = is_leaf

    def __repr__(self):
        source = "mmu$" if self.from_mmu_cache else "mem"
        leaf = " leaf" if self.is_leaf else ""
        return "WalkStep(L%d @0x%x %s%s)" % (self.level, self.entry_paddr, source, leaf)


class WalkPlan:
    """Everything the simulator needs to execute one walk."""

    __slots__ = (
        "vaddr",
        "steps",
        "entry",
        "faulted",
        "leaf_level",
        "tempo_tagged",
        "replay_line_index",
    )

    def __init__(self, vaddr, steps, entry, faulted, leaf_level, tempo_tagged, replay_line_index):
        self.vaddr = vaddr
        self.steps = steps
        self.entry = entry
        self.faulted = faulted
        self.leaf_level = leaf_level
        self.tempo_tagged = tempo_tagged
        self.replay_line_index = replay_line_index

    @property
    def memory_steps(self):
        """Steps that actually reference memory (MMU-cache misses)."""
        return [step for step in self.steps if not step.from_mmu_cache]

    @property
    def page_size(self):
        return self.entry.page_size if self.entry is not None else None

    @property
    def frame_paddr(self):
        return self.entry.frame_paddr if self.entry is not None else None

    def __repr__(self):
        state = "fault" if self.faulted else "ok"
        return "WalkPlan(0x%x, %d steps, %s)" % (self.vaddr, len(self.steps), state)


class PageTableWalker:
    """Sequences radix walks against a page table + MMU caches."""

    def __init__(self, page_table, mmu_caches, tempo_tagging=False, name="walker"):
        self.page_table = page_table
        self.mmu_caches = mmu_caches
        #: When True, leaf-PT requests carry TEMPO's tag + line index.
        self.tempo_tagging = tempo_tagging
        self.stats = StatGroup(name)
        self._walks = self.stats.counter_handle("walks")
        self._faulting_walks = self.stats.counter_handle("faulting_walks")
        self._tagged_leaf_requests = self.stats.counter_handle("tagged_leaf_requests")
        self._completed_walks = self.stats.counter_handle("completed_walks")
        self._memory_steps = self.stats.histogram_handle("memory_steps_per_walk")

    def plan(self, vaddr):
        """Build the :class:`WalkPlan` for a TLB miss at *vaddr*.

        One descent of the radix tree from the root: each level's entry
        is read from its table page and probed in the MMU caches before
        the walk moves down, stopping at the leaf or at the first
        missing entry (a faulted plan).  MMU-cache lookups happen here
        (they are combinational and cheap); fills happen in
        :meth:`complete` after the simulator has actually performed the
        memory references.
        """
        lookup = self.mmu_caches.lookup
        steps = []
        memory_steps = 0
        node = self.page_table.root
        for level, shift in RADIX_LEVELS:
            index = (vaddr >> shift) & RADIX_INDEX_MASK
            entry_paddr = node.base_paddr + (index << PTE_SHIFT)
            entry = node.entries.get(index)
            faulted = entry is None or not entry.present
            is_leaf = not faulted and entry.is_leaf
            cached = lookup(level, entry_paddr, is_leaf)
            if not cached:
                memory_steps += 1
            steps.append(WalkStep(level, entry_paddr, cached, is_leaf))
            if faulted or is_leaf:
                break
            node = entry.child
        else:
            # The L1 iteration either reached a leaf or a fault; a
            # present non-leaf L1 entry is structurally impossible.
            raise MappingError(
                "corrupt page table: non-leaf entry at L1 for 0x%x" % vaddr,
                context={
                    "vaddr": vaddr,
                    "accesses": [(step.level, step.entry_paddr) for step in steps],
                },
            )
        self._walks.value += 1
        self._memory_steps.record(memory_steps)
        if faulted:
            self._faulting_walks.value += 1
            return WalkPlan(vaddr, tuple(steps), None, True, level, False, 0)
        tagged = self.tempo_tagging
        if tagged:
            self._tagged_leaf_requests.value += 1
        return WalkPlan(
            vaddr,
            tuple(steps),
            entry,
            False,
            level,
            tagged,
            line_index_in_page(vaddr, SIZE_FOR_LEAF_LEVEL[level]),
        )

    def complete(self, plan):
        """Record walk completion: fill MMU caches with the non-leaf
        entries that were fetched from memory.

        Completing a faulted plan would desynchronise the walker's
        completion accounting (the ``walks == completed + faulting``
        invariant the audit suite checks), so it is rejected here with
        the machine state attached.
        """
        if plan.faulted:
            raise SimulationError(
                "cannot complete a faulted walk",
                context={
                    "vaddr": plan.vaddr,
                    "leaf_level": plan.leaf_level,
                    "steps": len(plan.steps),
                },
            )
        for step in plan.steps:
            if not step.from_mmu_cache and not step.is_leaf:
                self.mmu_caches.insert(step.level, step.entry_paddr, step.is_leaf)
        self._completed_walks.value += 1
