"""Every StatGroup the simulator keeps reaches ``result.stats``, and
every counter it creates moves in some configuration.

The machine is composed at run time -- the TEMPO grouping wrapper wraps
whichever policy the config names, sub-row banks replace whole-row
banks -- so this runs the real simulator under each family of configs,
walks its attributes for StatGroups and compares them, by identity,
with what ``metrics_registry()`` registers (children included).
"""

import re
from collections import deque
from dataclasses import replace

import pytest

from repro.common.config import CacheConfig, default_system_config
from repro.common.stats import StatGroup
from repro.sched.schedulers import TempoGroupingScheduler
from repro.sim.system import SystemSimulator
from repro.workloads.registry import make_trace

SINGLE = (("graph500",), 800)
MIX = (("xsbench", "mcf", "graph500", "spmv"), 400)

_LLC_ONLY = (
    "one Cache class serves every level and only the LLC takes prefetch "
    "fills (TEMPO's); the zero key stays in result.stats"
)

#: Counters that no family moves, each with why it stays.  Keys are
#: group paths with indices folded to ``N``.
ALLOWED_ZERO = {
    "controller.outcome_imp_prefetch_hit": (
        "IMP's indirect targets in these workloads never find their row "
        "open; lsh moves it (36 of 122 IMP prefetches at 1,500 records)"
    ),
    "l1.N.prefetch_fills": _LLC_ONLY,
    "l2.N.prefetch_fills": _LLC_ONLY,
    "tempo_engine.suppressed_not_present": (
        "defensive: the walker tags only present leaf PTEs; "
        "test_prefetch_engine moves it and the tempo_causality audit reads it"
    ),
}


def _families():
    """Family name -> (config, shapes).  Default TEMPO is on."""
    base = default_system_config()

    def vm(**fields):
        return base.copy_with(vm=replace(base.vm, **fields))

    def scheduler(policy):
        return base.copy_with(scheduler=replace(base.scheduler, policy=policy))

    both = (SINGLE, MIX)
    return {
        # Caches this small evict dirty lines, so writebacks reach DRAM.
        "tempo_off_tiny_caches": (
            base.copy_with(
                l1=CacheConfig(size_bytes=1024, assoc=2),
                l2=CacheConfig(size_bytes=2048, assoc=2),
                llc=CacheConfig(size_bytes=4096, assoc=4),
            ).with_tempo(False),
            both,
        ),
        "tempo_on": (base, both),
        "imp_on": (base.copy_with(imp=replace(base.imp, enabled=True)), both),
        "fcfs": (scheduler("fcfs"), both),
        "bliss": (scheduler("bliss"), both),
        "atlas": (scheduler("atlas"), both),
        "subrows": (
            base.copy_with(
                dram=replace(base.dram, subrows=replace(base.dram.subrows, enabled=True))
            ),
            both,
        ),
        "memhog_0.5": (vm(memhog_fraction=0.5), both),
        # Four ~1 TB footprints with eager reservation exhaust the
        # modelled 4 TB, so the hugetlbfs families run on one core.
        "hugetlbfs_2m": (vm(hugetlbfs_2m=True), (SINGLE,)),
        "hugetlbfs_1g": (vm(hugetlbfs_1g=True), (SINGLE,)),
        "thp_off": (vm(thp_enabled=False), both),
        # Four cores fill a 4-slot TxQ, so TEMPO prefetches get dropped.
        "txq_4": (base.copy_with(dram=replace(base.dram, txq_capacity=4)), both),
    }


#: Leaf values: never a StatGroup and never holding one.
_ATOMS = (int, float, str, bytes, type(None))


def _walk_groups(root):
    """Every StatGroup reachable from *root* through the attributes of
    repro objects and the containers they hold."""
    found = []
    seen = set()
    stack = [root]
    while stack:
        obj = stack.pop()
        if id(obj) in seen:
            continue
        seen.add(id(obj))
        if isinstance(obj, StatGroup):
            found.append(obj)
        elif isinstance(obj, (list, tuple, set, frozenset, deque, dict)):
            items = obj.values() if isinstance(obj, dict) else obj
            stack.extend(item for item in items if not isinstance(item, _ATOMS))
        elif type(obj).__module__.startswith("repro."):
            stack.extend(vars(obj).values() if hasattr(obj, "__dict__") else ())
            for klass in type(obj).__mro__:
                for slot in getattr(klass, "__slots__", ()):
                    if hasattr(obj, slot):
                        stack.append(getattr(obj, slot))
    return found


def _subtree(group, path, into):
    """id -> (path, group) for *group* and its children."""
    into.setdefault(id(group), (path, group))
    for child in group._children.values():
        _subtree(child, "%s.%s" % (path, child.name), into)


def _stat_values(group):
    """(name, value) of every counter and histogram of *group* itself,
    bound handles that never counted included."""
    for counters in (group._counters, group._pending_counters):
        for name, counter in counters.items():
            yield name, counter.value
    for histograms in (group._histograms, group._pending_histograms):
        for name, histogram in histograms.items():
            yield name, histogram.total()


def _scan(config, workloads, length):
    simulator = SystemSimulator(
        config, [make_trace(name, length=length, seed=0) for name in workloads]
    )
    simulator.run()
    registered = {}
    for _, group in simulator.metrics_registry()._entries:
        _subtree(group, group.name, registered)
    groups = dict(registered)
    unexported = {}
    for group in _walk_groups(simulator):
        if id(group) not in registered:
            unexported[id(group)] = group.name
            _subtree(group, group.name, groups)
    scheduler = simulator.controller.scheduler
    allowed = set()
    if isinstance(scheduler, TempoGroupingScheduler):
        # ROADMAP item 2: the wrapped policy's group is not registered.
        # Drop this exception when that is fixed.
        allowed.add(id(scheduler.base.stats))
    counters = {}
    for path, group in groups.values():
        for name, value in _stat_values(group):
            key = re.sub(r"\.\d+(?=\.|$)", ".N", "%s.%s" % (path, name))
            counters[key] = counters.get(key, 0) + value
    return unexported, allowed, counters


@pytest.fixture(scope="module")
def scans():
    """(family, cores) -> scan, over every family and shape."""
    results = {}
    for family, (config, shapes) in _families().items():
        for workloads, length in shapes:
            results[family, len(workloads)] = _scan(config, workloads, length)
    return results


def test_every_stat_group_reaches_the_registry(scans):
    problems = []
    for (family, cores), (unexported, allowed, _) in sorted(scans.items()):
        missing = sorted(name for gid, name in unexported.items() if gid not in allowed)
        if missing:
            problems.append("%s/%d cores: unexported %s" % (family, cores, missing))
        if set(allowed) - set(unexported):
            problems.append(
                "%s/%d cores: the wrapped scheduler's group is registered now; "
                "drop its exception" % (family, cores)
            )
    assert not problems, "\n".join(problems)


def test_every_counter_moves_in_some_family(scans):
    totals = {}
    for _, _, counters in scans.values():
        for key, value in counters.items():
            totals[key] = totals.get(key, 0) + value
    dead = sorted(key for key, value in totals.items() if value == 0)
    assert [key for key in dead if key not in ALLOWED_ZERO] == []
    stale = sorted(key for key in ALLOWED_ZERO if totals.get(key) != 0)
    assert stale == [], "allow-listed counters that moved or are gone: %s" % stale
