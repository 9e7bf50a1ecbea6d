"""One driver per evaluation figure (DESIGN.md's experiment index).

Every driver returns a dict with a ``rows`` list (one entry per bar /
point / series element in the paper's figure) plus metadata.  Drivers
take ``length`` (trace records per workload) and have no default for
it: the one length each figure runs at lives in the figure table
(:mod:`repro.analysis.figures`).

Execution model: each driver decomposes into independent simulation
cells (:class:`~repro.exec.SimCell`) and submits them in one batch to an
:class:`~repro.exec.ExperimentExecutor`, which fans them out across
worker processes and/or serves them from the content-addressed cache,
then hands results back in submission order.  Pass ``executor=`` to
share one executor (and its memo/cache) across drivers -- the report
generator does, so overlapping figures never simulate the same cell
twice.  Without one, a private serial executor is used and results are
bit-identical to the historical direct-call implementation.
"""

from dataclasses import replace

from repro.common.config import default_system_config
from repro.exec import ExperimentExecutor, SimCell
from repro.sim.metrics import energy_improvement, performance_improvement
from repro.sim.multicore import MultiprogramResult
from repro.workloads.registry import BIGDATA_WORKLOADS, SMALL_WORKLOADS

BIGDATA_NAMES = tuple(workload.name for workload in BIGDATA_WORKLOADS)
SMALL_NAMES = tuple(workload.name for workload in SMALL_WORKLOADS)

#: Multiprogrammed mixes (paper Sec. 6.3 uses Spec/Parsec mixes with a
#: range of memory intensities; each mix pairs intensive and light apps).
MULTIPROGRAM_MIXES = (
    ("xsbench", "mcf", "bzip2_small", "gcc_small"),
    ("graph500", "canneal", "astar_small", "swaptions_small"),
    ("illustris", "spmv", "freqmine_small", "blackscholes_small"),
)

#: All-intensive mixes for the sub-row study: dedicating sub-rows to
#: prefetches only matters under heavy bank pressure, where prefetched
#: segments face eviction before their replays arrive.
SUBROW_MIXES = (
    ("xsbench", "graph500", "illustris", "mcf"),
    ("spmv", "canneal", "lsh", "sgms"),
)


def _bigdata_subset(workloads):
    return BIGDATA_NAMES if workloads is None else tuple(workloads)


def _get_executor(executor):
    return executor if executor is not None else ExperimentExecutor()


def _safe_ratio(numerator, denominator):
    """``numerator / denominator``, but 0.0 on a zero denominator.

    Baselines can legitimately read zero under degraded execution
    (``--allow-partial`` renders permanently-failed cells as all-zero
    placeholders); the improvement is then meaningless and renders as
    0 rather than crashing figure assembly.
    """
    return numerator / denominator if denominator else 0.0


class _CellBatch:
    """Collects a driver's cells, then resolves them all in one batch.

    ``add`` returns the cell's index; after ``run`` the results list is
    indexed the same way.  Submitting one batch (instead of one cell at
    a time) is what lets a multi-worker executor overlap everything the
    driver needs.
    """

    def __init__(self, executor, length, seed):
        self.executor = executor
        self.length = length
        self.seed = seed
        self.cells = []

    def add(self, workloads, config):
        self.cells.append(SimCell(workloads, config, self.length, self.seed))
        return len(self.cells) - 1

    def run(self):
        return self.executor.run_cells(self.cells)


# ----------------------------------------------------------------------
# E1 / Figure 1 -- runtime breakdown
# ----------------------------------------------------------------------

def fig01_runtime_breakdown(length, workloads=None, seed=0, executor=None):
    """Fraction of runtime in DRAM-PTW / DRAM-Replay / DRAM-Other."""
    names = _bigdata_subset(workloads)
    config = default_system_config().with_tempo(False)
    results = _get_executor(executor).run_cells(
        SimCell(name, config, length, seed) for name in names
    )
    rows = []
    for name, result in zip(names, results):
        runtime = result.core.runtime
        rows.append(
            {
                "workload": name,
                "dram_ptw_fraction": runtime.fraction("ptw"),
                "dram_replay_fraction": runtime.fraction("replay"),
                "dram_other_fraction": runtime.fraction("other"),
            }
        )
    return {"figure": "fig01", "rows": rows}


# ----------------------------------------------------------------------
# E4 / Figure 4 -- DRAM reference breakdown
# ----------------------------------------------------------------------

def fig04_dram_reference_breakdown(length, workloads=None, seed=0, executor=None):
    """DRAM *reference* fractions plus the leaf-PT and follow rates."""
    names = _bigdata_subset(workloads)
    config = default_system_config().with_tempo(False)
    results = _get_executor(executor).run_cells(
        SimCell(name, config, length, seed) for name in names
    )
    rows = []
    for name, result in zip(names, results):
        refs = result.core.dram_refs
        rows.append(
            {
                "workload": name,
                "ptw_fraction": refs.fraction("ptw"),
                "replay_fraction": refs.fraction("replay"),
                "other_fraction": refs.fraction("other"),
                "leaf_fraction_of_ptw": refs.leaf_fraction_of_ptw(),
                "replay_follows_ptw_rate": refs.replay_follows_ptw_rate(),
            }
        )
    return {"figure": "fig04", "rows": rows}


# ----------------------------------------------------------------------
# E10 / Figure 10 -- headline performance + energy + superpage coverage
# ----------------------------------------------------------------------

def fig10_performance_energy(length, workloads=None, seed=0, executor=None):
    names = _bigdata_subset(workloads)
    config = default_system_config()
    batch = _CellBatch(_get_executor(executor), length, seed)
    pairs = [
        (batch.add(name, config.with_tempo(False)), batch.add(name, config.with_tempo(True)))
        for name in names
    ]
    results = batch.run()
    rows = []
    for name, (base_index, tempo_index) in zip(names, pairs):
        baseline, tempo = results[base_index], results[tempo_index]
        rows.append(
            {
                "workload": name,
                "performance_improvement": performance_improvement(
                    baseline.total_cycles, tempo.total_cycles
                ),
                "energy_improvement": energy_improvement(
                    baseline.energy_total, tempo.energy_total
                ),
                "superpage_fraction": baseline.superpage_fraction,
            }
        )
    return {"figure": "fig10", "rows": rows}


# ----------------------------------------------------------------------
# E11 left / Figure 11 left -- replay service breakdown under TEMPO
# ----------------------------------------------------------------------

def fig11_replay_service(length, workloads=None, seed=0, executor=None):
    names = _bigdata_subset(workloads)
    config = default_system_config().with_tempo(True)
    results = _get_executor(executor).run_cells(
        SimCell(name, config, length, seed) for name in names
    )
    rows = []
    for name, result in zip(names, results):
        service = result.core.replay_service
        rows.append(
            {
                "workload": name,
                "llc_fraction": service.fraction("llc"),
                "row_buffer_fraction": service.fraction("row_buffer"),
                "unaided_fraction": service.fraction("unaided"),
            }
        )
    return {"figure": "fig11_left", "rows": rows}


# ----------------------------------------------------------------------
# E11 right / Figure 11 right -- small-footprint do-no-harm
# ----------------------------------------------------------------------

def fig11_small_footprint(length, seed=0, executor=None):
    config = default_system_config()
    batch = _CellBatch(_get_executor(executor), length, seed)
    plan = []
    for group, names in (("bigdata", BIGDATA_NAMES), ("small", SMALL_NAMES)):
        for name in names:
            plan.append(
                (
                    group,
                    name,
                    batch.add(name, config.with_tempo(False)),
                    batch.add(name, config.with_tempo(True)),
                )
            )
    results = batch.run()
    rows = []
    for group, name, base_index, tempo_index in plan:
        baseline, tempo = results[base_index], results[tempo_index]
        rows.append(
            {
                "workload": name,
                "group": group,
                "performance_improvement": performance_improvement(
                    baseline.total_cycles, tempo.total_cycles
                ),
                "energy_improvement": energy_improvement(
                    baseline.energy_total, tempo.energy_total
                ),
            }
        )
    return {"figure": "fig11_right", "rows": rows}


# ----------------------------------------------------------------------
# E12 / Figure 12 -- interaction with IMP prefetching
# ----------------------------------------------------------------------

def fig12_imp_interaction(length, workloads=None, seed=0, executor=None):
    names = _bigdata_subset(workloads)
    config = default_system_config()
    imp_config = config.copy_with(imp=replace(config.imp, enabled=True))
    batch = _CellBatch(_get_executor(executor), length, seed)
    plan = [
        (
            name,
            batch.add(name, config.with_tempo(False)),
            batch.add(name, config.with_tempo(True)),
            batch.add(name, imp_config.with_tempo(False)),
            batch.add(name, imp_config.with_tempo(True)),
        )
        for name in names
    ]
    results = batch.run()
    rows = []
    for name, base_i, tempo_i, base_imp_i, tempo_imp_i in plan:
        baseline, tempo = results[base_i], results[tempo_i]
        baseline_imp, tempo_imp = results[base_imp_i], results[tempo_imp_i]
        rows.append(
            {
                "workload": name,
                "improvement_no_imp": performance_improvement(
                    baseline.total_cycles, tempo.total_cycles
                ),
                "improvement_with_imp": performance_improvement(
                    baseline_imp.total_cycles, tempo_imp.total_cycles
                ),
                "energy_no_imp": energy_improvement(
                    baseline.energy_total, tempo.energy_total
                ),
                "energy_with_imp": energy_improvement(
                    baseline_imp.energy_total, tempo_imp.energy_total
                ),
            }
        )
    return {"figure": "fig12", "rows": rows}


# ----------------------------------------------------------------------
# E13 / Figure 13 -- superpage sensitivity
# ----------------------------------------------------------------------

def _vm_variants():
    """The paper's page-size configurations, in rising-coverage order."""
    base = default_system_config().vm
    return (
        ("4k-only", replace(base, thp_enabled=False)),
        ("thp-memhog75", replace(base, thp_enabled=True, memhog_fraction=0.75)),
        ("thp-memhog50", replace(base, thp_enabled=True, memhog_fraction=0.50)),
        ("thp-memhog25", replace(base, thp_enabled=True, memhog_fraction=0.25)),
        ("thp-memhog0", replace(base, thp_enabled=True, memhog_fraction=0.0)),
        ("hugetlbfs-2m", replace(base, hugetlbfs_2m=True)),
        ("hugetlbfs-1g", replace(base, hugetlbfs_1g=True)),
    )


def fig13_superpage_sensitivity(length, workloads=None, seed=0, executor=None):
    names = _bigdata_subset(workloads)
    batch = _CellBatch(_get_executor(executor), length, seed)
    plan = []
    for name in names:
        for label, vm_config in _vm_variants():
            config = default_system_config().copy_with(vm=vm_config)
            plan.append(
                (
                    name,
                    label,
                    batch.add(name, config.with_tempo(False)),
                    batch.add(name, config.with_tempo(True)),
                )
            )
    results = batch.run()
    rows = []
    for name, label, base_index, tempo_index in plan:
        baseline, tempo = results[base_index], results[tempo_index]
        rows.append(
            {
                "workload": name,
                "variant": label,
                "superpage_fraction": baseline.superpage_fraction,
                "performance_improvement": performance_improvement(
                    baseline.total_cycles, tempo.total_cycles
                ),
            }
        )
    return {"figure": "fig13", "rows": rows}


# ----------------------------------------------------------------------
# E14 / Figure 14 -- row-buffer management policies
# ----------------------------------------------------------------------

def fig14_row_policies(length, workloads=None, seed=0, executor=None):
    names = _bigdata_subset(workloads)
    batch = _CellBatch(_get_executor(executor), length, seed)
    plan = []
    for name in names:
        for policy in ("adaptive", "open", "closed"):
            config = default_system_config()
            config = config.copy_with(row_policy=replace(config.row_policy, policy=policy))
            plan.append(
                (
                    name,
                    policy,
                    batch.add(name, config.with_tempo(False)),
                    batch.add(name, config.with_tempo(True)),
                )
            )
    results = batch.run()
    rows = []
    for name, policy, base_index, tempo_index in plan:
        baseline, tempo = results[base_index], results[tempo_index]
        rows.append(
            {
                "workload": name,
                "policy": policy,
                "performance_improvement": performance_improvement(
                    baseline.total_cycles, tempo.total_cycles
                ),
            }
        )
    return {"figure": "fig14", "rows": rows}


# ----------------------------------------------------------------------
# E15 / Figure 15 -- anticipation wait-cycle sweep
# ----------------------------------------------------------------------

def fig15_wait_cycles(length, workloads=None, seed=0, waits=(0, 5, 10, 15),
                      executor=None):
    """Besides end-to-end improvement, report the *mechanism* metric the
    wait window targets: the row-buffer hit rate of DRAM page-table
    accesses (keeping a just-read PT row open lets queued translations
    to the same row hit)."""
    names = _bigdata_subset(workloads)
    batch = _CellBatch(_get_executor(executor), length, seed)
    plan = []
    for name in names:
        base_index = batch.add(name, default_system_config().with_tempo(False))
        for wait in waits:
            config = default_system_config().with_tempo(True, wait_cycles=wait)
            plan.append((name, wait, base_index, batch.add(name, config)))
    results = batch.run()
    rows = []
    for name, wait, base_index, tempo_index in plan:
        baseline, tempo = results[base_index], results[tempo_index]
        stats = tempo.stats
        pt_hits = stats.get("controller.outcome_pt_hit", 0)
        pt_total = (
            pt_hits
            + stats.get("controller.outcome_pt_miss", 0)
            + stats.get("controller.outcome_pt_conflict", 0)
        )
        rows.append(
            {
                "workload": name,
                "wait_cycles": wait,
                "performance_improvement": performance_improvement(
                    baseline.total_cycles, tempo.total_cycles
                ),
                "pt_row_hit_rate": pt_hits / pt_total if pt_total else 0.0,
            }
        )
    return {"figure": "fig15", "rows": rows}


# ----------------------------------------------------------------------
# E16 / Figure 16 -- BLISS fairness scheduling
# ----------------------------------------------------------------------

def _bliss_config(prefetch_increment=1, grace=15, tempo=True):
    config = default_system_config()
    config = config.copy_with(
        scheduler=replace(config.scheduler, policy="bliss",
                          bliss_prefetch_increment=prefetch_increment)
    )
    return config.with_tempo(tempo, grace_period_cycles=grace) if tempo else config.with_tempo(False)


def _add_mix(batch, mix, config):
    """Queue a mix's shared run plus its per-application alone runs;
    returns the indices needed to assemble a MultiprogramResult."""
    shared_index = batch.add(mix, config)
    alone_indices = [batch.add(name, config) for name in mix]
    return shared_index, alone_indices


def _mix_result(results, shared_index, alone_indices):
    return MultiprogramResult(
        results[shared_index], [results[index] for index in alone_indices]
    )


def fig16_bliss(length, mixes=None, seed=0,
                prefetch_weights=(0, 1, 2), grace_periods=(0, 15, 30),
                executor=None):
    """Weighted speedup + max slowdown vs prefetch weight and grace
    period, averaged over the mixes (paper averages over its mixes too).

    Prefetch weights are BLISS counter increments relative to the demand
    increment of 2 -- i.e. 0, half, and equal weight.

    The alone baselines do not depend on the swept sharing parameters,
    so each mix's alone runs are simulated once (under the TEMPO-off
    base config) and reused across the whole sweep.
    """
    mixes = MULTIPROGRAM_MIXES if mixes is None else tuple(mixes)
    batch = _CellBatch(_get_executor(executor), length, seed)
    plan = []
    for mix in mixes:
        base_shared, alone = _add_mix(batch, mix, _bliss_config(tempo=False))
        weight_runs = [
            (weight, batch.add(mix, _bliss_config(prefetch_increment=weight, grace=15)))
            for weight in prefetch_weights
        ]
        grace_runs = [
            (grace, batch.add(mix, _bliss_config(prefetch_increment=1, grace=grace)))
            for grace in grace_periods
        ]
        plan.append((mix, base_shared, alone, weight_runs, grace_runs))
    results = batch.run()
    weight_rows = []
    grace_rows = []
    for mix, base_shared, alone, weight_runs, grace_runs in plan:
        base_result = _mix_result(results, base_shared, alone)
        for weight, shared_index in weight_runs:
            result = _mix_result(results, shared_index, alone)
            weight_rows.append(
                {
                    "mix": "+".join(mix),
                    "prefetch_weight": weight / 2.0,
                    "ws_improvement": _safe_ratio(
                        result.weighted_speedup - base_result.weighted_speedup,
                        base_result.weighted_speedup,
                    ),
                    "ms_improvement": _safe_ratio(
                        base_result.max_slowdown - result.max_slowdown,
                        base_result.max_slowdown,
                    ),
                }
            )
        for grace, shared_index in grace_runs:
            result = _mix_result(results, shared_index, alone)
            grace_rows.append(
                {
                    "mix": "+".join(mix),
                    "grace_period": grace,
                    "ws_improvement": _safe_ratio(
                        result.weighted_speedup - base_result.weighted_speedup,
                        base_result.weighted_speedup,
                    ),
                    "ms_improvement": _safe_ratio(
                        base_result.max_slowdown - result.max_slowdown,
                        base_result.max_slowdown,
                    ),
                }
            )
    return {"figure": "fig16", "weight_rows": weight_rows, "grace_rows": grace_rows}


# ----------------------------------------------------------------------
# E17 / Figure 17 -- sub-row buffers
# ----------------------------------------------------------------------

def _subrow_config(allocation, dedicated, tempo):
    config = default_system_config()
    subrows = replace(
        config.dram.subrows, enabled=True, allocation=allocation,
        dedicated_prefetch_subrows=dedicated,
    )
    config = config.copy_with(dram=replace(config.dram, subrows=subrows))
    return config.with_tempo(tempo)


def fig17_subrows(length, mixes=None, seed=0, dedicated_options=(0, 1, 2, 4),
                  executor=None):
    """FOA/POA sub-row allocation with swept prefetch-dedicated slots."""
    mixes = SUBROW_MIXES if mixes is None else tuple(mixes)
    batch = _CellBatch(_get_executor(executor), length, seed)
    plan = []
    for allocation in ("foa", "poa"):
        for mix in mixes:
            base = _add_mix(batch, mix, _subrow_config(allocation, 0, False))
            sweeps = [
                (dedicated, _add_mix(batch, mix, _subrow_config(allocation, dedicated, True)))
                for dedicated in dedicated_options
            ]
            plan.append((allocation, mix, base, sweeps))
    results = batch.run()
    rows = []
    for allocation, mix, (base_shared, base_alone), sweeps in plan:
        base_result = _mix_result(results, base_shared, base_alone)
        for dedicated, (shared_index, alone_indices) in sweeps:
            result = _mix_result(results, shared_index, alone_indices)
            rows.append(
                {
                    "allocation": allocation,
                    "mix": "+".join(mix),
                    "dedicated_subrows": dedicated,
                    "ws_improvement": _safe_ratio(
                        result.weighted_speedup - base_result.weighted_speedup,
                        base_result.weighted_speedup,
                    ),
                    "ms_improvement": _safe_ratio(
                        base_result.max_slowdown - result.max_slowdown,
                        base_result.max_slowdown,
                    ),
                }
            )
    return {"figure": "fig17", "rows": rows}
