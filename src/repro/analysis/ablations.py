"""Ablation studies for TEMPO's individual design choices.

The paper motivates several mechanisms (row-buffer prefetch, LLC
prefetch, TxQ grouping, the non-speculative address construction); these
drivers isolate each one's contribution on the default machine.  They go
beyond the paper's own figures and back the DESIGN.md design-choice
discussion; ``repro experiment ablation_*`` regenerates each, and
``tests/test_ablations.py`` checks their shapes.

Like the figure drivers, every ablation decomposes into independent
simulation cells and runs through an
:class:`~repro.exec.ExperimentExecutor` (pass ``executor=`` to share a
pool and cache with other drivers).  The executor's resilience layer
applies unchanged: an interrupted ablation sweep run again serves its
completed cells from the cache, and under ``allow_partial`` a
permanently-failed cell degrades to an all-zero placeholder whose
improvement columns read 0 (every ratio here goes through the
zero-guarded metrics helpers).
"""

from dataclasses import replace

from repro.common.config import default_system_config
from repro.exec import ExperimentExecutor, SimCell
from repro.sim.metrics import performance_improvement

DEFAULT_WORKLOADS = ("xsbench", "graph500", "illustris", "mcf")


def _get_executor(executor):
    return executor if executor is not None else ExperimentExecutor()


def _improvement(baseline, variant):
    return performance_improvement(baseline.total_cycles, variant.total_cycles)


def prefetch_destinations(length, workloads=DEFAULT_WORKLOADS, seed=0,
                          executor=None):
    """TEMPO off vs row-buffer-only vs row buffer + LLC.

    Separates the two benefit sources of the paper's Figure 3: the row
    prefetch alone turns replay conflicts into row hits; the LLC
    prefetch removes the DRAM access entirely.
    """
    config = default_system_config()
    variants = (
        config.with_tempo(False),
        config.with_tempo(True, llc_prefetch=False),
        config.with_tempo(True),
    )
    results = _get_executor(executor).run_cells(
        SimCell(name, variant, length, seed)
        for name in workloads
        for variant in variants
    )
    rows = []
    for position, name in enumerate(workloads):
        baseline, row_only, row_llc = results[3 * position : 3 * position + 3]
        rows.append(
            {
                "workload": name,
                "row_buffer_only": _improvement(baseline, row_only),
                "row_buffer_plus_llc": _improvement(baseline, row_llc),
            }
        )
    return {"figure": "ablation_destinations", "rows": rows}


def txq_grouping(length, workloads=DEFAULT_WORKLOADS, seed=0, executor=None):
    """TEMPO with and without the Sec. 4.3b transaction-queue scanning."""
    config = default_system_config()
    variants = (
        config.with_tempo(False),
        config.with_tempo(True, txq_grouping=False),
        config.with_tempo(True),
    )
    results = _get_executor(executor).run_cells(
        SimCell(name, variant, length, seed)
        for name in workloads
        for variant in variants
    )
    rows = []
    for position, name in enumerate(workloads):
        baseline, ungrouped, grouped = results[3 * position : 3 * position + 3]
        rows.append(
            {
                "workload": name,
                "without_grouping": _improvement(baseline, ungrouped),
                "with_grouping": _improvement(baseline, grouped),
            }
        )
    return {"figure": "ablation_txq_grouping", "rows": rows}


def prefetch_row_latency(length, workload="xsbench", seed=0,
                         latencies=(40, 60, 100, 140, 200), executor=None):
    """Sensitivity to the array->row-buffer activation latency.

    The paper quotes 60-100 cycles; once the prefetch takes longer than
    the slack window, LLC timeliness collapses and replays fall back to
    row-buffer hits -- this sweep locates that cliff.
    """
    config = default_system_config()
    cells = [SimCell(workload, config.with_tempo(False), length, seed)]
    cells += [
        SimCell(workload, config.with_tempo(True, prefetch_row_cycles=latency),
                length, seed)
        for latency in latencies
    ]
    results = _get_executor(executor).run_cells(cells)
    baseline = results[0]
    rows = []
    for latency, result in zip(latencies, results[1:]):
        service = result.cores[0].replay_service
        rows.append(
            {
                "prefetch_row_cycles": latency,
                "performance_improvement": _improvement(baseline, result),
                "llc_fraction": service.fraction("llc"),
                "row_buffer_fraction": service.fraction("row_buffer"),
            }
        )
    return {"figure": "ablation_prefetch_latency", "workload": workload, "rows": rows}


def scheduler_sensitivity(length, workloads=DEFAULT_WORKLOADS, seed=0,
                          schedulers=("fcfs", "frfcfs", "bliss", "atlas"),
                          executor=None):
    """TEMPO's benefit under every implemented memory scheduler."""
    cells = []
    plan = []
    for name in workloads:
        for scheduler in schedulers:
            config = default_system_config()
            config = config.copy_with(
                scheduler=replace(config.scheduler, policy=scheduler)
            )
            plan.append((name, scheduler, len(cells)))
            cells.append(SimCell(name, config.with_tempo(False), length, seed))
            cells.append(SimCell(name, config.with_tempo(True), length, seed))
    results = _get_executor(executor).run_cells(cells)
    rows = []
    for name, scheduler, base_index in plan:
        rows.append(
            {
                "workload": name,
                "scheduler": scheduler,
                "performance_improvement": _improvement(
                    results[base_index], results[base_index + 1]
                ),
            }
        )
    return {"figure": "ablation_schedulers", "rows": rows}
