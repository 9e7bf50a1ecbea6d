"""One-call experiment helpers: the public entry points most users and
all the benchmark drivers go through."""

from repro.common.config import default_system_config
from repro.sim.metrics import energy_improvement, performance_improvement
from repro.sim.system import SystemSimulator
from repro.sim.trace import Trace


def _resolve_trace(workload, length, seed):
    if isinstance(workload, Trace):
        return workload
    # Imported here: repro.workloads builds on repro.sim.trace, so a
    # module-level import would be circular.
    from repro.workloads.registry import make_trace

    return make_trace(workload, length=length, seed=seed)


def _can_use_executor(executor, workload, max_records, tracer, progress, timeline=None):
    """Executor cells are whole named-workload runs with no live hooks;
    anything else falls back to the direct path."""
    return (
        executor is not None
        and isinstance(workload, str)
        and max_records is None
        and tracer is None
        and progress is None
        and timeline is None
    )


def run_workload(
    workload,
    config=None,
    length=20000,
    seed=0,
    max_records=None,
    tracer=None,
    progress=None,
    executor=None,
    check_invariants=None,
    timeline=None,
):
    """Simulate one workload (a name or a prebuilt Trace) on *config*.

    *tracer* (a :class:`~repro.obs.EventTracer`) records lifecycle spans,
    *progress* is called periodically with ``(records_done, total)``, and
    *timeline* (a :class:`~repro.obs.timeline.TimelineRecorder`) records
    per-unit utilization and bottleneck attribution; all default to off
    and cost nothing when off.

    *executor* (an :class:`~repro.exec.ExperimentExecutor`) routes the
    run through the result cache when the workload is a name and no
    live hooks are requested -- bit-identical, but reusable.

    Returns a :class:`~repro.sim.metrics.SimulationResult`.
    """
    if config is None:
        config = default_system_config()
    if _can_use_executor(executor, workload, max_records, tracer, progress, timeline):
        from repro.exec import SimCell

        return executor.run_cell(SimCell(workload, config, length, seed))
    trace = _resolve_trace(workload, length, seed)
    simulator = SystemSimulator(
        config,
        [trace],
        seed=seed,
        tracer=tracer,
        progress=progress,
        check_invariants=check_invariants,
        timeline=timeline,
    )
    return simulator.run(max_records)


def run_baseline_and_tempo(
    workload, config=None, length=20000, seed=0, max_records=None, progress=None,
    executor=None, check_invariants=None,
):
    """Run the same trace with TEMPO off and on.

    Returns ``(baseline_result, tempo_result)`` -- the comparison behind
    every performance figure in the paper.  With *executor*, the two
    runs are submitted as one batch (so ``workers=2`` overlaps them).
    """
    if config is None:
        config = default_system_config()
    if _can_use_executor(executor, workload, max_records, None, progress):
        from repro.exec import SimCell

        baseline, tempo = executor.run_cells(
            [
                SimCell(workload, config.with_tempo(False), length, seed),
                SimCell(workload, config.with_tempo(True), length, seed),
            ]
        )
        return baseline, tempo
    trace = _resolve_trace(workload, length, seed)
    baseline = SystemSimulator(
        config.with_tempo(False), [trace], seed=seed, progress=progress,
        check_invariants=check_invariants,
    ).run(max_records)
    tempo = SystemSimulator(
        config.with_tempo(True), [trace], seed=seed, progress=progress,
        check_invariants=check_invariants,
    ).run(max_records)
    return baseline, tempo


def speedup_fraction(baseline_result, tempo_result):
    """The paper's y-axis: fraction of baseline runtime eliminated."""
    return performance_improvement(
        baseline_result.total_cycles, tempo_result.total_cycles
    )


def energy_fraction(baseline_result, tempo_result):
    """Fraction of baseline energy eliminated."""
    return energy_improvement(baseline_result.energy_total, tempo_result.energy_total)
