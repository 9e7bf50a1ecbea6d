"""One-call experiment helpers: the public entry points most users go
through.  Each builds the trace, runs a :class:`SystemSimulator`
in-process and returns its result; the figure drivers run their cells
through an :class:`~repro.exec.ExperimentExecutor` instead."""

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


def run_workload(
    workload,
    config=None,
    length=20000,
    seed=0,
    max_records=None,
    probe=None,
    check_invariants=None,
):
    """Simulate one workload (a name or a prebuilt Trace) on *config*.

    *probe* (a :class:`~repro.obs.Probe`, such as an
    :class:`~repro.obs.EventTracer` or a
    :class:`~repro.obs.timeline.TimelineRecorder`) observes the run;
    *check_invariants* (``off``/``sample``/``full``) audits it.  Both
    default to off and cost nothing when off.

    Returns a :class:`~repro.sim.metrics.SimulationResult`.
    """
    if config is None:
        config = default_system_config()
    trace = _resolve_trace(workload, length, seed)
    simulator = SystemSimulator(
        config, [trace], seed=seed, probe=probe, check_invariants=check_invariants
    )
    return simulator.run(max_records)


def run_baseline_and_tempo(
    workload, config=None, length=20000, seed=0, max_records=None, check_invariants=None
):
    """Run the same trace with TEMPO off and on.

    Returns ``(baseline_result, tempo_result)`` -- the comparison behind
    every performance figure in the paper.
    """
    if config is None:
        config = default_system_config()
    trace = _resolve_trace(workload, length, seed)
    baseline = SystemSimulator(
        config.with_tempo(False), [trace], seed=seed, check_invariants=check_invariants
    ).run(max_records)
    tempo = SystemSimulator(
        config.with_tempo(True), [trace], seed=seed, check_invariants=check_invariants
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
