"""Observability: one probe seam, unified metrics, provenance.

The measurement substrate every experiment and performance PR builds on:

* :class:`~repro.obs.probe.Probe` -- the simulator's one instrumentation
  seam.  ``SystemSimulator(..., probe=...)`` takes one probe (or a
  :class:`~repro.obs.probe.CompositeProbe` of several); a run without
  one pays one ``is None`` test per emission site.  The built-in probes:

  * :class:`~repro.obs.tracer.EventTracer` -- per-reference lifecycle
    spans (TLB lookup, MMU-cache probes, walk accesses, DRAM service,
    replay service) with sim-time begin/end and outcome tags,
    exportable as a ``chrome://tracing`` JSON array;
  * :class:`~repro.obs.timeline.TimelineRecorder` -- per-unit busy/idle
    utilization (:class:`~repro.obs.timeline.UtilizationLedger`),
    top-down translation/cache/DRAM/overlap bottleneck attribution, and
    periodic metric snapshots
    (:class:`~repro.obs.timeline.IntervalSampler`), rendered by
    ``repro timeline``;
  * the flight recorder and the invariant audit of :mod:`repro.verify`.

* :class:`~repro.obs.registry.MetricsRegistry` -- walks every
  :class:`~repro.common.stats.StatGroup` in the machine into one flat
  dotted namespace with JSON/CSV exporters.
* :class:`~repro.obs.manifest.RunManifest` -- config snapshot + hash,
  seed, trace identity, package version and timings attached to every
  :class:`~repro.sim.metrics.SimulationResult`.
* :class:`~repro.obs.profiler.PhaseProfiler` -- wall-clock per phase and
  records/sec throughput.
"""

from repro.obs.manifest import RunManifest
from repro.obs.probe import CompositeProbe, Probe
from repro.obs.profiler import PhaseProfiler
from repro.obs.registry import MetricsRegistry, write_stats_csv, write_stats_json
from repro.obs.timeline import (
    BottleneckAttributor,
    IntervalSampler,
    TimelineRecorder,
    UtilizationLedger,
    capture_timeline,
    render_timeline,
    timeline_payload,
    write_timeline_csv,
    write_timeline_json,
)
from repro.obs.tracer import EventTracer

__all__ = [
    "BottleneckAttributor",
    "CompositeProbe",
    "EventTracer",
    "IntervalSampler",
    "MetricsRegistry",
    "PhaseProfiler",
    "Probe",
    "RunManifest",
    "TimelineRecorder",
    "UtilizationLedger",
    "capture_timeline",
    "render_timeline",
    "timeline_payload",
    "write_stats_csv",
    "write_stats_json",
    "write_timeline_csv",
    "write_timeline_json",
]
