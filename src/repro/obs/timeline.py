"""Utilization timelines and top-down bottleneck attribution.

Three instruments, bundled by :class:`TimelineRecorder` -- a
:class:`~repro.obs.probe.Probe` attached to a run via
``SystemSimulator(..., probe=recorder)``:

* :class:`UtilizationLedger` -- per-unit busy/idle cycle accounting.
  The recorder turns the simulator's events into busy spans of every
  simulated unit (TLB levels, MMU caches, walkers, cache levels, DRAM
  banks and channels, the TEMPO and IMP engines), demand and IMP work
  alike; spans accumulate both a run total and a per-interval histogram
  in each unit's :class:`UnitTrack`, so utilization can be plotted over
  time.
* :class:`BottleneckAttributor` -- splits every demand reference's
  cycles into translation-stall / cache-stall / DRAM-stall / overlap
  buckets.  The split is exact: each event carries its cycle increment,
  and the per-reference sum must equal the reference's elapsed cycles
  (``unattributed_cycles`` stays zero; tests pin this).  Bucket sums
  are kept per interval so the critical resource can be named for each
  slice of the run.
* :class:`IntervalSampler` -- snapshots the flattened metric namespace
  every N cycles into a time-sliced series (phase plots of TLB-miss
  rate, walk latency, replay-DRAM conversion over the run).

None of the recorded data enters ``result.stats`` -- stats are
bit-identical with the recorder on or off (pinned by
tests/test_timeline.py).

Rendering/export: :func:`timeline_payload` freezes a recorder into a
plain-dict payload; :func:`render_timeline` draws ASCII utilization
bars and phase timelines from it; :func:`write_timeline_json` /
:func:`write_timeline_csv` export the same payload, so text, JSON and
CSV provably show the same data.
"""

from __future__ import annotations

import json
from typing import TYPE_CHECKING, Any, Callable, Dict, List, Optional, Tuple

from repro.obs.probe import Probe, TlbHit
from repro.sched.request import KIND_TEMPO_PREFETCH

if TYPE_CHECKING:
    from repro.cache.hierarchy import AccessResult
    from repro.sim.trace import TraceRecord

#: Default width of one utilization/attribution interval, in cycles.
DEFAULT_INTERVAL = 4096

TIMELINE_SCHEMA_VERSION = 1

#: Attribution bucket names, in render order.  ``translation`` is every
#: cycle spent producing the physical address (TLB probes, MMU-cache
#: probes, page-table cache references, the TLB fill); ``cache`` is the
#: post-translation probe down the hierarchy; ``dram`` is time blocked
#: on the memory controller (page-table or demand requests, and waits
#: on in-flight prefetches); ``overlap`` is replay time fully hidden by
#: a timely TEMPO prefetch (the replay's LLC hit after the engine
#: already fetched the line).
BUCKETS: Tuple[str, str, str, str] = ("translation", "cache", "dram", "overlap")

_BUCKET_CHARS = {"translation": "T", "cache": "C", "dram": "D", "overlap": "O"}

#: Ten busy levels for the phase-timeline sparklines (pure ASCII).
_SPARK = " .:-=+*#%@"


class UnitTrack:
    """Busy-cycle accounting for one hardware unit.

    ``busy(start, end)`` adds the half-open span ``[start, end)`` to the
    unit's run total and distributes it across fixed-width interval
    buckets.  Spans are short relative to the interval width, so the
    distribution loop runs once or twice per report.
    """

    __slots__ = ("name", "busy_cycles", "horizon", "_interval", "_buckets")

    def __init__(self, name: str, interval: int) -> None:
        self.name = name
        self.busy_cycles = 0
        #: Largest ``end`` seen -- a lower bound on the run's extent.
        self.horizon = 0
        self._interval = interval
        self._buckets: Dict[int, int] = {}

    def busy(self, start: int, end: int) -> None:
        """Report the unit busy for the half-open span ``[start, end)``."""
        if end <= start:
            return
        self.busy_cycles += end - start
        if end > self.horizon:
            self.horizon = end
        interval = self._interval
        buckets = self._buckets
        index = start // interval
        last = (end - 1) // interval
        while index <= last:
            lo = index * interval
            hi = lo + interval
            span = min(end, hi) - max(start, lo)
            buckets[index] = buckets.get(index, 0) + span
            index += 1

    def series(self) -> List[Tuple[int, int]]:
        """``(interval_index, busy_cycles)`` rows, in time order."""
        return sorted(self._buckets.items())


class UtilizationLedger:
    """The shared per-unit busy/idle ledger.

    Units are created on demand by :meth:`unit`; the recorder creates
    every unit's track at run start, so idle units report 0 busy cycles.
    """

    __slots__ = ("interval", "units")

    def __init__(self, interval: int = DEFAULT_INTERVAL) -> None:
        if interval <= 0:
            raise ValueError("interval must be positive, got %d" % interval)
        self.interval = interval
        self.units: Dict[str, UnitTrack] = {}

    def unit(self, name: str) -> UnitTrack:
        """The (created-on-first-use) track for *name*."""
        track = self.units.get(name)
        if track is None:
            track = UnitTrack(name, self.interval)
            self.units[name] = track
        return track

    @property
    def horizon(self) -> int:
        """Largest busy-span end across every unit."""
        if not self.units:
            return 0
        return max(track.horizon for track in self.units.values())


class BottleneckAttributor:
    """Top-down per-reference cycle attribution.

    The recorder calls :meth:`begin` when a reference arrives at the
    TLB, the ``add_*`` methods for every cycle increment along the way,
    and :meth:`end` when the reference retires.  Per-core in-flight
    state keys on the cpu index so interleaved multicore streams do not
    corrupt each other.  Conservation is exact: ``unattributed_cycles``
    accumulates ``elapsed - attributed`` per reference and must be zero
    (IMP prefetch work runs outside any reference and is excluded).
    """

    __slots__ = (
        "interval",
        "references",
        "unattributed_cycles",
        "totals",
        "horizon",
        "_intervals",
        "_refs",
    )

    def __init__(self, interval: int = DEFAULT_INTERVAL) -> None:
        if interval <= 0:
            raise ValueError("interval must be positive, got %d" % interval)
        self.interval = interval
        self.references = 0
        self.unattributed_cycles = 0
        self.totals: Dict[str, int] = {bucket: 0 for bucket in BUCKETS}
        self.horizon = 0
        #: interval index -> [translation, cache, dram, overlap]
        self._intervals: Dict[int, List[int]] = {}
        #: cpu -> [arrival, translation, cache, dram, overlap]
        self._refs: Dict[int, List[int]] = {}

    def begin(self, cpu: int, arrival: int) -> None:
        self._refs[cpu] = [arrival, 0, 0, 0, 0]

    def add_translation(self, cpu: int, cycles: int) -> None:
        self._refs[cpu][1] += cycles

    def add_cache(self, cpu: int, cycles: int) -> None:
        self._refs[cpu][2] += cycles

    def add_dram(self, cpu: int, cycles: int) -> None:
        self._refs[cpu][3] += cycles

    def add_overlap(self, cpu: int, cycles: int) -> None:
        self._refs[cpu][4] += cycles

    def end(self, cpu: int, finish: int) -> None:
        arrival, translation, cache, dram, overlap = self._refs.pop(cpu)
        self.references += 1
        attributed = translation + cache + dram + overlap
        self.unattributed_cycles += (finish - arrival) - attributed
        if finish > self.horizon:
            self.horizon = finish
        totals = self.totals
        totals["translation"] += translation
        totals["cache"] += cache
        totals["dram"] += dram
        totals["overlap"] += overlap
        cell = self._intervals.get(finish // self.interval)
        if cell is None:
            cell = [0, 0, 0, 0]
            self._intervals[finish // self.interval] = cell
        cell[0] += translation
        cell[1] += cache
        cell[2] += dram
        cell[3] += overlap

    def interval_rows(self) -> List[Tuple[int, int, int, int, int]]:
        """``(interval_index, translation, cache, dram, overlap)`` rows
        in time order."""
        return [
            (index, cell[0], cell[1], cell[2], cell[3])
            for index, cell in sorted(self._intervals.items())
        ]

    def critical(self, index: int) -> Optional[str]:
        """The bucket with the most cycles in interval *index* (first
        of :data:`BUCKETS` wins ties), or None for an empty interval."""
        cell = self._intervals.get(index)
        if cell is None or not any(cell):
            return None
        best = max(range(4), key=lambda i: (cell[i], -i))
        return BUCKETS[best]


class IntervalSampler:
    """Snapshots the flattened metric namespace every *every* cycles.

    The recorder binds a collector (``metrics_registry().collect``) at
    run start and calls :meth:`maybe_sample` once per retired record;
    :meth:`finish` takes the end-of-run snapshot.  Collection is
    side-effect-free, so sampling never perturbs the run and the series
    is deterministic across identical runs.
    """

    __slots__ = ("every", "samples", "_collect", "_next")

    def __init__(self, every: int) -> None:
        if every <= 0:
            raise ValueError("sample interval must be positive, got %d" % every)
        self.every = every
        self.samples: List[Tuple[int, Dict[str, Any]]] = []
        self._collect: Optional[Callable[[], Dict[str, Any]]] = None
        self._next = every

    def bind(self, collect: Callable[[], Dict[str, Any]]) -> None:
        self._collect = collect

    def maybe_sample(self, cycle: int) -> None:
        if cycle >= self._next and self._collect is not None:
            self.samples.append((cycle, self._collect()))
            self._next = cycle + self.every

    def finish(self, cycle: int) -> None:
        """Take the final snapshot (skipped if one landed on *cycle*)."""
        if self._collect is None:
            return
        if not self.samples or self.samples[-1][0] < cycle:
            self.samples.append((cycle, self._collect()))


class TimelineRecorder(Probe):
    """The three instruments as one probe.

    *interval* sets the bucket width for both the ledger and the
    attributor; *sample_interval* sets the metric-snapshot period
    (default: same as *interval*; 0 disables sampling).

    Occupancy model: a TLB lookup keeps the L1 arrays busy for one
    cycle, and the L2 for its extra latency on an L2 hit (one tag-check
    cycle on a miss).  A cache probe is sequential: the L1 is busy until
    its latency, a deeper probe then occupies the L2 until its latency
    and the LLC until its latency (a full miss spends the same LLC
    window discovering the miss).  A DRAM service holds its channel's
    bus for the burst and its bank until the access ends.
    """

    def __init__(
        self,
        interval: int = DEFAULT_INTERVAL,
        sample_interval: Optional[int] = None,
    ) -> None:
        self.ledger = UtilizationLedger(interval)
        self.attribution = BottleneckAttributor(interval)
        if sample_interval is None:
            sample_interval = interval
        self.sampler = IntervalSampler(sample_interval) if sample_interval > 0 else None

    def on_start(self, machine: Any) -> None:
        """Create every unit's track, so idle units show 0 busy cycles,
        and read the latencies the occupancy model needs."""
        unit = self.ledger.unit
        cores = ["core%d" % core.cpu for core in machine.cores]
        self._tlb_l1 = [unit(core + ".tlb.l1") for core in cores]
        self._tlb_l2 = [unit(core + ".tlb.l2") for core in cores]
        self._mmu = [unit(core + ".mmu_cache") for core in cores]
        self._walker = [unit(core + ".walker") for core in cores]
        self._imp = [
            unit("core%d.imp" % core.cpu) if core.imp is not None else None
            for core in machine.cores
        ]
        self._l1 = [unit(core + ".l1") for core in cores]
        self._l2 = [unit(core + ".l2") for core in cores]
        self._llc = unit("llc")
        controller = machine.controller
        self._channels = [
            unit("dram.channel%d" % channel) for channel in range(controller.num_channels)
        ]
        self._banks = [
            unit("dram.bank%d" % index) for index in range(len(controller.device.banks))
        ]
        self._engine = unit("tempo.engine") if machine.engine is not None else None
        config = machine.config
        #: L1, L2 and LLC probe latencies.
        self._latency = (config.core.l1_latency, config.core.l2_latency, config.core.llc_latency)
        self._fill_latency = config.core.tlb_fill_latency
        self._bus_cycles = config.dram.bus_cycles
        if self.sampler is not None:
            self.sampler.bind(lambda: machine.metrics_registry().collect())

    def _probe(self, cpu: int, start: int, result: AccessResult) -> None:
        l1, l2, llc = self._latency
        self._l1[cpu].busy(start, start + l1)
        if result.hit_level == "l1":
            return
        self._l2[cpu].busy(start + l1, start + l2)
        if result.hit_level == "l2":
            return
        self._llc.busy(start + l2, start + llc)

    def on_tlb(self, cpu: int, start: int, hit: Optional[TlbHit], demand: bool) -> None:
        self._tlb_l1[cpu].busy(start, start + 1)
        if hit is None:
            self._tlb_l2[cpu].busy(start, start + 1)
            cycles = 1
        else:
            cycles = 1 + hit[2]
            self._tlb_l2[cpu].busy(start + 1, start + cycles)
        if demand:
            self.attribution.begin(cpu, start)
            self.attribution.add_translation(cpu, cycles)

    def on_mmu_step(self, cpu: int, start: int, end: int, level: int, demand: bool) -> None:
        self._mmu[cpu].busy(start, end)
        if demand:
            self.attribution.add_translation(cpu, end - start)

    def on_pt_step(
        self,
        cpu: int,
        start: int,
        end: int,
        level: int,
        result: AccessResult,
        request: Any,
        demand: bool,
    ) -> None:
        self._probe(cpu, start, result)
        if demand:
            self.attribution.add_translation(cpu, result.latency)
            if request is not None:
                self.attribution.add_dram(cpu, end - start - result.latency)

    def on_walk(
        self, cpu: int, start: int, end: int, plan: Any, leaf_request: Any, demand: bool
    ) -> None:
        self._walker[cpu].busy(start, end)
        if demand:
            self.attribution.add_translation(cpu, self._fill_latency)

    def on_cache(
        self, cpu: int, begin: int, start: int, result: AccessResult, demand: bool
    ) -> None:
        self._probe(cpu, start, result)
        if demand:
            self.attribution.add_dram(cpu, start - begin)
            self.attribution.add_cache(cpu, result.latency)

    def on_overlap(self, cpu: int, start: int, result: AccessResult) -> None:
        # The replay's DRAM time was hidden by the timely prefetch; what
        # remains is pure overlap win.
        self._probe(cpu, start, result)
        self.attribution.add_overlap(cpu, result.latency)

    def on_dram(self, cpu: int, request: Any, start: int, finish: int, service: str) -> None:
        self.attribution.add_dram(cpu, finish - start)

    def on_prefetch(self, cpu: int, start: int, end: int) -> None:
        track = self._imp[cpu]
        if track is not None:
            track.busy(start, end)

    def on_ref(
        self,
        cpu: int,
        record: TraceRecord,
        arrival: int,
        begin: int,
        finish: int,
        walked: bool,
        service: str,
    ) -> None:
        self.attribution.end(cpu, finish)

    def on_tick(self, machine: Any, time: int) -> None:
        if self.sampler is not None:
            self.sampler.maybe_sample(time)

    def on_finish(self, machine: Any, cycles: int) -> None:
        if self.sampler is not None:
            self.sampler.finish(cycles)

    def on_service(self, channel: int, request: Any, start: int, end: int) -> None:
        self._channels[channel].busy(start, start + self._bus_cycles)
        self._banks[request.bank_index].busy(start, end)
        if self._engine is not None and request.kind == KIND_TEMPO_PREFETCH:
            self._engine.busy(start, end)


def capture_timeline(
    workload: Any,
    config: Any = None,
    length: int = 12000,
    seed: int = 0,
    interval: int = DEFAULT_INTERVAL,
    sample_interval: Optional[int] = None,
) -> Tuple[Any, TimelineRecorder]:
    """Run *workload* with a fresh recorder attached; returns
    ``(SimulationResult, TimelineRecorder)``."""
    # Imported lazily: the simulator builds on this module.
    from repro.sim.runner import run_workload

    recorder = TimelineRecorder(interval, sample_interval)
    result = run_workload(workload, config, length=length, seed=seed, probe=recorder)
    return result, recorder


# ----------------------------------------------------------------------
# Payload / export / rendering
# ----------------------------------------------------------------------


def timeline_payload(recorder: TimelineRecorder) -> Dict[str, Any]:
    """Freeze *recorder* into a JSON-serialisable payload dict.

    The same payload backs the ASCII renderer and both exporters."""
    attribution = recorder.attribution
    total_cycles = max(recorder.ledger.horizon, attribution.horizon)
    units: List[Dict[str, Any]] = []
    for name in sorted(recorder.ledger.units):
        track = recorder.ledger.units[name]
        utilization = track.busy_cycles / total_cycles if total_cycles else 0.0
        units.append(
            {
                "name": name,
                "busy_cycles": track.busy_cycles,
                "utilization": utilization,
                "series": [list(row) for row in track.series()],
            }
        )
    intervals = []
    for index, translation, cache, dram, overlap in attribution.interval_rows():
        intervals.append(
            {
                "index": index,
                "translation": translation,
                "cache": cache,
                "dram": dram,
                "overlap": overlap,
                "critical": attribution.critical(index),
            }
        )
    sampler = recorder.sampler
    samples = (
        [[cycle, dict(snapshot)] for cycle, snapshot in sampler.samples]
        if sampler is not None
        else []
    )
    return {
        "schema_version": TIMELINE_SCHEMA_VERSION,
        "total_cycles": total_cycles,
        "interval": recorder.ledger.interval,
        "units": units,
        "attribution": {
            "references": attribution.references,
            "unattributed_cycles": attribution.unattributed_cycles,
            "totals": dict(attribution.totals),
            "intervals": intervals,
        },
        "samples": samples,
    }


def write_timeline_json(payload: Dict[str, Any], path: str) -> int:
    """Write the payload as JSON; returns the number of units."""
    with open(path, "w") as stream:
        json.dump(payload, stream, indent=2, sort_keys=True)
        stream.write("\n")
    units: List[Dict[str, Any]] = payload["units"]
    return len(units)


def write_timeline_csv(payload: Dict[str, Any], path: str) -> int:
    """Write the payload as ``kind,name,interval_start,value`` rows;
    returns the row count (header excluded).

    Row kinds: ``unit`` (per-interval busy cycles), ``unit_total``
    (run-total busy cycles, interval_start empty), ``attribution``
    (per-interval bucket cycles), ``attribution_total`` and ``sample``
    (per-snapshot metric values, interval_start = sample cycle).
    """
    interval = int(payload["interval"])
    rows = 0
    with open(path, "w") as stream:
        stream.write("kind,name,interval_start,value\n")
        for unit in payload["units"]:
            for index, busy in unit["series"]:
                stream.write(
                    "unit,%s,%d,%d\n" % (unit["name"], index * interval, busy)
                )
                rows += 1
            stream.write("unit_total,%s,,%d\n" % (unit["name"], unit["busy_cycles"]))
            rows += 1
        attribution = payload["attribution"]
        for cell in attribution["intervals"]:
            start = cell["index"] * interval
            for bucket in BUCKETS:
                stream.write(
                    "attribution,%s,%d,%d\n" % (bucket, start, cell[bucket])
                )
                rows += 1
        for bucket in BUCKETS:
            stream.write(
                "attribution_total,%s,,%d\n" % (bucket, attribution["totals"][bucket])
            )
            rows += 1
        for cycle, snapshot in payload["samples"]:
            for key in sorted(snapshot):
                value = snapshot[key]
                if isinstance(value, (int, float)):
                    stream.write("sample,%s,%d,%s\n" % (key, cycle, value))
                    rows += 1
    return rows


def _bar(fraction: float, width: int) -> str:
    fraction = min(max(fraction, 0.0), 1.0)
    filled = int(fraction * width + 0.5)
    return "#" * filled + "-" * (width - filled)


def _columns(
    series: List[Tuple[int, int]], interval: int, total: int, columns: int
) -> List[int]:
    """Re-bin per-interval busy cycles into *columns* equal time slices."""
    out = [0] * columns
    if total <= 0:
        return out
    span = max(1, -(-total // columns))  # ceil(total / columns)
    for index, busy in series:
        column = min((index * interval) // span, columns - 1)
        out[column] += busy
    return out


def render_timeline(payload: Dict[str, Any], width: int = 60) -> str:
    """ASCII utilization bars, phase timelines and the bottleneck
    summary, rendered from a :func:`timeline_payload` dict."""
    width = max(width, 8)
    total = int(payload["total_cycles"])
    interval = int(payload["interval"])
    units: List[Dict[str, Any]] = payload["units"]
    lines: List[str] = []
    lines.append(
        "utilization timeline: %d cycles, %d-cycle intervals, %d units"
        % (total, interval, len(units))
    )
    lines.append("")

    name_width = max([len(u["name"]) for u in units] + [4])
    bar_width = max(8, width // 2)
    lines.append("per-unit utilization")
    for unit in units:
        lines.append(
            "  %-*s [%s] %5.1f%%  (%d busy cycles)"
            % (
                name_width,
                unit["name"],
                _bar(unit["utilization"], bar_width),
                100.0 * unit["utilization"],
                unit["busy_cycles"],
            )
        )
    lines.append("")

    span = max(1, -(-total // width)) if total > 0 else 1
    lines.append(
        "phase timeline (busy level per %d-cycle column, ' '=idle '@'=saturated)"
        % span
    )
    for unit in units:
        series = [(int(i), int(b)) for i, b in unit["series"]]
        cells = _columns(series, interval, total, width)
        glyphs = []
        for busy in cells:
            level = min(int((busy / span) * (len(_SPARK) - 1) + 0.5), len(_SPARK) - 1)
            glyphs.append(_SPARK[level])
        lines.append("  %-*s |%s|" % (name_width, unit["name"], "".join(glyphs)))
    lines.append("")

    attribution = payload["attribution"]
    totals: Dict[str, int] = attribution["totals"]
    attributed = sum(totals.values())
    lines.append("bottleneck attribution (per-reference cycle split)")
    for bucket in BUCKETS:
        share = totals[bucket] / attributed if attributed else 0.0
        lines.append(
            "  %-11s [%s] %5.1f%%  (%d cycles)"
            % (bucket, _bar(share, bar_width), 100.0 * share, totals[bucket])
        )
    lines.append(
        "  references: %d, unattributed cycles: %d"
        % (attribution["references"], attribution["unattributed_cycles"])
    )

    # Critical-resource strip: re-bin the per-interval bucket sums into
    # render columns and name the winner of each column.
    column_cells = [[0, 0, 0, 0] for _ in range(width)]
    for cell in attribution["intervals"]:
        column = min((int(cell["index"]) * interval) // span, width - 1)
        for slot, bucket in enumerate(BUCKETS):
            column_cells[column][slot] += int(cell[bucket])
    strip = []
    for cell_sums in column_cells:
        if not any(cell_sums):
            strip.append(".")
        else:
            best = max(range(4), key=lambda i: (cell_sums[i], -i))
            strip.append(_BUCKET_CHARS[BUCKETS[best]])
    lines.append(
        "  critical resource per column (T=translation C=cache D=dram "
        "O=overlap .=idle)"
    )
    lines.append("  %-*s |%s|" % (name_width, "critical", "".join(strip)))
    lines.append("")

    samples = payload["samples"]
    if samples:
        first_cycle = samples[0][0]
        last_cycle = samples[-1][0]
        lines.append(
            "interval samples: %d metric snapshots (cycles %d..%d); "
            "export with --json/--csv" % (len(samples), first_cycle, last_cycle)
        )
        lines.append("")
    return "\n".join(lines) + "\n"
