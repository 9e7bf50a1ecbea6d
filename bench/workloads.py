"""The benchmark's workloads: which cells each one runs and how one pass
over them is timed.

Only the measuring child process imports this module, so the simulator
import is part of the set-up time it measures.  Every workload is a
closed batch in one process: cells run back to back.

Passes and cells are timed in CPU seconds of the measuring thread
(``time.thread_time``), scaled to reference seconds by the host-speed
probe (:mod:`bench.hostspeed`).  The simulator is single-threaded, so on
an idle reference host that is its wall time.  CPU time leaves out the
time the thread waited for a CPU -- other processes, or the hypervisor
running other guests -- and the scaling takes out how fast the CPU ran
while it had it; on a shared virtual machine both move wall time by tens
of percent for minutes at a time.
"""

import contextlib
import time
import traceback
from dataclasses import replace

from repro.analysis import experiments
from repro.analysis.expectations import PAPER_EXPECTATIONS
from repro.common.config import default_system_config
from repro.sim.runner import energy_fraction, speedup_fraction
from repro.sim.system import SystemSimulator
from repro.workloads import registry

from bench.golden import result_digest

#: Trace lengths.  Each pass takes a few seconds on one core, so a run
#: of ``--seconds`` repeats it and reports per-cell medians.
BIGDATA_LENGTH = 3000
SMALL_LENGTH = 12000
MIX_LENGTH = 3000
#: Just past the point where dirty LLC victims start: every cell serves
#: more than 1,000 writebacks, which pile up in the controller queue.
WRITEBACK_CELLS = (("blackscholes_small", 68000), ("swaptions_small", 76000))


class Cell:
    """One simulation: workload names, trace length and machine config.
    The id names all three, so golden digests cannot go stale silently."""

    __slots__ = ("cell_id", "names", "length", "config")

    def __init__(self, names, length, config, label):
        self.names = tuple(names)
        self.length = length
        self.config = config
        self.cell_id = "%s@%d/%s" % ("+".join(self.names), length, label)


def _tempo_pairs(names, length):
    config = default_system_config()
    return [
        Cell((name,), length, config.with_tempo(enabled), "tempo-on" if enabled else "tempo-off")
        for name in names
        for enabled in (False, True)
    ]


def bliss_config():
    """Fig. 16's BLISS machine: prefetches count half a demand request
    (increment 1 of 2) and a 15-cycle TEMPO grace period."""
    config = default_system_config()
    config = config.copy_with(
        scheduler=replace(config.scheduler, policy="bliss", bliss_prefetch_increment=1)
    )
    return config.with_tempo(True, grace_period_cycles=15)


def _summary(result):
    """The plain data the parent derives simulated per-layer metrics from."""
    return {
        "records": result.stats["manifest.trace_records"],
        "superpage_fraction": result.superpage_fraction,
        "stats": {
            key: value
            for key, value in result.stats.items()
            if not key.startswith("manifest.")
        },
    }


class Observations:
    """Everything a run learns about correctness, plus per-cell times.

    ``digests`` maps path -> cell id -> digest -> count, in first-seen
    order; a path names how the result was produced (``untraced`` or
    ``traced``).
    """

    def __init__(self):
        self.attempted = 0
        self.digests = {}
        self.errors = []
        self.cell_seconds = {}
        #: cell id -> the first result seen for it.
        self.results = {}

    def record(self, path, cell, outcome, seconds=None):
        self.attempted += 1
        if isinstance(outcome, BaseException):
            message = traceback.format_exception_only(type(outcome), outcome)
            self.errors.append("%s %s: %s" % (path, cell.cell_id, "".join(message).strip()))
            return
        seen = self.digests.setdefault(path, {}).setdefault(cell.cell_id, {})
        digest = result_digest(outcome)
        seen[digest] = seen.get(digest, 0) + 1
        self.results.setdefault(cell.cell_id, outcome)
        if seconds is not None:
            self.cell_seconds.setdefault(cell.cell_id, []).append(seconds)

    def tempo_gains(self):
        """Mean ``speedup_fraction``/``energy_fraction`` over the
        TEMPO off/on pairs seen, or ``None`` without pairs."""
        perf, energy = [], []
        for cell_id, baseline in self.results.items():
            if not cell_id.endswith("/tempo-off"):
                continue
            tempo = self.results.get(cell_id[: -len("off")] + "on")
            if tempo is not None:
                perf.append(speedup_fraction(baseline, tempo))
                energy.append(energy_fraction(baseline, tempo))
        if not perf:
            return None
        return {"perf": sum(perf) / len(perf), "energy": sum(energy) / len(energy)}

    def as_dict(self):
        return {
            "attempted": self.attempted,
            "digests": {
                path: {cell: [[d, n] for d, n in seen.items()] for cell, seen in cells.items()}
                for path, cells in self.digests.items()
            },
            "errors": self.errors,
            "cell_seconds": self.cell_seconds,
            "summaries": {cell: _summary(result) for cell, result in self.results.items()},
            "tempo_gains": self.tempo_gains(),
        }


class SimWorkload:
    """Cells simulated in-process with ``SystemSimulator(...).run()``."""

    def __init__(self, cells):
        self.cells = cells
        self.seed = None
        self.traces = None

    def setup(self, seed):
        self.seed = seed
        self.traces = self._make_traces()

    def _make_traces(self):
        traces = {}
        for cell in self.cells:
            for name in cell.names:
                key = (name, cell.length)
                if key not in traces:
                    traces[key] = registry.make_trace(name, length=cell.length, seed=self.seed)
        return traces

    def run_pass(self, observations, path, probe, tracer=None, regenerate=False):
        """Simulate every cell once; returns the pass's time, in
        reference seconds from *probe*, and the records its cells
        simulated.

        With *regenerate*, trace generation is part of the pass (the
        traced pass needs it to measure the ``workloads`` layer; its
        untraced twin does the same so the two compare).  Digests are
        computed after the timed region.
        """
        clock = time.thread_time
        outcomes = []
        mark, start = probe.mark(), clock()
        with tracer if tracer is not None else contextlib.nullcontext():
            traces = self._make_traces() if regenerate else self.traces
            for cell in self.cells:
                cell_mark, cell_start = probe.mark(), clock()
                try:
                    result = SystemSimulator(
                        cell.config,
                        [traces[(name, cell.length)] for name in cell.names],
                        seed=self.seed,
                    ).run()
                except Exception as exc:  # counted as a failed cell
                    outcomes.append((cell, exc, None))
                    continue
                outcomes.append((cell, result, probe.scale(clock() - cell_start, cell_mark)))
        seconds = probe.scale(clock() - start, mark)
        records = 0
        for cell, outcome, cell_seconds in outcomes:
            observations.record(path, cell, outcome, cell_seconds if tracer is None else None)
            if cell_seconds is not None:
                records += outcome.stats["manifest.trace_records"]
        return {"seconds": seconds, "records": records}


def _writeback_drain():
    config = default_system_config().with_tempo(False)
    return SimWorkload(
        [Cell((name,), length, config, "tempo-off") for name, length in WRITEBACK_CELLS]
    )


def _mix_bliss():
    config = bliss_config()
    return SimWorkload(
        [Cell(mix, MIX_LENGTH, config, "bliss-tempo-on") for mix in experiments.MULTIPROGRAM_MIXES]
    )


#: Workload -> (``PAPER_EXPECTATIONS`` figure, performance band key,
#: energy band key): the paper's only accuracy reference for the
#: workloads that simulate TEMPO off/on pairs.
_PAPER_BANDS = {
    "bigdata_pair": ("fig10", "performance_improvement", "energy_improvement"),
    "small_pair": ("fig11_right", "performance_band", "energy_band"),
}


def paper_bands(name):
    """``{"figure", "perf": (lo, hi), "energy": (lo, hi)}`` or ``None``."""
    if name not in _PAPER_BANDS:
        return None
    figure, perf, energy = _PAPER_BANDS[name]
    expected = PAPER_EXPECTATIONS[figure]
    return {"figure": figure, "perf": expected[perf], "energy": expected[energy]}


#: Workload name -> factory of a fresh instance.
WORKLOADS = {
    "bigdata_pair": lambda: SimWorkload(_tempo_pairs(experiments.BIGDATA_NAMES, BIGDATA_LENGTH)),
    "small_pair": lambda: SimWorkload(_tempo_pairs(experiments.SMALL_NAMES, SMALL_LENGTH)),
    "writeback_drain": _writeback_drain,
    "mix_bliss": _mix_bliss,
}
