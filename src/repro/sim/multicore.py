"""Multiprogrammed simulation: shared run + per-application alone runs.

Follows the paper's Sec. 6.3 methodology: each application in a mix is
also run alone on the same configuration; *weighted speedup* and
*maximum slowdown* compare the shared execution against those alone
baselines.

The driver carries the observability hooks for its long multi-phase
runs: a :class:`~repro.obs.profiler.PhaseProfiler` times the shared run
and every alone run (the summary lands on
:attr:`MultiprogramResult.timings`), and an optional *progress* callback
receives one status line per phase.
"""

from repro.obs.profiler import PhaseProfiler
from repro.sim.metrics import max_slowdown, weighted_speedup
from repro.sim.system import SystemSimulator


class MultiprogramResult:
    """Outcome of one multiprogrammed mix."""

    __slots__ = ("shared", "alone", "weighted_speedup", "max_slowdown", "timings")

    def __init__(self, shared, alone, timings=None):
        self.shared = shared
        self.alone = alone
        self.weighted_speedup = weighted_speedup(shared.cores, [r.core for r in alone])
        self.max_slowdown = max_slowdown(shared.cores, [r.core for r in alone])
        #: Wall-clock seconds per phase ("shared", "alone.<name>", ...).
        self.timings = dict(timings) if timings else {}

    def __repr__(self):
        return "MultiprogramResult(ws=%.2f, ms=%.2f)" % (
            self.weighted_speedup,
            self.max_slowdown,
        )


class MulticoreSimulator:
    """Runs a mix shared, then each application alone."""

    def __init__(
        self, config, traces, seed=None, progress=None, check_invariants=None, probe=None
    ):
        self.config = config
        self.traces = list(traces)
        self.seed = seed if seed is not None else config.seed
        #: Optional callback receiving one status string per phase.
        self.progress = progress
        #: ``off``/``sample``/``full`` -- forwarded to every underlying
        #: :class:`SystemSimulator` (shared and alone runs alike).
        self.check_invariants = check_invariants
        #: Optional :class:`~repro.obs.Probe` for the *shared* run only
        #: (alone runs would mix unrelated clocks into what it records).
        self.probe = probe
        self.profiler = PhaseProfiler()

    def _announce(self, message):
        if self.progress is not None:
            self.progress(message)

    def run(self, max_records=None, alone_results=None):
        """Simulate the mix.

        *alone_results* lets callers reuse alone runs across scheduler
        sweeps (the alone baseline does not depend on swept parameters
        that only matter under sharing).
        """
        names = "+".join(trace.name for trace in self.traces)
        self._announce("running shared mix %s ..." % names)
        with self.profiler.phase("shared"):
            shared = SystemSimulator(
                self.config,
                self.traces,
                self.seed,
                probe=self.probe,
                check_invariants=self.check_invariants,
            ).run(max_records)
        if alone_results is None:
            alone_results = self.run_alone(max_records)
        records = sum(len(trace.records) for trace in self.traces)
        return MultiprogramResult(
            shared, alone_results, timings=self.profiler.summary(records=records)
        )

    def run_alone(self, max_records=None):
        """Run each application by itself on the same configuration."""
        results = []
        for trace in self.traces:
            self._announce("running %s alone ..." % trace.name)
            with self.profiler.phase("alone.%s" % trace.name):
                simulator = SystemSimulator(
                    self.config,
                    [trace],
                    self.seed,
                    check_invariants=self.check_invariants,
                )
                results.append(simulator.run(max_records))
        return results
