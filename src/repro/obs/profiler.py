"""Wall-clock phase profiling for long runs.

:class:`PhaseProfiler` measures host wall-clock per named phase (warmup,
measure, drain, shared, alone.*, ...) and derives records/sec
throughput; the summary lands in the run manifest's ``timings``.
"""

import time


class PhaseProfiler:
    """Accumulates wall-clock seconds per named phase."""

    __slots__ = ("phases", "_order", "_current", "_started")

    def __init__(self):
        self.phases = {}
        self._order = []
        self._current = None
        self._started = 0.0

    def begin(self, name):
        """Start *name*, ending any phase in progress."""
        self.end()
        self._current = name
        self._started = time.perf_counter()

    def end(self):
        """End the phase in progress (no-op when none is)."""
        if self._current is None:
            return
        elapsed = time.perf_counter() - self._started
        if self._current not in self.phases:
            self._order.append(self._current)
            self.phases[self._current] = 0.0
        self.phases[self._current] += elapsed
        self._current = None

    def phase(self, name):
        """Context-manager form: ``with profiler.phase("drain"): ...``"""
        return _PhaseScope(self, name)

    def total_seconds(self):
        return sum(self.phases.values())

    def summary(self, records=None):
        """``{"wall_seconds": ..., "wall_seconds.<phase>": ...}`` plus
        ``records_per_second`` when *records* is given."""
        self.end()
        out = {"wall_seconds": self.total_seconds()}
        for name in self._order:
            out["wall_seconds.%s" % name] = self.phases[name]
        if records is not None:
            out["records"] = records
            total = self.total_seconds()
            out["records_per_second"] = records / total if total > 0 else 0.0
        return out


class _PhaseScope:
    __slots__ = ("_profiler", "_name")

    def __init__(self, profiler, name):
        self._profiler = profiler
        self._name = name

    def __enter__(self):
        self._profiler.begin(self._name)
        return self._profiler

    def __exit__(self, exc_type, exc, tb):
        self._profiler.end()
        return False
