"""Lightweight statistics primitives.

Every simulated structure (TLB, cache, bank, scheduler, ...) owns a
:class:`StatGroup` so results can be harvested uniformly by the experiment
drivers in :mod:`repro.analysis`.

Counters and histograms must be *created through their group*
(:meth:`StatGroup.counter` / :meth:`StatGroup.histogram`, or the handle
factories below): a directly constructed primitive is invisible to the
:class:`~repro.obs.registry.MetricsRegistry` export (simlint rule SL004
enforces this).

Per-event stats -- anything counted per reference, walk, fault, DRAM
access or prefetch -- use *handles* bound once at construction
(:meth:`StatGroup.counter_handle` / :meth:`StatGroup.histogram_handle`)
and are incremented with ``handle.value += 1`` or ``handle.record(x)``:
an attribute read instead of a by-name lookup per event.  A handle joins
the export the first time it is found non-zero (at :meth:`StatGroup.as_dict`
or :meth:`StatGroup.reset`, or when :meth:`StatGroup.counter` asks for
it), exactly when a by-name ``counter(name).add()`` at the first event
would have created it, so binding a handle never adds a zero-valued key.
:meth:`StatGroup.counter` serves construction and cold paths (flushes,
invalidations, unmaps) and increments that may be 0.
"""

from __future__ import annotations

from typing import Dict, Optional


class Counter:
    """A named monotonically increasing counter."""

    __slots__ = ("name", "value")

    def __init__(self, name: str, value: int = 0) -> None:
        self.name = name
        self.value = value

    def add(self, amount: int = 1) -> None:
        self.value += amount

    def reset(self) -> None:
        self.value = 0

    def __int__(self) -> int:
        return self.value

    def __repr__(self) -> str:
        return "Counter(%s=%d)" % (self.name, self.value)


class Histogram:
    """A sparse integer-keyed histogram (e.g. latency distribution)."""

    __slots__ = ("name", "buckets")

    #: Percentiles exported by :meth:`StatGroup.as_dict`.
    EXPORT_PERCENTILES = (50, 95, 99)

    def __init__(self, name: str) -> None:
        self.name = name
        self.buckets: Dict[int, int] = {}

    def record(self, key: int, amount: int = 1) -> None:
        self.buckets[key] = self.buckets.get(key, 0) + amount

    def total(self) -> int:
        return sum(self.buckets.values())

    def mean(self) -> float:
        total = self.total()
        if total == 0:
            return 0.0
        return sum(key * count for key, count in self.buckets.items()) / total

    def percentile(self, p: float) -> int:
        """Nearest-rank percentile: the smallest recorded key at or
        above rank ``ceil(p/100 * total)``.  Returns 0 when empty."""
        if not 0 <= p <= 100:
            raise ValueError("percentile must be in [0, 100], got %r" % (p,))
        total = self.total()
        if total == 0:
            return 0
        rank = max(1, -(-p * total // 100))  # ceil without math import
        cumulative = 0
        for key in sorted(self.buckets):
            cumulative += self.buckets[key]
            if cumulative >= rank:
                return key
        return max(self.buckets)

    def min(self) -> int:
        return min(self.buckets) if self.buckets else 0

    def max(self) -> int:
        return max(self.buckets) if self.buckets else 0

    def reset(self) -> None:
        self.buckets.clear()

    def __repr__(self) -> str:
        return "Histogram(%s, n=%d)" % (self.name, self.total())


class StatGroup:
    """A named bag of counters/histograms with dotted-path export.

    >>> stats = StatGroup("tlb")
    >>> stats.counter("hits").add()
    >>> stats.as_dict()
    {'tlb.hits': 1}
    """

    def __init__(self, name: str) -> None:
        self.name = name
        self._counters: Dict[str, Counter] = {}
        self._histograms: Dict[str, Histogram] = {}
        self._children: Dict[str, StatGroup] = {}
        #: Handles not exported yet (see :meth:`counter_handle`).
        self._pending_counters: Dict[str, Counter] = {}
        self._pending_histograms: Dict[str, Histogram] = {}

    def counter(self, name: str) -> Counter:
        """Return (creating on first use) the counter *name*; it is
        exported from now on, even while zero."""
        found = self._counters.get(name)
        if found is None:
            found = self._pending_counters.pop(name, None)
            if found is None:
                found = Counter(name)
            self._counters[name] = found
        return found

    def histogram(self, name: str) -> Histogram:
        """Return (creating on first use) the histogram *name*; it is
        exported from now on, even while empty."""
        found = self._histograms.get(name)
        if found is None:
            found = self._pending_histograms.pop(name, None)
            if found is None:
                found = Histogram(name)
            self._histograms[name] = found
        return found

    def counter_handle(self, name: str) -> Counter:
        """Return the counter *name* for a hot path to bind once and
        increment with ``handle.value += n``.

        Unlike :meth:`counter` this does not export it: the handle joins
        the export the first time it is found non-zero (see the module
        docstring).  The same object comes back from every later
        ``counter_handle(name)`` or ``counter(name)``.
        """
        found = self._counters.get(name)
        if found is None:
            found = self._pending_counters.get(name)
            if found is None:
                found = Counter(name)
                self._pending_counters[name] = found
        return found

    def histogram_handle(self, name: str) -> Histogram:
        """The :meth:`counter_handle` of histograms: exported once it
        holds a sample."""
        found = self._histograms.get(name)
        if found is None:
            found = self._pending_histograms.get(name)
            if found is None:
                found = Histogram(name)
                self._pending_histograms[name] = found
        return found

    def _export_used_handles(self) -> None:
        """Move every handle that has counted something into the export."""
        pending = self._pending_counters
        for name in [name for name, counter in pending.items() if counter.value]:
            self._counters[name] = pending.pop(name)
        pending_histograms = self._pending_histograms
        for name in [name for name, hist in pending_histograms.items() if hist.buckets]:
            self._histograms[name] = pending_histograms.pop(name)

    def child(self, name: str) -> StatGroup:
        """Return (creating on first use) a nested group *name*."""
        found = self._children.get(name)
        if found is None:
            found = StatGroup(name)
            self._children[name] = found
        return found

    def peek(self, name: str) -> int:
        """Read counter *name* -- exported or a bound handle -- without
        creating or exporting it (0 when absent).

        Invariant auditors (:mod:`repro.verify`) and rate readers use
        this: calling :meth:`counter` from an audit would materialise a
        zero-valued counter in the stats export and break the
        off-vs-full bit-identity guarantee.
        """
        found = self._counters.get(name)
        if found is None:
            found = self._pending_counters.get(name)
        return 0 if found is None else found.value

    def peek_child(self, name: str) -> Optional[StatGroup]:
        """Read child group *name* without creating it."""
        return self._children.get(name)

    def ratio(self, numerator: str, denominator: str) -> float:
        """hits/(hits+misses)-style convenience: value of counter
        *numerator* divided by the sum of both counters (0.0 if empty)."""
        num = self.peek(numerator)
        den = num + self.peek(denominator)
        if den == 0:
            return 0.0
        return num / den

    def reset(self) -> None:
        """Zero every stat; a handle used before the reset stays exported
        (at 0), as a by-name counter created before it would."""
        self._export_used_handles()
        for counter in self._counters.values():
            counter.reset()
        for histogram in self._histograms.values():
            histogram.reset()
        for group in self._children.values():
            group.reset()

    def as_dict(self, prefix: Optional[str] = None) -> Dict[str, float]:
        """Flatten to ``{"group.counter": value}`` (histograms export
        their totals under ``<name>.total``, means under ``<name>.mean``
        and nearest-rank percentiles under ``<name>.p50`` etc.)."""
        self._export_used_handles()
        path = self.name if prefix is None else "%s.%s" % (prefix, self.name)
        flat: Dict[str, float] = {}
        for name, counter in self._counters.items():
            flat["%s.%s" % (path, name)] = counter.value
        for name, histogram in self._histograms.items():
            flat["%s.%s.total" % (path, name)] = histogram.total()
            flat["%s.%s.mean" % (path, name)] = histogram.mean()
            for p in Histogram.EXPORT_PERCENTILES:
                flat["%s.%s.p%d" % (path, name, p)] = histogram.percentile(p)
        for group in self._children.values():
            flat.update(group.as_dict(prefix=path))
        return flat

    def __repr__(self) -> str:
        return "StatGroup(%r, %d counters)" % (self.name, len(self._counters))
