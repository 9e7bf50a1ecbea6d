"""Per-layer host-time tracing from outside the simulator.

The tracer replaces the public entry points of each ``src/repro`` layer
with timing wrappers for the duration of a ``with tracer:`` block, then
puts the original attributes back (by identity, even after an
exception).  Nothing under ``src/`` knows it is being traced.

Each wrapper keeps a stack of child-time accumulators, so a span's
*self* time is its duration minus the wrapped calls made inside it.
Spans are aggregated per (layer, entry point) as they happen -- a
writeback-heavy pass makes tens of millions of wrapped calls, far too
many to store one by one.  Time inside the ``with`` block that no
wrapped call covers is the ``harness`` layer: the benchmark's own loop
plus the queue-depth probe.

Wrapping costs time.  :func:`calibrate` measures it on an empty method:
``inner_ns`` is what an empty wrapped call reports as its own duration,
``outer_ns`` is the rest of the per-call cost, which lands in the
caller.  The tracer charges ``outer_ns`` to the caller as child time and
:meth:`LayerTracer.layer_self_ns` subtracts ``inner_ns`` per call, so
the corrected self times add up to the traced root duration minus
``calls * (inner_ns + outer_ns)`` -- an estimate of the untraced time.
"""

import functools
import importlib
import statistics
import time

#: layer -> ((module, class name or None for module functions, names), ...).
#: ``sched``'s scheduler rows cover every policy ``make_scheduler`` builds.
LAYERS = {
    "sim": (("repro.sim.system", "SystemSimulator", ("__init__", "run")),),
    "mmu": (
        ("repro.mmu.tlb", "TlbHierarchy", ("lookup", "fill")),
        ("repro.mmu.walker", "PageTableWalker", ("plan", "complete")),
        ("repro.mmu.mmu_cache", "MmuCaches", ("lookup", "insert")),
    ),
    "vm": (
        ("repro.vm.address_space", "AddressSpace", ("handle_fault",)),
        ("repro.vm.page_table", "PageTable", ("walk", "map")),
    ),
    "cache": (
        (
            "repro.cache.hierarchy",
            "CacheHierarchy",
            ("access", "fill_from_memory", "prefetch_fill_llc", "drain_writebacks"),
        ),
    ),
    "sched": (
        (
            "repro.sched.controller",
            "MemoryController",
            (
                "enqueue",
                "submit_and_wait",
                "submit_async",
                "submit_writeback",
                "advance_to",
                "service_one",
                "next_decision_time",
                "drain_all",
                "take_prefetch_outcome",
                "cancel_prefetch",
            ),
        ),
        ("repro.sched.schedulers", "FcfsScheduler", ("pick", "on_scheduled")),
        ("repro.sched.schedulers", "FrFcfsScheduler", ("pick", "on_scheduled")),
        ("repro.sched.schedulers", "BlissScheduler", ("pick", "on_scheduled")),
        ("repro.sched.schedulers", "AtlasScheduler", ("pick", "on_scheduled")),
        ("repro.sched.schedulers", "TempoGroupingScheduler", ("pick", "on_scheduled")),
    ),
    "dram": (
        ("repro.dram.bank", "DramDevice", ("access", "bank_for", "classify", "row_open")),
        ("repro.dram.address_map", "AddressMap", ("decode", "bank_index", "row_of")),
        ("repro.dram.energy", "EnergyModel", ("record_dram_access", "record_llc_fill")),
    ),
    "core": (
        ("repro.core.prefetch_engine", "PrefetchEngine", ("build_prefetch", "llc_ready_time")),
    ),
    "common": (("repro.common.stats", "StatGroup", ("counter", "histogram")),),
    "obs": (("repro.obs.registry", "MetricsRegistry", ("collect",)),),
    "workloads": (("repro.workloads.registry", None, ("make_trace",)),),
}

#: The pseudo-layer for traced time no wrapped call covers.
HARNESS = "harness"

#: Every layer a report covers, in display order.
ALL_LAYERS = tuple(LAYERS) + (HARNESS,)


def entry_points(layers):
    """Yield ``(layer, owner, name)`` for every wrapped attribute of
    *layers*; *owner* is a class or a module.  Raises on a missing
    module, class or attribute, so a rename in ``src/`` fails loudly
    instead of silently emptying a layer."""
    for layer in layers:
        for module_name, class_name, names in LAYERS[layer]:
            owner = importlib.import_module(module_name)
            if class_name is not None:
                owner = getattr(owner, class_name)
            for name in names:
                if name not in vars(owner):
                    raise AttributeError(
                        "layer %r: %s has no attribute %r of its own"
                        % (layer, getattr(owner, "__qualname__", owner.__name__), name)
                    )
                yield layer, owner, name


class LayerTracer:
    """Aggregates wrapped-call spans per (layer, entry point); see the
    module docstring.  Reusable: each ``with`` block installs the
    wrappers, adds its duration to :attr:`root_ns`, and restores."""

    def __init__(self, layers=tuple(LAYERS), inner_ns=0.0, outer_ns=0.0):
        self.layers = tuple(layers)
        self.inner_ns = inner_ns
        self.outer_ns = outer_ns
        #: (layer, "Owner.name") -> [calls, total_ns, self_ns]
        self.records = {}
        self.root_ns = 0
        self._stack = [0]
        self._saved = []
        self._root_start = None
        #: Deepest controller queue seen after any wrapped ``enqueue``.
        self.queue_depth_max = 0
        #: Root time outside every wrapped call, plus the probe's time.
        self._harness_ns = 0

    # -- installation ---------------------------------------------------

    def install(self):
        if self._saved:
            raise RuntimeError("tracer already installed")
        try:
            for layer, owner, name in entry_points(self.layers):
                original = vars(owner)[name]
                label = "%s.%s" % (getattr(owner, "__qualname__", owner.__name__), name)
                record = self.records.setdefault((layer, label), [0, 0, 0])
                probe = self._queue_probe if label == "MemoryController.enqueue" else None
                self._saved.append((owner, name, original))
                setattr(owner, name, self._wrap(original, record, probe))
        except BaseException:
            self.restore()
            raise

    def restore(self):
        while self._saved:
            owner, name, original = self._saved.pop()
            setattr(owner, name, original)

    def __enter__(self):
        self.install()
        self._stack[:] = [0]
        self._root_start = time.perf_counter_ns()
        return self

    def __exit__(self, *exc_info):
        elapsed = time.perf_counter_ns() - self._root_start
        self.restore()
        self.root_ns += elapsed
        self._harness_ns += elapsed - self._stack[0]
        return False

    def _queue_probe(self, controller):
        depth = controller.pending_requests()
        if depth > self.queue_depth_max:
            self.queue_depth_max = depth

    def _wrap(self, function, record, probe):
        stack = self._stack
        clock = time.perf_counter_ns
        outer = self.outer_ns
        tracer = self

        @functools.wraps(function)
        def wrapper(*args, **kwargs):
            stack.append(0)
            start = clock()
            try:
                return function(*args, **kwargs)
            finally:
                elapsed = clock() - start
                children = stack.pop()
                stack[-1] += elapsed + outer
                record[0] += 1
                record[1] += elapsed
                record[2] += elapsed - children
                if probe is not None:
                    # The probe is harness work: hide it from the caller.
                    probe_start = clock()
                    probe(args[0])
                    probe_ns = clock() - probe_start
                    stack[-1] += probe_ns
                    tracer._harness_ns += probe_ns

        return wrapper

    # -- results ----------------------------------------------------------

    def calls(self):
        return sum(record[0] for record in self.records.values())

    def layer_calls(self, layer):
        return sum(r[0] for (name, _), r in self.records.items() if name == layer)

    def layer_self_ns(self, layer):
        """Corrected self time of *layer* (never negative).  The harness
        layer's is the root time no wrapped call covered, probe
        included."""
        if layer == HARNESS:
            return max(0.0, self._harness_ns)
        raw = sum(
            record[2] - record[0] * self.inner_ns
            for (name, _), record in self.records.items()
            if name == layer
        )
        return max(0.0, raw)

    def summary(self):
        """JSON-able per-layer totals plus the calibration used."""
        return {
            "root_ns": self.root_ns,
            "inner_ns": self.inner_ns,
            "outer_ns": self.outer_ns,
            "queue_depth_max": self.queue_depth_max,
            "layers": {
                layer: {
                    "calls": self.layer_calls(layer) if layer != HARNESS else 0,
                    "self_ns": self.layer_self_ns(layer),
                }
                for layer in ALL_LAYERS
            },
        }


class _Probe:
    def noop(self, argument):
        return None


def calibrate(calls=100000, trials=5):
    """Measure the wrapper's per-call cost on an empty one-argument
    method, the shape of the cheapest and most frequent entry points
    (``StatGroup.counter``, ``AddressMap.bank_index``).

    Returns ``(inner_ns, outer_ns)`` as medians over *trials*: *inner*
    is the mean duration a wrapped empty call reports for itself,
    *outer* the remaining extra cost per call relative to an unwrapped
    call.  *outer* may be negative: *inner* includes the call of the
    original function, which an unwrapped caller pays too.
    """
    inner, outer = [], []
    probe = _Probe()
    loop = range(calls)
    clock = time.perf_counter_ns
    original = vars(_Probe)["noop"]
    for _ in range(trials):
        start = clock()
        for _ in loop:
            probe.noop(1)
        plain = clock() - start

        tracer = LayerTracer(layers=())
        record = [0, 0, 0]
        _Probe.noop = tracer._wrap(original, record, None)
        try:
            start = clock()
            for _ in loop:
                probe.noop(1)
            wrapped = clock() - start
        finally:
            _Probe.noop = original
        per_call = (wrapped - plain) / calls
        inner.append(record[1] / calls)
        outer.append(per_call - record[1] / calls)
    return statistics.median(inner), statistics.median(outer)
