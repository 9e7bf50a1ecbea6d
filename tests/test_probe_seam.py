"""Tests that pin the instrumentation seam (``repro.obs.probe``).

The tracer, the timeline, the invariant audit and its flight recorder
all observe a run through one nullable ``probe``.  Their outputs are
pinned here as SHA-256 digests of ``json.dumps(..., sort_keys=True)``
on two fixture runs.  The expected digests were taken from the tree in
which each instrument still had its own hook into the simulator, so a
change to what any probe sees, or to the order it sees it in, fails
here.
"""

import hashlib
import json

import pytest

from repro.common.config import default_system_config
from repro.obs import CompositeProbe, EventTracer, Probe, TimelineRecorder, timeline_payload
from repro.sim.system import SystemSimulator
from repro.verify import FlightRecorder
from repro.workloads.registry import make_trace


def _digest(payload):
    return hashlib.sha256(json.dumps(payload, sort_keys=True).encode()).hexdigest()


def _flight_recorder(simulator):
    # ``check_invariants`` appends a flight recorder and the audit suite
    # to the probe the run was given.
    return next(p for p in simulator.probe.probes if isinstance(p, FlightRecorder))


@pytest.fixture(scope="module")
def single_core_run():
    """xsbench, TEMPO on: tracer, timeline and the full audit at once."""
    tracer = EventTracer()
    timeline = TimelineRecorder()
    simulator = SystemSimulator(
        default_system_config().with_tempo(True),
        [make_trace("xsbench", length=1200, seed=0)],
        seed=0,
        probe=CompositeProbe([tracer, timeline]),
        check_invariants="full",
    )
    result = simulator.run()
    return simulator, result, tracer, timeline


@pytest.fixture(scope="module")
def two_core_run():
    """bzip2_small + gcc_small interleaved: timeline and full audit."""
    timeline = TimelineRecorder()
    simulator = SystemSimulator(
        default_system_config().copy_with(num_cores=2),
        [
            make_trace("bzip2_small", length=400, seed=0),
            make_trace("gcc_small", length=400, seed=0),
        ],
        seed=0,
        probe=timeline,
        check_invariants="full",
    )
    result = simulator.run()
    return simulator, result, timeline


def test_single_core_outputs_match_their_digests(single_core_run):
    simulator, result, tracer, timeline = single_core_run
    assert _digest(tracer.chrome_trace()) == (
        "9ee136b88777f3d0c7283bcd57cfd1ec3acfb064d0b030e1a44258ee7abd06eb"
    )
    assert _digest(timeline_payload(timeline)) == (
        "137943730f8b0e80de2f81b717d54efdc6e70d8b5f6335d34b89376c6f4c7a67"
    )
    assert _digest(result.manifest.audit) == (
        "bded46cf32ed1161d45b4ce059cb238f0e6930f3b9f07eed3e3c6ba995fa7368"
    )
    assert _digest(_flight_recorder(simulator).dump()) == (
        "c124c4bc220a7f90e5237431954ff42174cc917a2892cbfe2545ad9dd9de7bd8"
    )


def test_two_core_outputs_match_their_digests(two_core_run):
    simulator, result, timeline = two_core_run
    assert _digest(timeline_payload(timeline)) == (
        "8258b800f4700262e4d92e103e3ff3e3bfb960e2e2d3a50e2bb39badbfdf9056"
    )
    assert _digest(result.manifest.audit) == (
        "fbd589801b2d46dbf4913665c0c22fcf4b6ebf74c0a1a079fb184d8bc2b3ab21"
    )
    assert _digest(_flight_recorder(simulator).dump()) == (
        "a6fc6cfb66aa95a139f70daeeb07f50191cdc5cc65da27c946012eca448549e5"
    )


def test_composite_fans_every_event_out_in_order():
    calls = []

    class Logger(Probe):
        def __init__(self, tag):
            self.tag = tag

        def __getattribute__(self, name):
            if name.startswith("on_"):
                tag = object.__getattribute__(self, "tag")
                return lambda *args: calls.append((tag, name, args))
            return object.__getattribute__(self, name)

    events = [name for name in vars(Probe) if name.startswith("on_")]
    assert events
    composite = CompositeProbe([Logger("a"), Logger("b")])
    for index, name in enumerate(events):
        getattr(composite, name)(index)
    expected = [(tag, name, (index,)) for index, name in enumerate(events) for tag in "ab"]
    assert calls == expected
