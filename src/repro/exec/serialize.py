"""SimulationResult <-> plain-dict payloads.

The executor moves results between worker processes and persists them in
the content-addressed cache as JSON.  The payload captures everything
the figure drivers consume -- per-core breakdowns, energy, superpage
coverage, and the full unified stats namespace -- so a reconstructed
result is indistinguishable from a freshly simulated one (ints and
floats round-trip JSON exactly).

Both directions are read off the result classes' own ``__slots__``:
every slot is one payload key, in slot order, so a field added to a
result class is serialized and rebuilt with no edit here
(``tests/test_exec.py::test_payload_round_trips_every_result_slot``
pins it).  Only the ``manifest`` slot, the
:class:`~repro.obs.manifest.RunManifest` object itself, is not rebuilt;
its scalar projection already lives in ``stats`` under ``manifest.*``
keys, which is what every downstream consumer reads.
"""

from __future__ import annotations

from typing import Any, Dict, Mapping, Tuple

from repro.common.errors import SimulationError
from repro.sim.metrics import (
    CoreResult,
    DramReferenceBreakdown,
    ReplayServiceBreakdown,
    RuntimeBreakdown,
    SimulationResult,
)
from repro.exec.cells import PAYLOAD_SCHEMA

#: Slots holding a nested result object, or a list of them (``cores``).
_NESTED: Dict[str, type] = {
    "cores": CoreResult,
    "runtime": RuntimeBreakdown,
    "dram_refs": DramReferenceBreakdown,
    "replay_service": ReplayServiceBreakdown,
}

_NOT_SERIALIZED = "manifest"


def _slots(cls: type) -> Tuple[str, ...]:
    slots: Tuple[str, ...] = vars(cls)["__slots__"]
    return slots


def _project(obj: object) -> Dict[str, Any]:
    payload: Dict[str, Any] = {}
    for name in _slots(type(obj)):
        if name == _NOT_SERIALIZED:
            continue
        value = getattr(obj, name)
        if isinstance(value, list):
            value = [_project(item) for item in value]
        elif name in _NESTED:
            value = _project(value)
        elif isinstance(value, dict):
            value = dict(value)
        payload[name] = value
    return payload


def _rebuild(cls: type, payload: Mapping[str, Any]) -> Any:
    obj = object.__new__(cls)
    for name in _slots(cls):
        value = None if name == _NOT_SERIALIZED else payload[name]
        if isinstance(value, list):
            value = [_rebuild(_NESTED[name], item) for item in value]
        elif name in _NESTED:
            value = _rebuild(_NESTED[name], value)
        elif isinstance(value, dict):
            value = dict(value)
        setattr(obj, name, value)
    return obj


def result_to_payload(result: SimulationResult) -> Dict[str, Any]:
    """Project a :class:`SimulationResult` onto a JSON-able dict."""
    return {"schema": PAYLOAD_SCHEMA, **_project(result)}


def payload_to_result(payload: Dict[str, Any]) -> SimulationResult:
    """Rebuild a :class:`SimulationResult` from :func:`result_to_payload`."""
    if payload.get("schema") != PAYLOAD_SCHEMA:
        raise SimulationError(
            "result payload schema %r != %d" % (payload.get("schema"), PAYLOAD_SCHEMA),
            context={
                "payload_schema": payload.get("schema"),
                "expected_schema": PAYLOAD_SCHEMA,
            },
        )
    result: SimulationResult = _rebuild(SimulationResult, payload)
    return result
