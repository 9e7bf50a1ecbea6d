"""The flight recorder: a bounded ring buffer of recent machine events.

When an invariant audit fails (or any :class:`~repro.common.errors.
ReproError` escapes ``SystemSimulator.run``), the question is never just
"what broke" but "what was the simulator doing".  The recorder keeps the
last N reference/walk/DRAM events -- cheap dicts in a ``deque`` -- and
:meth:`FlightRecorder.dump` turns them into the structured context that
lands in the crash report (JSON on stderr) and the run manifest.

The recorder is a :class:`~repro.obs.probe.Probe`: it keeps the
references, demand walks and DRAM services the simulator reports, and
adds its dump to the context of any error that escapes the run.
``--check-invariants`` attaches one next to the audit suite.
"""

from __future__ import annotations

from collections import deque
from typing import TYPE_CHECKING, Any, Deque, Dict, List

from repro.common.errors import ConfigError
from repro.obs.probe import Probe

if TYPE_CHECKING:
    from repro.cache.hierarchy import AccessResult
    from repro.sim.trace import TraceRecord

#: Default ring capacity: enough to cover several walks' worth of
#: events either side of a violation without bloating crash reports.
DEFAULT_CAPACITY = 256


class FlightRecorder(Probe):
    """Bounded ring buffer of recent simulation events."""

    __slots__ = ("capacity", "recorded", "_events")

    def __init__(self, capacity: int = DEFAULT_CAPACITY) -> None:
        if capacity < 1:
            raise ConfigError(
                "flight recorder capacity must be >= 1",
                context={"capacity": capacity},
            )
        self.capacity = capacity
        #: Total events ever recorded (the ring keeps only the tail).
        self.recorded = 0
        self._events: Deque[Dict[str, Any]] = deque(maxlen=capacity)

    def record(self, event: str, **fields: Any) -> None:
        """Append one event; the oldest event falls off when full.

        *event* names the event type (``ref``/``walk``/``dram``); the
        keyword fields are free-form and land in the dump verbatim.
        """
        entry: Dict[str, Any] = {"event": event}
        entry.update(fields)
        self._events.append(entry)
        self.recorded += 1

    @property
    def dropped(self) -> int:
        """Events that have already fallen off the ring."""
        return self.recorded - len(self._events)

    def events(self) -> List[Dict[str, Any]]:
        """The retained events, oldest first."""
        return list(self._events)

    def dump(self) -> Dict[str, Any]:
        """JSON-serialisable snapshot: ring stats + retained events."""
        return {
            "capacity": self.capacity,
            "recorded": self.recorded,
            "dropped": self.dropped,
            "events": self.events(),
        }

    def __len__(self) -> int:
        return len(self._events)

    # ------------------------------------------------------------------
    # Probe events
    # ------------------------------------------------------------------

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
        if request is not None:
            self.record(
                "dram", cpu=cpu, kind="pt", paddr=request.paddr, leaf=request.pt_leaf,
                level=level, outcome=request.outcome, finish=end,
            )

    def on_walk(
        self, cpu: int, start: int, end: int, plan: Any, leaf_request: Any, demand: bool
    ) -> None:
        if demand:
            self.record(
                "walk", cpu=cpu, vaddr=plan.vaddr, begin=start, end=end, levels=len(plan.steps),
                leaf_dram=leaf_request is not None, page_size=plan.entry.page_size,
            )

    def on_dram(self, cpu: int, request: Any, start: int, finish: int, service: str) -> None:
        self.record(
            "dram", cpu=cpu, kind="demand", paddr=request.paddr, outcome=request.outcome,
            service=service, finish=finish,
        )

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
        self.record(
            "ref", cpu=cpu, vaddr=record.vaddr, time=finish, walked=walked, write=record.is_write
        )

    def on_error(self, context: Dict[str, Any]) -> None:
        if "flight_recorder" not in context:
            context["flight_recorder"] = self.dump()

    def __repr__(self) -> str:
        return "FlightRecorder(%d/%d events, %d total)" % (
            len(self._events),
            self.capacity,
            self.recorded,
        )
