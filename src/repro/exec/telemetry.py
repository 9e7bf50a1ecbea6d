"""Structured sweep telemetry: a JSONL event log for executor batches.

Every lifecycle event the :class:`~repro.exec.executor.ExperimentExecutor`
observes -- batch start/finish, per-cell state transitions, completions
with durations, cache hits, retries (visible as repeated ``cell_state``
attempts), quarantines, failures -- is appended to one file as a JSON
object per line.  The log is the progress-streaming substrate for sweep
tooling: ``tail -f`` it, or parse it after the fact for per-cell wall
times.

Timestamps (``t``) and durations are host wall-clock seconds; they
describe the *sweep*, never simulated time, so telemetry cannot perturb
results.  The file is opened in append mode and flushed per event so a
crashed run leaves a complete prefix.
"""

import json
import time
from typing import IO, Any, Dict, Optional

#: Schema 2: ``cache_hit`` lost its ``resumed`` field, and the
#: ``worker`` actions are ``spawned``/``respawned``/``crashed``/``timed_out``.
TELEMETRY_SCHEMA = 2


class TelemetryLog:
    """Append-only JSONL event writer; see module docstring.

    One instance may span several batches (e.g. ``repro report``); the
    executor summarises the event count into manifest provenance via
    :attr:`events_written`.
    """

    def __init__(self, path: str) -> None:
        self.path = path
        self.events_written = 0
        self._stream: Optional[IO[str]] = open(path, "a")
        #: key -> wall-clock start of its current running attempt.
        self._running_since: Dict[str, float] = {}

    def _emit(self, event: str, fields: Dict[str, Any]) -> None:
        if self._stream is None:
            return
        record: Dict[str, Any] = {
            "schema": TELEMETRY_SCHEMA,
            "event": event,
            "t": time.time(),
        }
        record.update(fields)
        self._stream.write(json.dumps(record, sort_keys=True) + "\n")
        self._stream.flush()
        self.events_written += 1

    # -- batch lifecycle ------------------------------------------------

    def batch_start(self, cells: int, unique: int) -> None:
        self._emit("batch_start", {"cells": cells, "unique": unique})

    def batch_finish(self, counters: Dict[str, int]) -> None:
        self._emit("batch_finish", {"counters": dict(counters)})

    # -- per-cell events ------------------------------------------------

    def cell_state(self, key: str, state: str, attempt: int, info: Optional[str]) -> None:
        """A scheduler state transition (``running`` at attempt > 0 is a
        retry)."""
        if state == "running":
            self._running_since[key] = time.time()
        fields: Dict[str, Any] = {"key": key, "state": state, "attempt": attempt}
        if info:
            fields["info"] = str(info)
        self._emit("cell_state", fields)

    def cell_done(self, key: str, attempt: int) -> None:
        started = self._running_since.pop(key, None)
        fields: Dict[str, Any] = {"key": key, "attempt": attempt}
        if started is not None:
            fields["duration_seconds"] = time.time() - started
        self._emit("cell_done", fields)

    def cell_failed(self, key: str, attempts: int, error: str) -> None:
        self._running_since.pop(key, None)
        self._emit("cell_failed", {"key": key, "attempts": attempts, "error": error})

    def cache_hit(self, key: str, source: str) -> None:
        """*source* is ``memo`` or ``disk``."""
        self._emit("cache_hit", {"key": key, "source": source})

    def quarantine(self, key: str, reason: str) -> None:
        self._emit("quarantine", {"key": key, "reason": reason})

    # -- pool fabric events ---------------------------------------------

    def worker_event(self, action: str, worker_id: int, info: str = "") -> None:
        """A pool-worker lifecycle event (``spawned`` / ``respawned`` /
        ``crashed`` / ``timed_out``); *info* carries the exit code or
        the prefix of the cell key killed at its deadline."""
        fields: Dict[str, Any] = {"action": action, "worker": worker_id}
        if info:
            fields["info"] = str(info)
        self._emit("worker", fields)

    # -------------------------------------------------------------------

    def close(self) -> None:
        if self._stream is not None:
            self._stream.close()
            self._stream = None

    def __repr__(self) -> str:
        return "TelemetryLog(%r, %d events)" % (self.path, self.events_written)
