"""Content-addressed store for results and generated traces.

Layout under the cache root::

    results/<aa>/<key>.json         serialized SimulationResult payloads
    traces/<aa>/<key>.trace         traceio-format generated traces
    quarantine/<aa>/<key>.<why>.json   corrupt/stale entries, moved aside

``<key>`` is the SHA-256 identity from :mod:`repro.exec.cells`; ``<aa>``
is its first two hex digits (fan-out so directories stay small).  Keys
embed the config hash, trace identity, package version, and payload
schema, so invalidation is purely structural: a stale entry is simply
never addressed again.  Writes are atomic (unique temp file + rename),
which makes concurrent writers -- pool workers or parallel CI jobs
sharing a cache directory -- safe: last rename wins and every version is
identical by construction.
"""

from __future__ import annotations

import enum
import json
import os
import tempfile
from typing import Any, Callable, Dict, Optional, Tuple, Union

from repro.exec.cells import trace_key
from repro.sim.trace import Trace
from repro.sim.traceio import load_trace, save_trace


def atomic_write(path: str, write_fn: Callable[[str], object]) -> None:
    """Write *path* through *write_fn* into a unique temp file, then
    rename it into place (the atomic write the module docstring
    describes)."""
    directory = os.path.dirname(path)
    os.makedirs(directory, exist_ok=True)
    fd, temp_path = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        os.close(fd)
        write_fn(temp_path)
        os.replace(temp_path, path)
    except BaseException:
        if os.path.exists(temp_path):
            os.unlink(temp_path)
        raise


class QuarantineReason(str, enum.Enum):
    """Why an entry was moved aside.  A ``str`` subclass so existing
    callers (and quarantine filenames) keep working with plain strings;
    the closed set lets ``repro stats`` report quarantine causes instead
    of parsing free-form text.
    """

    #: The entry was torn, unreadable, or not a JSON object.
    CORRUPT = "corrupt"
    #: The entry predates the current payload schema.
    STALE_SCHEMA = "stale-schema"
    #: The cell's simulation failed an online invariant audit.
    INVARIANT_VIOLATION = "invariant-violation"
    #: The cell's last attempt killed its pool worker (evidence records
    #: the exit code and the attempt count).
    POISON_CELL = "poison-cell"


def default_cache_dir() -> str:
    """``$REPRO_CACHE_DIR`` or ``~/.cache/repro-tempo``."""
    configured = os.environ.get("REPRO_CACHE_DIR")
    if configured:
        return configured
    return os.path.join(os.path.expanduser("~"), ".cache", "repro-tempo")


class ResultCache:
    """Persistent result + trace store, addressed by content hash."""

    def __init__(self, root: Optional[str] = None) -> None:
        self.root = root if root is not None else default_cache_dir()

    def _trace_path(self, key: str) -> str:
        return os.path.join(self.root, "traces", key[:2], key + ".trace")

    # -- results -------------------------------------------------------

    def result_path(self, key: str) -> str:
        """Where *key*'s result entry lives (the fault harness and tests
        garble entries in place through it)."""
        return os.path.join(self.root, "results", key[:2], key + ".json")

    def get(self, key: str) -> Optional[Dict[str, Any]]:
        """Return the stored payload dict for *key*, or ``None``."""
        return self.get_entry(key)[0]

    def get_entry(self, key: str) -> Tuple[Optional[Dict[str, Any]], str]:
        """Return ``(payload, status)`` for *key*.

        ``status`` is ``"hit"`` (payload is a dict), ``"miss"`` (no
        entry), or ``"corrupt"`` (an entry exists but is torn,
        unreadable, or not a JSON object).  Corrupt entries are what the
        executor's quarantine path moves aside and re-simulates; for
        plain :meth:`get` callers they are simply a miss.
        """
        try:
            with open(self.result_path(key)) as stream:
                payload = json.load(stream)
        except FileNotFoundError:
            return None, "miss"
        except (json.JSONDecodeError, OSError):
            return None, "corrupt"
        if not isinstance(payload, dict):
            return None, "corrupt"
        return payload, "hit"

    def quarantine(
        self, key: str, reason: Union[QuarantineReason, str]
    ) -> Optional[str]:
        """Move *key*'s result entry aside -- never delete evidence.

        The entry lands in ``quarantine/<aa>/`` with *reason* (a
        :class:`QuarantineReason` or plain string) embedded in the
        filename, so a bad batch of entries can be inspected after the
        fact.  Returns the new path, or ``None`` when there was nothing
        to move.
        """
        # Normalized explicitly: 3.9's %-format renders a str-enum as
        # "QuarantineReason.CORRUPT" rather than its value.
        label = getattr(reason, "value", reason)
        path = self.result_path(key)
        if not os.path.exists(path):
            return None
        dest_dir = os.path.join(self.root, "quarantine", key[:2])
        os.makedirs(dest_dir, exist_ok=True)
        dest = os.path.join(dest_dir, "%s.%s.json" % (key, label))
        serial = 0
        while os.path.exists(dest):
            serial += 1
            dest = os.path.join(dest_dir, "%s.%s.%d.json" % (key, label, serial))
        os.replace(path, dest)
        return dest

    def quarantine_record(
        self,
        key: str,
        reason: Union[QuarantineReason, str],
        evidence: Dict[str, Any],
    ) -> str:
        """Write a quarantine *evidence* record for a cell that has no
        cache entry to move -- e.g. an invariant violation or a worker
        crash caught before the result was ever cached.  Returns the
        evidence path.
        """
        label = getattr(reason, "value", reason)
        dest_dir = os.path.join(self.root, "quarantine", key[:2])
        dest = os.path.join(dest_dir, "%s.%s.evidence.json" % (key, label))

        def write(temp_path: str) -> None:
            with open(temp_path, "w") as stream:
                json.dump(evidence, stream, sort_keys=True, default=repr)

        atomic_write(dest, write)
        return dest

    def put(self, key: str, payload: Dict[str, Any]) -> None:
        """Persist *payload* (a JSON-able dict) under *key*."""

        def write(temp_path: str) -> None:
            with open(temp_path, "w") as stream:
                json.dump(payload, stream, sort_keys=True)

        atomic_write(self.result_path(key), write)

    # -- traces --------------------------------------------------------

    def get_trace(self, name: str, length: int, seed: int) -> Optional[Trace]:
        """Load a previously persisted generated trace, or ``None``."""
        path = self._trace_path(trace_key(name, length, seed))
        if not os.path.exists(path):
            return None
        try:
            return load_trace(path)
        except Exception:
            return None

    def put_trace(self, trace: Trace, length: int, seed: int) -> None:
        """Persist a generated trace for later runs."""
        atomic_write(
            self._trace_path(trace_key(trace.name, length, seed)),
            lambda temp_path: save_trace(trace, temp_path),
        )

    def __repr__(self) -> str:
        return "ResultCache(%r)" % self.root
