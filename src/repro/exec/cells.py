"""Simulation cells: the unit of work the experiment executor schedules.

Every figure driver decomposes into independent *cells*.  A cell is one
complete ``SystemSimulator`` run -- a workload mix (one name for
single-core runs, several for multiprogrammed ones), a trace length, a
seed, and a full :class:`~repro.common.config.SystemConfig`.  Cells are
pure: the same cell always produces bit-identical results, which is what
makes both the process-pool fan-out and the content-addressed cache
sound.

The cache key hashes everything a result depends on:

* the config snapshot's SHA-256 (:func:`repro.obs.manifest.config_hash`,
  the same hash the run manifest records),
* the trace identity -- ``(workload, length, seed)`` per core; trace
  generation is deterministic in those three,
* the package version (generator or simulator changes invalidate
  everything), and
* a payload schema version for the serialized-result format itself.

The same keys double as the resilience layer's identities: the fault
harness (:mod:`repro.exec.faults`) seeds its per-cell RNG from the key,
so fault injection inherits the cache's exact notion of "the same run".
"""

from __future__ import annotations

import hashlib
import json
from typing import Any, Dict, Optional, Sequence, Union

from repro.common.config import SystemConfig
from repro.common.errors import ConfigError
from repro.obs.manifest import config_hash

#: Bump when the serialized result payload format changes; old cache
#: entries become unreachable rather than misread.  Schema 2: the
#: exported stats namespace grew (scheduler, row-policy, prefetch
#: engine, frame-allocator, and page-table groups are now registered).
#: Schema 3: the ``manifest.kernel`` stat is gone with the batch kernel.
#: Schema 4: sub-row cells export ``dram.bank.*`` (their banks' group is
#: now registered).
PAYLOAD_SCHEMA = 4


def _package_version() -> str:
    # Imported lazily: repro/__init__ pulls in the sim stack.
    from repro import __version__

    return __version__


class SimCell:
    """One schedulable simulation: ``(workloads, length, seed, config)``."""

    __slots__ = ("workloads", "length", "seed", "config", "_key")

    def __init__(self, workloads: Union[str, Sequence[str]], config: SystemConfig, length: int, seed: int = 0) -> None:
        if isinstance(workloads, str):
            workloads = (workloads,)
        else:
            workloads = tuple(workloads)
        if not workloads:
            raise ConfigError(
                "a cell needs at least one workload",
                context={"length": length, "seed": seed},
            )
        if not isinstance(config, SystemConfig):
            raise ConfigError(
                "cell config must be a SystemConfig",
                context={
                    "config_type": type(config).__name__,
                    "workloads": list(workloads),
                },
            )
        # The simulator would adjust num_cores itself; normalizing here
        # keeps the cache key canonical (a 4-core config running one
        # trace is the same run as its 1-core projection).
        if config.num_cores != len(workloads):
            config = config.copy_with(num_cores=len(workloads))
        self.workloads = workloads
        self.config = config
        self.length = length
        self.seed = seed
        self._key: Optional[str] = None

    def identity(self) -> Dict[str, Any]:
        """The JSON-stable identity dict the cache key hashes."""
        return {
            "schema": PAYLOAD_SCHEMA,
            "package_version": _package_version(),
            "config_sha256": config_hash(self.config),
            "traces": [
                {"workload": name, "length": self.length, "seed": self.seed}
                for name in self.workloads
            ],
            "seed": self.seed,
        }

    def key(self) -> str:
        """Content-addressed cache key (SHA-256 hex digest)."""
        if self._key is None:
            canonical = json.dumps(self.identity(), sort_keys=True)
            self._key = hashlib.sha256(canonical.encode("utf-8")).hexdigest()
        return self._key

    def __repr__(self) -> str:
        return "SimCell(%s, length=%d, seed=%d, cfg=%s)" % (
            "+".join(self.workloads),
            self.length,
            self.seed,
            config_hash(self.config)[:12],
        )


def trace_key(name: str, length: int, seed: int) -> str:
    """Content address for one generated trace (generator changes are
    covered by the package version)."""
    canonical = json.dumps(
        {
            "workload": name,
            "length": length,
            "seed": seed,
            "package_version": _package_version(),
        },
        sort_keys=True,
    )
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()
