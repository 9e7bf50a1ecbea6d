"""Run provenance: what exactly produced a result.

Every :class:`~repro.sim.metrics.SimulationResult` carries a
:class:`RunManifest` describing the run well enough to reproduce it (or
to notice you cannot): the full config snapshot and its SHA-256 hash,
the seed, the identity of every trace, the package version and the
measured wall-clock timings.  ``flat()`` projects the scalar fields into
the unified metrics namespace under ``manifest.``.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import platform
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple


def config_snapshot(config: Any) -> Dict[str, Any]:
    """A plain-dict snapshot of a (dataclass) SystemConfig."""
    return dataclasses.asdict(config)


def config_hash(config: Any) -> str:
    """SHA-256 over the canonical JSON of the config snapshot."""
    canonical = json.dumps(config_snapshot(config), sort_keys=True)
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


#: The stats keys :meth:`RunManifest.flat` gives the wall-clock timings.
_TIMING_PREFIX = "manifest.timing."


def without_timing(stats: Mapping[str, Any]) -> Dict[str, Any]:
    """*stats* minus the ``manifest.timing.*`` keys: host wall-clock, the
    one part of a result that differs between two runs of the same
    cell.  What is left must be bit-identical."""
    return {
        key: value
        for key, value in stats.items()
        if not key.startswith(_TIMING_PREFIX)
    }


def executor_provenance(executor: Any) -> List[Tuple[str, str]]:
    """``(field, value)`` provenance rows for an
    :class:`~repro.exec.ExperimentExecutor`: where every result came
    from, what the resilience layer had to absorb to get there, and --
    when a sweep was allowed to degrade -- exactly which cells are
    missing.  The report renders these under its Provenance section.
    """
    rows: List[Tuple[str, str]] = list(executor.counter_rows())
    rows[0] = (rows[0][0], "workers=%d; %s" % (executor.workers, rows[0][1]))
    telemetry = getattr(executor, "telemetry", None)
    if telemetry is not None:
        rows.append(
            (
                "telemetry",
                "%d events -> `%s`" % (telemetry.events_written, telemetry.path),
            )
        )
    failed = list(getattr(executor, "failed_cells", ()))
    if failed:
        rows.append(
            (
                "degraded",
                "missing cells: "
                + ", ".join(
                    "%s (`%s`)" % (failure.workloads, failure.key[:12])
                    for failure in failed
                ),
            )
        )
    return rows


class RunManifest:
    """Provenance record for one simulation run."""

    __slots__ = (
        "config",
        "config_sha256",
        "seed",
        "num_cores",
        "traces",
        "warmup_records",
        "package_version",
        "python_version",
        "timings",
        "audit",
    )

    def __init__(self, config: Any, seed: int, traces: Sequence[Any], warmup_records: Optional[int] = None, timings: Optional[Mapping[str, float]] = None) -> None:
        # Imported here: repro/__init__ imports the sim stack which may
        # import us; reaching for the version lazily avoids the cycle.
        from repro import __version__

        self.config = config_snapshot(config)
        self.config_sha256 = config_hash(config)
        self.seed = seed
        self.num_cores = len(traces)
        self.traces: List[Dict[str, Any]] = [
            {
                "name": trace.name,
                "records": len(trace.records),
                "footprint_bytes": trace.footprint_bytes,
            }
            for trace in traces
        ]
        self.warmup_records = warmup_records
        self.package_version = __version__
        self.python_version = platform.python_version()
        #: Wall-clock phase timings + throughput, filled in by the
        #: simulator's profiler after the run.
        self.timings: Dict[str, float] = dict(timings) if timings else {}
        #: Invariant-audit summary (mode, checkpoints, violations,
        #: flight-recorder stats), filled in when ``--check-invariants``
        #: is on.  Exported by :meth:`as_dict` but deliberately *not* by
        #: :meth:`flat`: the flat projection merges into the stats
        #: namespace, which must stay bit-identical between audited and
        #: unaudited runs.
        self.audit: Optional[Dict[str, Any]] = None

    def as_dict(self) -> Dict[str, Any]:
        """Full nested manifest (JSON-serialisable)."""
        info = {
            "config": self.config,
            "config_sha256": self.config_sha256,
            "seed": self.seed,
            "num_cores": self.num_cores,
            "traces": self.traces,
            "warmup_records": self.warmup_records,
            "package_version": self.package_version,
            "python_version": self.python_version,
            "timings": self.timings,
        }
        if self.audit is not None:
            info["audit"] = self.audit
        return info

    def flat(self) -> Dict[str, Any]:
        """Scalar projection for the unified metrics namespace."""
        flat: Dict[str, Any] = {
            "manifest.config_sha256": self.config_sha256,
            "manifest.seed": self.seed,
            "manifest.num_cores": self.num_cores,
            "manifest.package_version": self.package_version,
            "manifest.python_version": self.python_version,
            "manifest.workloads": "+".join(t["name"] for t in self.traces),
            "manifest.trace_records": sum(t["records"] for t in self.traces),
        }
        if self.warmup_records is not None:
            flat["manifest.warmup_records"] = self.warmup_records
        for name, value in self.timings.items():
            flat[_TIMING_PREFIX + name] = value
        return flat

    def to_json(self, indent: int = 2) -> str:
        return json.dumps(self.as_dict(), indent=indent, sort_keys=True)

    def __repr__(self) -> str:
        return "RunManifest(%s, seed=%d, cfg=%s)" % (
            "+".join(t["name"] for t in self.traces),
            self.seed,
            self.config_sha256[:12],
        )
