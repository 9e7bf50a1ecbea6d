"""Parallel experiment execution with content-addressed caching.

The evaluation suite decomposes every figure driver into independent
simulation *cells*; this package schedules them -- across
``multiprocessing`` workers, through an on-disk result/trace cache, and
back together in driver order.  See ``docs/performance.md`` for the
architecture and the cache-key derivation.
"""

from repro.exec.cache import QuarantineReason, ResultCache, default_cache_dir
from repro.exec.cells import PAYLOAD_SCHEMA, SimCell, trace_key
from repro.exec.executor import ExperimentExecutor, simulate_cell
from repro.exec.faults import FaultPlan, FaultSpec, InjectedFault
from repro.exec.pool import WorkerContext, execute_pooled
from repro.exec.resilience import (
    CellExecutionError,
    CellFailure,
    ResiliencePolicy,
    SweepAborted,
    missing_cell_payload,
)
from repro.exec.serialize import payload_to_result, result_to_payload
from repro.exec.telemetry import TelemetryLog

__all__ = [
    "CellExecutionError",
    "CellFailure",
    "ExperimentExecutor",
    "FaultPlan",
    "FaultSpec",
    "InjectedFault",
    "PAYLOAD_SCHEMA",
    "QuarantineReason",
    "ResiliencePolicy",
    "ResultCache",
    "SimCell",
    "SweepAborted",
    "TelemetryLog",
    "WorkerContext",
    "default_cache_dir",
    "execute_pooled",
    "missing_cell_payload",
    "payload_to_result",
    "result_to_payload",
    "simulate_cell",
    "trace_key",
]
