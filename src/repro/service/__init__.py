"""Simulation-as-a-service: the sweep service (``repro serve``).

This package wraps the :class:`~repro.exec.ExperimentExecutor` in an
asyncio/stdlib HTTP API so many concurrent clients share one warm
content-addressed cache.  The measured warm-cache speedups
(~150-230x on the CI figures, ``docs/performance.md``) mean a shared
cache turns most sweep traffic into pure cache serving: the first
client to ask for a figure pays for its cells, every later client --
and every later *overlapping* figure -- gets them back at disk-read
cost.

Layering (``docs/service.md`` is the user guide):

* :mod:`repro.service.wire` -- job-spec and response schemas, strict
  validation, the figure/ablation catalog;
* :mod:`repro.service.jobs` -- the file-backed job store under
  ``<cache-dir>/service`` and the runner that drives one job at a time
  through the shared executor (``resume=True``, per-job telemetry and
  option scoping);
* :mod:`repro.service.app` -- the HTTP server itself: the route table,
  handlers, chunked JSONL event streaming, and startup recovery of
  jobs a killed server left behind;
* :mod:`repro.service.client` -- a typed blocking client for tests,
  CI, and scripts.

Crash safety is inherited, not reinvented: jobs re-enqueued after a
kill resume through the executor's checkpoint journals
(``docs/resilience.md``) with zero re-simulation of completed cells,
and resumed results are bit-identical to uninterrupted ones.
"""

from repro.service.app import ROUTES, Route, SweepService, match_route
from repro.service.client import JobView, ServiceClient, ServiceError
from repro.service.jobs import JOB_STATES, Job, JobRunner, JobStore
from repro.service.wire import (
    WIRE_SCHEMA,
    JobSpec,
    WireError,
    driver_catalog,
    parse_job_spec,
)

import os
from typing import Optional


def service_root(cache_dir: str) -> str:
    """Where the service keeps jobs/telemetry/results under a cache."""
    return os.path.join(cache_dir, "service")


def build_service(
    cache_dir: Optional[str] = None,
    workers: int = 1,
    check_invariants: Optional[str] = None,
    max_retries: int = 2,
    cell_timeout: Optional[float] = None,
    heartbeat_timeout: float = 10.0,
    allow_partial: bool = False,
    faults: Optional[str] = None,
) -> SweepService:
    """One call from CLI flags (or test kwargs) to a ready service.

    ``workers`` sizes the persistent pool each job's cells fan out
    across.  The executor is created with ``resume=True`` --
    the service always trusts checkpoint journals, which is exactly
    what makes a restarted server pick a killed sweep back up where it
    stopped.
    """
    from repro.exec import (
        ExperimentExecutor,
        FaultSpec,
        ResiliencePolicy,
        ResultCache,
        default_cache_dir,
    )

    root = cache_dir or default_cache_dir()
    executor = ExperimentExecutor(
        workers=workers,
        cache=ResultCache(root),
        resilience=ResiliencePolicy(
            max_retries=max_retries,
            cell_timeout=cell_timeout,
            heartbeat_timeout=heartbeat_timeout,
            allow_partial=allow_partial,
        ),
        faults=FaultSpec.parse(faults) if faults else None,
        resume=True,
        check_invariants=(
            None if check_invariants in (None, "off") else check_invariants
        ),
    )
    store = JobStore(service_root(root))
    return SweepService(JobRunner(executor, store))


__all__ = [
    "JOB_STATES",
    "Job",
    "JobRunner",
    "JobSpec",
    "JobStore",
    "JobView",
    "ROUTES",
    "Route",
    "ServiceClient",
    "ServiceError",
    "SweepService",
    "WIRE_SCHEMA",
    "WireError",
    "build_service",
    "driver_catalog",
    "match_route",
    "parse_job_spec",
    "service_root",
]
