"""Job persistence and execution for the sweep service.

The service's crash-safety story is file-backed, like the executor's:

* every submitted job is persisted as ``<root>/jobs/<id>.json`` (atomic
  temp-file + rename) the moment it is accepted, and re-persisted on
  every state transition;
* each job's telemetry -- the executor's batch/cell lifecycle events
  (:mod:`repro.exec.telemetry`) bracketed by ``job_started`` /
  ``job_finished`` records -- appends to
  ``<root>/telemetry/<id>.jsonl``, which is also what the streaming
  endpoint tails;
* a finished job's figure result and manifest land in
  ``<root>/results/<id>.json``.

``<root>`` lives under the executor's cache directory, so one
``--cache-dir`` carries the whole state.  A server restarted after a
kill re-enqueues every job it finds in ``queued`` or ``running`` state;
because the job re-runs through the same
:class:`~repro.exec.ExperimentExecutor` with ``resume=True``, the
checkpoint journal and content-addressed cache serve every cell that
completed before the kill, and the resumed result is bit-identical to
an uninterrupted run (the executor's determinism contract).

Jobs execute strictly one at a time: the shared executor's memo,
counters, and per-job option scoping (:meth:`ExperimentExecutor.job_scope`)
are not concurrency-safe, and within a job the executor already fans
cells out across ``--jobs`` worker processes.  Bounded concurrency is
therefore *cell*-level, by design.
"""

from __future__ import annotations

import json
import os
import tempfile
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

from repro.exec import (
    CellExecutionError,
    ResiliencePolicy,
    SweepAborted,
    TelemetryLog,
)
from repro.obs.manifest import executor_provenance
from repro.service.wire import WIRE_SCHEMA, JobSpec, WireError, driver_catalog

#: The job lifecycle.  ``queued`` and ``running`` survive a server kill
#: (both re-enqueue on restart); the other three are terminal.
JOB_STATES = ("queued", "running", "done", "degraded", "failed")


def _atomic_write_json(path: str, payload: Dict[str, Any]) -> None:
    directory = os.path.dirname(path)
    os.makedirs(directory, exist_ok=True)
    fd, temp_path = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as stream:
            json.dump(payload, stream, sort_keys=True)
        os.replace(temp_path, path)
    except BaseException:
        if os.path.exists(temp_path):
            os.unlink(temp_path)
        raise


@dataclass
class Job:
    """One submitted sweep job and everything known about it."""

    id: str
    seq: int
    spec: JobSpec
    state: str = "queued"
    submitted: float = 0.0
    started: Optional[float] = None
    finished: Optional[float] = None
    error: Optional[str] = None
    #: Per-job executor counter deltas (``simulated``, ``cache_hits``,
    #: ``memo_hits``, ``resumed``, ...) -- the proof of where this
    #: job's results came from.
    counters: Dict[str, int] = field(default_factory=dict)
    #: Cells that degraded to missing under ``allow_partial``.
    missing_cells: List[str] = field(default_factory=list)
    #: How many times a restarted server re-enqueued this job.
    resumes: int = 0

    def public(self) -> Dict[str, Any]:
        """The job as every ``/api/jobs`` response renders it."""
        return {
            "schema": WIRE_SCHEMA,
            "id": self.id,
            "figure": self.spec.figure,
            "spec": self.spec.canonical(),
            "spec_sha256": self.spec.digest(),
            "state": self.state,
            "submitted": self.submitted,
            "started": self.started,
            "finished": self.finished,
            "error": self.error,
            "counters": dict(self.counters),
            "missing_cells": list(self.missing_cells),
            "resumes": self.resumes,
        }

    def record(self) -> Dict[str, Any]:
        """The persisted on-disk form (adds the sequence number)."""
        payload = self.public()
        payload["seq"] = self.seq
        return payload

    @classmethod
    def from_record(cls, payload: Dict[str, Any]) -> "Job":
        spec_payload = dict(payload["spec"])
        spec_payload.pop("schema", None)
        workloads = spec_payload.get("workloads")
        spec = JobSpec(
            figure=spec_payload["figure"],
            length=spec_payload.get("length"),
            seed=spec_payload.get("seed", 0),
            workloads=tuple(workloads) if workloads else None,
            check_invariants=spec_payload.get("check_invariants"),
            max_retries=spec_payload.get("max_retries"),
            cell_timeout=spec_payload.get("cell_timeout"),
            allow_partial=bool(spec_payload.get("allow_partial", False)),
        )
        return cls(
            id=payload["id"],
            seq=int(payload["seq"]),
            spec=spec,
            state=payload.get("state", "queued"),
            submitted=float(payload.get("submitted", 0.0)),
            started=payload.get("started"),
            finished=payload.get("finished"),
            error=payload.get("error"),
            counters=dict(payload.get("counters", {})),
            missing_cells=list(payload.get("missing_cells", [])),
            resumes=int(payload.get("resumes", 0)),
        )


class JobStore:
    """File-backed job registry under ``<cache-dir>/service``."""

    def __init__(self, root: str) -> None:
        self.root = root
        self.jobs_dir = os.path.join(root, "jobs")
        self.telemetry_dir = os.path.join(root, "telemetry")
        self.results_dir = os.path.join(root, "results")
        #: In-memory view, id -> Job; the disk copy is for restarts.
        self.jobs: Dict[str, Job] = {}
        self._next_seq = 1
        for job in self._load_from_disk():
            self.jobs[job.id] = job
            self._next_seq = max(self._next_seq, job.seq + 1)

    def _load_from_disk(self) -> List[Job]:
        jobs: List[Job] = []
        try:
            names = sorted(os.listdir(self.jobs_dir))
        except FileNotFoundError:
            return jobs
        for name in names:
            if not name.endswith(".json"):
                continue
            path = os.path.join(self.jobs_dir, name)
            try:
                with open(path) as stream:
                    payload = json.load(stream)
                jobs.append(Job.from_record(payload))
            except (json.JSONDecodeError, KeyError, OSError, ValueError):
                # A torn record from a kill mid-write: the atomic rename
                # makes this near-impossible, but never let one bad file
                # take the service down.
                continue
        return jobs

    # ------------------------------------------------------------------

    def create(self, spec: JobSpec) -> Job:
        seq = self._next_seq
        self._next_seq += 1
        job = Job(
            id="j%04d-%s" % (seq, spec.digest()[:8]),
            seq=seq,
            spec=spec,
            submitted=time.time(),
        )
        self.jobs[job.id] = job
        self.save(job)
        return job

    def save(self, job: Job) -> None:
        _atomic_write_json(
            os.path.join(self.jobs_dir, job.id + ".json"), job.record()
        )

    def get(self, job_id: str) -> Optional[Job]:
        return self.jobs.get(job_id)

    def in_order(self) -> List[Job]:
        """All known jobs, oldest submission first."""
        return sorted(self.jobs.values(), key=lambda job: job.seq)

    def states(self) -> Dict[str, int]:
        counts = {state: 0 for state in JOB_STATES}
        for job in self.jobs.values():
            counts[job.state] = counts.get(job.state, 0) + 1
        return counts

    # ------------------------------------------------------------------

    def telemetry_path(self, job_id: str) -> str:
        os.makedirs(self.telemetry_dir, exist_ok=True)
        return os.path.join(self.telemetry_dir, job_id + ".jsonl")

    def save_result(self, job_id: str, payload: Dict[str, Any]) -> None:
        _atomic_write_json(
            os.path.join(self.results_dir, job_id + ".json"), payload
        )

    def load_result(self, job_id: str) -> Optional[Dict[str, Any]]:
        path = os.path.join(self.results_dir, job_id + ".json")
        try:
            with open(path) as stream:
                payload = json.load(stream)
        except (FileNotFoundError, json.JSONDecodeError, OSError):
            return None
        return payload if isinstance(payload, dict) else None


class JobRunner:
    """Executes one job at a time against the shared executor.

    ``run_job`` is synchronous and runs on the service's worker thread;
    the asyncio side owns queueing and state fan-out.
    """

    def __init__(self, executor: Any, store: JobStore) -> None:
        self.executor = executor
        self.store = store

    def job_manifest(self, job: Job) -> Dict[str, Any]:
        """The provenance block returned with every job's result."""
        from repro import __version__

        return {
            "schema": WIRE_SCHEMA,
            "version": __version__,
            "figure": job.spec.figure,
            "spec": job.spec.canonical(),
            "spec_sha256": job.spec.digest(),
            "counters": dict(job.counters),
            "resumes": job.resumes,
            "executor": {
                field_name: value
                for field_name, value in executor_provenance(self.executor)
            },
        }

    def _job_resilience(self, spec: JobSpec) -> Optional[ResiliencePolicy]:
        if (
            spec.max_retries is None
            and spec.cell_timeout is None
            and not spec.allow_partial
        ):
            return None
        base = self.executor.resilience
        return ResiliencePolicy(
            max_retries=(
                base.max_retries if spec.max_retries is None else spec.max_retries
            ),
            cell_timeout=(
                base.cell_timeout if spec.cell_timeout is None else spec.cell_timeout
            ),
            allow_partial=spec.allow_partial or base.allow_partial,
        )

    def run_job(self, job: Job) -> None:
        """Drive one job to a terminal state, journaling throughout."""
        spec = job.spec
        telemetry = TelemetryLog(self.store.telemetry_path(job.id))
        telemetry.emit(
            "job_started",
            {"job": job.id, "figure": spec.figure, "resumes": job.resumes},
        )
        job.state = "running"
        job.started = time.time()
        self.store.save(job)
        state = job.state

        snapshot = self.executor.counters_snapshot()
        failures_before = len(self.executor.failed_cells)
        invariants = spec.check_invariants
        if invariants is not None:
            invariants = None if invariants == "off" else invariants
            saved_invariants = self.executor.check_invariants
            self.executor.check_invariants = invariants
        try:
            info = driver_catalog()[spec.figure]
            with self.executor.job_scope(
                telemetry=telemetry,
                resilience=self._job_resilience(spec),
                resume=True,
            ):
                result = info.driver(
                    executor=self.executor, **spec.driver_kwargs()
                )
        except (CellExecutionError, SweepAborted, WireError) as exc:
            state = "failed"
            job.error = "%s: %s" % (type(exc).__name__, exc)
        except Exception as exc:  # the service must outlive any one job
            state = "failed"
            job.error = "%s: %s" % (type(exc).__name__, exc)
        else:
            new_failures = self.executor.failed_cells[failures_before:]
            job.missing_cells = [
                failure.key[:12] for failure in new_failures
            ]
            state = "degraded" if new_failures else "done"
            job.counters = self.executor.counters_since(snapshot)
            self.store.save_result(
                job.id,
                {
                    "schema": WIRE_SCHEMA,
                    "job": job.id,
                    "figure": spec.figure,
                    "result": result,
                    "manifest": self.job_manifest(job),
                },
            )
        finally:
            if spec.check_invariants is not None:
                self.executor.check_invariants = saved_invariants
            job.counters = job.counters or self.executor.counters_since(snapshot)
            job.finished = time.time()
            telemetry.emit(
                "job_finished",
                {
                    "job": job.id,
                    "state": state,
                    "counters": dict(job.counters),
                    "error": job.error,
                },
            )
            telemetry.close()
            # Publish the terminal state last: a client that sees it can
            # already fetch the result and every event of the job.
            job.state = state
            self.store.save(job)
