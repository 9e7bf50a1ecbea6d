"""The parallel, fault-tolerant experiment executor.

``ExperimentExecutor.run_cells`` takes an ordered list of
:class:`~repro.exec.cells.SimCell` and returns the matching
:class:`~repro.sim.metrics.SimulationResult` list *in that order*, no
matter where each result came from:

1. the in-process memo (same cell earlier this invocation -- this is
   what lets ``repro report`` never simulate a cell twice even with the
   disk cache disabled),
2. the content-addressed disk cache (same cell in any earlier
   invocation on this machine), or
3. a fresh simulation -- inline when nothing requires process
   isolation, otherwise on the supervised persistent worker pool
   (``workers`` long-lived processes pulling cells from a shared
   queue, :mod:`repro.exec.pool`) through
   :func:`repro.exec.resilience.execute_resilient`.

Fault tolerance (see ``docs/resilience.md`` and
``docs/distribution.md``): every completed cell lands in the result
cache as it finishes, so running an interrupted sweep again
re-simulates nothing that completed.  Failing cells are retried per the
:class:`~repro.exec.resilience.ResiliencePolicy` (a pooled attempt past
its deadline is killed; a crashed worker is respawned and its claim
requeued; a cell whose last attempt still crashes its worker leaves an
evidence record); corrupt or schema-stale cache entries are quarantined
-- moved aside, never deleted -- and re-simulated; and with
``allow_partial`` a cell that exhausts its retries degrades to an
explicitly-marked missing payload (recorded in
:attr:`ExperimentExecutor.failed_cells`) instead of aborting the
campaign.

Determinism: cells carry their own seed and every simulation derives all
randomness from it (:mod:`repro.common.rng`), so scheduling order,
retries, and re-runs cannot leak into results -- an interrupted, re-run,
parallel run is bit-identical to a serial uncached one.
"""

import os

from typing import Optional, Union

from repro.exec.cache import QuarantineReason, ResultCache
from repro.exec.cells import PAYLOAD_SCHEMA, SimCell
from repro.exec.faults import FaultPlan, FaultSpec
from repro.exec.pool import WORKER_CRASHED, WorkerContext
from repro.exec.resilience import (
    CellExecutionError,
    ResiliencePolicy,
    execute_resilient,
    missing_cell_payload,
)
from repro.exec.serialize import payload_to_result, result_to_payload
from repro.exec.telemetry import TelemetryLog


def simulate_cell(cell, cache=None, trace_memo=None, check_invariants=None):
    """Run one cell to completion and return its payload dict.

    *cache* (a :class:`~repro.exec.cache.ResultCache`) supplies and
    receives persisted traces; *trace_memo* is an optional in-process
    ``(name, length, seed) -> Trace`` memo for serial execution;
    *check_invariants* (``off``/``sample``/``full``) arms the online
    audit suite for the run.
    """
    # Imported here so pool workers pay the import once per process and
    # the module stays importable without the full sim stack.
    from repro.sim.system import SystemSimulator
    from repro.workloads.registry import make_trace

    traces = []
    for name in cell.workloads:
        memo_key = (name, cell.length, cell.seed)
        trace = trace_memo.get(memo_key) if trace_memo is not None else None
        if trace is None and cache is not None:
            trace = cache.get_trace(name, cell.length, cell.seed)
        if trace is None:
            trace = make_trace(name, length=cell.length, seed=cell.seed)
            if cache is not None:
                cache.put_trace(trace, cell.length, cell.seed)
        if trace_memo is not None:
            trace_memo[memo_key] = trace
        traces.append(trace)
    result = SystemSimulator(
        cell.config,
        traces,
        seed=cell.seed,
        check_invariants=check_invariants,
    ).run()
    return result_to_payload(result)


#: How the executor's counters render, shared by
#: :meth:`ExperimentExecutor.summary` and the report's provenance rows
#: (:func:`repro.obs.manifest.executor_provenance`): ``(section,
#: ((counter, label), ...))`` in display order.  The first section always
#: renders in full; each later one only when one of its counters is
#: nonzero, and then only its nonzero counters.
COUNTER_TABLE = (
    (
        "executor",
        (
            ("simulated", "simulated"),
            ("cache_hits", "from cache"),
            ("memo_hits", "memoized"),
            ("deduped", "deduplicated"),
        ),
    ),
    (
        "resilience",
        (
            ("retries", "retried"),
            ("timeouts", "timed out"),
            ("crashes", "crashed"),
            ("quarantined", "quarantined"),
            ("failed", "failed"),
        ),
    ),
    (
        "pool",
        (
            ("workers_spawned", "spawned"),
            ("workers_respawned", "respawned"),
        ),
    ),
    (
        "execution",
        (
            ("inline_batches", "inline"),
            ("pooled_batches", "pooled"),
        ),
    ),
)


class ExperimentExecutor:
    """Schedules cells across the worker pool, through the cache, in
    order.  ``workers`` is the pool size."""

    def __init__(
        self,
        workers: int = 1,
        cache: Optional[ResultCache] = None,
        resilience: Optional[ResiliencePolicy] = None,
        faults: Optional[Union[FaultSpec, FaultPlan]] = None,
        check_invariants: Optional[str] = None,
        telemetry: Optional[TelemetryLog] = None,
    ) -> None:
        if workers < 1:
            raise ValueError("workers must be >= 1")
        #: Pool size: how many persistent worker processes a batch that
        #: needs process isolation fans out across.
        self.workers = workers
        #: Optional :class:`~repro.exec.telemetry.TelemetryLog`: every
        #: batch/cell lifecycle event is appended to its JSONL file.
        self.telemetry = telemetry
        #: ``off``/``sample``/``full``: forwarded to every simulation
        #: this executor runs (inline and worker-process alike).
        self.check_invariants = check_invariants
        #: Optional :class:`~repro.exec.cache.ResultCache`; ``None``
        #: keeps everything in-process (the memo still deduplicates).
        self.cache = cache
        #: :class:`~repro.exec.resilience.ResiliencePolicy` governing
        #: retries, timeouts, and partial-result degradation.
        self.resilience = resilience if resilience is not None else ResiliencePolicy()
        #: Optional fault injection: a :class:`~repro.exec.faults.FaultSpec`
        #: (materialized per batch) or a concrete ``FaultPlan``.
        self.faults = faults
        #: Terminal :class:`~repro.exec.resilience.CellFailure` records
        #: (only under ``allow_partial``; otherwise the batch raises).
        self.failed_cells = []
        self._memo = {}
        self._trace_memo = {}
        #: Cumulative tallies, every one rendered through
        #: :data:`COUNTER_TABLE`: where results came from, what the
        #: resilience layer absorbed, the pool's worker lifecycle, and
        #: how many batches ran inline or pooled.
        self.counters = {
            name: 0 for _, fields in COUNTER_TABLE for name, _ in fields
        }
        #: Per-cause quarantine tally (``corrupt`` / ``stale-schema`` /
        #: ``invariant-violation`` / ``poison-cell``), surfaced by
        #: :meth:`summary` and the report's provenance section.
        self.quarantine_reasons = {}

    # ------------------------------------------------------------------

    def run_cell(self, cell):
        """Convenience wrapper: one cell, one result."""
        return self.run_cells([cell])[0]

    def run_cells(self, cells):
        """Resolve every cell; returns results in input order."""
        cells = list(cells)
        keys = [cell.key() for cell in cells]

        unique = {}
        for cell, key in zip(cells, keys):
            unique.setdefault(key, cell)
        self.counters["deduped"] += len(cells) - len(unique)
        if self.telemetry is not None:
            self.telemetry.batch_start(len(cells), len(unique))

        plan = self._materialize_faults(unique)
        self._inject_corruption(plan)

        try:
            resolved = {}
            pending = {}
            for key, cell in unique.items():
                payload = self._resolve_cached(key)
                if payload is not None:
                    resolved[key] = payload
                    continue
                pending[key] = cell

            if pending:
                self._execute(pending, resolved, plan)
        finally:
            if self.telemetry is not None:
                self.telemetry.batch_finish(self.counters)

        return [payload_to_result(resolved[key]) for key in keys]

    def _resolve_cached(self, key):
        """Try the memo, then the disk cache (quarantining bad entries).

        Returns the payload or ``None`` when the cell must simulate.
        """
        payload = self._memo.get(key)
        if payload is not None:
            self.counters["memo_hits"] += 1
            if self.telemetry is not None:
                self.telemetry.cache_hit(key, "memo")
            return payload
        if self.cache is None:
            return None
        payload, status = self.cache.get_entry(key)
        if status == "corrupt":
            self._quarantine(key, QuarantineReason.CORRUPT)
            return None
        if payload is None:
            return None
        if payload.get("schema") != PAYLOAD_SCHEMA:
            self._quarantine(key, QuarantineReason.STALE_SCHEMA)
            return None
        self.counters["cache_hits"] += 1
        if self.telemetry is not None:
            self.telemetry.cache_hit(key, "disk")
        self._memo[key] = payload
        return payload

    def _quarantine(self, key, reason, evidence=None):
        """Move the entry aside (or write an evidence record when there
        is nothing to move) and tally the cause."""
        moved = self.cache.quarantine(key, reason)
        if moved is None and evidence is not None:
            self.cache.quarantine_record(key, reason, evidence)
        self.counters["quarantined"] += 1
        label = getattr(reason, "value", reason)
        self.quarantine_reasons[label] = self.quarantine_reasons.get(label, 0) + 1
        if self.telemetry is not None:
            self.telemetry.quarantine(key, label)

    def _execute(self, pending, resolved, plan):
        """Drive the missing cells through the resilient scheduler.

        Completed payloads land in the memo and the disk cache *as they
        finish*, so an abort mid-batch never loses finished work.
        """
        failures = []
        telemetry = self.telemetry

        def on_state(key, state, attempt, info):
            if telemetry is not None:
                telemetry.cell_state(key, state, attempt, info)

        def on_done(key, payload, attempt):
            self.counters["simulated"] += 1
            self._memo[key] = payload
            resolved[key] = payload
            # Persist first, announce second: a consumer acting on
            # ``cell_done`` (a re-run after a kill) must find it durable.
            if self.cache is not None:
                self.cache.put(key, payload)
            if telemetry is not None:
                telemetry.cell_done(key, attempt)

        def on_failed(failure):
            failures.append(failure)
            if telemetry is not None:
                telemetry.cell_failed(failure.key, failure.attempts, failure.error)
            if self.cache is None:
                return
            evidence = {
                "key": failure.key,
                "error": failure.error,
                "attempts": failure.attempts,
            }
            if failure.error.startswith("InvariantViolation"):
                # The violating run's result must never be trusted: move
                # any cached entry aside and leave an evidence record.
                self._quarantine(
                    failure.key, QuarantineReason.INVARIANT_VIOLATION, evidence
                )
            elif failure.error.startswith(WORKER_CRASHED):
                # Its last attempt killed a pool worker: keep the exit
                # code and attempt count past the run.
                evidence["workloads"] = failure.workloads
                self._quarantine(failure.key, QuarantineReason.POISON_CELL, evidence)

        def run_inline(cell):
            return simulate_cell(
                cell,
                self.cache,
                self._trace_memo,
                check_invariants=self.check_invariants,
            )

        def on_worker(action, worker_id, info):
            if telemetry is not None:
                telemetry.worker_event(action, worker_id, info)

        worker_context = WorkerContext(
            cache_root=self.cache.root if self.cache is not None else None,
            check_invariants=self.check_invariants,
        )

        execute_resilient(
            pending,
            counters=self.counters,
            workers=self.workers,
            policy=self.resilience,
            plan=plan,
            run_inline=run_inline,
            worker_context=worker_context,
            on_state=on_state,
            on_done=on_done,
            on_failed=on_failed,
            on_worker=on_worker,
        )

        if failures:
            self.failed_cells.extend(failures)
            self.counters["failed"] += len(failures)
            if not self.resilience.allow_partial:
                raise CellExecutionError(
                    failures,
                    context={
                        "failed_keys": [f.key[:12] for f in failures],
                        "attempts": {f.key[:12]: f.attempts for f in failures},
                    },
                )
            for failure in failures:
                # Degraded stand-in: never memoized or cached, so a
                # later run retries the cell for real.
                resolved[failure.key] = missing_cell_payload(pending[failure.key])

    # ------------------------------------------------------------------

    def _materialize_faults(self, unique):
        """Resolve ``self.faults`` to a concrete plan for this batch."""
        if self.faults is None:
            return None
        if isinstance(self.faults, FaultPlan):
            return self.faults
        if isinstance(self.faults, FaultSpec):
            return self.faults.materialize(list(unique))
        raise TypeError("faults must be a FaultSpec or FaultPlan")

    def _inject_corruption(self, plan):
        """Garble the cache entries a fault plan marks for corruption
        (the harness half of the quarantine test path)."""
        if plan is None or self.cache is None:
            return
        for key in plan.corrupt:
            path = self.cache.result_path(key)
            if os.path.exists(path):
                with open(path, "w") as stream:
                    stream.write("{ this is not json")

    # ------------------------------------------------------------------

    def counter_rows(self):
        """``(section, text)`` rows of :data:`COUNTER_TABLE`, then the
        per-cause quarantine tally, for every section that renders."""
        rows = []
        for index, (section, fields) in enumerate(COUNTER_TABLE):
            shown = [
                "%d %s" % (self.counters[name], label)
                for name, label in fields
                if index == 0 or self.counters[name]
            ]
            if shown:
                rows.append((section, ", ".join(shown)))
        if self.quarantine_reasons:
            rows.append(
                (
                    "quarantine",
                    ", ".join(
                        "%d %s" % (count, reason)
                        for reason, count in sorted(self.quarantine_reasons.items())
                    ),
                )
            )
        return rows

    def summary(self):
        """One status line: where this executor's results came from."""
        return "; ".join("%s: %s" % row for row in self.counter_rows())

    def __repr__(self):
        return "ExperimentExecutor(workers=%d, cache=%r)" % (
            self.workers,
            self.cache,
        )
