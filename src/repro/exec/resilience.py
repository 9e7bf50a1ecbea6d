"""Fault tolerance for the experiment executor.

Large sweeps run thousands of cells; a single hung workload, crashed
worker, or corrupted cache entry must cost one cell, not the campaign.
This module wraps cell execution in three mechanisms (the executor wires
them together; ``docs/resilience.md`` is the user-facing story):

* :class:`ResiliencePolicy` -- the one retry budget, the per-cell
  timeout, and the ``allow_partial`` switch that turns exhausted
  retries into explicitly-missing cells instead of an aborted sweep.
* :func:`execute_resilient` -- the scheduler facade.  Inline when
  nothing requires a process boundary; otherwise the batch runs on the
  supervised persistent worker pool (:mod:`repro.exec.pool`), which is
  what makes kill-on-deadline and crashed-worker detection and respawn
  possible at all.
* :func:`missing_cell_payload` -- the schema-correct zeroed payload a
  permanently-failed cell degrades to under ``allow_partial``; every
  breakdown reads 0 and ``stats["missing_cell"]`` marks it.

An interrupted sweep needs no mechanism of its own: every completed
cell is already in the content-addressed result cache, so running the
same sweep again re-simulates only what did not finish.

Determinism: cells are pure functions of their identity, so no retry,
timeout, re-queue, or re-run can change a result -- an interrupted and
re-run sweep is bit-identical to an uninterrupted one (enforced by
``tests/test_resilience.py``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Callable, Dict, Mapping, Optional, Sequence

from repro.common.errors import InvariantViolation, ReproError
from repro.exec.cells import SimCell
from repro.exec.faults import FaultPlan
from repro.exec.serialize import result_to_payload
from repro.sim.metrics import (
    CoreResult,
    DramReferenceBreakdown,
    ReplayServiceBreakdown,
    RuntimeBreakdown,
    SimulationResult,
)

if TYPE_CHECKING:  # import cycle: pool imports this module at runtime
    from repro.exec.pool import OnWorker, WorkerContext

Payload = Dict[str, Any]


def _is_terminal(error: str) -> bool:
    """Whether a cell failure must not be retried.

    An invariant violation is deterministic -- the cell is a pure
    function of its identity, so re-running it reproduces the same
    violation.  Retrying would only burn attempts and, worse, could
    mask the violation behind a fault-injection pass on a later
    attempt.  Worker errors cross the process boundary as
    ``"TypeName: message"`` strings, hence the prefix check.
    """
    return error.startswith(InvariantViolation.__name__)


class SweepAborted(ReproError):
    """The sweep was deliberately interrupted mid-run (fault injection's
    ``abort_after``); the result cache holds the completed cells."""


class CellExecutionError(ReproError):
    """One or more cells exhausted their retries and ``allow_partial``
    was off."""

    def __init__(
        self,
        failures: Sequence["CellFailure"],
        context: Optional[Dict[str, Any]] = None,
    ) -> None:
        self.failures = list(failures)
        names = ", ".join(failure.workloads for failure in self.failures)
        super().__init__(
            "%d cell(s) failed after retries (%s); re-run with --allow-partial "
            "to degrade instead of aborting" % (len(self.failures), names),
            context,
        )


@dataclass(frozen=True)
class ResiliencePolicy:
    """How hard to try before giving a cell up.

    ``max_retries`` bounds *re*-tries: a cell is attempted at most
    ``max_retries + 1`` times, whether its attempts raise, crash their
    worker, or time out.  ``cell_timeout`` (seconds of wall clock per
    attempt) requires process isolation and kills the worker on expiry;
    left ``None``, the pool derives each cell's deadline from its record
    count (:func:`repro.exec.pool.cell_deadline`) and the inline path
    has none.  ``allow_partial`` degrades exhausted cells to
    :func:`missing_cell_payload` instead of raising
    :class:`CellExecutionError`.
    """

    max_retries: int = 2
    cell_timeout: Optional[float] = None
    allow_partial: bool = False


@dataclass(frozen=True)
class CellFailure:
    """Terminal record of one cell that exhausted its retries."""

    key: str
    workloads: str
    attempts: int
    error: str


# ----------------------------------------------------------------------
# Degraded results
# ----------------------------------------------------------------------


def missing_cell_payload(cell: SimCell) -> Payload:
    """A schema-correct, all-zero payload standing in for a cell that
    exhausted its retries under ``allow_partial``.

    It is the payload of a :class:`SimulationResult` whose breakdowns
    are freshly constructed (all zero), so every breakdown fraction of
    the rebuilt result reads 0.0 (the metrics guards divide-by-zero to
    0), ``stats["missing_cell"]`` is 1, and the payload is never
    memoized or written to the cache -- a later run retries the cell
    for real.
    """
    cores = [
        CoreResult(
            name,
            0,
            RuntimeBreakdown(),
            DramReferenceBreakdown(),
            ReplayServiceBreakdown(),
        )
        for name in cell.workloads
    ]
    stats = {
        "missing_cell": 1,
        "manifest.workloads": "+".join(cell.workloads),
        "manifest.seed": cell.seed,
    }
    return result_to_payload(SimulationResult(cores, 0.0, 0.0, stats))


# ----------------------------------------------------------------------
# The resilient scheduler
# ----------------------------------------------------------------------

#: ``on_state(key, state, attempt, info)`` -- telemetry hook.
OnState = Callable[[str, str, int, str], None]
#: ``on_done(key, payload, attempt)`` -- success hook (cache + memo).
OnDone = Callable[[str, Payload, int], None]
#: ``on_failed(failure)`` -- terminal-failure hook.
OnFailed = Callable[[CellFailure], None]
#: ``run_inline(cell)`` -- simulate in this process, return the payload.
RunInline = Callable[[SimCell], Payload]


def needs_isolation(
    workers: int,
    policy: ResiliencePolicy,
    plan: Optional[FaultPlan],
    pending: Optional[Mapping[str, SimCell]] = None,
) -> bool:
    """Whether cells must (or may usefully) run on the worker pool.

    A kill switch (an explicit timeout) and kill faults *require* a
    process boundary -- only the pool supervisor can kill a hung worker
    or survive a dead one.  Parallelism (``workers > 1``)
    merely benefits from one; since the persistent pool amortizes its
    spawn cost over the whole batch, the old per-cell spawn cost model
    (``SPAWN_OVERHEAD_SECONDS``) is retired and any multi-cell batch
    with ``workers > 1`` runs pooled.
    """
    if policy.cell_timeout is not None:
        return True
    if plan is not None and plan.has_kills():
        return True
    if workers <= 1:
        return False
    return pending is None or len(pending) > 1


def execute_resilient(
    pending: Mapping[str, SimCell],
    *,
    counters: Dict[str, int],
    workers: int,
    policy: ResiliencePolicy,
    plan: Optional[FaultPlan],
    run_inline: RunInline,
    worker_context: Optional["WorkerContext"] = None,
    on_state: OnState,
    on_done: OnDone,
    on_failed: OnFailed,
    on_worker: Optional["OnWorker"] = None,
) -> None:
    """Drive every pending cell to ``done`` or ``failed``.

    Results and cache writes happen through the hooks *as each cell
    completes*, so an abort (``SweepAborted``, ``KeyboardInterrupt``)
    never loses finished work.  Batches that need a process boundary
    run on the supervised persistent pool
    (:func:`repro.exec.pool.execute_pooled`, sized by *workers*);
    everything else runs inline in this process.  The batch's mode
    (``pooled_batches`` / ``inline_batches``), ``retries``,
    ``timeouts``, ``crashes`` and the pool's worker counters are added
    to *counters* as they happen, so an aborted batch keeps them too.
    """
    if needs_isolation(workers, policy, plan, pending):
        # Imported here: pool imports this module at import time, so the
        # reverse edge must stay lazy to avoid a cycle.
        from repro.exec.pool import WorkerContext, execute_pooled

        counters["pooled_batches"] += 1
        execute_pooled(
            pending,
            counters=counters,
            workers=workers,
            policy=policy,
            plan=plan,
            context=worker_context if worker_context is not None else WorkerContext(),
            on_state=on_state,
            on_done=on_done,
            on_failed=on_failed,
            on_worker=on_worker,
        )
        return
    counters["inline_batches"] += 1
    _execute_inline(
        pending,
        counters=counters,
        policy=policy,
        plan=plan,
        run_inline=run_inline,
        on_state=on_state,
        on_done=on_done,
        on_failed=on_failed,
    )


def _check_abort(plan: Optional[FaultPlan], completed: int, total: int) -> None:
    if (
        plan is not None
        and plan.abort_after is not None
        and completed >= plan.abort_after
        and completed < total
    ):
        raise SweepAborted(
            "sweep aborted by fault injection after %d of %d cells"
            % (completed, total),
            context={
                "completed": completed,
                "total": total,
                "abort_after": plan.abort_after,
            },
        )


def _execute_inline(
    pending: Mapping[str, SimCell],
    *,
    counters: Dict[str, int],
    policy: ResiliencePolicy,
    plan: Optional[FaultPlan],
    run_inline: RunInline,
    on_state: OnState,
    on_done: OnDone,
    on_failed: OnFailed,
) -> None:
    """Serial in-process execution with retries (no kill switch)."""
    completed = 0
    for key, cell in pending.items():
        attempt = 0
        while True:
            on_state(key, "running", attempt, "")
            try:
                if plan is not None:
                    plan.inject(key, attempt)
                payload = run_inline(cell)
            except (SweepAborted, KeyboardInterrupt):
                raise
            except Exception as exc:
                error = "%s: %s" % (type(exc).__name__, exc)
                attempt += 1
                if attempt > policy.max_retries or _is_terminal(error):
                    on_failed(
                        CellFailure(key, "+".join(cell.workloads), attempt, error)
                    )
                    break
                counters["retries"] += 1
                on_state(key, "pending", attempt, "retrying: %s" % error)
                continue
            on_done(key, payload, attempt)
            completed += 1
            _check_abort(plan, completed, len(pending))
            break
