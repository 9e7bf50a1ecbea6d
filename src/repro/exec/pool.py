"""Supervised persistent worker pool: the distributed-sweep fabric.

The per-cell spawn scheduler this replaces paid one fork + interpreter
warm-up per cell -- BENCH_perf.json recorded ``parallel_speedup < 1``
at CI scale, i.e. pure overhead.  Here N long-lived worker processes
(:func:`_pool_worker`) each pull cells from one shared work queue and
report over a private result channel, so the spawn cost amortizes over
the whole sweep and a free worker simply claims the next cell.  Workers
prefetch nothing beyond the cell in hand -- claim depth of one is what
keeps requeue-on-death exact.

Supervision (:func:`execute_pooled`) recognises two failure shapes and
sends both through the policy's one retry budget:

* **Crashed worker** -- the process died (kill fault, OOM, segfault).
  Detected from ``is_alive()``/exit code; the claimed cell is requeued
  and the worker is respawned.  A cell that still kills its worker on
  its last attempt fails with a ``worker crashed`` error.
* **Hung cell** -- a claim outlives its deadline: the policy's
  ``cell_timeout`` when set, otherwise :func:`cell_deadline`, which
  scales with the cell's records.  The supervisor kills the worker,
  requeues the claim, and respawns.

Determinism: cells are pure functions of their identity, so claims,
retries, kills, and respawns can reorder *work* but never change
*results* -- a fault-riddled pooled sweep is bit-identical to a
fault-free serial one (``tests/test_pool.py`` asserts exactly that).
"""

from __future__ import annotations

import multiprocessing
import os
import time
from dataclasses import dataclass
from multiprocessing.connection import Connection
from multiprocessing.process import BaseProcess
from multiprocessing.queues import Queue as ProcessQueue
from typing import Any, Callable, Dict, List, Mapping, Optional, Set, Tuple

from repro.exec.cells import SimCell
from repro.exec.faults import FaultPlan
from repro.exec.resilience import (
    CellFailure,
    OnDone,
    OnFailed,
    OnState,
    ResiliencePolicy,
    _check_abort,
    _is_terminal,
)

Payload = Dict[str, Any]

#: ``on_worker(action, worker_id, info)`` -- pool lifecycle hook for
#: telemetry: ``spawned`` / ``respawned`` / ``crashed`` / ``timed_out``.
OnWorker = Callable[[str, int, str], None]

#: The hang deadline a claim gets when the policy sets no
#: ``cell_timeout``: ``DEADLINE_FLOOR_SECONDS`` plus
#: ``DEADLINE_SECONDS_PER_RECORD`` for each record of each workload.
#: Measured cold (trace generation included) on a shared 2-vCPU host,
#: the slowest cell of a ``repro report --workers 2`` costs up to
#: 0.23 ms per record, and a 4-core xsbench+mcf+graph500+spmv mix under
#: ``--check-invariants full`` up to 0.24 ms: the per-record term alone
#: is 40 times either, so the deadline fires only on a cell that has
#: stopped making progress, even on a loaded host.
DEADLINE_FLOOR_SECONDS = 30.0
DEADLINE_SECONDS_PER_RECORD = 0.01

#: Prefix of the error a cell fails with when its last attempt killed
#: its worker (the executor keeps evidence of such cells).
WORKER_CRASHED = "worker crashed"

#: Supervisor poll interval while waiting on worker channels.
_POLL_SECONDS = 0.01

#: Seconds a cleanly-exited worker's claim gets to flush through its
#: channel before the exit is reclassified as a crash.
_FLUSH_GRACE_SECONDS = 5.0

#: Seconds a crashed worker's channel keeps being drained before its
#: claim is requeued -- the claim (or even the result) may still be in
#: flight through the pipe when the death is first observed.
_DEATH_DRAIN_GRACE_SECONDS = 0.2

#: Seconds every worker may sit idle while cells stay enqueued and
#: unclaimed before the lost-task watchdog enqueues them again.
_LOST_TASK_SECONDS = 1.0

#: How often a worker checks that its supervisor is still alive.
_ORPHAN_WATCH_SECONDS = 0.25

#: Exit status a worker dies with when its result channel is torn.
_CHANNEL_TORN_EXIT = 70

#: Exit status a worker dies with when it finds its supervisor gone.
_ORPHANED_EXIT = 71


@dataclass(frozen=True)
class WorkerContext:
    """What every pool worker needs to simulate cells: forwarded to
    :func:`repro.exec.executor.simulate_cell` inside the worker."""

    cache_root: Optional[str] = None
    check_invariants: Optional[str] = None


def cell_deadline(cell: SimCell, policy: ResiliencePolicy) -> float:
    """Seconds one pooled attempt of *cell* may run before the
    supervisor kills it: the policy's ``cell_timeout``, or else a
    deadline derived from the cell's record count."""
    if policy.cell_timeout is not None:
        return policy.cell_timeout
    records = cell.length * len(cell.workloads)
    return DEADLINE_FLOOR_SECONDS + DEADLINE_SECONDS_PER_RECORD * records


def _pool_worker(
    worker_id: int,
    tasks: "ProcessQueue[Any]",
    channel: Connection,
    context: WorkerContext,
    plan: Optional[FaultPlan],
) -> None:
    """Long-lived pool worker: claim one cell, simulate, report, repeat.

    Message protocol on *channel* (a pipe connection private to this
    worker, FIFO): ``("claim", key, attempt)`` immediately after
    dequeuing a cell and *before* any fault can fire, so the supervisor
    always knows which cell a dead worker was holding; then ``("ok",
    key, attempt, payload)`` or ``("error", key, attempt, message)``.
    A ``("stop",)`` task ends the loop.

    The channel is a raw pipe, NOT a ``multiprocessing.Queue``: Queue
    sends go through a feeder thread, so a worker that ``os._exit``s
    right after ``put`` (exactly what a kill fault does) would take the
    unflushed claim with it.  ``Connection.send`` writes to the OS pipe
    synchronously -- once the claim call returns, the supervisor can
    read it no matter how the worker dies.

    Faults: a scheduled ``kill`` ``os._exit``s mid-cell -- for a
    persistent worker that *is* worker death.

    A worker outlives a supervisor that dies without stopping it (a
    SIGKILL): its main thread would block in ``tasks.get()`` forever.
    So a daemon thread watches the parent pid and ``os._exit``s once
    the worker has been reparented.
    """
    import threading

    from repro.exec.cache import ResultCache
    from repro.exec.executor import simulate_cell

    supervisor_pid = os.getppid()

    def orphan_watch() -> None:
        while os.getppid() == supervisor_pid:
            time.sleep(_ORPHAN_WATCH_SECONDS)
        os._exit(_ORPHANED_EXIT)

    def post(message: Tuple[Any, ...]) -> bool:
        try:
            channel.send(message)
        except Exception:
            return False  # supervisor gone; the process is winding down
        return True

    threading.Thread(target=orphan_watch, daemon=True).start()
    cache = (
        ResultCache(context.cache_root) if context.cache_root is not None else None
    )
    trace_memo: Dict[Any, Any] = {}
    while True:
        task = tasks.get()
        if task[0] == "stop":
            break
        _, key, cell, attempt = task
        post(("claim", key, attempt))
        try:
            if plan is not None:
                plan.inject(key, attempt)  # kill faults exit right here
            payload = simulate_cell(
                cell,
                cache,
                trace_memo,
                check_invariants=context.check_invariants,
            )
        except BaseException as exc:
            if not post(
                ("error", key, attempt, "%s: %s" % (type(exc).__name__, exc))
            ):
                os._exit(_CHANNEL_TORN_EXIT)
        else:
            post(("ok", key, attempt, payload))


class _Worker:
    """Supervisor-side bookkeeping for one pool worker process."""

    __slots__ = ("worker_id", "process", "channel", "claim", "dead_since")

    def __init__(
        self,
        worker_id: int,
        process: BaseProcess,
        channel: Connection,
    ) -> None:
        self.worker_id = worker_id
        self.process = process
        self.channel = channel
        #: ``(key, attempt, claimed_at)`` of the cell in hand, or None.
        self.claim: Optional[Tuple[str, int, float]] = None
        self.dead_since: Optional[float] = None


def _kill_worker(worker: _Worker) -> None:
    """Tear one worker down, forcefully if needed."""
    process = worker.process
    if process.is_alive():
        process.terminate()
        process.join(1.0)
        if process.is_alive():
            process.kill()
            process.join(1.0)
    else:
        process.join(0.1)
    worker.channel.close()


def execute_pooled(
    pending: Mapping[str, SimCell],
    *,
    counters: Dict[str, int],
    workers: int,
    policy: ResiliencePolicy,
    plan: Optional[FaultPlan],
    context: WorkerContext,
    on_state: OnState,
    on_done: OnDone,
    on_failed: OnFailed,
    on_worker: Optional[OnWorker] = None,
) -> None:
    """Drive every pending cell to ``done`` or ``failed`` on a pool of
    *workers* processes (clamped to the batch size).

    Hook contract matches :func:`repro.exec.resilience.execute_resilient`
    (the public entry point; it routes every batch that needs process
    isolation here).  Results flow through the hooks as each cell
    completes, so an abort never loses finished work.  ``retries`` /
    ``timeouts`` / ``crashes`` and the pool counters ``workers_spawned``
    and ``workers_respawned`` are added to *counters* as they happen.
    A dead or killed worker is replaced only while a cell is left to
    run.
    """
    mp_context = multiprocessing.get_context()
    total = len(pending)
    n_workers = max(1, min(workers, total))
    deadlines = {key: cell_deadline(cell, policy) for key, cell in pending.items()}

    tasks: "ProcessQueue[Any]" = mp_context.Queue()
    attempts: Dict[str, int] = {key: 0 for key in pending}
    finished: Set[str] = set()
    #: Cells enqueued that no worker has claimed yet.
    queued: Set[str] = set()
    completed = 0
    idle_since: Optional[float] = None

    def notify(action: str, worker_id: int, info: str = "") -> None:
        if on_worker is not None:
            on_worker(action, worker_id, info)

    def spawn(worker_id: int, respawn: bool) -> _Worker:
        receive_end, send_end = mp_context.Pipe(duplex=False)
        process = mp_context.Process(
            target=_pool_worker,
            args=(worker_id, tasks, send_end, context, plan),
        )
        process.daemon = True
        process.start()
        send_end.close()  # parent keeps only the read end
        counters["workers_spawned"] += 1
        if respawn:
            counters["workers_respawned"] += 1
        notify("respawned" if respawn else "spawned", worker_id)
        return _Worker(worker_id, process, receive_end)

    def enqueue(key: str) -> None:
        queued.add(key)
        tasks.put(("cell", key, pending[key], attempts[key]))

    def retry_or_fail(key: str, error: str) -> None:
        attempts[key] += 1
        if attempts[key] > policy.max_retries or _is_terminal(error):
            on_failed(
                CellFailure(key, "+".join(pending[key].workloads), attempts[key], error)
            )
            finished.add(key)
            return
        counters["retries"] += 1
        on_state(key, "pending", attempts[key], "retrying: %s" % error)
        enqueue(key)

    def reclaim(worker: _Worker, error: str) -> None:
        """Account for the cell a dead/killed worker was holding."""
        claim = worker.claim
        worker.claim = None
        if claim is not None and claim[0] not in finished:
            retry_or_fail(claim[0], error)

    pool: List[_Worker] = [spawn(index, False) for index in range(n_workers)]
    for key in pending:
        enqueue(key)
    try:
        while len(finished) < total:
            progressed = False
            for worker in pool:
                while True:
                    try:
                        if not worker.channel.poll():
                            break
                        message = worker.channel.recv()
                    except (OSError, EOFError, ValueError):
                        break
                    kind, key, attempt = message[:3]
                    if kind == "claim":
                        progressed = True
                        worker.claim = (key, attempt, time.monotonic())
                        queued.discard(key)
                        if key not in finished:
                            on_state(
                                key, "running", attempt,
                                "worker %d" % worker.worker_id,
                            )
                        continue
                    worker.claim = None
                    if key in finished:
                        continue  # duplicate from a lost-task requeue
                    if kind == "ok":
                        on_done(key, message[3], attempt)
                        finished.add(key)
                        completed += 1
                        _check_abort(plan, completed, total)
                    else:  # "error"
                        retry_or_fail(key, str(message[3]))
            now = time.monotonic()
            for index, worker in enumerate(pool):
                if not worker.process.is_alive():
                    code = worker.process.exitcode
                    if worker.dead_since is None:
                        worker.dead_since = now
                        continue
                    # Keep draining the dead worker's channel for a
                    # grace window first: its claim -- or, on a clean
                    # exit, even its result -- may still be in flight
                    # through the pipe when the death is observed.
                    grace = (
                        _FLUSH_GRACE_SECONDS
                        if code == 0 and worker.claim is not None
                        else _DEATH_DRAIN_GRACE_SECONDS
                    )
                    if now - worker.dead_since <= grace:
                        continue
                    if worker.claim is not None:
                        counters["crashes"] += 1
                        reclaim(worker, "%s (exit %s)" % (WORKER_CRASHED, code))
                    notify("crashed", worker.worker_id, "exit %s" % code)
                    _kill_worker(worker)
                    if len(finished) < total:
                        pool[index] = spawn(worker.worker_id, True)
                    progressed = True
                    continue
                claim = worker.claim
                if claim is not None and now - claim[2] > deadlines[claim[0]]:
                    counters["timeouts"] += 1
                    notify("timed_out", worker.worker_id, claim[0][:12])
                    _kill_worker(worker)
                    reclaim(worker, "timed out after %.1fs" % deadlines[claim[0]])
                    if len(finished) < total:
                        pool[index] = spawn(worker.worker_id, True)
                    progressed = True
            if progressed:
                idle_since = None
                continue
            # Lost-task watchdog: a worker that died between dequeuing a
            # task and sending its claim takes the task with it.  When
            # every living worker is idle yet cells remain enqueued and
            # unclaimed, requeue them after a grace window -- cells are
            # pure and completions are idempotent (first result wins),
            # so a duplicate execution is waste, never corruption.
            unclaimed = [key for key in queued if key not in finished]
            if unclaimed and all(w.claim is None for w in pool):
                if idle_since is None:
                    idle_since = now
                elif now - idle_since > _LOST_TASK_SECONDS:
                    for key in unclaimed:
                        tasks.put(("cell", key, pending[key], attempts[key]))
                    idle_since = None
            else:
                idle_since = None
            time.sleep(_POLL_SECONDS)
    finally:
        for _ in pool:
            try:
                tasks.put(("stop",))
            except Exception:
                break
        deadline = time.monotonic() + 1.0
        for worker in pool:
            worker.process.join(max(0.0, deadline - time.monotonic()))
        for worker in pool:
            _kill_worker(worker)
        tasks.close()
        tasks.cancel_join_thread()
