"""Supervised persistent worker pool: the distributed-sweep fabric.

The per-cell spawn scheduler this replaces paid one fork + interpreter
warm-up per cell -- BENCH_perf.json recorded ``parallel_speedup < 1``
at CI scale, i.e. pure overhead.  Here N long-lived worker processes
(:func:`_pool_worker`) each pull cells from one shared work queue and
report over a private result channel, so the spawn cost amortizes over
the whole sweep and work stealing falls out of the queue for free: a
fast worker simply claims the next cell regardless of which worker it
was nominally enqueued toward (each claim by a non-"home" worker is
tallied as a steal).  Workers prefetch nothing beyond the cell in hand
-- claim depth of one is what keeps requeue-on-death exact.

Supervision (:func:`execute_pooled`) recognises three failure shapes:

* **Crashed worker** -- the process died (kill fault, OOM, segfault).
  Detected from ``is_alive()``/exit code; the claimed cell is requeued
  under the usual bounded-retry accounting and the worker is respawned.
* **Stalled worker** -- the process is alive but its heartbeat (a
  background thread in the worker, one beat per ``heartbeat_interval``)
  has gone quiet past ``heartbeat_timeout``.  The supervisor kills the
  worker, requeues its claim, and respawns.
* **Poison cell** -- one cell kills ``poison_threshold`` consecutive
  workers.  Instead of grinding the pool down it is quarantined with
  evidence through the executor's existing
  :class:`~repro.exec.cache.QuarantineReason` machinery
  (``poison-cell``) and reported as a terminal failure, honouring
  ``--allow-partial``.

Determinism: cells are pure functions of their identity, so claims,
steals, retries, kills, and respawns can reorder *work* but never
change *results* -- a fault-riddled pooled sweep is bit-identical to a
fault-free serial one (``tests/test_pool.py`` asserts exactly that).
"""

from __future__ import annotations

import multiprocessing
import os
import time
from collections import deque
from dataclasses import dataclass
from multiprocessing.connection import Connection
from multiprocessing.process import BaseProcess
from multiprocessing.queues import Queue as ProcessQueue
from typing import Any, Callable, Deque, Dict, List, Mapping, Optional, Set, Tuple

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
#: telemetry: ``spawned`` / ``respawned`` / ``crashed`` / ``stalled`` /
#: ``poison``.
OnWorker = Callable[[str, int, str], None]

#: Supervisor poll interval while waiting on worker channels.
_POLL_SECONDS = 0.01

#: Seconds a cleanly-exited worker's claim gets to flush through its
#: channel before the exit is reclassified as a crash.
_FLUSH_GRACE_SECONDS = 5.0

#: Seconds a crashed worker's channel keeps being drained before its
#: claim is requeued -- the claim (or even the result) may still be in
#: flight through the pipe when the death is first observed.
_DEATH_DRAIN_GRACE_SECONDS = 0.2

#: Exit status a worker dies with when its result channel is torn.
_CHANNEL_TORN_EXIT = 70

#: Exit status a worker dies with when it finds its supervisor gone.
_ORPHANED_EXIT = 71


@dataclass(frozen=True)
class PoolConfig:
    """Supervision knobs for one pooled batch.

    ``workers`` is the pool size (clamped to the batch size).
    ``heartbeat_interval`` is how often each worker beats;
    ``heartbeat_timeout`` is how long the supervisor lets a worker go
    quiet before killing and respawning it (the interval is clamped to
    a quarter of the timeout so a healthy worker can never miss the
    deadline).  ``poison_threshold`` is K in "a cell that kills K
    consecutive workers is quarantined".
    """

    workers: int = 2
    heartbeat_interval: float = 0.25
    heartbeat_timeout: float = 10.0
    poison_threshold: int = 2


@dataclass(frozen=True)
class WorkerContext:
    """What every pool worker needs to simulate cells: forwarded to
    :func:`repro.exec.executor.simulate_cell` inside the worker."""

    cache_root: Optional[str] = None
    check_invariants: Optional[str] = None


def _pool_worker(
    worker_id: int,
    tasks: "ProcessQueue[Any]",
    channel: Connection,
    context: WorkerContext,
    plan: Optional[FaultPlan],
    heartbeat_interval: float,
) -> None:
    """Long-lived pool worker: claim one cell, simulate, report, repeat.

    Message protocol on *channel* (a pipe connection private to this
    worker, FIFO): ``("heartbeat", t)`` from a background thread every
    *heartbeat_interval* seconds; ``("claim", key, attempt)``
    immediately after dequeuing a cell and *before* any fault can fire,
    so the supervisor always knows which cell a dead worker was
    holding; then ``("ok", key, attempt, payload)`` or ``("error", key,
    attempt, message)``.  A ``("stop",)`` task ends the loop.

    The channel is a raw pipe, NOT a ``multiprocessing.Queue``: Queue
    sends go through a feeder thread, so a worker that ``os._exit``s
    right after ``put`` (exactly what a kill fault does) would take the
    unflushed claim with it.  ``Connection.send`` writes to the OS pipe
    synchronously -- once the claim call returns, the supervisor can
    read it no matter how the worker dies.

    Faults: a scheduled ``kill`` ``os._exit``s mid-cell -- for a
    persistent worker that *is* worker death.  A scheduled ``stall``
    suppresses heartbeats and sleeps; the supervisor's liveness
    deadline is what recovers (it kills this process and requeues the
    claim).

    A worker outlives a supervisor that dies without stopping it (a
    SIGKILL): its main thread would block in ``tasks.get()`` forever.
    So the heartbeat thread also watches the parent pid, stalls
    included, and ``os._exit``s once the worker has been reparented.
    """
    import threading

    from repro.exec.cache import ResultCache
    from repro.exec.executor import simulate_cell

    supervisor_pid = os.getppid()
    suppress = threading.Event()
    stop = threading.Event()
    send_lock = threading.Lock()

    def post(message: Tuple[Any, ...]) -> bool:
        try:
            with send_lock:
                channel.send(message)
        except Exception:
            return False  # supervisor gone; the process is winding down
        return True

    def heartbeats() -> None:
        channel_open = True
        while not stop.is_set():
            if os.getppid() != supervisor_pid:
                os._exit(_ORPHANED_EXIT)
            if channel_open and not suppress.is_set():
                channel_open = post(("heartbeat", time.time()))
            stop.wait(heartbeat_interval)

    threading.Thread(target=heartbeats, daemon=True).start()
    cache = (
        ResultCache(context.cache_root) if context.cache_root is not None else None
    )
    trace_memo: Dict[Any, Any] = {}
    try:
        while True:
            task = tasks.get()
            if task[0] == "stop":
                break
            _, key, cell, attempt = task
            post(("claim", key, attempt))
            try:
                if plan is not None:
                    if plan.should_stall(key, attempt):
                        suppress.set()
                        time.sleep(plan.stall_seconds)
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
            suppress.clear()
    finally:
        stop.set()


class _Worker:
    """Supervisor-side bookkeeping for one pool worker process."""

    __slots__ = ("worker_id", "process", "channel", "last_beat", "claim", "dead_since")

    def __init__(
        self,
        worker_id: int,
        process: BaseProcess,
        channel: Connection,
    ) -> None:
        self.worker_id = worker_id
        self.process = process
        self.channel = channel
        self.last_beat = time.monotonic()
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
    policy: ResiliencePolicy,
    plan: Optional[FaultPlan],
    config: PoolConfig,
    context: WorkerContext,
    on_state: OnState,
    on_done: OnDone,
    on_failed: OnFailed,
    on_worker: Optional[OnWorker] = None,
) -> Dict[str, int]:
    """Drive every pending cell to ``done`` or ``failed`` on the pool.

    Hook contract matches :func:`repro.exec.resilience.execute_resilient`
    (the public entry point; it routes every batch that needs process
    isolation here).  Results flow through the hooks as each cell
    completes, so an abort never loses finished work.  Returns
    scheduler stats: the classic ``retries`` / ``timeouts`` /
    ``crashes`` plus the pool counters ``stalls``, ``steals``,
    ``workers_spawned``, ``workers_respawned``, and ``poison_cells``.
    """
    stats = {
        "retries": 0,
        "timeouts": 0,
        "crashes": 0,
        "stalls": 0,
        "steals": 0,
        "workers_spawned": 0,
        "workers_respawned": 0,
        "poison_cells": 0,
    }
    mp_context = multiprocessing.get_context()
    total = len(pending)
    n_workers = max(1, min(config.workers, total))
    interval = min(
        config.heartbeat_interval, max(0.02, config.heartbeat_timeout / 4.0)
    )

    tasks: "ProcessQueue[Any]" = mp_context.Queue()
    attempts: Dict[str, int] = {key: 0 for key in pending}
    deaths: Dict[str, int] = {}
    finished: Set[str] = set()
    #: key -> "home" worker id it was enqueued toward (claims by any
    #: other worker count as steals).  Present only while queued.
    queued: Dict[str, int] = {}
    waiting: Deque[str] = deque(pending)
    retry_at: List[Tuple[float, str]] = []
    completed = 0
    next_home = 0
    idle_since: Optional[float] = None

    def notify(action: str, worker_id: int, info: str = "") -> None:
        if on_worker is not None:
            on_worker(action, worker_id, info)

    def spawn(worker_id: int, respawn: bool) -> _Worker:
        receive_end, send_end = mp_context.Pipe(duplex=False)
        process = mp_context.Process(
            target=_pool_worker,
            args=(worker_id, tasks, send_end, context, plan, interval),
        )
        process.daemon = True
        process.start()
        send_end.close()  # parent keeps only the read end
        stats["workers_spawned"] += 1
        if respawn:
            stats["workers_respawned"] += 1
        notify("respawned" if respawn else "spawned", worker_id)
        return _Worker(worker_id, process, receive_end)

    def enqueue(key: str) -> None:
        nonlocal next_home
        queued[key] = next_home % n_workers
        next_home += 1
        tasks.put(("cell", key, pending[key], attempts[key]))

    def make_failure(key: str, n_attempts: int, error: str) -> CellFailure:
        return CellFailure(
            key, "+".join(pending[key].workloads), n_attempts, error
        )

    def retry_or_fail(key: str, error: str) -> None:
        attempts[key] += 1
        if attempts[key] > policy.max_retries or _is_terminal(error):
            on_failed(make_failure(key, attempts[key], error))
            finished.add(key)
            return
        stats["retries"] += 1
        on_state(key, "pending", attempts[key], "retrying: %s" % error)
        retry_at.append(
            (time.monotonic() + policy.backoff_seconds * attempts[key], key)
        )

    def reclaim(worker: _Worker, error: str, *, death: bool) -> None:
        """Account for the cell a dead/killed worker was holding."""
        claim = worker.claim
        worker.claim = None
        if claim is None:
            return
        key = claim[0]
        if key in finished:
            return
        if death:
            deaths[key] = deaths.get(key, 0) + 1
            if deaths[key] >= config.poison_threshold:
                stats["poison_cells"] += 1
                notify("poison", worker.worker_id, key[:12])
                on_failed(
                    make_failure(
                        key,
                        attempts[key] + 1,
                        "PoisonCell: killed %d consecutive worker(s) (%s)"
                        % (deaths[key], error),
                    )
                )
                finished.add(key)
                return
        retry_or_fail(key, error)

    workers = [spawn(index, False) for index in range(n_workers)]
    try:
        while len(finished) < total:
            now = time.monotonic()
            for due, key in list(retry_at):
                if due <= now:
                    retry_at.remove((due, key))
                    waiting.append(key)
            while waiting:
                enqueue(waiting.popleft())
            progressed = False
            for worker in workers:
                while True:
                    try:
                        if not worker.channel.poll():
                            break
                        message = worker.channel.recv()
                    except (OSError, EOFError, ValueError):
                        break
                    kind = message[0]
                    now = time.monotonic()
                    if kind == "heartbeat":
                        # Liveness only -- deliberately not "progress",
                        # or steady heartbeats would starve the
                        # lost-task watchdog below.
                        worker.last_beat = now
                    elif kind == "claim":
                        progressed = True
                        _, key, attempt = message
                        worker.last_beat = now
                        worker.claim = (key, attempt, now)
                        home = queued.pop(key, None)
                        if home is not None and home != worker.worker_id:
                            stats["steals"] += 1
                        if key not in finished:
                            on_state(
                                key, "running", attempt,
                                "worker %d" % worker.worker_id,
                            )
                    elif kind == "ok":
                        _, key, attempt, payload = message
                        worker.claim = None
                        worker.last_beat = now
                        if key in finished:
                            continue  # duplicate from a lost-task requeue
                        deaths.pop(key, None)
                        on_done(key, payload, attempt)
                        finished.add(key)
                        completed += 1
                        _check_abort(plan, completed, total)
                    else:  # "error"
                        _, key, attempt, error = message
                        worker.claim = None
                        worker.last_beat = now
                        if key in finished:
                            continue
                        deaths.pop(key, None)  # worker survived: not poison
                        retry_or_fail(key, str(error))
            now = time.monotonic()
            for index, worker in enumerate(workers):
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
                        stats["crashes"] += 1
                        reclaim(
                            worker,
                            "worker crashed (exit %s)" % code,
                            death=True,
                        )
                    notify("crashed", worker.worker_id, "exit %s" % code)
                    _kill_worker(worker)
                    workers[index] = spawn(worker.worker_id, True)
                    progressed = True
                    continue
                claim = worker.claim
                if (
                    claim is not None
                    and policy.cell_timeout is not None
                    and now - claim[2] > policy.cell_timeout
                ):
                    stats["timeouts"] += 1
                    _kill_worker(worker)
                    reclaim(
                        worker,
                        "timed out after %.1fs" % policy.cell_timeout,
                        death=False,
                    )
                    workers[index] = spawn(worker.worker_id, True)
                    progressed = True
                elif now - worker.last_beat > config.heartbeat_timeout:
                    stats["stalls"] += 1
                    notify(
                        "stalled", worker.worker_id,
                        claim[0][:12] if claim is not None else "",
                    )
                    _kill_worker(worker)
                    reclaim(
                        worker,
                        "worker %d heartbeat stalled (silent > %.1fs)"
                        % (worker.worker_id, config.heartbeat_timeout),
                        death=False,
                    )
                    workers[index] = spawn(worker.worker_id, True)
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
            if (
                unclaimed
                and not waiting
                and not retry_at
                and all(w.claim is None for w in workers)
            ):
                if idle_since is None:
                    idle_since = now
                elif now - idle_since > max(1.0, 4 * interval):
                    for key in unclaimed:
                        tasks.put(("cell", key, pending[key], attempts[key]))
                    idle_since = None
            else:
                idle_since = None
            time.sleep(_POLL_SECONDS)
    finally:
        for _ in workers:
            try:
                tasks.put(("stop",))
            except Exception:
                break
        deadline = time.monotonic() + 1.0
        for worker in workers:
            worker.process.join(max(0.0, deadline - time.monotonic()))
        for worker in workers:
            _kill_worker(worker)
        tasks.close()
        tasks.cancel_join_thread()
    return stats
