"""The sweep service's asyncio HTTP server.

Pure stdlib: :func:`asyncio.start_server` plus a small HTTP/1.1
request parser.  The server owns one long-lived
:class:`~repro.exec.ExperimentExecutor` (via the
:class:`~repro.service.jobs.JobRunner`) and a persisted
:class:`~repro.service.jobs.JobStore`; a single background worker task
drains the job queue, running each sweep on a thread so the event loop
keeps serving status polls and event streams while cells simulate.

The route table (:data:`ROUTES`) is data, not code paths: the docs
honesty gate (``tests/test_docs.py``) matches every HTTP example in
``docs/service.md`` against it, exactly as it matches every ``repro``
invocation against the argparse tree.

Endpoints (see ``docs/service.md`` for the full reference)::

    GET  /api/health             liveness + job/executor/cache stats
    GET  /api/figures            submittable figure & ablation ids
    GET  /api/cache              content-addressed cache entry counts
    GET  /api/cache/{key}        one result payload by cell key
    PUT  /api/cache/{key}        store one result payload (replication)
    POST /api/jobs               submit a job spec -> 202 + job record
    GET  /api/jobs               all jobs, oldest first
    GET  /api/jobs/{id}          one job's state + per-job counters
    GET  /api/jobs/{id}/events   chunked JSONL telemetry stream
    GET  /api/jobs/{id}/result   figure rows + manifest (terminal jobs)
    GET  /api/jobs/{id}/manifest the provenance manifest alone

Crash safety: jobs found ``queued``/``running`` at startup are
re-enqueued; their sweeps resume from the executor's checkpoint
journals with zero re-simulation of completed cells
(``docs/resilience.md`` -- the service adds nothing to that machinery,
it just turns it on with ``resume=True``).
"""

from __future__ import annotations

import asyncio
import json
import os
import re
from dataclasses import dataclass
from typing import (
    Any,
    AsyncIterator,
    Awaitable,
    Callable,
    Dict,
    List,
    Optional,
    Tuple,
    Union,
)

from repro.exec.backend import LocalDirBackend
from repro.service.jobs import Job, JobRunner, JobStore
from repro.service.wire import WireError, driver_catalog, parse_job_spec, service_envelope

#: Largest request body the server reads, in bytes.
MAX_BODY_BYTES = 1 << 20

#: Cache keys are SHA-256 content addresses -- anything else is
#: rejected before it can touch the filesystem.
_CACHE_KEY_RE = re.compile(r"[0-9a-f]{64}")

#: How often stream handlers poll for new telemetry lines / job state.
STREAM_POLL_SECONDS = 0.05


@dataclass(frozen=True)
class Route:
    """One endpoint: method, path pattern, handler name.

    Pattern segments in braces (``{id}``) match any single non-empty
    path segment and are passed to the handler as parameters.
    """

    method: str
    pattern: str
    name: str

    def match(self, path: str) -> Optional[Dict[str, str]]:
        own = self.pattern.strip("/").split("/")
        got = path.strip("/").split("/")
        if len(own) != len(got):
            return None
        params: Dict[str, str] = {}
        for expected, actual in zip(own, got):
            if expected.startswith("{") and expected.endswith("}"):
                if not actual:
                    return None
                params[expected[1:-1]] = actual
            elif expected != actual:
                return None
        return params


ROUTES: Tuple[Route, ...] = (
    Route("GET", "/api/health", "health"),
    Route("GET", "/api/figures", "figures"),
    Route("GET", "/api/cache", "cache"),
    Route("GET", "/api/cache/{key}", "cache_get"),
    Route("PUT", "/api/cache/{key}", "cache_put"),
    Route("POST", "/api/jobs", "submit"),
    Route("GET", "/api/jobs", "jobs"),
    Route("GET", "/api/jobs/{id}", "job"),
    Route("GET", "/api/jobs/{id}/events", "events"),
    Route("GET", "/api/jobs/{id}/result", "result"),
    Route("GET", "/api/jobs/{id}/manifest", "manifest"),
)


def match_route(
    method: str, path: str
) -> Tuple[Optional[Route], Dict[str, str], List[str]]:
    """Resolve ``(method, path)`` against :data:`ROUTES`.

    Returns ``(route, params, allowed_methods)``; ``route`` is ``None``
    on no match, with ``allowed_methods`` non-empty when the path exists
    under a different method (HTTP 405 vs 404).
    """
    allowed: List[str] = []
    for route in ROUTES:
        params = route.match(path)
        if params is None:
            continue
        if route.method == method:
            return route, params, []
        allowed.append(route.method)
    return None, {}, allowed


@dataclass
class Response:
    """A complete JSON response."""

    status: int
    payload: Dict[str, Any]
    headers: Tuple[Tuple[str, str], ...] = ()


@dataclass
class EventStream:
    """A chunked ``application/x-ndjson`` response: one JSON object per
    line, flushed as produced."""

    lines: AsyncIterator[str]


_STATUS_TEXT = {
    200: "OK",
    201: "Created",
    202: "Accepted",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    409: "Conflict",
    413: "Payload Too Large",
    500: "Internal Server Error",
}


class SweepService:
    """The HTTP facade over one executor + job store; see module docs."""

    def __init__(self, runner: JobRunner) -> None:
        self.runner = runner
        self.store: JobStore = runner.store
        # The queue and stop event are loop-bound on Python 3.9, so they
        # are created inside serve(), not here.
        self._queue: Optional["asyncio.Queue[Job]"] = None
        self._stop: Optional[asyncio.Event] = None
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self.host: Optional[str] = None
        self.port: Optional[int] = None

    # -- submission / recovery -----------------------------------------

    def submit(self, spec_payload: Any) -> Job:
        """Validate, persist, and enqueue one job."""
        spec = parse_job_spec(spec_payload)
        job = self.store.create(spec)
        if self._queue is not None:
            self._queue.put_nowait(job)
        return job

    def recover_jobs(self) -> List[Job]:
        """Re-enqueue every job a previous (killed) server left
        unfinished.  Called once at startup, before serving."""
        recovered: List[Job] = []
        for job in self.store.in_order():
            if job.state in ("queued", "running"):
                job.state = "queued"
                job.resumes += 1
                self.store.save(job)
                if self._queue is not None:
                    self._queue.put_nowait(job)
                recovered.append(job)
        return recovered

    # -- the worker -----------------------------------------------------

    async def _worker(self) -> None:
        loop = asyncio.get_running_loop()
        queue = self._queue
        assert queue is not None
        while True:
            job = await queue.get()
            # One job at a time: the shared executor's job_scope swap is
            # only race-free when sweeps never overlap (cells still fan
            # out across the executor's worker processes).
            await loop.run_in_executor(None, self.runner.run_job, job)

    # -- handlers -------------------------------------------------------

    async def handle(
        self, method: str, path: str, body: bytes
    ) -> Union[Response, EventStream]:
        """Dispatch one request; the transport-independent core."""
        route, params, allowed = match_route(method, path)
        if route is None:
            if allowed:
                return self._error(
                    405,
                    "method %s not allowed for %s" % (method, path),
                    {"allowed": allowed},
                    headers=(("Allow", ", ".join(allowed)),),
                )
            return self._error(404, "no such endpoint: %s" % path, {"path": path})
        handler: Callable[..., Awaitable[Union[Response, EventStream]]] = getattr(
            self, "_handle_" + route.name
        )
        try:
            return await handler(params, body)
        except WireError as exc:
            return self._error(400, str(exc), exc.context)

    def _error(
        self,
        status: int,
        message: str,
        context: Optional[Dict[str, Any]] = None,
        headers: Tuple[Tuple[str, str], ...] = (),
    ) -> Response:
        payload = {"error": message, "context": context or {}}
        return Response(status, payload, headers)

    def _job_or_error(self, params: Dict[str, str]) -> Union[Job, Response]:
        job = self.store.get(params["id"])
        if job is None:
            return self._error(
                404,
                "no such job: %s" % params["id"],
                {"job": params["id"], "known": [j.id for j in self.store.in_order()]},
            )
        return job

    async def _handle_health(
        self, params: Dict[str, str], body: bytes
    ) -> Response:
        executor = self.runner.executor
        cache = executor.cache
        return Response(
            200,
            {
                "status": "ok",
                "jobs": self.store.states(),
                "executor": {
                    "workers": executor.workers,
                    "counters": executor.counters_snapshot(),
                },
                "cache": {
                    "root": cache.root if cache is not None else None,
                    "entries": cache.stats() if cache is not None else {},
                },
            },
        )

    async def _handle_figures(
        self, params: Dict[str, str], body: bytes
    ) -> Response:
        from repro.workloads.registry import workload_names

        catalog = driver_catalog()
        return Response(
            200,
            {
                "figures": {
                    figure: {"kind": info.kind, "workloads": info.workload_mode}
                    for figure, info in sorted(catalog.items())
                },
                "workloads": sorted(workload_names(include_extensions=True)),
            },
        )

    async def _handle_cache(
        self, params: Dict[str, str], body: bytes
    ) -> Response:
        cache = self.runner.executor.cache
        if cache is None:
            return Response(200, {"root": None, "entries": {}})
        return Response(200, {"root": cache.root, "entries": cache.stats()})

    def _cache_backend_or_error(
        self, params: Dict[str, str]
    ) -> Union[Tuple[str, "LocalDirBackend"], Response]:
        """Validate the ``{key}`` segment and resolve the server's local
        cache tier (never its own remote -- a cache server must not
        recurse into another cache server)."""
        key = params["key"]
        if not _CACHE_KEY_RE.fullmatch(key):
            return self._error(
                400,
                "cache key must be 64 lowercase hex chars (a SHA-256 cell key)",
                {"key": key[:80]},
            )
        cache = self.runner.executor.cache
        if cache is None:
            return self._error(
                404, "this server runs without a result cache", {"key": key[:12]}
            )
        return key, LocalDirBackend(cache.root)

    async def _handle_cache_get(
        self, params: Dict[str, str], body: bytes
    ) -> Response:
        resolved = self._cache_backend_or_error(params)
        if isinstance(resolved, Response):
            return resolved
        key, backend = resolved
        payload, status = backend.get_entry(key)
        if payload is None:
            # Misses and corrupt entries look identical to remote
            # clients: re-simulate.  (The owning executor quarantines
            # corrupt entries through its own cache path.)
            return self._error(
                404, "no cache entry for %s" % key[:12],
                {"key": key[:12], "status": status},
            )
        return Response(200, {"key": key, "payload": payload})

    async def _handle_cache_put(
        self, params: Dict[str, str], body: bytes
    ) -> Response:
        resolved = self._cache_backend_or_error(params)
        if isinstance(resolved, Response):
            return resolved
        key, backend = resolved
        try:
            payload = json.loads(body.decode("utf-8")) if body else None
        except (json.JSONDecodeError, UnicodeDecodeError):
            return self._error(400, "request body is not valid JSON", {})
        if not isinstance(payload, dict):
            return self._error(
                400,
                "cache payload must be a JSON object",
                {"key": key[:12], "got": type(payload).__name__},
            )
        backend.put(key, payload)
        return Response(201, {"key": key, "stored": True})

    async def _handle_submit(
        self, params: Dict[str, str], body: bytes
    ) -> Response:
        try:
            payload = json.loads(body.decode("utf-8")) if body else None
        except (json.JSONDecodeError, UnicodeDecodeError):
            return self._error(400, "request body is not valid JSON", {})
        job = self.submit(payload)
        return Response(202, {"job": job.public()})

    async def _handle_jobs(
        self, params: Dict[str, str], body: bytes
    ) -> Response:
        return Response(
            200, {"jobs": [job.public() for job in self.store.in_order()]}
        )

    async def _handle_job(
        self, params: Dict[str, str], body: bytes
    ) -> Union[Response, EventStream]:
        job = self._job_or_error(params)
        if isinstance(job, Response):
            return job
        return Response(200, {"job": job.public()})

    async def _handle_result(
        self, params: Dict[str, str], body: bytes
    ) -> Union[Response, EventStream]:
        job = self._job_or_error(params)
        if isinstance(job, Response):
            return job
        if job.state in ("queued", "running"):
            return self._error(
                409,
                "job %s is still %s; poll /api/jobs/%s or stream its events"
                % (job.id, job.state, job.id),
                {"job": job.id, "state": job.state},
            )
        if job.state == "failed":
            return self._error(
                409,
                "job %s failed: %s" % (job.id, job.error),
                {"job": job.id, "state": job.state, "error": job.error},
            )
        payload = self.store.load_result(job.id)
        if payload is None:
            return self._error(
                500,
                "job %s is %s but its result record is missing"
                % (job.id, job.state),
                {"job": job.id, "state": job.state},
            )
        return Response(200, payload)

    async def _handle_manifest(
        self, params: Dict[str, str], body: bytes
    ) -> Union[Response, EventStream]:
        job = self._job_or_error(params)
        if isinstance(job, Response):
            return job
        payload = self.store.load_result(job.id)
        if payload is not None and "manifest" in payload:
            return Response(200, {"job": job.id, "manifest": payload["manifest"]})
        return Response(200, {"job": job.id, "manifest": self.runner.job_manifest(job)})

    async def _handle_events(
        self, params: Dict[str, str], body: bytes
    ) -> Union[Response, EventStream]:
        job = self._job_or_error(params)
        if isinstance(job, Response):
            return job
        return EventStream(self._event_lines(job.id))

    async def _event_lines(self, job_id: str) -> AsyncIterator[str]:
        """Tail the job's telemetry JSONL live, then close with one
        ``stream_end`` record carrying the terminal state."""
        path = self.store.telemetry_path(job_id)
        offset = 0
        while True:
            # Read the state before draining: a job publishes its
            # terminal state after its last event, so once the state read
            # here is terminal, the drain below sees every event.
            job = self.store.get(job_id)
            state = None if job is None else job.state
            drained = False
            if os.path.exists(path):
                with open(path) as stream:
                    stream.seek(offset)
                    tail = stream.read()
                complete = tail.rfind("\n") + 1
                if complete:
                    offset += complete
                    for line in tail[:complete].splitlines():
                        if line.strip():
                            yield line
                drained = not tail[complete:]
            if state not in (None, "queued", "running") and drained:
                yield json.dumps(
                    {"event": "stream_end", "job": job_id, "state": state},
                    sort_keys=True,
                )
                return
            await asyncio.sleep(STREAM_POLL_SECONDS)

    # -- the socket layer ----------------------------------------------

    async def _read_request(
        self, reader: asyncio.StreamReader
    ) -> Optional[Tuple[str, str, bytes, bool]]:
        """Parse one request; ``(method, path, body, too_large)`` or
        ``None`` on a torn/empty connection."""
        try:
            request_line = await reader.readline()
        except (ConnectionError, asyncio.LimitOverrunError):
            return None
        parts = request_line.decode("latin-1").strip().split()
        if len(parts) != 3:
            return None
        method, target, _version = parts
        content_length = 0
        while True:
            line = await reader.readline()
            if not line or line in (b"\r\n", b"\n"):
                break
            name, _, value = line.decode("latin-1").partition(":")
            if name.strip().lower() == "content-length":
                try:
                    content_length = int(value.strip())
                except ValueError:
                    content_length = 0
        if content_length > MAX_BODY_BYTES:
            return method, target.split("?", 1)[0], b"", True
        body = b""
        if content_length:
            body = await reader.readexactly(content_length)
        return method, target.split("?", 1)[0], body, False

    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        try:
            request = await self._read_request(reader)
            if request is None:
                return
            method, path, body, too_large = request
            if too_large:
                result: Union[Response, EventStream] = self._error(
                    413,
                    "request body exceeds %d bytes" % MAX_BODY_BYTES,
                    {"limit": MAX_BODY_BYTES},
                )
            else:
                result = await self.handle(method, path, body)
            if isinstance(result, Response):
                await self._write_response(writer, result)
            else:
                await self._write_stream(writer, result)
        except (ConnectionError, asyncio.IncompleteReadError):
            pass  # client went away; nothing to clean up but the socket
        finally:
            try:
                writer.close()
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass

    async def _write_response(
        self, writer: asyncio.StreamWriter, response: Response
    ) -> None:
        payload = dict(response.payload)
        payload.setdefault("service", service_envelope())
        body = (json.dumps(payload, sort_keys=True) + "\n").encode("utf-8")
        status_text = _STATUS_TEXT.get(response.status, "Unknown")
        head = [
            "HTTP/1.1 %d %s" % (response.status, status_text),
            "Content-Type: application/json",
            "Content-Length: %d" % len(body),
            "Connection: close",
        ]
        head.extend("%s: %s" % pair for pair in response.headers)
        writer.write(("\r\n".join(head) + "\r\n\r\n").encode("latin-1"))
        writer.write(body)
        await writer.drain()

    async def _write_stream(
        self, writer: asyncio.StreamWriter, stream: EventStream
    ) -> None:
        head = (
            "HTTP/1.1 200 OK\r\n"
            "Content-Type: application/x-ndjson\r\n"
            "Transfer-Encoding: chunked\r\n"
            "Connection: close\r\n\r\n"
        )
        writer.write(head.encode("latin-1"))
        await writer.drain()
        async for line in stream.lines:
            chunk = (line + "\n").encode("utf-8")
            writer.write(b"%x\r\n" % len(chunk) + chunk + b"\r\n")
            await writer.drain()
        writer.write(b"0\r\n\r\n")
        await writer.drain()

    # -- lifecycle ------------------------------------------------------

    async def serve(
        self,
        host: str,
        port: int,
        announce: Optional[Callable[[str, int], None]] = None,
    ) -> None:
        """Bind, recover unfinished jobs, and serve until :meth:`shutdown`.

        *announce* is called once with the actual bound host/port
        (``port=0`` asks the OS for a free one).
        """
        self._loop = asyncio.get_running_loop()
        self._queue = asyncio.Queue()
        self._stop = asyncio.Event()
        self.recover_jobs()
        server = await asyncio.start_server(self._handle_connection, host, port)
        sockets = server.sockets or []
        if sockets:
            bound = sockets[0].getsockname()
            self.host, self.port = bound[0], bound[1]
        if announce is not None and self.port is not None:
            announce(self.host or host, self.port)
        worker = asyncio.ensure_future(self._worker())
        stop = self._stop
        try:
            await stop.wait()
        finally:
            worker.cancel()
            server.close()
            await server.wait_closed()

    def shutdown(self) -> None:
        """Stop serving; safe to call from any thread or a signal
        handler."""
        loop, stop = self._loop, self._stop
        if loop is None or stop is None:
            return
        loop.call_soon_threadsafe(stop.set)

    def run(
        self,
        host: str,
        port: int,
        announce: Optional[Callable[[str, int], None]] = None,
    ) -> None:
        """Blocking entry point: serve until SIGINT/SIGTERM."""
        import signal

        async def main() -> None:
            loop = asyncio.get_running_loop()
            for signum in (signal.SIGINT, signal.SIGTERM):
                try:
                    # shutdown() resolves the loop-bound stop event at
                    # signal time, after serve() has created it.
                    loop.add_signal_handler(signum, self.shutdown)
                except (NotImplementedError, ValueError, RuntimeError):
                    pass  # non-main thread or platform without signals
            await self.serve(host, port, announce=announce)

        asyncio.run(main())
