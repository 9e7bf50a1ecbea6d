"""A small typed Python client for the sweep service.

Blocking and stdlib-only (:mod:`http.client`), because its consumers
are tests, CI smoke jobs, and scripts -- things that submit a job,
poll or stream until it finishes, and fetch the rows::

    from repro.service.client import ServiceClient

    client = ServiceClient("127.0.0.1", 8765)
    job = client.submit(figure="fig01", length=2000, workloads=["xsbench"])
    done = client.wait(job.id)
    print(done.counters["simulated"], "cells simulated")
    rows = client.result(job.id)["result"]["rows"]

Every non-2xx response raises :class:`ServiceError` carrying the HTTP
status and the server's structured error context, so callers never
parse failure strings.
"""

from __future__ import annotations

import http.client
import json
import time
from dataclasses import dataclass
from typing import Any, Dict, Iterator, List, Optional, Sequence

from repro.common.errors import ReproError


class ServiceError(ReproError):
    """A non-2xx response from the sweep service."""

    def __init__(
        self, status: int, message: str, context: Optional[Dict[str, Any]] = None
    ) -> None:
        self.status = status
        super().__init__(
            "HTTP %d: %s" % (status, message), context=context or {}
        )


@dataclass(frozen=True)
class JobView:
    """The client-side rendering of one job record."""

    id: str
    figure: str
    state: str
    spec: Dict[str, Any]
    counters: Dict[str, int]
    missing_cells: List[str]
    resumes: int
    error: Optional[str]

    @property
    def terminal(self) -> bool:
        return self.state in ("done", "degraded", "failed")

    @classmethod
    def from_payload(cls, payload: Dict[str, Any]) -> "JobView":
        return cls(
            id=payload["id"],
            figure=payload["figure"],
            state=payload["state"],
            spec=dict(payload.get("spec", {})),
            counters=dict(payload.get("counters", {})),
            missing_cells=list(payload.get("missing_cells", [])),
            resumes=int(payload.get("resumes", 0)),
            error=payload.get("error"),
        )


class ServiceClient:
    """One server, many requests; a fresh connection per call (the
    server closes connections after each response)."""

    def __init__(self, host: str, port: int, timeout: float = 60.0) -> None:
        self.host = host
        self.port = port
        self.timeout = timeout

    # -- transport ------------------------------------------------------

    def _request(
        self, method: str, path: str, body: Optional[Dict[str, Any]] = None
    ) -> Dict[str, Any]:
        connection = http.client.HTTPConnection(
            self.host, self.port, timeout=self.timeout
        )
        try:
            encoded = json.dumps(body).encode("utf-8") if body is not None else None
            headers = {"Content-Type": "application/json"} if encoded else {}
            connection.request(method, path, body=encoded, headers=headers)
            response = connection.getresponse()
            raw = response.read()
            payload = self._decode(response.status, raw)
            if response.status >= 400:
                raise ServiceError(
                    response.status,
                    str(payload.get("error", "request failed")),
                    context=payload.get("context"),
                )
            return payload
        finally:
            connection.close()

    @staticmethod
    def _decode(status: int, raw: bytes) -> Dict[str, Any]:
        try:
            payload = json.loads(raw.decode("utf-8"))
        except (json.JSONDecodeError, UnicodeDecodeError):
            raise ServiceError(
                status,
                "response body is not JSON",
                context={"body_prefix": raw[:120].decode("utf-8", "replace")},
            )
        if not isinstance(payload, dict):
            raise ServiceError(
                status,
                "response body is not a JSON object",
                context={"got": str(type(payload))},
            )
        return payload

    # -- endpoints ------------------------------------------------------

    def health(self) -> Dict[str, Any]:
        return self._request("GET", "/api/health")

    def figures(self) -> Dict[str, Any]:
        return self._request("GET", "/api/figures")

    def cache(self) -> Dict[str, Any]:
        return self._request("GET", "/api/cache")

    def cache_get(self, key: str) -> Optional[Dict[str, Any]]:
        """One result payload by its SHA-256 cell key, or ``None`` on a
        miss (the same shape :class:`~repro.exec.HTTPBackend` reads)."""
        try:
            document = self._request("GET", "/api/cache/%s" % key)
        except ServiceError as exc:
            if exc.status == 404:
                return None
            raise
        payload = document.get("payload")
        return payload if isinstance(payload, dict) else None

    def cache_put(self, key: str, payload: Dict[str, Any]) -> None:
        """Replicate one result payload into the server's cache."""
        self._request("PUT", "/api/cache/%s" % key, body=payload)

    def submit(
        self,
        figure: str,
        length: Optional[int] = None,
        seed: int = 0,
        workloads: Optional[Sequence[str]] = None,
        check_invariants: Optional[str] = None,
        max_retries: Optional[int] = None,
        cell_timeout: Optional[float] = None,
        allow_partial: bool = False,
    ) -> JobView:
        """Submit one job spec; returns the accepted (queued) job."""
        spec: Dict[str, Any] = {"figure": figure, "seed": seed}
        if length is not None:
            spec["length"] = length
        if workloads is not None:
            spec["workloads"] = list(workloads)
        if check_invariants is not None:
            spec["check_invariants"] = check_invariants
        if max_retries is not None:
            spec["max_retries"] = max_retries
        if cell_timeout is not None:
            spec["cell_timeout"] = cell_timeout
        if allow_partial:
            spec["allow_partial"] = True
        payload = self._request("POST", "/api/jobs", body=spec)
        return JobView.from_payload(payload["job"])

    def jobs(self) -> List[JobView]:
        payload = self._request("GET", "/api/jobs")
        return [JobView.from_payload(job) for job in payload["jobs"]]

    def job(self, job_id: str) -> JobView:
        payload = self._request("GET", "/api/jobs/%s" % job_id)
        return JobView.from_payload(payload["job"])

    def wait(
        self, job_id: str, timeout: float = 300.0, poll: float = 0.05
    ) -> JobView:
        """Poll until the job reaches a terminal state."""
        deadline = time.monotonic() + timeout
        while True:
            view = self.job(job_id)
            if view.terminal:
                return view
            if time.monotonic() >= deadline:
                raise ServiceError(
                    408,
                    "job %s still %s after %.1fs" % (job_id, view.state, timeout),
                    context={"job": job_id, "state": view.state},
                )
            time.sleep(poll)

    def result(self, job_id: str) -> Dict[str, Any]:
        """The finished job's payload: ``result`` rows + ``manifest``."""
        return self._request("GET", "/api/jobs/%s/result" % job_id)

    def manifest(self, job_id: str) -> Dict[str, Any]:
        return self._request("GET", "/api/jobs/%s/manifest" % job_id)

    def events(self, job_id: str) -> Iterator[Dict[str, Any]]:
        """Stream the job's telemetry events live, one dict per event,
        until the server closes the stream (``stream_end``)."""
        connection = http.client.HTTPConnection(
            self.host, self.port, timeout=self.timeout
        )
        try:
            connection.request("GET", "/api/jobs/%s/events" % job_id)
            response = connection.getresponse()
            if response.status >= 400:
                payload = self._decode(response.status, response.read())
                raise ServiceError(
                    response.status,
                    str(payload.get("error", "request failed")),
                    context=payload.get("context"),
                )
            while True:
                line = response.readline()
                if not line:
                    return
                line = line.strip()
                if not line:
                    continue
                event = json.loads(line.decode("utf-8"))
                if isinstance(event, dict):
                    yield event
        finally:
            connection.close()
