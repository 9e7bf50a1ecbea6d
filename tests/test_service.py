"""Sweep-service tests: wire validation, routing, and the live server.

Three layers, cheapest first:

* pure unit tests over :mod:`repro.service.wire` (spec validation and
  digests) and the route table;
* end-to-end tests against a real server on an ephemeral port, driven
  through the typed client -- submit/poll/fetch, the warm-cache
  zero-simulation guarantee, telemetry stream ordering, and the 4xx
  surface;
* a subprocess crash test: SIGKILL ``repro serve`` mid-sweep, restart
  it on the same cache, and require the recovered job's rows to be
  bit-identical to an uninterrupted run.
"""

import asyncio
import json
import os
import signal
import subprocess
import sys
import threading
import time

import pytest

from repro.analysis.experiments import fig01_runtime_breakdown
from repro.exec import ExperimentExecutor, ResultCache, TelemetryLog
from repro.service import build_service
from repro.service.app import match_route
from repro.service.client import ServiceClient, ServiceError
from repro.service.wire import JobSpec, WireError, driver_catalog, parse_job_spec

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


# ---------------------------------------------------------------------------
# wire: spec validation and digests


def test_driver_catalog_covers_figures_and_ablations():
    catalog = driver_catalog()
    assert "fig01" in catalog and catalog["fig01"].kind == "figure"
    assert catalog["fig11_right"].workload_mode == "fixed"
    assert catalog["ablation_prefetch_latency"].workload_mode == "single"
    assert catalog["ablation_destinations"].kind == "ablation"


@pytest.mark.parametrize(
    "payload",
    [
        ["fig01"],  # not an object
        {},  # no figure
        {"figure": "fig99"},  # unknown figure
        {"figure": "fig01", "banana": 1},  # unknown key
        {"figure": "fig01", "length": 0},  # non-positive length
        {"figure": "fig01", "length": True},  # bool is not an int here
        {"figure": "fig01", "seed": -1},  # negative seed
        {"figure": "fig01", "workloads": []},  # empty list
        {"figure": "fig01", "workloads": ["nope"]},  # unknown workload
        {"figure": "fig01", "workloads": [3]},  # non-string workload
        {"figure": "fig11_right", "workloads": ["xsbench"]},  # fixed set
        {
            "figure": "ablation_prefetch_latency",
            "workloads": ["xsbench", "mcf"],
        },  # single-workload study
        {"figure": "fig01", "kernel": "vector"},  # unknown kernel
        {"figure": "fig01", "check_invariants": "always"},
        {"figure": "fig01", "max_retries": -2},
        {"figure": "fig01", "cell_timeout": 0},
        {"figure": "fig01", "allow_partial": "yes"},
    ],
)
def test_parse_job_spec_rejects(payload):
    with pytest.raises(WireError) as excinfo:
        parse_job_spec(payload)
    assert excinfo.value.context  # structured context on every rejection


def test_parse_job_spec_accepts_and_digests_stably():
    payload = {"figure": "fig01", "length": 500, "workloads": ["xsbench"]}
    first = parse_job_spec(payload)
    second = parse_job_spec(dict(payload))
    assert first == second
    assert first.digest() == second.digest()
    assert first.digest() != parse_job_spec({"figure": "fig01"}).digest()
    assert first.driver_kwargs() == {
        "seed": 0,
        "length": 500,
        "workloads": ("xsbench",),
    }


def test_single_workload_spec_maps_to_workload_kwarg():
    spec = parse_job_spec(
        {"figure": "ablation_prefetch_latency", "workloads": ["mcf"]}
    )
    assert spec.driver_kwargs() == {"seed": 0, "workload": "mcf"}


def test_jobspec_canonical_roundtrip_is_json_stable():
    spec = JobSpec(figure="fig04", length=700, workloads=("mcf", "xsbench"))
    assert json.loads(json.dumps(spec.canonical())) == spec.canonical()


# ---------------------------------------------------------------------------
# routing


def test_match_route_resolves_parameters():
    route, params, allowed = match_route("GET", "/api/jobs/j0001-cafe/events")
    assert route is not None and route.name == "events"
    assert params == {"id": "j0001-cafe"}
    assert allowed == []


def test_match_route_distinguishes_404_from_405():
    route, _, allowed = match_route("GET", "/api/nothing")
    assert route is None and allowed == []
    route, _, allowed = match_route("DELETE", "/api/jobs")
    assert route is None and set(allowed) == {"GET", "POST"}


# ---------------------------------------------------------------------------
# end-to-end over a real socket


@pytest.fixture(scope="module")
def server(tmp_path_factory):
    """One live service for the whole module, on an ephemeral port."""
    cache_dir = str(tmp_path_factory.mktemp("service-cache"))
    service = build_service(cache_dir=cache_dir)
    ready = threading.Event()

    def announce(host, port):
        ready.set()

    thread = threading.Thread(
        target=service.run, args=("127.0.0.1", 0), kwargs={"announce": announce}
    )
    thread.start()
    assert ready.wait(timeout=30), "server never announced its port"
    client = ServiceClient("127.0.0.1", service.port)
    yield client, service, cache_dir
    service.shutdown()
    thread.join(timeout=30)
    assert not thread.is_alive()


def _reference_rows(tmp_path, **kwargs):
    """The same figure computed directly, against a private cache."""
    executor = ExperimentExecutor(cache=ResultCache(str(tmp_path / "ref-cache")))
    return fig01_runtime_breakdown(executor=executor, **kwargs)["rows"]


def test_submit_poll_fetch(server, tmp_path):
    client, _, _ = server
    job = client.submit(figure="fig01", length=420, workloads=["xsbench"])
    assert job.state == "queued"
    done = client.wait(job.id)
    assert done.state == "done"
    assert done.counters["simulated"] == 1
    payload = client.result(job.id)
    assert payload["figure"] == "fig01"
    assert payload["result"]["rows"] == _reference_rows(
        tmp_path, length=420, workloads=["xsbench"]
    )
    manifest = payload["manifest"]
    assert manifest["spec"]["figure"] == "fig01"
    assert manifest["spec"] == done.spec
    assert len(manifest["spec_sha256"]) == 64
    assert manifest["counters"]["simulated"] == 1
    assert client.manifest(job.id)["manifest"] == manifest


def test_second_identical_job_simulates_nothing(server):
    client, service, _ = server
    executor = service.runner.executor
    cold = client.wait(
        client.submit(figure="fig01", length=430, workloads=["xsbench", "mcf"]).id
    )
    assert cold.counters["simulated"] == 2
    before = executor.counters_snapshot()
    warm = client.wait(
        client.submit(figure="fig01", length=430, workloads=["xsbench", "mcf"]).id
    )
    assert warm.state == "done"
    assert warm.counters["simulated"] == 0
    assert warm.counters["memo_hits"] + warm.counters["cache_hits"] == 2
    # The executor's own counters tell the same story.
    delta = executor.counters_since(before)
    assert delta["simulated"] == 0
    assert client.result(warm.id)["result"] == client.result(cold.id)["result"]


def test_event_stream_brackets_the_job(server):
    client, _, _ = server
    job = client.submit(figure="fig01", length=440, workloads=["xsbench"])
    events = [event["event"] for event in client.events(job.id)]
    assert events[0] == "job_started"
    assert events[-1] == "stream_end"
    assert "cell_done" in events
    assert events.index("cell_done") < events.index("job_finished")
    assert events.index("job_finished") < events.index("stream_end")


def test_event_stream_keeps_events_written_before_the_terminal_state(tmp_path):
    # The job finishes while the stream sits between draining the file
    # and checking the state: the stream must still deliver job_finished.
    service = build_service(cache_dir=str(tmp_path / "cache"))
    job = service.store.create(parse_job_spec({"figure": "fig01", "length": 450}))
    job.state = "running"
    path = service.store.telemetry_path(job.id)
    with open(path, "w") as stream:
        stream.write('{"event": "job_started"}\n')

    async def collect():
        lines = service._event_lines(job.id)
        seen = [json.loads(await lines.__anext__())["event"]]
        with open(path, "a") as stream:
            stream.write('{"event": "job_finished"}\n')
        job.state = "done"
        async for line in lines:
            seen.append(json.loads(line)["event"])
        return seen

    assert asyncio.run(collect()) == ["job_started", "job_finished", "stream_end"]


def test_job_state_turns_terminal_after_its_result_and_last_event(tmp_path, monkeypatch):
    service = build_service(cache_dir=str(tmp_path / "cache"))
    job = service.store.create(
        parse_job_spec({"figure": "fig01", "length": 300, "workloads": ["xsbench"]})
    )
    seen = []
    emit = TelemetryLog.emit

    def spy(self, event, fields=None):
        if event == "job_finished":
            seen.append((job.state, service.store.load_result(job.id) is not None))
        emit(self, event, fields)

    monkeypatch.setattr(TelemetryLog, "emit", spy)
    service.runner.run_job(job)
    assert seen == [("running", True)]
    assert job.state == "done"


def test_health_figures_and_cache_endpoints(server):
    client, _, cache_dir = server
    health = client.health()
    assert health["status"] == "ok"
    assert set(health["jobs"]) >= {"queued", "running", "done", "failed"}
    assert health["service"]["name"] == "repro-sweep-service"
    figures = client.figures()
    assert figures["figures"]["fig01"]["workloads"] == "list"
    assert "xsbench" in figures["workloads"]
    cache = client.cache()
    assert cache["root"] == cache_dir
    assert cache["entries"]["results"] >= 1  # earlier tests populated it


def test_http_error_surface(server):
    client, service, _ = server
    with pytest.raises(ServiceError) as excinfo:
        client.submit(figure="fig99")
    assert excinfo.value.status == 400
    assert "fig99" in str(excinfo.value)
    assert "known" in excinfo.value.context

    with pytest.raises(ServiceError) as excinfo:
        client.job("j9999-missing")
    assert excinfo.value.status == 404

    with pytest.raises(ServiceError) as excinfo:
        client._request("GET", "/api/nothing")
    assert excinfo.value.status == 404

    with pytest.raises(ServiceError) as excinfo:
        client._request("DELETE", "/api/jobs")
    assert excinfo.value.status == 405

    with pytest.raises(ServiceError) as excinfo:
        client._request("POST", "/api/jobs", body={"figure": ["fig01"]})
    assert excinfo.value.status == 400

    # A job that is not terminal yet refuses to serve a result (409);
    # create it directly in the store so it never reaches the worker.
    queued = service.store.create(parse_job_spec({"figure": "fig01", "length": 450}))
    with pytest.raises(ServiceError) as excinfo:
        client.result(queued.id)
    assert excinfo.value.status == 409
    assert excinfo.value.context["state"] == "queued"


# ---------------------------------------------------------------------------
# crash safety: kill the server mid-sweep, restart, resume


def _start_server(cache_dir):
    process = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve", "--port", "0",
         "--cache-dir", cache_dir],
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
        env=dict(os.environ, PYTHONPATH=os.path.join(REPO_ROOT, "src")),
    )
    assert process.stdout is not None
    line = process.stdout.readline().strip()
    assert line.startswith("serving on http://"), line
    port = int(line.rsplit(":", 1)[1])
    return process, port


def _wait_for_cell_done(path, timeout=120.0):
    """Poll a job's telemetry JSONL until one cell has completed."""
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        try:
            with open(path) as stream:
                if any('"event": "cell_done"' in line for line in stream):
                    return
        except FileNotFoundError:
            pass
        time.sleep(0.01)
    raise AssertionError("no cell_done in %s after %.0fs" % (path, timeout))


def test_killed_server_resumes_job_bit_identically(tmp_path):
    cache_dir = str(tmp_path / "cache")
    spec = {"figure": "fig01", "length": 6000, "workloads": ["xsbench", "mcf"]}

    process, port = _start_server(cache_dir)
    try:
        client = ServiceClient("127.0.0.1", port)
        job = client.submit(**spec)
        telemetry = os.path.join(
            cache_dir, "service", "telemetry", job.id + ".jsonl"
        )
        # Let exactly part of the sweep land, then pull the plug.
        _wait_for_cell_done(telemetry)
        process.kill()
        process.wait(timeout=30)
    finally:
        if process.poll() is None:
            process.kill()
            process.wait(timeout=30)

    interrupted = json.load(
        open(os.path.join(cache_dir, "service", "jobs", job.id + ".json"))
    )
    assert interrupted["state"] in ("queued", "running")

    process, port = _start_server(cache_dir)
    try:
        client = ServiceClient("127.0.0.1", port)
        resumed = client.wait(job.id, timeout=240.0)
        assert resumed.state == "done"
        assert resumed.resumes == 1
        # The journaled cell came back from the checkpoint/cache, not a
        # re-simulation (a resumed cell is a checkpoint-verified cache
        # hit, so it counts under both ``resumed`` and ``cache_hits``).
        assert resumed.counters["resumed"] >= 1
        loaded = resumed.counters["cache_hits"] + resumed.counters["memo_hits"]
        assert resumed.counters["simulated"] + loaded == 2
        assert resumed.counters["simulated"] <= 1
        rows = client.result(job.id)["result"]["rows"]
    finally:
        process.kill()
        process.wait(timeout=30)

    executor = ExperimentExecutor(cache=ResultCache(str(tmp_path / "ref-cache")))
    reference = fig01_runtime_breakdown(
        executor=executor, length=6000, workloads=["xsbench", "mcf"]
    )["rows"]
    assert rows == reference
