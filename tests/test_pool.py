"""Chaos tests for the supervised worker-pool fabric
(docs/distribution.md).

The contract under test is bit-identity: cells are pure functions of
their identity, so a pooled sweep riddled with injected worker kills
and delays must produce results identical to a fault-free serial run --
the faults may only show up in the counters.

Layers, cheapest first:

* executor-level chaos sweeps (kill + delay) against a serial reference;
* one batch under the ``spawn`` start method, which pickles every
  worker's target and arguments for real;
* a crash loop: a cell that kills every worker it runs on fails once the
  retry budget is spent, and leaves evidence;
* supervisor death: SIGKILL the whole ``repro experiment`` process
  mid-sweep, then run it again and require zero lost work.
"""

import json
import multiprocessing
import os
import re
import signal
import subprocess
import sys
import time

import pytest

from repro.common.config import SystemConfig
from repro.exec import (
    ExperimentExecutor,
    FaultPlan,
    FaultSpec,
    ResiliencePolicy,
    ResultCache,
    TelemetryLog,
)
from repro.exec.cells import SimCell
from repro.exec.faults import KILL_EXIT_CODE
from repro.exec.serialize import result_to_payload
from repro.obs.manifest import without_timing

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

CHAOS_WORKLOADS = ("xsbench", "mcf", "lsh", "canneal", "spmv", "graph500")


def _cells(length=600, workloads=CHAOS_WORKLOADS):
    return [SimCell(wl, SystemConfig(), length=length, seed=0) for wl in workloads]


def _comparable(result):
    """A result's payload with host-timing noise stripped: the exact
    bit-identity surface (everything except ``manifest.timing.*``)."""
    payload = json.loads(json.dumps(result_to_payload(result)))
    payload["stats"] = without_timing(payload["stats"])
    return payload


# ---------------------------------------------------------------------------
# chaos sweep: worker kills + delays vs a fault-free serial run


def test_chaos_pool_sweep_bit_identical_to_serial(tmp_path):
    cells = _cells()
    serial = ExperimentExecutor(workers=1)
    reference = [_comparable(r) for r in serial.run_cells(cells)]

    # The draw is keyed on the cell keys, which move with config_hash:
    # take the first fault seed that draws both kinds over these cells.
    keys = [cell.key() for cell in cells]
    for seed in range(100):
        spec = FaultSpec.parse("seed=%d,kill=0.5,delay=0.3,delay-seconds=0.2" % seed)
        plan = spec.materialize(keys)
        if plan.kill and plan.delay:
            break
    assert plan.kill and plan.delay

    telemetry_path = str(tmp_path / "chaos.jsonl")
    chaotic = ExperimentExecutor(
        workers=3,
        faults=spec,
        telemetry=TelemetryLog(telemetry_path),
    )
    results = [_comparable(r) for r in chaotic.run_cells(cells)]
    chaotic.telemetry.close()

    assert results == reference
    counters = chaotic.counters
    assert counters["crashes"] == len(plan.kill)
    assert counters["retries"] == len(plan.kill)
    assert counters["timeouts"] == 0
    assert counters["workers_respawned"] == counters["retries"]
    assert counters["workers_spawned"] == 3 + counters["workers_respawned"]
    assert counters["simulated"] == len(cells)
    assert counters["failed"] == 0

    events = [json.loads(line) for line in open(telemetry_path)]
    worker_events = [e for e in events if e["event"] == "worker"]
    actions = [e["action"] for e in worker_events]
    assert actions.count("spawned") == 3
    assert actions.count("respawned") == counters["workers_respawned"]
    assert actions.count("crashed") >= len(plan.kill)
    assert {e["schema"] for e in events} == {2}


def test_spawn_pool_batch_bit_identical_to_serial(tmp_path, monkeypatch):
    """``fork`` hands a worker its target and arguments as copied
    memory; ``spawn`` (and ``forkserver``, the Linux default from
    CPython 3.14) pickles them, so anything unpicklable crossing the
    worker boundary fails here."""
    cells = _cells(length=400, workloads=("xsbench", "mcf", "lsh", "canneal"))
    reference = [_comparable(r) for r in ExperimentExecutor(workers=1).run_cells(cells)]

    spawn = multiprocessing.get_context("spawn")
    monkeypatch.setattr(multiprocessing, "get_context", lambda method=None: spawn)
    pooled = ExperimentExecutor(workers=2, cache=ResultCache(str(tmp_path)))
    results = [_comparable(r) for r in pooled.run_cells(cells)]

    assert results == reference
    assert pooled.counters["simulated"] == len(cells)
    assert pooled.counters["workers_spawned"] == 2


def test_pool_reports_steals_and_beats_spawn_per_cell(tmp_path):
    """Work stealing falls out of the shared queue: pin whichever worker
    claims the first cell with a delay fault, and the other worker must
    claim most of the rest (claims are read from the ``running`` events,
    whose ``info`` names the worker)."""
    cells = _cells(length=400, workloads=("xsbench", "mcf", "lsh", "canneal"))
    plan = FaultPlan(delay={cells[0].key(): ((0, 0.5),)})
    telemetry_path = str(tmp_path / "claims.jsonl")
    pooled = ExperimentExecutor(
        workers=2,
        cache=ResultCache(str(tmp_path / "cache")),
        faults=plan,
        telemetry=TelemetryLog(telemetry_path),
    )
    results = pooled.run_cells(cells)
    pooled.telemetry.close()
    assert len(results) == len(cells)
    assert pooled.counters["pooled_batches"] == 1
    assert pooled.counters["workers_spawned"] == 2
    claims = {
        event["key"]: event["info"]
        for event in map(json.loads, open(telemetry_path))
        if event["event"] == "cell_state" and event["state"] == "running"
    }
    stuck = claims[cells[0].key()]
    # With one worker stuck on cell 0 for 0.5s, the free worker claims
    # at least two of the other three cells.
    assert sum(claims[cell.key()] != stuck for cell in cells[1:]) >= 2


# ---------------------------------------------------------------------------
# crash loops


def test_poison_cell_quarantined_with_evidence(tmp_path):
    """A cell that kills its worker on every attempt ends at the retry
    budget (3 deaths with ``max_retries`` 2) and leaves evidence."""
    cells = _cells(length=400, workloads=("xsbench", "mcf"))
    poison_key = cells[0].key()
    plan = FaultPlan(kill={poison_key: (0, 1, 2)})
    executor = ExperimentExecutor(
        workers=2,
        cache=ResultCache(str(tmp_path)),
        faults=plan,
        resilience=ResiliencePolicy(max_retries=2, allow_partial=True),
    )
    results = executor.run_cells(cells)

    assert executor.counters["crashes"] == 3
    assert executor.counters["retries"] == 2
    assert executor.counters["failed"] == 1
    assert executor.counters["simulated"] == 1  # the healthy cell
    assert executor.quarantine_reasons == {"poison-cell": 1}
    [failure] = executor.failed_cells
    assert failure.key == poison_key
    assert failure.attempts == 3
    assert failure.error == "worker crashed (exit %d)" % KILL_EXIT_CODE

    evidence_path = os.path.join(
        str(tmp_path),
        "quarantine",
        poison_key[:2],
        "%s.poison-cell.evidence.json" % poison_key,
    )
    evidence = json.load(open(evidence_path))
    assert evidence["key"] == poison_key
    assert evidence["attempts"] == 3
    assert "exit %d" % KILL_EXIT_CODE in evidence["error"]

    # The degraded stand-in is explicitly marked, the healthy cell real.
    assert results[0].stats.get("missing_cell") == 1
    assert "missing_cell" not in results[1].stats


def test_last_cell_crash_spawns_no_replacement_worker(tmp_path):
    """A worker that dies on the batch's last cell is not replaced: with
    nothing left to run, a respawned worker would only be stopped."""
    [cell] = _cells(length=400, workloads=("xsbench",))
    telemetry_path = str(tmp_path / "pool.jsonl")
    executor = ExperimentExecutor(
        faults=FaultPlan(kill={cell.key(): (0,)}),
        resilience=ResiliencePolicy(max_retries=0, allow_partial=True),
        telemetry=TelemetryLog(telemetry_path),
    )
    executor.run_cells([cell])
    executor.telemetry.close()

    assert executor.counters["crashes"] == 1
    assert executor.counters["failed"] == 1
    assert executor.counters["workers_respawned"] == 0
    events = [json.loads(line) for line in open(telemetry_path)]
    actions = [e["action"] for e in events if e["event"] == "worker"]
    assert actions == ["spawned", "crashed"]


def test_aborted_pooled_batch_keeps_its_counters():
    """A sweep aborted mid-batch still reports the crash, the workers it
    spawned and its pooled batch."""
    from repro.exec import SweepAborted

    crashing, slow = _cells(length=400, workloads=("xsbench", "mcf"))
    # The slow cell holds its worker, so the first completion -- and the
    # abort -- is the crashed cell's retry.
    plan = FaultPlan(
        kill={crashing.key(): (0,)},
        delay={slow.key(): ((0, 1.0),)},
        abort_after=1,
    )
    executor = ExperimentExecutor(workers=2, faults=plan)
    with pytest.raises(SweepAborted):
        executor.run_cells([crashing, slow])

    assert executor.counters["crashes"] == 1
    assert executor.counters["workers_spawned"] == 3
    assert executor.counters["pooled_batches"] == 1
    summary = executor.summary()
    assert "1 crashed" in summary
    assert "3 spawned, 1 respawned" in summary
    assert "1 pooled" in summary


# ---------------------------------------------------------------------------
# supervisor death: kill -9 the whole sweep, then run it again


def _run_cli(argv, **kwargs):
    return subprocess.run(
        [sys.executable, "-m", "repro"] + argv,
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
        env=dict(os.environ, PYTHONPATH=os.path.join(REPO_ROOT, "src")),
        **kwargs,
    )


def _table_lines(output):
    """The experiment table: everything before the executor summary."""
    lines = output.splitlines()
    return [line for line in lines if not line.startswith(("executor:", "warning:"))]


def _children(pid):
    """Child pids of *pid*'s main thread, or None where /proc lacks the
    children file."""
    try:
        with open("/proc/%d/task/%d/children" % (pid, pid)) as stream:
            return [int(child) for child in stream.read().split()]
    except OSError:
        return None


def _alive(pid):
    """True while *pid* runs (a zombie awaiting its reaper has exited)."""
    try:
        with open("/proc/%d/stat" % pid) as stream:
            state = stream.read().rsplit(")", 1)[1].split()[0]
    except OSError:
        return False
    return state not in ("Z", "X")


def test_sigkill_supervisor_then_resume_is_bit_identical(tmp_path):
    cache_dir = str(tmp_path / "cache")
    telemetry = str(tmp_path / "t.jsonl")
    argv = [
        "experiment", "fig01",
        "--length", "6000",
        "--workloads", "xsbench", "mcf",
        "--workers", "2",
        "--cache-dir", cache_dir,
    ]
    process = subprocess.Popen(
        [sys.executable, "-m", "repro"] + argv + ["--telemetry", telemetry],
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
        env=dict(os.environ, PYTHONPATH=os.path.join(REPO_ROOT, "src")),
    )
    try:
        deadline = time.monotonic() + 120.0
        while time.monotonic() < deadline:
            try:
                with open(telemetry) as stream:
                    if any('"event": "cell_done"' in line for line in stream):
                        break
            except FileNotFoundError:
                pass
            if process.poll() is not None:
                raise AssertionError(
                    "sweep finished before it could be killed; "
                    "raise --length"
                )
            time.sleep(0.01)
        else:
            raise AssertionError("no cell_done before the kill deadline")
        workers = _children(process.pid)
        os.kill(process.pid, signal.SIGKILL)
        process.wait(timeout=30)
        if workers is not None:
            # Orphaned pool workers notice the dead supervisor at their
            # next parent check (every 0.25 s) and exit.
            assert workers, "the supervisor had no pool workers at the kill"
            deadline = time.monotonic() + 2.0
            while time.monotonic() < deadline and any(map(_alive, workers)):
                time.sleep(0.02)
            assert not any(map(_alive, workers)), workers
    finally:
        if process.poll() is None:
            process.kill()
            process.wait(timeout=30)

    rerun = _run_cli(argv, timeout=300)
    assert rerun.returncode == 0, rerun.stdout
    # The cells done before the kill come back from the cache.
    from_cache = re.search(
        r"^executor: \d+ simulated, (\d+) from cache", rerun.stdout, re.M
    )
    assert from_cache and int(from_cache.group(1)) >= 1, rerun.stdout

    reference = _run_cli(
        [
            "experiment", "fig01",
            "--length", "6000",
            "--workloads", "xsbench", "mcf",
            "--cache-dir", str(tmp_path / "ref-cache"),
        ],
        timeout=300,
    )
    assert reference.returncode == 0, reference.stdout
    assert _table_lines(rerun.stdout) == _table_lines(reference.stdout)


def test_pool_abort_then_resume_recovers_without_resimulation(tmp_path):
    """The deterministic stand-in for the SIGKILL test: abort the pooled
    sweep after 2 completions, run it again, and require the completed
    cells to come back from the cache -- not a re-simulation."""
    from repro.exec import SweepAborted

    cells = _cells(length=400, workloads=("xsbench", "mcf", "lsh", "canneal"))
    cache_root = str(tmp_path / "cache")
    aborted = ExperimentExecutor(
        workers=2,
        cache=ResultCache(cache_root),
        faults=FaultPlan(abort_after=2),
    )
    with pytest.raises(SweepAborted):
        aborted.run_cells(cells)

    rerun = ExperimentExecutor(workers=2, cache=ResultCache(cache_root))
    results = [_comparable(r) for r in rerun.run_cells(cells)]
    assert rerun.counters["cache_hits"] == 2
    assert rerun.counters["simulated"] == len(cells) - 2

    serial = ExperimentExecutor(workers=1)
    assert results == [_comparable(r) for r in serial.run_cells(cells)]
