"""Performance harness: ``python -m tools.bench`` (with ``src`` on
``PYTHONPATH``).

Two measurements, written to ``BENCH_perf.json`` at the repo root:

* **records/sec per workload** -- one ``SystemSimulator.run()`` per
  registered workload under the default config, trace generation
  excluded, so the numbers isolate the simulator hot loop.
* **wall-clock per figure** -- each benched figure driver run three
  ways: serial with no cache (the pre-executor behaviour), through the
  persistent worker pool (``--workers``) into a cold cache, and
  serially against that now-warm cache.  ``pool_speedup`` is the
  pool's measured win over serial now that workers amortize their
  interpreter start across the whole queue instead of paying it per
  cell (the retired ``SPAWN_OVERHEAD_SECONDS`` cost model).

Keep ``--length`` small: the point is a repeatable trajectory across
PRs, not report-quality statistics.  Each run carries the history
forward: the previous file's ``trajectory`` list plus a compact entry
for the previous run itself are re-embedded in the new file (newest
last, capped), so the committed artifact accumulates a cross-PR record
as long as every refresh uses the same ``--length``/``--workers`` the
CI perf-smoke job uses.
"""

import argparse
import json
import multiprocessing
import os
import platform
import tempfile
import time

from repro import __version__
from repro.analysis import experiments
from repro.common.config import default_system_config
from repro.exec import ExperimentExecutor, ResultCache
from repro.sim.system import SystemSimulator
from repro.workloads.registry import make_trace, workload_names

#: Figure drivers the harness times, smallest representative set: fig01
#: is single-config per workload, fig10 is the baseline/TEMPO pair sweep.
BENCH_FIGURES = {
    "fig01_runtime_breakdown": experiments.fig01_runtime_breakdown,
    "fig10_performance_energy": experiments.fig10_performance_energy,
}


def bench_workloads(names, length, seed=0):
    """records/sec for each workload, trace generation excluded."""
    config = default_system_config()
    rows = {}
    for name in names:
        trace = make_trace(name, length=length, seed=seed)
        started = time.perf_counter()
        SystemSimulator(config, [trace], seed=seed).run()
        elapsed = time.perf_counter() - started
        rows[name] = {
            "records": len(trace),
            "seconds": round(elapsed, 4),
            "records_per_sec": round(len(trace) / elapsed) if elapsed else None,
        }
    return rows


def _time_driver(driver, length, executor):
    started = time.perf_counter()
    driver(length=length, executor=executor)
    return time.perf_counter() - started


def bench_figures(figures, length, workers, cache_root):
    """Serial / pool-cold-cache / warm-cache wall-clock per figure."""
    rows = {}
    for name, driver in figures.items():
        serial = _time_driver(driver, length, ExperimentExecutor())
        cache = ResultCache(os.path.join(cache_root, name))
        pool = _time_driver(
            driver, length, ExperimentExecutor(workers=workers, cache=cache)
        )
        warm_executor = ExperimentExecutor(cache=cache)
        warm = _time_driver(driver, length, warm_executor)
        rows[name] = {
            "serial_seconds": round(serial, 3),
            "pool_seconds": round(pool, 3),
            "pool_workers": workers,
            "pool_speedup": round(serial / pool, 2) if pool else None,
            "warm_cache_seconds": round(warm, 3),
            "warm_cache_speedup": round(serial / warm, 2) if warm else None,
            "warm_cache_simulated": warm_executor.counters["simulated"],
        }
    return rows


#: Trajectory entries kept in the artifact (newest last).
TRAJECTORY_LIMIT = 24


def _trajectory_entry(payload):
    """Compact one full bench payload into a single history row."""
    workloads = payload.get("workloads", {})
    rates = sorted(
        row["records_per_sec"]
        for row in workloads.values()
        if row.get("records_per_sec")
    )
    entry = {
        "package_version": payload.get("package_version"),
        "generated_utc": payload.get("generated_utc"),
        "length": payload.get("length"),
        "cpu_count": payload.get("cpu_count"),
        "min_records_per_sec": rates[0] if rates else None,
        "max_records_per_sec": rates[-1] if rates else None,
    }
    # Schema 3-4 artifacts also timed the deleted batch kernel; their
    # history rows keep its speedup range.
    speedups = sorted(
        row["batch_speedup"]
        for row in workloads.values()
        if row.get("batch_speedup")
    )
    if speedups:
        entry["min_batch_speedup"] = speedups[0]
        entry["max_batch_speedup"] = speedups[-1]
    figures = payload.get("figures", {})
    if figures:
        entry["warm_cache_speedups"] = {
            name: row.get("warm_cache_speedup") for name, row in figures.items()
        }
        # Pre-pool artifacts (schema <= 3) recorded ``parallel_speedup``
        # from the retired per-cell-spawn executor; only carry the pool
        # number forward when a row actually has one.
        pool = {
            name: row["pool_speedup"]
            for name, row in figures.items()
            if row.get("pool_speedup") is not None
        }
        if pool:
            entry["pool_speedups"] = pool
    return entry


def load_trajectory(path):
    """History to embed in the next artifact: the previous file's
    trajectory plus the previous run itself, capped at
    :data:`TRAJECTORY_LIMIT`.  Missing or unreadable files start an
    empty history rather than failing the bench."""
    try:
        with open(path) as stream:
            previous = json.load(stream)
    except (OSError, ValueError):
        return []
    trajectory = list(previous.get("trajectory", []))
    trajectory.append(_trajectory_entry(previous))
    return trajectory[-TRAJECTORY_LIMIT:]


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="python -m tools.bench",
        description="Time the simulator hot loop and the experiment "
        "executor; write BENCH_perf.json.",
    )
    parser.add_argument(
        "--length", type=int, default=4000, help="records per trace (default 4000)"
    )
    parser.add_argument(
        "--workers",
        type=int,
        default=4,
        help="persistent pool size for the pooled runs (default 4)",
    )
    parser.add_argument(
        "--figures",
        default=",".join(BENCH_FIGURES),
        help="comma-separated figure drivers to time (default: all benched)",
    )
    parser.add_argument(
        "--skip-figures", action="store_true", help="only bench workload throughput"
    )
    parser.add_argument(
        "-o", "--output", default="BENCH_perf.json", help="output path"
    )
    args = parser.parse_args(argv)

    figures = {}
    if not args.skip_figures:
        for name in args.figures.split(","):
            name = name.strip()
            if name not in BENCH_FIGURES:
                parser.error(
                    "unknown figure %r (benched: %s)"
                    % (name, ", ".join(BENCH_FIGURES))
                )
            figures[name] = BENCH_FIGURES[name]

    print("benching workloads (length=%d) ..." % args.length)
    workloads = bench_workloads(workload_names(), args.length)
    for name, row in workloads.items():
        print("  %-20s %8s rec/s" % (name, row["records_per_sec"]))

    cpu_count = multiprocessing.cpu_count()
    workers = args.workers
    figure_rows = {}
    if figures:
        if workers > cpu_count:
            print(
                "note: --workers %d exceeds the %d available CPU(s); the pool "
                "adds overhead without speedup on this host" % (workers, cpu_count)
            )
        with tempfile.TemporaryDirectory(prefix="repro-bench-") as cache_root:
            for name in figures:
                print("benching %s (serial / workers=%d / warm cache) ..."
                      % (name, workers))
                figure_rows.update(
                    bench_figures({name: figures[name]}, args.length, workers,
                                  cache_root)
                )
                row = figure_rows[name]
                print(
                    "  serial %.2fs, pool %.2fs (%.2fx), warm cache %.2fs "
                    "(%.2fx, %d simulated)"
                    % (
                        row["serial_seconds"],
                        row["pool_seconds"],
                        row["pool_speedup"],
                        row["warm_cache_seconds"],
                        row["warm_cache_speedup"],
                        row["warm_cache_simulated"],
                    )
                )

    trajectory = load_trajectory(args.output)
    payload = {
        "schema": 5,
        "trajectory": trajectory,
        "package_version": __version__,
        "python": platform.python_version(),
        "machine": platform.machine(),
        "cpu_count": cpu_count,
        "generated_utc": time.strftime("%Y-%m-%d %H:%M:%S", time.gmtime()),
        "length": args.length,
        "workloads": workloads,
        "figures": figure_rows,
    }
    with open(args.output, "w") as stream:
        json.dump(payload, stream, indent=2, sort_keys=True)
        stream.write("\n")
    print(
        "wrote %s (%d trajectory entries carried forward)"
        % (args.output, len(trajectory))
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
