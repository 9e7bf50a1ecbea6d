"""Benchmark driver: ``python3 -m bench [--workload NAME] [--seed N]
[--seconds S] [--trace 0|1] [--write-golden] [--out FILE]``.

Measures each workload by starting fresh child processes
(:mod:`bench.child`) one after another, each running one pass over the
workload's cells, until ``--seconds`` of wall time are used.  Spreading
a run over several processes averages out what differs between
processes (memory layout, placement on the host), which on a shared
host moves a single process's speed by several percent.  Passes and
set-up are timed in reference seconds (see :mod:`bench.hostspeed`).
Every simulated cell is checked against the golden digests
(:mod:`bench.golden`).  Prints one
``workload metric value unit`` line per metric and ends with one JSON
line: ``correct``, ``attempted``, ``failed`` and ``metrics``.
``--trace 0`` reports the end-to-end metrics of ``BENCHMARK.json``,
``--trace 1`` its per-layer metrics.  Exit status: 0 when every cell
matched, 1 on a failed cell, 2 when the benchmark cannot run at all.
"""

import argparse
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time

from bench import BUILD_DIR, ROOT
from bench.golden import DigestCheck, write_golden
from bench.metrics import end_to_end, per_layer

#: Fewest measuring processes per untraced run, so ``setup_s`` is a
#: median of at least three set-ups.
MIN_CHILDREN = 3
#: A child that outlives this is killed; a run must end within 180 s.
CHILD_TIMEOUT_S = 170


class BenchError(Exception):
    """The benchmark could not run (as opposed to a failed cell)."""


def load_spec():
    path = os.path.join(ROOT, "BENCHMARK.json")
    try:
        with open(path) as stream:
            return json.load(stream)
    except (OSError, ValueError) as exc:
        raise BenchError("cannot read %s: %s" % (path, exc)) from exc


def run_child(spec):
    """Run one :mod:`bench.child` and return its report.  The child gets
    its own process group, so a timeout or interrupt takes anything it
    started down with it.  Its bytecode cache lives under
    :data:`BUILD_DIR` and is always written, so ``setup_s`` measures
    imports from cached bytecode whatever the caller's environment."""
    os.makedirs(os.path.join(BUILD_DIR, "tmp"), exist_ok=True)
    report_path = os.path.join(BUILD_DIR, "report-%d.json" % os.getpid())
    pythonpath = [os.path.join(ROOT, "src"), ROOT]
    if os.environ.get("PYTHONPATH"):
        pythonpath.append(os.environ["PYTHONPATH"])
    env = dict(
        os.environ,
        PYTHONPATH=os.pathsep.join(pythonpath),
        PYTHONPYCACHEPREFIX=os.path.join(BUILD_DIR, "pycache"),
        TMPDIR=os.path.join(BUILD_DIR, "tmp"),
    )
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    process = subprocess.Popen(
        [sys.executable, "-m", "bench.child", json.dumps(spec), report_path],
        cwd=ROOT,
        env=env,
        stdout=sys.stderr.fileno(),
        start_new_session=True,
    )
    try:
        code = process.wait(CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired as exc:
        raise BenchError("%s timed out after %d s" % (spec["workload"], CHILD_TIMEOUT_S)) from exc
    finally:
        try:
            os.killpg(process.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        process.wait()
    if code != 0:
        raise BenchError("%s: measuring process exited with %d" % (spec["workload"], code))
    with open(report_path) as stream:
        report = json.load(stream)
    os.remove(report_path)
    return report


def _merge_traces(traces):
    """Sum the children's per-layer span totals."""
    merged = {
        "root_ns": sum(trace["root_ns"] for trace in traces),
        "inner_ns": statistics.median(trace["inner_ns"] for trace in traces),
        "outer_ns": statistics.median(trace["outer_ns"] for trace in traces),
        "queue_depth_max": max(trace["queue_depth_max"] for trace in traces),
        "layers": {},
    }
    for trace in traces:
        for name, totals in trace["layers"].items():
            into = merged["layers"].setdefault(name, dict.fromkeys(totals, 0))
            for key, value in totals.items():
                into[key] += value
    return merged


def merge_reports(reports):
    """One report from several children's: lists concatenate, counts
    add, digests merge per (path, cell) in first-seen order."""
    merged = {
        "children": len(reports),
        "setup_s": [report["setup_s"] for report in reports],
        "peak_rss_mb": [report["peak_rss_mb"] for report in reports],
        "host_speed": [report["host_speed"] for report in reports],
        "attempted": sum(report["attempted"] for report in reports),
        "errors": [error for report in reports for error in report["errors"]],
        "untraced": [run for report in reports for run in report["untraced"]],
        "traced": [run for report in reports for run in report["traced"]],
        "trace": None,
        "cell_seconds": {},
        "digests": {},
        "summaries": reports[0]["summaries"],
        "tempo_gains": reports[0]["tempo_gains"],
        "paper": reports[0]["paper"],
    }
    for report in reports:
        for cell, samples in report["cell_seconds"].items():
            merged["cell_seconds"].setdefault(cell, []).extend(samples)
        for path, cells in report["digests"].items():
            for cell, seen in cells.items():
                counts = merged["digests"].setdefault(path, {}).setdefault(cell, {})
                for digest, count in seen:
                    counts[digest] = counts.get(digest, 0) + count
    merged["digests"] = {
        path: {cell: [[d, n] for d, n in counts.items()] for cell, counts in cells.items()}
        for path, cells in merged["digests"].items()
    }
    if reports[0]["trace"] is not None:
        merged["trace"] = _merge_traces([report["trace"] for report in reports])
    return merged


def measure(workload, seed, seconds, trace):
    """Children one after another until *seconds* are used (at least
    :data:`MIN_CHILDREN` untraced, one traced); their merged report."""
    spec = {"workload": workload, "seed": seed, "trace": trace}
    least = 1 if trace else MIN_CHILDREN
    reports = []
    start = time.monotonic()
    while True:
        reports.append(run_child(spec))
        elapsed = time.monotonic() - start
        if len(reports) >= least and elapsed * (1 + 1 / len(reports)) > seconds:
            break
    return merge_reports(reports)


def _band_line(workload, metric, value, band):
    low, high = band
    distance = 0.0 if low <= value <= high else (value - low if value < low else value - high)
    return "%s %s %r fraction (paper band %g..%g, distance %+.4f)" % (
        workload, metric, value, low, high, distance,
    )


def run_workload(workload, args, spec):
    """Measure one workload and print its lines; returns its ``--out``
    entry."""
    loadavg = os.getloadavg()
    report = measure(workload, args.seed, args.seconds, args.trace)

    check = DigestCheck(args.seed)
    failed, problems = check.check(report["digests"])
    failed += len(report["errors"])
    problems += report["errors"]
    check.save()

    if args.trace:
        metrics, listed = per_layer(report), spec["per_layer"]
    else:
        metrics, listed = end_to_end(report), spec["end_to_end"]
    units = {}
    for entry in listed:
        if entry["name"] not in metrics:
            raise BenchError("%s: no value for metric %r" % (workload, entry["name"]))
        units[entry["name"]] = entry["unit"]
        print("%s %s %r %s" % (workload, entry["name"], metrics[entry["name"]], entry["unit"]))
    attempted = report["attempted"]
    host_speed = statistics.median(report["host_speed"])
    print("%s host_speed %r fraction (of the reference host, median over %d processes)"
          % (workload, host_speed, report["children"]))
    print("%s ops_failed_frac %r fraction (%d of %d cell results)"
          % (workload, failed / attempted if attempted else 1.0, failed, attempted))
    if report["paper"] and report["tempo_gains"]:
        for metric, key in (("tempo_perf_gain", "perf"), ("tempo_energy_gain", "energy")):
            print(_band_line(workload, metric, report["tempo_gains"][key], report["paper"][key]))
    for problem in problems[:10]:
        print("%s FAILED %s" % (workload, problem), file=sys.stderr)
    return {
        "loadavg_before": loadavg,
        "host_speed": report["host_speed"],
        "correct": failed == 0 and attempted > 0,
        "attempted": attempted,
        "failed": failed,
        "problems": problems,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
        "all_metrics": metrics,
        "processes": report["children"],
        "setup_runs_s": report["setup_s"],
        "cells": {
            cell: {"median_s": statistics.median(samples), "count": len(samples)}
            for cell, samples in report["cell_seconds"].items()
        },
        "tempo_gains": report["tempo_gains"],
        "paper": report["paper"],
    }


def write_goldens(workloads, seed):
    """One untraced pass per workload; its digests become seed *seed*'s
    goldens."""
    for workload in workloads:
        report = run_child({"workload": workload, "seed": seed, "trace": 0})
        if report["errors"]:
            raise BenchError("%s: %s" % (workload, report["errors"][0]))
        digests = {cell: seen[0][0] for cell, seen in report["digests"]["untraced"].items()}
        write_golden(seed, digests)
        print("%s: wrote %d golden digests for seed %d" % (workload, len(digests), seed))


def environment():
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        ).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        commit = None
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "machine": platform.machine(),
        "git_commit": commit,
        "utc": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
    }


def parse_args(argv, spec):
    names = [entry["name"] for entry in spec["workloads"]]
    parser = argparse.ArgumentParser(prog="python3 -m bench", description=__doc__.split("\n\n")[1])
    parser.add_argument("--workload", choices=names, help="one workload (default: all)")
    parser.add_argument("--seed", type=int, default=0, help="input seed (default 0)")
    parser.add_argument(
        "--seconds", type=float, default=spec["run_seconds"],
        help="measuring time per workload (default %(default)s)",
    )
    parser.add_argument(
        "--trace", type=int, choices=(0, 1), default=0,
        help="1: report per-layer metrics from traced passes",
    )
    parser.add_argument(
        "--write-golden", action="store_true",
        help="record this seed's digests in bench/golden.json instead of measuring",
    )
    parser.add_argument("--out", help="also write a JSON report with the environment stamp")
    args = parser.parse_args(argv)
    args.workloads = [args.workload] if args.workload else names
    return args


def main(argv=None):
    try:
        if not os.path.isdir(os.path.join(ROOT, "src", "repro")):
            raise BenchError("no simulator sources under %s" % os.path.join(ROOT, "src"))
        spec = load_spec()
        args = parse_args(argv, spec)
        os.makedirs(BUILD_DIR, exist_ok=True)
        if args.write_golden:
            write_goldens(args.workloads, args.seed)
            return 0
        results = {name: run_workload(name, args, spec) for name in args.workloads}
    except BenchError as exc:
        print("bench: %s" % exc, file=sys.stderr)
        return 2

    if args.out:
        with open(args.out, "w") as stream:
            json.dump(
                {"environment": environment(), "seed": args.seed, "seconds": args.seconds,
                 "trace": args.trace, "workloads": results},
                stream, indent=1, sort_keys=True,
            )
    if len(results) == 1:
        (result,) = results.values()
        metrics = result["metrics"]
    else:
        metrics = {
            "%s.%s" % (name, metric): value
            for name, result in results.items()
            for metric, value in result["metrics"].items()
        }
    attempted = sum(result["attempted"] for result in results.values())
    failed = sum(result["failed"] for result in results.values())
    correct = all(result["correct"] for result in results.values())
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0 if correct else 1
