"""Command-line interface: ``python -m repro <command>``.

Commands:

``list``
    Show the available workloads.
``run WORKLOAD``
    Simulate one workload and print the runtime/DRAM breakdowns
    (``--stats-json`` / ``--trace-events`` export the full metrics
    namespace and a ``chrome://tracing`` lifecycle trace).
``compare WORKLOAD``
    Run baseline vs. TEMPO on the same trace and print improvements.
``trace WORKLOAD -o FILE``
    Generate a trace file for later replay (see ``--trace`` on run).
``stats WORKLOAD``
    Simulate one workload and print (or export) every metric in the
    unified namespace: per-core TLB/MMU-cache/walker/cache structures,
    controller, DRAM banks, energy, and the run manifest.  ``--filter``
    narrows the dump with a glob over the dotted keys
    (``core0.tlb.*``, ``dram.bank*.busy_cycles``); a pattern without
    glob characters matches as a prefix.
``timeline WORKLOAD``
    Simulate one workload with per-unit busy/idle accounting and
    render ASCII utilization bars, phase timelines and the top-down
    translation/cache/DRAM/overlap bottleneck attribution
    (``docs/observability.md``).  ``--json`` / ``--csv`` export the
    same interval series; ``--interval`` sets the bucket width in
    cycles and ``--sample-interval`` the metric-snapshot cadence.
``experiment FIGURE``
    Run one entry of the figure table (``repro.analysis.figures``): a
    paper figure (fig01 ... fig17) or an ablation (ablation_*; the
    single-workload ablation_prefetch_latency takes at most one
    ``--workloads`` name) at the figure's own trace length unless
    ``--length`` is given, and print the same markdown section
    ``report`` writes for it, with the verdict of each paper claim.
    Bad input (an unknown figure or workload, a non-positive
    ``--length`` or ``--workers``, a bad ``--faults`` spec) is a usage
    error (exit 2) before anything runs.  ``--workers N`` fans the
    driver's simulation cells across N worker processes; results are
    served from (and persisted to) a content-addressed cache unless
    ``--no-cache``.
    Sweeps are fault-tolerant (``docs/resilience.md``): failing cells
    retry up to ``--max-retries`` times, a pooled cell past its deadline
    (``--cell-timeout``, or one derived from its records) is killed and
    retried, re-running an interrupted sweep re-simulates only the cells
    missing from the cache, ``--allow-partial`` degrades exhausted cells
    to explicitly-missing results (exit code 3) instead of aborting, and
    ``--faults`` injects deterministic faults for testing.
``report -o FILE``
    Run every entry of the figure table (optionally without the
    ablations) and write a markdown report with each claim's verdict
    and an embedded provenance manifest.  One executor is shared
    across all sections, so overlapping figures never simulate the
    same cell twice; ``--workers`` / ``--no-cache`` /
    ``--cache-dir`` and the resilience flags (``--max-retries``,
    ``--cell-timeout``, ``--allow-partial``, ``--faults``) work as for
    ``experiment``.  With ``--allow-partial`` a degraded report carries
    a banner listing the missing cells and the run exits 3.
``verify``
    Run the differential/metamorphic oracle suite (``repro.verify``):
    determinism across processes, TEMPO's replay-reduction metamorphic,
    trace-length monotonicity, and a full online-audit run.  ``--quick`` shrinks the runs for CI
    smoke use; exits 1 when any oracle fails.
``lint [PATHS...]``
    Run simlint, the AST-based invariant linter (default target:
    ``src/repro``): no nondeterminism in the code a cell runs, stat
    registration, error context, and the hygiene rules.  ``--format
    json`` for machine-readable output, ``--disable SLnnn`` to switch
    rules off, ``--list-rules`` for the catalogue; exits 1 when findings
    remain.
    Rules are documented in ``docs/static_analysis.md``.
"""

import argparse
import fnmatch
import os
import sys
from dataclasses import replace

from repro.analysis.figures import FIGURES
from repro.common.config import default_system_config
from repro.verify.auditor import FULL_INTERVAL as _FULL_INTERVAL
from repro.obs import EventTracer, write_stats_csv, write_stats_json
from repro.obs.timeline import DEFAULT_INTERVAL as _TIMELINE_INTERVAL
from repro.sim.runner import (
    energy_fraction,
    run_baseline_and_tempo,
    run_workload,
    speedup_fraction,
)
from repro.sim.traceio import load_trace, save_trace
from repro.workloads.registry import (
    BIGDATA_WORKLOADS,
    EXTENSION_WORKLOADS,
    SMALL_WORKLOADS,
    make_trace,
    workload_names,
)


def _build_config(args):
    config = default_system_config()
    overrides = {}
    if getattr(args, "row_policy", None):
        overrides["row_policy"] = replace(config.row_policy, policy=args.row_policy)
    if getattr(args, "scheduler", None):
        overrides["scheduler"] = replace(config.scheduler, policy=args.scheduler)
    if getattr(args, "imp", False):
        overrides["imp"] = replace(config.imp, enabled=True)
    if getattr(args, "memhog", None) is not None:
        overrides["vm"] = replace(config.vm, memhog_fraction=args.memhog)
    if overrides:
        config = config.copy_with(**overrides)
    if getattr(args, "no_tempo", False):
        config = config.with_tempo(False)
    config.validate()
    return config


def _invariant_mode(args):
    """The ``--check-invariants`` value, with ``off`` mapped to None (the
    default of the simulator and the executor): no audit suite is built,
    so the audit adds nothing to the simulator's probe."""
    mode = getattr(args, "check_invariants", "off")
    return None if mode == "off" else mode


def _build_executor(args):
    """Executor for the experiment/report commands from their flags."""
    from repro.exec import (
        ExperimentExecutor,
        ResiliencePolicy,
        ResultCache,
        default_cache_dir,
    )

    cache = None
    if not args.no_cache:
        cache = ResultCache(args.cache_dir or default_cache_dir())
    policy = ResiliencePolicy(
        max_retries=args.max_retries,
        cell_timeout=args.cell_timeout,
        allow_partial=args.allow_partial,
    )
    telemetry = None
    if getattr(args, "telemetry", None):
        from repro.exec import TelemetryLog

        telemetry = TelemetryLog(args.telemetry)
    return ExperimentExecutor(
        workers=args.workers,
        cache=cache,
        resilience=policy,
        faults=args.faults,
        check_invariants=_invariant_mode(args),
        telemetry=telemetry,
    )


def _executor_exit_code(executor, out):
    """0 for a clean sweep, 3 when results are degraded (missing cells
    under ``--allow-partial``)."""
    if not executor.failed_cells:
        return 0
    out.write(
        "warning: degraded results -- %d cell(s) missing after retries\n"
        % len(executor.failed_cells)
    )
    return 3


def _filter_stats(stats, pattern):
    """Narrow a flat metrics dict with a glob over the dotted keys.

    A pattern without glob metacharacters keeps matching as a plain
    prefix (``--filter core0.tlb`` predates the glob support).
    """
    if any(ch in pattern for ch in "*?["):
        return {k: v for k, v in stats.items() if fnmatch.fnmatchcase(k, pattern)}
    return {k: v for k, v in stats.items() if k.startswith(pattern)}


def _resolve_workload(args):
    if getattr(args, "trace", None):
        return load_trace(args.trace)
    return args.workload


def _print_result(result, out):
    core = result.core
    out.write("workload:            %s\n" % core.workload_name)
    out.write("references:          %d\n" % core.references)
    out.write("cycles:              %d\n" % core.cycles)
    out.write("DRAM-PTW runtime:    %.1f%%\n" % (100 * core.runtime.fraction("ptw")))
    out.write("DRAM-replay runtime: %.1f%%\n" % (100 * core.runtime.fraction("replay")))
    out.write("DRAM-other runtime:  %.1f%%\n" % (100 * core.runtime.fraction("other")))
    out.write("leaf share of PTW:   %.1f%%\n" % (100 * core.dram_refs.leaf_fraction_of_ptw()))
    out.write("superpage coverage:  %.1f%%\n" % (100 * result.superpage_fraction))
    out.write("energy:              %.1f units\n" % result.energy_total)
    if core.replay_service.total:
        service = core.replay_service
        out.write(
            "replay service:      %.0f%% LLC / %.0f%% row buffer / %.0f%% unaided\n"
            % (
                100 * service.fraction("llc"),
                100 * service.fraction("row_buffer"),
                100 * service.fraction("unaided"),
            )
        )


def _cmd_list(args, out):
    out.write("big-data workloads (paper Sec. 5.1):\n")
    for workload in BIGDATA_WORKLOADS:
        out.write("  %-12s %s\n" % (workload.name, workload.description))
    out.write("small-footprint stand-ins:\n")
    for workload in SMALL_WORKLOADS:
        out.write("  %-20s %s\n" % (workload.name, workload.description))
    out.write("extensions:\n")
    for workload in EXTENSION_WORKLOADS:
        out.write("  %-12s %s\n" % (workload.name, workload.description))
    return 0


def _export_observability(result, tracer, args, out):
    """Write --stats-json / --trace-events artifacts when requested."""
    if getattr(args, "stats_json", None):
        written = write_stats_json(result.stats, args.stats_json)
        out.write("wrote %d metrics to %s\n" % (written, args.stats_json))
    if tracer is not None:
        written = tracer.write_chrome_trace(args.trace_events)
        out.write(
            "wrote %d trace events to %s (load in chrome://tracing)\n"
            % (written, args.trace_events)
        )


def _cmd_run(args, out):
    config = _build_config(args)
    tracer = EventTracer() if args.trace_events else None
    result = run_workload(
        _resolve_workload(args),
        config,
        length=args.length,
        seed=args.seed,
        probe=tracer,
        check_invariants=_invariant_mode(args),
    )
    _print_result(result, out)
    _export_observability(result, tracer, args, out)
    return 0


def _cmd_stats(args, out):
    config = _build_config(args)
    tracer = EventTracer() if args.trace_events else None
    result = run_workload(
        _resolve_workload(args),
        config,
        length=args.length,
        seed=args.seed,
        probe=tracer,
        check_invariants=_invariant_mode(args),
    )
    stats = result.stats
    if args.filter:
        stats = _filter_stats(stats, args.filter)
    for key in sorted(stats):
        value = stats[key]
        if isinstance(value, float):
            out.write("%s = %.6g\n" % (key, value))
        else:
            out.write("%s = %s\n" % (key, value))
    if args.csv:
        written = write_stats_csv(stats, args.csv)
        out.write("wrote %d metrics to %s\n" % (written, args.csv))
    _export_observability(result, tracer, args, out)
    return 0


def _cmd_timeline(args, out):
    from repro.obs import (
        TimelineRecorder,
        render_timeline,
        timeline_payload,
        write_timeline_csv,
        write_timeline_json,
    )

    config = _build_config(args)
    try:
        recorder = TimelineRecorder(
            interval=args.interval, sample_interval=args.sample_interval
        )
    except ValueError as exc:
        out.write("error: %s\n" % exc)
        return 2
    run_workload(
        _resolve_workload(args),
        config,
        length=args.length,
        seed=args.seed,
        probe=recorder,
        check_invariants=_invariant_mode(args),
    )
    payload = timeline_payload(recorder)
    out.write(render_timeline(payload, width=args.width))
    if args.json:
        written = write_timeline_json(payload, args.json)
        out.write("wrote %d unit series to %s\n" % (written, args.json))
    if args.csv:
        written = write_timeline_csv(payload, args.csv)
        out.write("wrote %d timeline rows to %s\n" % (written, args.csv))
    return 0


def _cmd_compare(args, out):
    config = _build_config(args)
    baseline, tempo = run_baseline_and_tempo(
        _resolve_workload(args), config, length=args.length, seed=args.seed
    )
    out.write("baseline cycles: %d\n" % baseline.total_cycles)
    out.write("tempo cycles:    %d\n" % tempo.total_cycles)
    out.write("performance:     %+.1f%%\n" % (100 * speedup_fraction(baseline, tempo)))
    out.write("energy:          %+.1f%%\n" % (100 * energy_fraction(baseline, tempo)))
    return 0


def _cmd_trace(args, out):
    trace = make_trace(args.workload, length=args.length, seed=args.seed)
    written = save_trace(trace, args.output)
    out.write("wrote %d records to %s\n" % (written, args.output))
    return 0


def _cmd_experiment(args, out):
    from repro.analysis.figures import render_section
    from repro.exec import CellExecutionError, SweepAborted

    figure = FIGURES[args.figure]
    if args.workloads and figure.workloads == "fixed":
        out.write(
            "warning: %s uses a fixed workload set; ignoring --workloads %s\n"
            % (args.figure, " ".join(args.workloads))
        )
    elif args.workloads and figure.workloads == "one" and len(args.workloads) > 1:
        out.write(
            "error: %s studies one workload; pass exactly one --workloads name\n"
            % args.figure
        )
        return 2
    executor = _build_executor(args)
    try:
        result = figure.run(executor, args.length, args.workloads)
    except (CellExecutionError, SweepAborted) as exc:
        out.write(executor.summary() + "\n")
        out.write("error: %s\n" % exc)
        return 1
    out.write(render_section(result) + "\n")
    out.write(executor.summary() + "\n")
    return _executor_exit_code(executor, out)


def _cmd_verify(args, out):
    from repro.verify import run_verification

    results = run_verification(
        out=lambda line: out.write(line + "\n"),
        quick=args.quick,
        length=args.length,
        seed=args.seed,
    )
    failed = [result for result in results if not result.passed]
    out.write(
        "%d/%d oracles passed\n" % (len(results) - len(failed), len(results))
    )
    return 1 if failed else 0


def _cmd_lint(args, out):
    from repro.lint import (
        ALL_RULES,
        lint_paths,
        render_json,
        render_rules,
        render_text,
    )
    from repro.lint.engine import discover_files

    if args.list_rules:
        render_rules(out)
        return 0
    known = {rule.rule_id for rule in ALL_RULES}
    unknown = [rule for rule in args.disable if rule not in known]
    if unknown:
        out.write(
            "unknown rule id(s): %s (known: %s)\n"
            % (", ".join(unknown), ", ".join(sorted(known)))
        )
        return 2
    paths = args.paths or ["src/repro"]
    missing = [path for path in paths if not os.path.exists(path)]
    if missing:
        out.write("no such path(s): %s\n" % ", ".join(missing))
        return 2
    # A gate pointed at a tree without Python files must not pass.
    files = discover_files(paths)
    if not files:
        out.write("no Python files under: %s\n" % ", ".join(paths))
        return 2

    rules = [rule for rule in ALL_RULES if rule.rule_id not in args.disable]
    findings = lint_paths(files, rules=rules)
    if args.format == "json":
        render_json(findings, out)
    else:
        render_text(findings, out)
    return 1 if findings else 0


def _cmd_report(args, out):
    from repro.analysis.report import write_report
    from repro.exec import CellExecutionError, SweepAborted

    def progress(message):
        # Progress is interactive chatter, not a result: it goes to
        # stderr so piping/redirecting the command stays clean.
        sys.stderr.write(message + "\n")

    executor = _build_executor(args)
    try:
        path = write_report(
            args.output,
            include_ablations=not args.no_ablations,
            progress=progress,
            executor=executor,
        )
    except (CellExecutionError, SweepAborted) as exc:
        out.write(executor.summary() + "\n")
        out.write("error: %s\n" % exc)
        return 1
    out.write(executor.summary() + "\n")
    out.write("report written to %s\n" % path)
    return _executor_exit_code(executor, out)


def _checked(kind, accept, requirement):
    """An argparse ``type=`` that parses with *kind* and rejects values
    failing *accept*, so bad input is a usage error (exit 2) raised
    before anything is simulated or cached."""

    def parse(text):
        try:
            value = kind(text)
            if accept(value):
                return value
        except ValueError:
            pass
        raise argparse.ArgumentTypeError("%r is not %s" % (text, requirement))

    return parse


_positive_int = _checked(int, lambda value: value > 0, "a positive integer")
_non_negative_int = _checked(
    int, lambda value: value >= 0, "a non-negative integer"
)
_positive_seconds = _checked(
    float, lambda value: value > 0, "a positive number of seconds"
)


def _fault_spec(text):
    """``--faults``: a :class:`repro.exec.FaultSpec`, or a usage error."""
    from repro.exec import FaultSpec

    try:
        return FaultSpec.parse(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc))


#: Every name ``make_trace`` accepts (``repro list`` prints the same set).
_WORKLOADS = workload_names(include_extensions=True)


def build_parser():
    parser = argparse.ArgumentParser(
        prog="repro",
        description="TEMPO (ASPLOS 2017) reproduction: translation-triggered prefetching",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    subparsers.add_parser("list", help="list available workloads")

    def add_common(sub, needs_workload=True):
        if needs_workload:
            sub.add_argument("workload", nargs="?", default="xsbench",
                             choices=_WORKLOADS, metavar="WORKLOAD",
                             help="workload name (default: xsbench)")
            sub.add_argument("--trace", help="replay a saved trace file instead")
        sub.add_argument("--length", type=_positive_int, default=12000,
                         help="trace records")
        sub.add_argument("--seed", type=int, default=0)
        sub.add_argument("--row-policy", choices=("open", "closed", "adaptive"))
        sub.add_argument("--scheduler", choices=("fcfs", "frfcfs", "bliss", "atlas"))
        sub.add_argument("--imp", action="store_true", help="enable the IMP prefetcher")
        sub.add_argument("--memhog", type=float, help="memhog fragmentation fraction")

    def add_invariant_flag(sub):
        sub.add_argument(
            "--check-invariants",
            choices=("off", "sample", "full"),
            default="off",
            help="online invariant audits: 'off' is bit-identical and "
            "near-zero-cost, 'sample' checkpoints sparsely, 'full' audits "
            "every %d records (see docs/verification.md)" % _FULL_INTERVAL,
        )

    def add_observability(sub):
        sub.add_argument(
            "--stats-json",
            metavar="FILE",
            help="export the full metrics namespace (incl. manifest) as JSON",
        )
        sub.add_argument(
            "--trace-events",
            metavar="FILE",
            help="record lifecycle spans and export chrome://tracing JSON",
        )

    run_parser = subparsers.add_parser("run", help="simulate one workload")
    add_common(run_parser)
    add_observability(run_parser)
    add_invariant_flag(run_parser)
    run_parser.add_argument("--no-tempo", action="store_true", help="disable TEMPO")

    stats_parser = subparsers.add_parser(
        "stats", help="simulate one workload and dump every metric"
    )
    add_common(stats_parser)
    add_observability(stats_parser)
    add_invariant_flag(stats_parser)
    stats_parser.add_argument("--no-tempo", action="store_true", help="disable TEMPO")
    stats_parser.add_argument(
        "--filter",
        metavar="GLOB",
        help="only metrics whose dotted key matches GLOB (e.g. 'core0.tlb.*', "
        "'dram.bank*.busy_cycles'); a pattern without glob characters "
        "matches as a prefix",
    )
    stats_parser.add_argument("--csv", metavar="FILE", help="also export metric,value CSV")

    timeline_parser = subparsers.add_parser(
        "timeline",
        help="render per-unit utilization bars and bottleneck attribution",
    )
    add_common(timeline_parser)
    add_invariant_flag(timeline_parser)
    timeline_parser.add_argument("--no-tempo", action="store_true", help="disable TEMPO")
    timeline_parser.add_argument(
        "--interval",
        type=int,
        default=_TIMELINE_INTERVAL,
        metavar="CYCLES",
        help="timeline bucket width in cycles (default: %d)" % _TIMELINE_INTERVAL,
    )
    timeline_parser.add_argument(
        "--sample-interval",
        type=int,
        default=None,
        metavar="CYCLES",
        help="metric-snapshot cadence (default: same as --interval; 0 disables)",
    )
    timeline_parser.add_argument(
        "--width", type=int, default=60, help="bar/sparkline width in characters"
    )
    timeline_parser.add_argument(
        "--json", metavar="FILE", help="export the full timeline payload as JSON"
    )
    timeline_parser.add_argument(
        "--csv", metavar="FILE", help="export the interval series as CSV"
    )

    compare_parser = subparsers.add_parser("compare", help="baseline vs TEMPO")
    add_common(compare_parser)

    trace_parser = subparsers.add_parser("trace", help="generate a trace file")
    trace_parser.add_argument("workload", choices=_WORKLOADS, metavar="WORKLOAD")
    trace_parser.add_argument("-o", "--output", required=True)
    trace_parser.add_argument("--length", type=_positive_int, default=12000)
    trace_parser.add_argument("--seed", type=int, default=0)

    def add_executor_flags(sub):
        sub.add_argument(
            "--workers",
            type=_positive_int,
            default=1,
            metavar="N",
            help="persistent pool workers for independent simulation cells "
            "(default: 1)",
        )
        sub.add_argument(
            "--no-cache",
            action="store_true",
            help="disable the content-addressed result/trace cache",
        )
        sub.add_argument(
            "--cache-dir",
            metavar="PATH",
            help="cache location (default: $REPRO_CACHE_DIR or ~/.cache/repro-tempo)",
        )
        sub.add_argument(
            "--max-retries",
            type=_non_negative_int,
            default=2,
            metavar="N",
            help="retries per failing cell before giving it up (default: 2)",
        )
        sub.add_argument(
            "--cell-timeout",
            type=_positive_seconds,
            default=None,
            metavar="SECONDS",
            help="kill and retry any cell running longer than this (default: "
            "on the pool, a deadline that scales with the cell's records; "
            "inline, none)",
        )
        sub.add_argument(
            "--allow-partial",
            action="store_true",
            help="after retries are exhausted, proceed with explicitly-marked "
            "missing cells (exit code 3) instead of aborting",
        )
        sub.add_argument(
            "--faults",
            type=_fault_spec,
            metavar="SPEC",
            help="deterministic fault injection for testing, e.g. "
            "'seed=0,kill=0.3,delay=0.2,delay-seconds=0.05,abort-after=4'",
        )
        sub.add_argument(
            "--telemetry",
            metavar="FILE",
            help="append structured sweep telemetry (batch/cell lifecycle "
            "events with durations) to FILE as JSON lines",
        )

    experiment_parser = subparsers.add_parser(
        "experiment", help="run a paper-figure experiment driver"
    )
    experiment_parser.add_argument(
        "figure", choices=FIGURES, metavar="FIGURE", help="figure or ablation id"
    )
    experiment_parser.add_argument(
        "--length",
        type=_positive_int,
        default=None,
        help="trace records (default: the figure's own length, as in the report)",
    )
    experiment_parser.add_argument(
        "--workloads", nargs="*", default=None, choices=_WORKLOADS, metavar="WORKLOAD"
    )
    add_executor_flags(experiment_parser)
    add_invariant_flag(experiment_parser)

    report_parser = subparsers.add_parser(
        "report", help="run every figure driver and write a markdown report"
    )
    report_parser.add_argument("-o", "--output", required=True)
    report_parser.add_argument(
        "--no-ablations", action="store_true", help="figures only (faster)"
    )
    add_executor_flags(report_parser)
    add_invariant_flag(report_parser)

    verify_parser = subparsers.add_parser(
        "verify", help="run the differential/metamorphic oracle suite"
    )
    verify_parser.add_argument(
        "--quick", action="store_true", help="shorter runs (CI smoke mode)"
    )
    verify_parser.add_argument(
        "--length",
        type=_positive_int,
        default=None,
        metavar="N",
        help="trace records per oracle run (default: 4000, or 1200 with --quick)",
    )
    verify_parser.add_argument("--seed", type=int, default=0)

    lint_parser = subparsers.add_parser(
        "lint", help="run simlint, the AST-based invariant linter"
    )
    lint_parser.add_argument(
        "paths", nargs="*", help="files/directories to lint (default: src/repro)"
    )
    lint_parser.add_argument(
        "--format",
        choices=("text", "json"),
        default="text",
        help="output format",
    )
    lint_parser.add_argument(
        "--disable",
        action="append",
        default=[],
        metavar="RULE",
        help="disable a rule by id (repeatable, e.g. --disable SL007)",
    )
    lint_parser.add_argument(
        "--list-rules", action="store_true", help="print the rule catalogue and exit"
    )
    return parser


def main(argv=None, out=None):
    out = out if out is not None else sys.stdout
    args = build_parser().parse_args(argv)
    handlers = {
        "list": _cmd_list,
        "run": _cmd_run,
        "stats": _cmd_stats,
        "timeline": _cmd_timeline,
        "compare": _cmd_compare,
        "trace": _cmd_trace,
        "experiment": _cmd_experiment,
        "report": _cmd_report,
        "verify": _cmd_verify,
        "lint": _cmd_lint,
    }
    return handlers[args.command](args, out)


if __name__ == "__main__":
    sys.exit(main())
