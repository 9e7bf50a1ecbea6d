"""Tests for the command-line interface."""

import io
import json

import pytest

from repro.analysis.figures import FIGURES
from repro.cli import build_parser, main


def run_cli(*argv):
    out = io.StringIO()
    code = main(list(argv), out=out)
    return code, out.getvalue()


def test_list_shows_all_workloads():
    code, output = run_cli("list")
    assert code == 0
    for name in ("xsbench", "graph500", "illustris", "bzip2_small"):
        assert name in output


def test_run_prints_breakdown():
    code, output = run_cli("run", "mcf", "--length", "800")
    assert code == 0
    assert "DRAM-PTW runtime" in output
    assert "replay service" in output  # TEMPO on by default


def test_run_no_tempo_has_no_replay_service():
    code, output = run_cli("run", "mcf", "--length", "800", "--no-tempo")
    assert code == 0
    assert "replay service" not in output


def test_compare_reports_improvements():
    code, output = run_cli("compare", "xsbench", "--length", "1500")
    assert code == 0
    assert "performance:" in output
    assert "energy:" in output


def test_row_policy_and_scheduler_flags():
    code, output = run_cli(
        "run", "mcf", "--length", "600",
        "--row-policy", "closed", "--scheduler", "atlas",
    )
    assert code == 0


def test_trace_generate_and_replay(tmp_path):
    path = str(tmp_path / "t.trace")
    code, output = run_cli("trace", "lsh", "-o", path, "--length", "500")
    assert code == 0
    assert "wrote" in output
    code, output = run_cli("run", "--trace", path, "--length", "500")
    assert code == 0
    assert "lsh" in output


def test_run_stats_json_round_trip(tmp_path):
    path = str(tmp_path / "stats.json")
    code, output = run_cli("run", "mcf", "--length", "800", "--stats-json", path)
    assert code == 0
    assert "wrote" in output
    stats = json.load(open(path))
    assert any("tlb." in key for key in stats)
    assert any(key.startswith("controller.") for key in stats)
    assert any(key.startswith("manifest.") for key in stats)
    assert stats["manifest.workloads"] == "mcf"


def test_run_trace_events_chrome_format(tmp_path):
    path = str(tmp_path / "trace.json")
    code, output = run_cli("run", "mcf", "--length", "400", "--trace-events", path)
    assert code == 0
    events = json.load(open(path))
    assert isinstance(events, list) and events
    spans = [event for event in events if event.get("ph") == "X"]
    assert spans
    assert all("ts" in event and "dur" in event for event in spans)


def test_stats_command_prints_namespace(tmp_path):
    code, output = run_cli("stats", "mcf", "--length", "400")
    assert code == 0
    assert "controller." in output
    assert "manifest.config_sha256" in output
    code, filtered = run_cli("stats", "mcf", "--length", "400", "--filter", "core0.tlb")
    assert code == 0
    assert filtered.strip()
    assert all(
        line.startswith("core0.tlb") for line in filtered.strip().splitlines()
    )


def test_stats_command_csv_export(tmp_path):
    path = str(tmp_path / "stats.csv")
    code, output = run_cli("stats", "mcf", "--length", "400", "--csv", path)
    assert code == 0
    lines = open(path).read().splitlines()
    assert lines[0] == "metric,value"
    assert len(lines) > 10


def test_stats_filter_accepts_globs():
    code, output = run_cli(
        "stats", "mcf", "--length", "400", "--filter", "core0.tlb.*"
    )
    assert code == 0
    lines = output.strip().splitlines()
    assert lines
    assert all(line.startswith("core0.tlb.") for line in lines)
    # A glob can reach across prefixes, which a plain prefix cannot.
    code, output = run_cli(
        "stats", "mcf", "--length", "400", "--filter", "*.walker.walks"
    )
    assert code == 0
    assert any(line.startswith("core0.walker.walks") for line in output.splitlines())


def test_stats_filter_glob_without_match_is_empty():
    code, output = run_cli(
        "stats", "mcf", "--length", "400", "--filter", "no.such.unit.*"
    )
    assert code == 0
    assert output.strip() == ""


def test_timeline_command_renders_bars_and_attribution():
    code, output = run_cli("timeline", "xsbench", "--length", "800", "--width", "40")
    assert code == 0
    assert "per-unit utilization" in output
    assert "core0.walker" in output
    assert "bottleneck attribution" in output
    assert "unattributed cycles: 0" in output


def test_timeline_command_exports_json_and_csv(tmp_path):
    json_path = str(tmp_path / "timeline.json")
    csv_path = str(tmp_path / "timeline.csv")
    code, output = run_cli(
        "timeline", "xsbench", "--length", "800",
        "--interval", "512", "--json", json_path, "--csv", csv_path,
    )
    assert code == 0
    payload = json.load(open(json_path))
    assert payload["schema_version"] == 1
    assert payload["attribution"]["unattributed_cycles"] == 0
    assert {unit["name"] for unit in payload["units"]} >= {"core0.walker", "llc"}
    lines = open(csv_path).read().splitlines()
    assert lines[0] == "kind,name,interval_start,value"
    assert len(lines) > 10


def test_timeline_command_rejects_bad_interval():
    code, output = run_cli("timeline", "xsbench", "--length", "400", "--interval", "0")
    assert code == 2
    assert "error:" in output


def test_experiment_telemetry_flag_writes_jsonl(tmp_path):
    path = str(tmp_path / "telemetry.jsonl")
    code, output = run_cli(
        "experiment", "fig01", "--length", "400", "--workloads", "xsbench",
        "--no-cache", "--telemetry", path,
    )
    assert code == 0
    events = [json.loads(line) for line in open(path)]
    kinds = [event["event"] for event in events]
    assert kinds[0] == "batch_start"
    assert "batch_finish" in kinds
    assert any(k in ("cell_done", "cache_hit") for k in kinds)
    assert all(event["schema"] == 2 for event in events)


def test_experiment_fixed_set_warns_on_workloads_filter():
    code, output = run_cli(
        "experiment", "fig17", "--length", "200", "--workloads", "xsbench"
    )
    assert code == 0
    assert "ignoring --workloads" in output


def test_experiment_driver_runs():
    code, output = run_cli(
        "experiment", "fig01", "--length", "800", "--workloads", "xsbench"
    )
    assert code == 0
    assert "fig01" in output
    assert "xsbench" in output


def test_experiment_runs_ablation_drivers():
    code, output = run_cli(
        "experiment", "ablation_prefetch_latency",
        "--workloads", "xsbench", "--length", "300", "--no-cache",
    )
    assert code == 0
    assert "## ablation_prefetch_latency" in output


def test_single_workload_ablation_rejects_two_workloads(tmp_path):
    code, output = run_cli(
        "experiment", "ablation_prefetch_latency",
        "--workloads", "xsbench", "mcf", "--cache-dir", str(tmp_path),
    )
    assert code == 2
    assert "exactly one" in output
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize(
    "argv",
    [
        ["run", "nope"],
        ["trace", "nope", "-o", "OUT"],
        ["experiment", "fig99"],
        ["experiment", "fig01", "--workloads", "nope"],
        ["experiment", "fig01", "--workloads", "xsbench", "--length", "0"],
        ["experiment", "fig01", "--workloads", "xsbench", "--length", "-5"],
        ["experiment", "fig01", "--workloads", "xsbench", "--length", "ten"],
        ["run", "xsbench", "--length", "0"],
        ["trace", "xsbench", "-o", "OUT", "--length", "0"],
        ["verify", "--length", "0"],
        ["experiment", "fig01", "--workloads", "xsbench", "--cell-timeout", "0"],
        ["experiment", "fig01", "--workloads", "xsbench", "--max-retries", "-2"],
        ["experiment", "fig01", "--workloads", "xsbench", "--check-invariants", "always"],
        ["experiment", "fig01", "--workloads", "xsbench", "--workers", "0"],
        ["experiment", "fig01", "--workloads", "xsbench", "--faults", "seed=0,bogus=1"],
        ["experiment", "fig01", "--workloads", "xsbench", "--faults", "heartbeat_stall=0.2"],
    ],
    ids="_".join,
)
def test_bad_input_is_a_usage_error_before_anything_runs(argv, tmp_path, capsys):
    argv = [str(tmp_path / "out.trace") if arg == "OUT" else arg for arg in argv]
    if argv[0] == "experiment":
        argv = argv + ["--cache-dir", str(tmp_path)]
    with pytest.raises(SystemExit) as excinfo:
        run_cli(*argv)
    assert excinfo.value.code == 2
    err = capsys.readouterr().err
    assert "usage: repro %s" % argv[0] in err
    if "fig99" in argv:
        # The error lists every id of the figure table.
        assert all(figure_id in err for figure_id in FIGURES)
    # Nothing was simulated, cached or written.
    assert list(tmp_path.iterdir()) == []


def test_unknown_workload_error_names_the_known_workloads(capsys):
    with pytest.raises(SystemExit):
        run_cli("run", "nope")
    err = capsys.readouterr().err
    assert "'nope'" in err
    for name in ("xsbench", "mcf", "bzip2_small", "kvstore"):
        assert name in err


def test_parser_requires_command():
    with pytest.raises(SystemExit):
        build_parser().parse_args([])
