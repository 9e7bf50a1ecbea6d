"""The ablation drivers' shapes, on one workload at 2,000 records
through one shared executor (the baseline cells are simulated once)."""

import pytest

from repro.analysis import ablations
from repro.exec import ExperimentExecutor

WORKLOAD = "xsbench"
LENGTH = 2000


@pytest.fixture(scope="module")
def executor():
    return ExperimentExecutor()


def test_prefetch_destinations_structure(executor):
    result = ablations.prefetch_destinations(
        LENGTH, workloads=(WORKLOAD,), executor=executor
    )
    [row] = result["rows"]
    assert row["workload"] == WORKLOAD
    # Row-buffer prefetching alone recovers part of the benefit, and
    # adding the LLC prefetch recovers strictly more.
    assert row["row_buffer_only"] > 0.02
    assert row["row_buffer_plus_llc"] > row["row_buffer_only"]


def test_txq_grouping_structure(executor):
    result = ablations.txq_grouping(LENGTH, workloads=(WORKLOAD,), executor=executor)
    [row] = result["rows"]
    assert row["with_grouping"] > 0.04
    # Grouping is a refinement: it never costs more than a couple of
    # points against the ungrouped scheduler.
    assert row["with_grouping"] >= row["without_grouping"] - 0.02


def test_prefetch_row_latency_sweep(executor):
    result = ablations.prefetch_row_latency(LENGTH, workload=WORKLOAD, executor=executor)
    rows = {row["prefetch_row_cycles"]: row for row in result["rows"]}
    assert sorted(rows) == [40, 60, 100, 140, 200]
    for row in rows.values():
        total = row["llc_fraction"] + row["row_buffer_fraction"]
        assert total <= 1.0 + 1e-9
    # Within the paper's 60-100 cycle budget the LLC prefetch is timely.
    assert rows[60]["llc_fraction"] > 0.8
    assert rows[60]["llc_fraction"] > rows[140]["llc_fraction"]
    # Past the slack window replays fall back to row-buffer hits, which
    # keep part of the benefit.
    assert rows[100]["llc_fraction"] < 0.2
    assert rows[100]["row_buffer_fraction"] > 0.6
    gain = {cycles: row["performance_improvement"] for cycles, row in rows.items()}
    assert 0.0 < gain[100] < gain[60]
    # Pathologically slow prefetches hog banks long enough to hurt
    # (Sec. 4.3: delaying prefetches counteracts TEMPO's benefits), and
    # a faster prefetch never does worse.
    assert gain[200] < gain[140]
    assert gain[40] >= gain[200] - 0.01


def test_scheduler_sensitivity_covers_all(executor):
    result = ablations.scheduler_sensitivity(
        LENGTH, workloads=(WORKLOAD,), executor=executor
    )
    rows = result["rows"]
    assert {row["scheduler"] for row in rows} == {"fcfs", "frfcfs", "bliss", "atlas"}
    for row in rows:
        assert row["performance_improvement"] > 0.02, row


def test_extension_workloads_registered():
    from repro.workloads.registry import get_workload, workload_names

    assert "kvstore" in workload_names(include_extensions=True)
    assert "btree" in workload_names(include_extensions=True)
    assert "kvstore" not in workload_names()
    for name in ("kvstore", "btree"):
        trace = get_workload(name).build(800, seed=1)
        trace.validate()
        assert trace.footprint_bytes > 256 * 1024**3


def test_extension_workloads_benefit_from_tempo():
    from repro.sim.runner import run_baseline_and_tempo, speedup_fraction

    baseline, tempo = run_baseline_and_tempo("kvstore", length=2500, seed=0)
    assert speedup_fraction(baseline, tempo) > 0.03


def _fig01_only(monkeypatch, length):
    from repro.analysis import report

    fig01 = report.FIGURES["fig01"]._replace(length=length)
    monkeypatch.setattr(report, "FIGURES", {"fig01": fig01})


def test_report_generation_small(monkeypatch):
    from repro.analysis.report import generate_report

    _fig01_only(monkeypatch, 400)
    report = generate_report()
    assert "# TEMPO reproduction report" in report
    assert "## fig01" in report
    assert "xsbench" in report
    assert "| claim | scope | paper | measured | verdict | detail |" in report


def test_report_markdown_tables():
    from repro.analysis.figures import _markdown_table

    table = _markdown_table([{"a": 1, "b": 0.25}])
    assert table.splitlines()[0] == "| a | b |"
    assert "0.250" in table
    assert _markdown_table([]) == "(no rows)\n"


def test_write_report_to_disk(tmp_path, monkeypatch):
    from repro.analysis.report import write_report

    _fig01_only(monkeypatch, 300)
    path = write_report(str(tmp_path / "report.md"), progress=lambda line: None)
    with open(path) as stream:
        assert "## fig01" in stream.read()


def test_fig15_reports_mechanism_metric():
    from repro.analysis import experiments

    result = experiments.fig15_wait_cycles(
        workloads=("xsbench",), length=1500, waits=(0, 10)
    )
    for row in result["rows"]:
        assert 0.0 <= row["pt_row_hit_rate"] <= 1.0
        # Every wait keeps TEMPO's benefit.
        assert row["performance_improvement"] > 0.05
