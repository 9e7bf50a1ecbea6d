"""Cross-cutting consistency checks: public API surface, configuration
coherence, and documentation-code agreement."""

import pytest


def test_public_api_exports_resolve():
    import repro

    for name in repro.__all__:
        assert getattr(repro, name, None) is not None, name


def test_subpackage_exports_resolve():
    import repro.analysis
    import repro.cache
    import repro.common
    import repro.dram
    import repro.mmu
    import repro.sched
    import repro.sim
    import repro.vm
    import repro.workloads

    for module in (
        repro.common, repro.vm, repro.mmu, repro.cache, repro.dram,
        repro.sched, repro.sim, repro.workloads, repro.analysis,
    ):
        for name in module.__all__:
            assert getattr(module, name, None) is not None, (module.__name__, name)


def test_version_matches_pyproject():
    import repro

    with open("pyproject.toml") as stream:
        content = stream.read()
    assert 'version = "%s"' % repro.__version__ in content


def test_every_public_module_has_docstring():
    import importlib
    import pkgutil

    import repro

    for info in pkgutil.walk_packages(repro.__path__, prefix="repro."):
        if info.name == "repro.__main__":
            continue  # executes the CLI on import, by design
        module = importlib.import_module(info.name)
        assert module.__doc__, "%s lacks a module docstring" % info.name


def test_default_slack_window_exceeds_prefetch_path():
    """The timing contract from docs/timing_model.md: with the default
    constants, an unloaded LLC prefetch lands inside the slack window."""
    from repro.common.config import default_system_config

    config = default_system_config()
    prefetch_ready = (
        config.tempo.wait_cycles
        + config.tempo.prefetch_row_cycles
        + config.tempo.prefetch_llc_extra_cycles
    )
    slack = (
        config.dram.controller_overhead_cycles
        + config.core.tlb_fill_latency
        + 1  # replay TLB probe
        + config.core.llc_latency
    )
    assert prefetch_ready < slack


def test_expectation_claims_are_substantive():
    """Every expectation entry carries a real claim sentence, and every
    entry beyond the claim is machine-checkable (numbers/bools)."""
    from repro.analysis.expectations import PAPER_EXPECTATIONS

    for figure, entry in PAPER_EXPECTATIONS.items():
        assert len(entry["claim"]) > 30, figure
        for key, value in entry.items():
            if key == "claim":
                continue
            assert isinstance(value, (int, float, bool, tuple)), (figure, key)


def test_workload_registry_is_disjoint():
    from repro.workloads.registry import (
        BIGDATA_WORKLOADS,
        EXTENSION_WORKLOADS,
        SMALL_WORKLOADS,
    )

    names = [w.name for w in BIGDATA_WORKLOADS + SMALL_WORKLOADS + EXTENSION_WORKLOADS]
    assert len(names) == len(set(names))


def test_bigdata_flag_consistency():
    from repro.workloads.registry import BIGDATA_WORKLOADS, SMALL_WORKLOADS

    assert all(w.bigdata for w in BIGDATA_WORKLOADS)
    assert not any(w.bigdata for w in SMALL_WORKLOADS)


def test_cli_report_command_wiring(tmp_path, monkeypatch):
    """`repro report` writes a file using the report module."""
    import repro.cli as cli
    from repro.analysis import report as report_module
    import io

    fig01 = report_module.FIGURES["fig01"]._replace(length=300)
    monkeypatch.setattr(report_module, "FIGURES", {"fig01": fig01})
    out = io.StringIO()
    path = str(tmp_path / "report.md")
    code = cli.main(["report", "-o", path], out=out)
    assert code == 0
    with open(path) as stream:
        content = stream.read()
    assert "fig01" in content and "mcf" in content
