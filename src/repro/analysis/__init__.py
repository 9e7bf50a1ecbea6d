"""Experiment drivers and reporting.

``expectations`` encodes what the paper reports for every figure and
``check_claims`` judges a driver's result against it; ``experiments``
contains one driver per evaluation figure (E1-E17 in DESIGN.md) and
``ablations`` the design-choice studies; ``figures`` is the one table
of both (driver, workload rule, trace length) that ``repro experiment``
and ``repro report`` run, and renders a result as markdown.
"""

from repro.analysis.expectations import PAPER_EXPECTATIONS, check_claims
from repro.analysis.experiments import (
    fig01_runtime_breakdown,
    fig04_dram_reference_breakdown,
    fig10_performance_energy,
    fig11_replay_service,
    fig11_small_footprint,
    fig12_imp_interaction,
    fig13_superpage_sensitivity,
    fig14_row_policies,
    fig15_wait_cycles,
    fig16_bliss,
    fig17_subrows,
)
from repro.analysis import ablations
from repro.analysis.figures import FIGURES, render_section
from repro.analysis.report import generate_report, write_report

__all__ = [
    "PAPER_EXPECTATIONS",
    "check_claims",
    "FIGURES",
    "render_section",
    "fig01_runtime_breakdown",
    "fig04_dram_reference_breakdown",
    "fig10_performance_energy",
    "fig11_replay_service",
    "fig11_small_footprint",
    "fig12_imp_interaction",
    "fig13_superpage_sensitivity",
    "fig14_row_policies",
    "fig15_wait_cycles",
    "fig16_bliss",
    "fig17_subrows",
    "ablations",
    "generate_report",
    "write_report",
]
