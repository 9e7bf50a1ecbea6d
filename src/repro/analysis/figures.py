"""The one table of figures: every paper figure and ablation that
``repro experiment`` and ``repro report`` run, and the markdown section
both print for a result.

Each entry fixes the figure's driver, how ``--workloads`` applies to it
and the one trace length it runs at, so a figure reads the same from
either command.
"""

from typing import Any, Callable, Dict, NamedTuple, Optional, Sequence

from repro.analysis import ablations, experiments
from repro.analysis.expectations import (
    NEAR,
    PAPER_EXPECTATIONS,
    Verdict,
    check_claims,
)


class Figure(NamedTuple):
    driver: Callable[..., Dict[str, Any]]
    #: How ``--workloads`` applies: ``subset`` passes the names as the
    #: driver's ``workloads``; ``one`` passes the single name as its
    #: ``workload``; ``fixed`` means the workload set is part of the
    #: figure's definition (small-footprint set, multiprogrammed mixes).
    workloads: str
    length: int

    def run(self, executor: Any, length: Optional[int] = None,
            workloads: Optional[Sequence[str]] = None) -> Dict[str, Any]:
        """Run the driver through *executor*: at the entry's length
        unless *length* is given, on *workloads* where the entry takes
        them."""
        kwargs: Dict[str, Any] = {"length": length or self.length}
        if workloads and self.workloads == "subset":
            kwargs["workloads"] = tuple(workloads)
        elif workloads and self.workloads == "one":
            kwargs["workload"] = workloads[0]
        return self.driver(executor=executor, **kwargs)


#: Figure id -> entry, paper figures in paper order, then the ablations.
FIGURES = {
    "fig01": Figure(experiments.fig01_runtime_breakdown, "subset", 16000),
    "fig04": Figure(experiments.fig04_dram_reference_breakdown, "subset", 16000),
    "fig10": Figure(experiments.fig10_performance_energy, "subset", 16000),
    "fig11_left": Figure(experiments.fig11_replay_service, "subset", 16000),
    "fig11_right": Figure(experiments.fig11_small_footprint, "fixed", 12000),
    "fig12": Figure(experiments.fig12_imp_interaction, "subset", 16000),
    "fig13": Figure(experiments.fig13_superpage_sensitivity, "subset", 10000),
    "fig14": Figure(experiments.fig14_row_policies, "subset", 12000),
    "fig15": Figure(experiments.fig15_wait_cycles, "subset", 12000),
    "fig16": Figure(experiments.fig16_bliss, "fixed", 4000),
    "fig17": Figure(experiments.fig17_subrows, "fixed", 4000),
    "ablation_destinations": Figure(ablations.prefetch_destinations, "subset", 10000),
    "ablation_txq_grouping": Figure(ablations.txq_grouping, "subset", 10000),
    "ablation_prefetch_latency": Figure(ablations.prefetch_row_latency, "one", 10000),
    "ablation_schedulers": Figure(ablations.scheduler_sensitivity, "subset", 10000),
}


def _markdown_table(rows: Sequence[Dict[str, Any]]) -> str:
    if not rows:
        return "(no rows)\n"
    columns = list(rows[0])
    lines = ["| " + " | ".join(columns) + " |"]
    lines.append("|" + "|".join(["---"] * len(columns)) + "|")
    for row in rows:
        cells = []
        for column in columns:
            value = row.get(column, "")
            cells.append("%.3f" % value if isinstance(value, float) else str(value))
        lines.append("| " + " | ".join(cells) + " |")
    return "\n".join(lines) + "\n"


def _paper_cell(verdict: Verdict) -> str:
    low, high = verdict.band
    if low == high:
        return "best %g" % low
    if high is None:
        return ">= %.2f" % low
    if low is None:
        return "<= %.2f" % high
    return "%.2f to %.2f" % (low, high)


def _measured_cell(verdict: Verdict) -> str:
    if isinstance(verdict.measured, tuple):
        return "%.3f to %.3f" % verdict.measured
    if verdict.band[0] == verdict.band[1]:
        return "best %g" % verdict.measured
    return "%.3f" % verdict.measured


def render_section(result: Dict[str, Any]) -> str:
    """A driver result as markdown: the paper's claim, every table of
    the result, then the verdict of each claim (``check_claims``)."""
    figure = result.get("figure", "?")
    expectation = PAPER_EXPECTATIONS.get(figure, {})
    parts = ["## %s\n" % figure]
    claim = expectation.get("claim")
    if claim:
        parts.append("**Paper:** %s\n" % claim)
    for key, value in result.items():
        if isinstance(value, list) and value and isinstance(value[0], dict):
            if key != "rows":
                parts.append("**%s**\n" % key)
            parts.append(_markdown_table(value))
    verdicts = [
        {
            "claim": verdict.key,
            "scope": verdict.scope,
            "paper": _paper_cell(verdict),
            "measured": _measured_cell(verdict),
            "verdict": verdict.verdict,
            "detail": verdict.detail,
        }
        for verdict in check_claims(result)
    ]
    if verdicts:
        parts.append("**Verdicts** (near: outside the band by at most %g)\n" % NEAR)
        parts.append(_markdown_table(verdicts))
    return "\n".join(parts)
