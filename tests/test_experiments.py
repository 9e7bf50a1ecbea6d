"""Smoke tests for the per-figure experiment drivers and the claim
check.

These run with tiny traces: they verify structure, basic sanity and that
``check_claims`` judges every claim of every figure, not the verdicts
themselves (test_integration.py pins those on longer traces).
"""

import pytest

from repro.analysis import experiments
from repro.analysis.expectations import NEAR, PAPER_EXPECTATIONS, check_claims
from repro.analysis.figures import FIGURES, render_section

SHORT = dict(workloads=("xsbench",), length=1200, seed=0)


def _judged(result):
    """Assert ``check_claims`` returns one verdict per claim key of the
    result's figure, in ``PAPER_EXPECTATIONS`` order."""
    paper = PAPER_EXPECTATIONS[result["figure"]]
    verdicts = check_claims(result)
    assert [v.key for v in verdicts] == [key for key in paper if key != "claim"]
    assert {v.verdict for v in verdicts} <= {"pass", "near", "miss"}
    return verdicts


def test_fig01_structure():
    result = experiments.fig01_runtime_breakdown(**SHORT)
    assert result["figure"] == "fig01"
    row = result["rows"][0]
    assert row["workload"] == "xsbench"
    assert 0 <= row["dram_ptw_fraction"] <= 1
    _judged(result)


def test_fig04_structure():
    result = experiments.fig04_dram_reference_breakdown(**SHORT)
    row = result["rows"][0]
    total = row["ptw_fraction"] + row["replay_fraction"] + row["other_fraction"]
    assert total == pytest.approx(1.0)
    _judged(result)


def test_fig10_structure():
    result = experiments.fig10_performance_energy(**SHORT)
    row = result["rows"][0]
    assert "performance_improvement" in row
    assert 0 <= row["superpage_fraction"] <= 1
    _judged(result)


def test_fig11_left_structure():
    result = experiments.fig11_replay_service(**SHORT)
    row = result["rows"][0]
    total = row["llc_fraction"] + row["row_buffer_fraction"] + row["unaided_fraction"]
    assert total == pytest.approx(1.0)
    _judged(result)


def test_fig11_right_structure():
    result = experiments.fig11_small_footprint(length=300)
    assert {row["group"] for row in result["rows"]} == {"bigdata", "small"}
    _judged(result)


def test_fig12_structure():
    result = experiments.fig12_imp_interaction(**SHORT)
    row = result["rows"][0]
    assert row["improvement_no_imp"] > 0.03 and row["improvement_with_imp"] > 0.03
    _judged(result)


def test_fig13_variants_cover_paper_configs():
    result = experiments.fig13_superpage_sensitivity(
        workloads=("xsbench",), length=800, seed=0
    )
    variants = {row["variant"] for row in result["rows"]}
    assert variants == {
        "4k-only", "thp-memhog75", "thp-memhog50", "thp-memhog25",
        "thp-memhog0", "hugetlbfs-2m", "hugetlbfs-1g",
    }
    by_variant = {row["variant"]: row for row in result["rows"]}
    assert by_variant["4k-only"]["superpage_fraction"] == 0.0
    assert by_variant["hugetlbfs-2m"]["superpage_fraction"] > 0.9
    # Coverage rises along the paper's configuration order.
    coverage = [by_variant[name]["superpage_fraction"]
                for name in ("thp-memhog75", "thp-memhog0", "hugetlbfs-2m")]
    assert coverage[0] < coverage[1] <= coverage[2]
    _judged(result)


def test_fig14_covers_three_policies():
    result = experiments.fig14_row_policies(**SHORT)
    assert {row["policy"] for row in result["rows"]} == {"adaptive", "open", "closed"}
    _judged(result)


def test_fig15_sweeps_waits():
    result = experiments.fig15_wait_cycles(
        workloads=("xsbench",), length=1200, seed=0, waits=(0, 10)
    )
    assert {row["wait_cycles"] for row in result["rows"]} == {0, 10}
    _judged(result)


def test_fig16_structure():
    result = experiments.fig16_bliss(
        1500, mixes=[experiments.MULTIPROGRAM_MIXES[0]],
        prefetch_weights=(1,), grace_periods=(0, 15),
    )
    assert result["weight_rows"][0]["prefetch_weight"] == 0.5
    # TEMPO speeds up the mix and its slowest application in every
    # configuration, and a 15-cycle grace period keeps up with none on
    # the slowest application.
    for row in result["weight_rows"] + result["grace_rows"]:
        assert row["ws_improvement"] > 0 and row["ms_improvement"] > 0, row
    slowest = {row["grace_period"]: row["ms_improvement"] for row in result["grace_rows"]}
    assert slowest[15] >= slowest[0] - 0.01
    _judged(result)


def test_fig17_structure():
    result = experiments.fig17_subrows(
        600, mixes=[experiments.SUBROW_MIXES[0]], dedicated_options=(0, 2)
    )
    assert {row["allocation"] for row in result["rows"]} == {"foa", "poa"}
    assert {row["dedicated_subrows"] for row in result["rows"]} == {0, 2}
    assert all(row["ws_improvement"] > 0 for row in result["rows"])
    _judged(result)


def test_expectations_cover_every_figure():
    assert set(PAPER_EXPECTATIONS) == {
        "fig01", "fig04", "fig10", "fig11_left", "fig11_right",
        "fig12", "fig13", "fig14", "fig15", "fig16", "fig17",
    }
    assert all("claim" in entry for entry in PAPER_EXPECTATIONS.values())
    # The figure table runs them in paper order, then the four ablations.
    assert list(FIGURES)[:11] == list(PAPER_EXPECTATIONS)
    assert all(figure_id.startswith("ablation_") for figure_id in list(FIGURES)[11:])
    assert len(FIGURES) == 15


def _fig01(*ptw_fractions):
    rows = [
        {"workload": "w%d" % index, "dram_ptw_fraction": value,
         "dram_replay_fraction": 0.2}
        for index, value in enumerate(ptw_fractions)
    ]
    return {"figure": "fig01", "rows": rows}


def test_check_claims_grades_by_distance_from_the_band():
    # fig01's PTW band is 0.10-0.40; the worst workload decides.
    assert check_claims(_fig01(0.10, 0.40))[0].verdict == "pass"
    near = check_claims(_fig01(0.2, 0.10 - NEAR, 0.40 + NEAR))[0]
    assert near.verdict == "near"
    assert near.scope == "per workload"
    assert near.measured == (0.10 - NEAR, 0.40 + NEAR)
    assert near.detail == "w1 0.090, w2 0.410"
    assert check_claims(_fig01(0.2, 0.10 - NEAR - 0.001))[0].verdict == "miss"


def test_check_claims_scopes():
    # fig10's superpage claim needs more than half of the workloads.
    rows = [
        {"workload": name, "performance_improvement": 0.2,
         "energy_improvement": 0.05, "superpage_fraction": coverage}
        for name, coverage in (("a", 0.6), ("b", 0.6), ("c", 0.1))
    ]
    superpage = check_claims({"figure": "fig10", "rows": rows})[2]
    assert (superpage.scope, superpage.verdict) == ("most workloads", "pass")
    rows[1]["superpage_fraction"] = 0.495
    assert check_claims({"figure": "fig10", "rows": rows})[2].verdict == "near"
    # fig17's best setting: 2 dedicated sub-rows, ties going to the paper.
    rows = [
        {"dedicated_subrows": dedicated, "ws_improvement": gain}
        for dedicated, gain in ((0, 0.30), (2, 0.30), (4, 0.28))
    ]
    [best] = check_claims({"figure": "fig17", "rows": rows})
    assert (best.scope, best.verdict, best.measured) == ("mean", "pass", 2)
    rows[0]["ws_improvement"] = 0.32
    [best] = check_claims({"figure": "fig17", "rows": rows})
    assert (best.verdict, best.measured, best.detail) == ("miss", 0, "2 trails by 0.0200")
    assert check_claims({"figure": "ablation_schedulers", "rows": []}) == []


def test_render_section_includes_claim_and_verdicts():
    rendered = render_section(_fig01(0.2, 0.095))
    assert rendered.startswith("## fig01\n")
    assert "**Paper:**" in rendered
    assert "| claim | scope | paper | measured | verdict | detail |" in rendered
    assert (
        "| ptw_runtime_fraction | per workload | 0.10 to 0.40 | 0.095 to 0.200 "
        "| near | w1 0.095 |" in rendered
    )
