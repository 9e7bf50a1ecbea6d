"""End-to-end paper-shape integration tests.

These run real workloads at moderate trace lengths and judge each run
with ``check_claims``, the verdicts ``repro report`` prints.  Every
claim must pass except the ones ``KNOWN`` pins, so a verdict that moves
either way fails here.  They are the slowest tests in the suite (a few
seconds each); one executor shares the cells the tests have in common.
"""

from dataclasses import replace

import pytest

from repro.analysis import experiments
from repro.analysis.expectations import check_claims
from repro.common.config import default_system_config
from repro.exec import ExperimentExecutor, SimCell
from repro.sim.runner import energy_fraction, speedup_fraction

#: (figure, run) -> the claims that do not pass on that run.  xsbench at
#: 8,000 records is too short for its upper-level page-table entries to
#: warm up (ROADMAP item 6: the leaf share rises with trace length).
KNOWN = {
    ("fig04", "xsbench@8000"): {
        "leaf_fraction_of_ptw": "miss",
        "replay_reference_fraction": "near",
    },
}


def _assert_verdicts(result, run):
    verdicts = check_claims(result)
    known = KNOWN.get((result["figure"], run), {})
    assert {v.key: v.verdict for v in verdicts} == {
        v.key: known.get(v.key, "pass") for v in verdicts
    }, verdicts


@pytest.fixture(scope="module")
def executor():
    return ExperimentExecutor()


def _pair(executor, name, config, length):
    """(baseline, TEMPO) results of one workload on *config*."""
    return executor.run_cells(
        SimCell(name, config.with_tempo(enabled), length, 0) for enabled in (False, True)
    )


def test_fig1_shape_ptw_and_replay_are_major(executor):
    result = experiments.fig01_runtime_breakdown(8000, ("xsbench",), executor=executor)
    _assert_verdicts(result, "xsbench@8000")


def test_fig4_shape_reference_fractions(executor):
    result = experiments.fig04_dram_reference_breakdown(
        8000, ("xsbench",), executor=executor
    )
    _assert_verdicts(result, "xsbench@8000")


def test_fig10_shape_tempo_wins_perf_and_energy(executor):
    result = experiments.fig10_performance_energy(8000, ("xsbench",), executor=executor)
    _assert_verdicts(result, "xsbench@8000")


def test_fig11_shape_replays_served_by_prefetch(executor):
    result = experiments.fig11_replay_service(8000, ("xsbench",), executor=executor)
    _assert_verdicts(result, "xsbench@8000")


def test_small_footprint_not_harmed(executor):
    baseline, tempo = _pair(
        executor, "blackscholes_small", default_system_config(), 4000
    )
    row = {
        "workload": "blackscholes_small",
        "group": "small",
        "performance_improvement": speedup_fraction(baseline, tempo),
        "energy_improvement": energy_fraction(baseline, tempo),
    }
    _assert_verdicts({"figure": "fig11_right", "rows": [row]}, "blackscholes_small@4000")


def test_tempo_helps_every_bigdata_workload(executor):
    names = ("mcf", "graph500", "illustris")
    result = experiments.fig10_performance_energy(5000, names, executor=executor)
    _assert_verdicts(result, "mcf+graph500+illustris@5000")


def _vm_configs():
    config = default_system_config()
    return (
        ("4k-only", config.copy_with(vm=replace(config.vm, thp_enabled=False))),
        ("hugetlbfs-2m", config.copy_with(vm=replace(config.vm, hugetlbfs_2m=True))),
    )


def test_superpage_coverage_reduces_walks(executor):
    walks = {}
    for label, config in _vm_configs():
        [result] = executor.run_cells([SimCell("xsbench", config.with_tempo(False), 5000, 0)])
        walks[label] = result.core.dram_refs.walks_with_dram_leaf
    assert walks["hugetlbfs-2m"] < walks["4k-only"]


def test_tempo_benefit_shrinks_with_superpages(executor):
    rows = [
        {
            "workload": "xsbench",
            "variant": label,
            "performance_improvement": speedup_fraction(
                *_pair(executor, "xsbench", config, 5000)
            ),
        }
        for label, config in _vm_configs()
    ]
    _assert_verdicts({"figure": "fig13", "rows": rows}, "xsbench@5000")


def test_row_policies_all_benefit(executor):
    result = experiments.fig14_row_policies(5000, ("graph500",), executor=executor)
    _assert_verdicts(result, "graph500@5000")


def test_imp_interaction_amplifies_tempo(executor):
    result = experiments.fig12_imp_interaction(6000, ("spmv",), executor=executor)
    _assert_verdicts(result, "spmv@6000")
