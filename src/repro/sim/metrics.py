"""Result structures for every experiment.

The three breakdowns mirror the paper's figures directly:

* :class:`RuntimeBreakdown` -- Figure 1's split of total runtime into
  DRAM-PTW-Access / DRAM-Replay-Access / DRAM-Other / everything else.
* :class:`DramReferenceBreakdown` -- Figure 4's split of DRAM
  *references* (plus the leaf-PT share and the replay-follows-PTW rate).
* :class:`ReplayServiceBreakdown` -- Figure 11 left: how TEMPO serviced
  the replays whose walks hit DRAM (LLC hit / row-buffer hit / unaided).

Multiprogrammed metrics (Figures 16/17) follow prior work: *weighted
speedup* = sum of per-application IPC_shared / IPC_alone, and *maximum
slowdown* = max of per-application T_shared / T_alone.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Dict, List, Optional, Sequence

from repro.common.errors import SimulationError

if TYPE_CHECKING:
    from repro.obs.manifest import RunManifest


class RuntimeBreakdown:
    """Cycle accounting for one core's run."""

    __slots__ = ("total_cycles", "dram_ptw_cycles", "dram_replay_cycles", "dram_other_cycles")

    def __init__(self, total_cycles: int = 0, dram_ptw_cycles: int = 0, dram_replay_cycles: int = 0, dram_other_cycles: int = 0) -> None:
        self.total_cycles = total_cycles
        self.dram_ptw_cycles = dram_ptw_cycles
        self.dram_replay_cycles = dram_replay_cycles
        self.dram_other_cycles = dram_other_cycles

    @property
    def non_dram_cycles(self) -> int:
        return self.total_cycles - (
            self.dram_ptw_cycles + self.dram_replay_cycles + self.dram_other_cycles
        )

    def fraction(self, bucket: str) -> float:
        """Fraction of total runtime for *bucket* (``ptw`` / ``replay``
        / ``other`` / ``rest``)."""
        if self.total_cycles == 0:
            return 0.0
        value = {
            "ptw": self.dram_ptw_cycles,
            "replay": self.dram_replay_cycles,
            "other": self.dram_other_cycles,
            "rest": self.non_dram_cycles,
        }[bucket]
        return value / self.total_cycles

    def as_dict(self) -> Dict[str, float]:
        return {
            "total_cycles": self.total_cycles,
            "dram_ptw_fraction": self.fraction("ptw"),
            "dram_replay_fraction": self.fraction("replay"),
            "dram_other_fraction": self.fraction("other"),
        }

    def __repr__(self) -> str:
        return "RuntimeBreakdown(total=%d, ptw=%.1f%%, replay=%.1f%%, other=%.1f%%)" % (
            self.total_cycles,
            100 * self.fraction("ptw"),
            100 * self.fraction("replay"),
            100 * self.fraction("other"),
        )


class DramReferenceBreakdown:
    """Counts of demand-side DRAM references by category.

    Prefetches and writebacks are tracked separately and excluded from
    the Figure-4 fractions (the paper counts program-initiated
    references).
    """

    __slots__ = (
        "ptw_leaf",
        "ptw_upper",
        "replay",
        "other",
        "prefetch",
        "writeback",
        "walks_with_dram_leaf",
        "replay_also_dram",
    )

    def __init__(self) -> None:
        self.ptw_leaf = 0
        self.ptw_upper = 0
        self.replay = 0
        self.other = 0
        self.prefetch = 0
        self.writeback = 0
        #: Walks whose leaf-PT access reached DRAM ...
        self.walks_with_dram_leaf = 0
        #: ... and whose replay also reached DRAM (the paper's 98% stat;
        #: meaningful on baseline runs where TEMPO is off).
        self.replay_also_dram = 0

    @property
    def ptw(self) -> int:
        return self.ptw_leaf + self.ptw_upper

    @property
    def demand_total(self) -> int:
        return self.ptw + self.replay + self.other

    def fraction(self, bucket: str) -> float:
        if self.demand_total == 0:
            return 0.0
        value = {"ptw": self.ptw, "replay": self.replay, "other": self.other}[bucket]
        return value / self.demand_total

    def leaf_fraction_of_ptw(self) -> float:
        """The paper's 96%+: leaf-PT share of DRAM page-table accesses."""
        if self.ptw == 0:
            return 0.0
        return self.ptw_leaf / self.ptw

    def replay_follows_ptw_rate(self) -> float:
        """The paper's 98%+: DRAM-PTW lookups followed by DRAM replays."""
        if self.walks_with_dram_leaf == 0:
            return 0.0
        return self.replay_also_dram / self.walks_with_dram_leaf

    def as_dict(self) -> Dict[str, float]:
        return {
            "ptw_fraction": self.fraction("ptw"),
            "replay_fraction": self.fraction("replay"),
            "other_fraction": self.fraction("other"),
            "leaf_fraction_of_ptw": self.leaf_fraction_of_ptw(),
            "replay_follows_ptw_rate": self.replay_follows_ptw_rate(),
        }


class ReplayServiceBreakdown:
    """Figure 11 left: where TEMPO-era replays were served from.

    Only replays whose walk's leaf-PT access reached DRAM are counted
    (those are the ones TEMPO targets).
    """

    __slots__ = ("llc", "row_buffer", "unaided")

    def __init__(self) -> None:
        self.llc = 0
        self.row_buffer = 0
        self.unaided = 0

    @property
    def total(self) -> int:
        return self.llc + self.row_buffer + self.unaided

    def fraction(self, bucket: str) -> float:
        if self.total == 0:
            return 0.0
        return {"llc": self.llc, "row_buffer": self.row_buffer, "unaided": self.unaided}[
            bucket
        ] / self.total

    def as_dict(self) -> Dict[str, float]:
        return {
            "llc_fraction": self.fraction("llc"),
            "row_buffer_fraction": self.fraction("row_buffer"),
            "unaided_fraction": self.fraction("unaided"),
        }


class CoreResult:
    """Per-core outcome of a run."""

    __slots__ = ("workload_name", "references", "runtime", "dram_refs", "replay_service")

    def __init__(self, workload_name: str, references: int, runtime: RuntimeBreakdown, dram_refs: DramReferenceBreakdown, replay_service: ReplayServiceBreakdown) -> None:
        self.workload_name = workload_name
        self.references = references
        self.runtime = runtime
        self.dram_refs = dram_refs
        self.replay_service = replay_service

    @property
    def cycles(self) -> int:
        return self.runtime.total_cycles

    @property
    def ipc_proxy(self) -> float:
        """References retired per cycle -- the IPC stand-in used for
        weighted speedup (every trace record is one 'instruction')."""
        if self.cycles == 0:
            return 0.0
        return self.references / self.cycles


class SimulationResult:
    """Whole-system outcome: per-core results + shared-resource totals.

    *stats* is the unified flat metrics namespace (every StatGroup in
    the machine plus the manifest's scalar fields); *manifest* is the
    :class:`~repro.obs.manifest.RunManifest` provenance record.
    """

    __slots__ = ("cores", "energy_total", "superpage_fraction", "stats", "manifest")

    def __init__(self, cores: List[CoreResult], energy_total: float, superpage_fraction: float, stats: Optional[Dict[str, Any]] = None, manifest: Optional[RunManifest] = None) -> None:
        self.cores = cores
        self.energy_total = energy_total
        self.superpage_fraction = superpage_fraction
        self.stats = stats if stats is not None else {}
        self.manifest = manifest

    @property
    def total_cycles(self) -> int:
        return max(core.cycles for core in self.cores)

    @property
    def core(self) -> CoreResult:
        """Convenience accessor for single-core runs."""
        if len(self.cores) != 1:
            raise SimulationError(
                "result has %d cores; use .cores" % len(self.cores),
                context={"num_cores": len(self.cores)},
            )
        return self.cores[0]

    def __repr__(self) -> str:
        return "SimulationResult(%d cores, %d cycles, %.1f energy)" % (
            len(self.cores),
            self.total_cycles,
            self.energy_total,
        )


def performance_improvement(baseline_cycles: int, improved_cycles: int) -> float:
    """The paper's headline metric: fraction of baseline runtime saved
    (0 = no change; 0.3 = 30% faster)."""
    if baseline_cycles == 0:
        return 0.0
    return (baseline_cycles - improved_cycles) / baseline_cycles


def energy_improvement(baseline_energy: float, improved_energy: float) -> float:
    if baseline_energy == 0:
        return 0.0
    return (baseline_energy - improved_energy) / baseline_energy


def weighted_speedup(shared_results: Sequence[CoreResult], alone_results: Sequence[CoreResult]) -> float:
    """Sum over applications of IPC_shared / IPC_alone."""
    if len(shared_results) != len(alone_results):
        raise SimulationError(
            "shared/alone core counts differ",
            context={"shared": len(shared_results), "alone": len(alone_results)},
        )
    total = 0.0
    for shared, alone in zip(shared_results, alone_results):
        if alone.ipc_proxy > 0:
            total += shared.ipc_proxy / alone.ipc_proxy
    return total


def max_slowdown(shared_results: Sequence[CoreResult], alone_results: Sequence[CoreResult]) -> float:
    """Max over applications of T_shared / T_alone (lower is fairer)."""
    if len(shared_results) != len(alone_results):
        raise SimulationError(
            "shared/alone core counts differ",
            context={"shared": len(shared_results), "alone": len(alone_results)},
        )
    worst = 0.0
    for shared, alone in zip(shared_results, alone_results):
        if alone.cycles > 0:
            worst = max(worst, shared.cycles / alone.cycles)
    return worst
