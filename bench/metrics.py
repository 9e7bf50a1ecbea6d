"""Metric values from the merged report of a run's measuring processes
(no simulator import).

End-to-end metrics come from untraced passes only.  Per-layer metrics
combine the traced passes' host times with simulated counters summed
over the workload's cells (``result.stats`` of the first result seen
for each cell -- simulation is deterministic, so any pass would do).
"""

import re
import statistics

from bench.tracer import ALL_LAYERS, HARNESS


def records_per_reference_second(report):
    """Simulated records per reference second of the cells' median times
    (one time per process and cell)."""
    records = seconds = 0
    for cell_id, samples in report["cell_seconds"].items():
        records += report["summaries"][cell_id]["records"]
        seconds += statistics.median(samples)
    return records / seconds


def end_to_end(report):
    """The end-to-end metrics; set-up time and memory are medians over
    the run's processes."""
    return {
        "records_per_ref_s": records_per_reference_second(report),
        "setup_s": statistics.median(report["setup_s"]),
        "peak_rss_mb": statistics.median(report["peak_rss_mb"]),
    }


def _sum(summaries, pattern):
    regex = re.compile(pattern)
    return sum(
        value
        for summary in summaries
        for key, value in summary["stats"].items()
        if regex.fullmatch(key)
    )


def _ratio(numerator, denominator):
    return numerator / denominator if denominator else 0.0


def _weighted_percentile(summaries, histogram, percentile):
    """Per-cell percentiles of *histogram*, weighted by sample count
    (a percentile of the merged distribution is not recoverable)."""
    weighted = total = 0
    for summary in summaries:
        count = summary["stats"].get(histogram + ".total", 0)
        weighted += count * summary["stats"].get("%s.%s" % (histogram, percentile), 0)
        total += count
    return _ratio(weighted, total)


def simulated_counters(report):
    """Per-layer counters of the simulated machine (whole runs, warm-up
    included, as the stat groups count them)."""
    summaries = list(report["summaries"].values())
    kref = sum(summary["records"] for summary in summaries) / 1000.0
    mmu_hits = _sum(summaries, r"core\d+\.mmu_cache\.hits")
    l1_hits = _sum(summaries, r"core\d+\.l1\.\d+\.hits")
    llc_hits = _sum(summaries, r"llc\.hits")
    row = {kind: _sum(summaries, r"dram\.bank\." + kind) for kind in ("hit", "miss", "conflict")}
    dram_accesses = sum(row.values())
    prefetches = _sum(summaries, r"tempo_engine\.prefetches_built")
    gains = report["tempo_gains"] or {"perf": 0.0, "energy": 0.0}
    return {
        "mmu.tlb_misses_per_kref": _ratio(_sum(summaries, r"core\d+\.tlb\.misses"), kref),
        "mmu.mmu_cache_hit_rate": _ratio(
            mmu_hits, mmu_hits + _sum(summaries, r"core\d+\.mmu_cache\.misses")
        ),
        "mmu.walk_cycles.p50": _weighted_percentile(summaries, "system.walk_cycles", "p50"),
        "mmu.walk_cycles.p99": _weighted_percentile(summaries, "system.walk_cycles", "p99"),
        "vm.faults_per_kref": _ratio(
            _sum(summaries, r"core\d+\.address_space\.minor_faults"), kref
        ),
        "vm.superpage_fraction": statistics.mean(s["superpage_fraction"] for s in summaries),
        "cache.l1_hit_rate": _ratio(
            l1_hits, l1_hits + _sum(summaries, r"core\d+\.l1\.\d+\.misses")
        ),
        "cache.llc_hit_rate": _ratio(llc_hits, llc_hits + _sum(summaries, r"llc\.misses")),
        "cache.dirty_evictions_per_kref": _ratio(
            _sum(summaries, r"(core\d+\.l[12]\.\d+|llc)\.dirty_evictions"), kref
        ),
        "sched.writebacks_per_kref": _ratio(
            _sum(summaries, r"controller\.served_writeback"), kref
        ),
        "sched.latency_demand.p99": _weighted_percentile(
            summaries, "controller.latency_demand", "p99"
        ),
        "sched.latency_pt.p99": _weighted_percentile(summaries, "controller.latency_pt", "p99"),
        "sched.prefetch_dropped": _sum(summaries, r"controller\.prefetch_dropped_txq_full"),
        "dram.row_hit_rate": _ratio(row["hit"], dram_accesses),
        "dram.accesses_per_kref": _ratio(dram_accesses, kref),
        "core.prefetches_per_kref": _ratio(prefetches, kref),
        # Prefetches that reached the LLC before their replay looked.
        "core.prefetch_useful_ratio": _ratio(
            _sum(summaries, r"caches\.tempo_llc_prefetch_fills"), prefetches
        ),
        "core.tempo_perf_gain": gains["perf"],
        "core.tempo_energy_gain": gains["energy"],
    }


def host_layers(report):
    """Per-layer host metrics from the traced passes: calls per 1000
    simulated records, corrected self seconds per pass, share of the
    corrected total, and self nanoseconds per call.  Spans are wall
    time; ``trace.overhead`` compares the passes' reference times."""
    trace = report["trace"]
    passes = len(report["traced"])
    kref = sum(run["records"] for run in report["traced"]) / 1000.0
    layers = trace["layers"]
    total = sum(layer["self_ns"] for layer in layers.values())
    metrics = {}
    for name in ALL_LAYERS:
        self_ns = layers[name]["self_ns"]
        calls = layers[name]["calls"]
        metrics[name + ".self_s"] = self_ns / 1e9 / passes
        metrics[name + ".share"] = _ratio(self_ns, total)
        if name != HARNESS:
            metrics[name + ".calls_per_kref"] = _ratio(calls, kref)
            metrics[name + ".ns_per_call"] = _ratio(self_ns, calls)
    metrics["trace.overhead"] = _ratio(
        statistics.mean(run["seconds"] for run in report["traced"]),
        statistics.mean(run["seconds"] for run in report["untraced"]),
    )
    metrics["trace.wrap_ns"] = trace["inner_ns"] + trace["outer_ns"]
    metrics["sched.queue_depth_max"] = trace["queue_depth_max"]
    return metrics


def per_layer(report):
    metrics = simulated_counters(report)
    metrics.update(host_layers(report))
    return metrics
