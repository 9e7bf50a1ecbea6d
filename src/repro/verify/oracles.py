"""Whole-run differential and metamorphic oracles (``repro verify``).

Where the online auditors check invariants *within* one run, the oracles
check relations *between* runs -- properties that hold for any correct
simulator regardless of parameter values:

* **determinism** -- same workload, config and seed twice yields the
  same config hash and the same statistics;
* **TEMPO replay metamorphic** -- enabling TEMPO can only *reduce* the
  number of replay accesses that go to DRAM (prefetches may add traffic,
  but replays themselves only get absorbed, paper Sec. 3);
* **length monotonicity** -- simulating a longer prefix of the same
  trace never decreases any absolute hit count;
* **online audit** -- a short baseline + TEMPO run under
  ``--check-invariants full`` completes with zero violations.

Simulation modules are imported lazily through :func:`_load` --
``repro.verify`` sits above the sim stack, and the indirection also
keeps this module clean under ``mypy --strict`` while the sim layer is
still in the typing burn-down.
"""

from __future__ import annotations

import importlib
from typing import Any, Callable, Dict, List, Optional

#: Workload used by every oracle: pointer-chasing with a hot index, so
#: short runs still exercise TLB misses, walks, and TEMPO prefetches.
ORACLE_WORKLOAD = "btree"


def _load(name: str) -> Any:
    """Import a simulation module untyped (see module docstring)."""
    return importlib.import_module(name)


def _comparable(stats: Dict[str, Any]) -> Dict[str, Any]:
    """Strip wall-clock keys: everything else must be bit-identical."""
    return {
        key: value
        for key, value in stats.items()
        if not key.startswith("manifest.timing")
    }


def _diff_keys(left: Dict[str, Any], right: Dict[str, Any], limit: int = 5) -> str:
    differing = sorted(
        key
        for key in set(left) | set(right)
        if left.get(key) != right.get(key)
    )
    shown = ", ".join(differing[:limit])
    if len(differing) > limit:
        shown += ", ... (%d total)" % len(differing)
    return shown


class OracleResult:
    """Outcome of one oracle."""

    __slots__ = ("name", "passed", "detail")

    def __init__(self, name: str, passed: bool, detail: str) -> None:
        self.name = name
        self.passed = passed
        self.detail = detail

    def __repr__(self) -> str:
        return "OracleResult(%s: %s)" % (self.name, "PASS" if self.passed else "FAIL")


def oracle_determinism(length: int, seed: int) -> OracleResult:
    """Same workload + config + seed twice => same hash, same stats."""
    runner = _load("repro.sim.runner")
    config = _load("repro.common.config").default_system_config().with_tempo(True)
    first = runner.run_workload(ORACLE_WORKLOAD, config=config, length=length, seed=seed)
    second = runner.run_workload(ORACLE_WORKLOAD, config=config, length=length, seed=seed)
    if first.manifest.config_sha256 != second.manifest.config_sha256:
        return OracleResult(
            "determinism",
            False,
            "config hash differs between identical runs: %s vs %s"
            % (first.manifest.config_sha256[:12], second.manifest.config_sha256[:12]),
        )
    left = _comparable(first.stats)
    right = _comparable(second.stats)
    if left == right:
        return OracleResult(
            "determinism",
            True,
            "two seed-%d runs agree on %d stats (config %s)"
            % (seed, len(left), first.manifest.config_sha256[:12]),
        )
    return OracleResult(
        "determinism", False, "stats diverge: %s" % _diff_keys(left, right)
    )


def oracle_tempo_replay_reduction(length: int, seed: int) -> OracleResult:
    """TEMPO absorbs replay DRAM accesses; it never manufactures them."""
    runner = _load("repro.sim.runner")
    baseline, tempo = runner.run_baseline_and_tempo(
        ORACLE_WORKLOAD, length=length, seed=seed
    )
    base_replays = baseline.core.dram_refs.replay
    tempo_replays = tempo.core.dram_refs.replay
    passed = tempo_replays <= base_replays
    return OracleResult(
        "tempo_replay_reduction",
        passed,
        "replay DRAM accesses: baseline %d, TEMPO %d" % (base_replays, tempo_replays),
    )


#: Monotone absolute counters checked by the length oracle.
_MONOTONE_STATS = (
    "core0.tlb.l1_hits",
    "core0.tlb.l2_hits",
    "core0.walker.walks",
    "llc.hits",
    "controller.served_demand",
)


def oracle_length_monotonicity(length: int, seed: int) -> OracleResult:
    """Simulating twice as many records of the *same* trace never
    decreases an absolute hit count (counters only ever increment)."""
    registry = _load("repro.workloads.registry")
    system = _load("repro.sim.system")
    config = _load("repro.common.config").default_system_config().with_tempo(True)
    totals = []
    for max_records in (length, 2 * length):
        trace = registry.make_trace(ORACLE_WORKLOAD, length=2 * length, seed=seed)
        result = system.SystemSimulator(config, [trace], seed=seed).run(
            max_records, warmup=length // 4
        )
        totals.append({name: result.stats.get(name, 0) for name in _MONOTONE_STATS})
    short, long_run = totals
    regressed = [
        "%s: %s -> %s" % (name, short[name], long_run[name])
        for name in _MONOTONE_STATS
        if long_run[name] < short[name]
    ]
    if regressed:
        return OracleResult(
            "length_monotonicity",
            False,
            "counts decreased with a longer run: %s" % "; ".join(regressed),
        )
    return OracleResult(
        "length_monotonicity",
        True,
        "%d -> %d records kept all %d counters non-decreasing"
        % (length, 2 * length, len(_MONOTONE_STATS)),
    )


def oracle_online_audit(length: int, seed: int) -> OracleResult:
    """Baseline and TEMPO runs under ``--check-invariants full``
    complete with zero violations."""
    runner = _load("repro.sim.runner")
    errors = _load("repro.common.errors")
    config_mod = _load("repro.common.config")
    checkpoints = 0
    for tempo in (False, True):
        config = config_mod.default_system_config().with_tempo(tempo)
        try:
            result = runner.run_workload(
                ORACLE_WORKLOAD,
                config=config,
                length=length,
                seed=seed,
                check_invariants="full",
            )
        except errors.InvariantViolation as violation:
            return OracleResult(
                "online_audit",
                False,
                "tempo=%s run violated an invariant: %s" % (tempo, violation),
            )
        audit = result.manifest.audit or {}
        if audit.get("violations", 0):
            return OracleResult(
                "online_audit",
                False,
                "tempo=%s run recorded %d violations" % (tempo, audit["violations"]),
            )
        checkpoints += int(audit.get("checkpoints", 0))
    return OracleResult(
        "online_audit",
        True,
        "baseline + TEMPO passed %d full-audit checkpoints" % checkpoints,
    )


#: All oracles in execution order.
ALL_ORACLES = (
    oracle_determinism,
    oracle_tempo_replay_reduction,
    oracle_length_monotonicity,
    oracle_online_audit,
)


def run_verification(
    out: Optional[Callable[[str], None]] = None,
    quick: bool = False,
    length: Optional[int] = None,
    seed: int = 0,
) -> List[OracleResult]:
    """Run every oracle; returns the results (CLI exits non-zero when
    any failed).  *quick* shrinks the runs for CI smoke use."""
    if length is None:
        length = 1200 if quick else 4000
    results: List[OracleResult] = []
    for oracle in ALL_ORACLES:
        result = oracle(length, seed)
        results.append(result)
        if out is not None:
            out("%s %s: %s" % ("PASS" if result.passed else "FAIL", result.name, result.detail))
    return results
