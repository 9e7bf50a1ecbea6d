"""Whole-run differential and metamorphic oracles (``repro verify``).

Where the online auditors check invariants *within* one run, the oracles
check relations *between* runs -- properties that hold for any correct
simulator regardless of parameter values:

* **determinism** -- one cell simulated in this process and in two
  fresh interpreters that differ in working directory, ``TZ``,
  ``PYTHONHASHSEED`` and environment yields bit-identical payloads
  (config hash included);
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
import json
import os
import pickle
import subprocess
import sys
import tempfile
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.obs.manifest import without_timing

#: Workload used by every oracle: pointer-chasing with a hot index, so
#: short runs still exercise TLB misses, walks, and TEMPO prefetches.
ORACLE_WORKLOAD = "btree"


def _load(name: str) -> Any:
    """Import a simulation module untyped (see module docstring)."""
    return importlib.import_module(name)


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


#: The subprocess half of the determinism oracle: simulate the pickled
#: cell read from stdin and write its payload to stdout as JSON.
_CELL_CHILD = (
    "import json, pickle, sys\n"
    "from repro.exec.executor import simulate_cell\n"
    "json.dump(simulate_cell(pickle.load(sys.stdin.buffer)), sys.stdout)\n"
)


def _payload_view(payload: Dict[str, Any]) -> Dict[str, Any]:
    """A JSON payload flattened to one level, wall-clock keys dropped."""
    view = {key: value for key, value in payload.items() if key != "stats"}
    for key, value in without_timing(payload["stats"]).items():
        view["stats." + key] = value
    return view


def oracle_determinism(length: int, seed: int) -> OracleResult:
    """One cell, simulated here and in two fresh interpreters that differ
    in cwd, ``TZ``, ``PYTHONHASHSEED`` and environment, yields one
    payload."""
    config = _load("repro.common.config").default_system_config().with_tempo(True)
    cell = _load("repro.exec.cells").SimCell(ORACLE_WORKLOAD, config, length, seed)
    payload = _load("repro.exec.executor").simulate_cell(cell)
    local = _payload_view(json.loads(json.dumps(payload)))
    src = os.path.dirname(os.path.dirname(os.path.abspath(_load("repro").__file__)))
    child = ["PYTHONPATH=" + src, sys.executable, "-c", _CELL_CHILD]
    # ``env`` applies each setting on top of the environment it inherits
    # (or, with -i, on an empty one), so this module never reads it.
    variants: Tuple[Tuple[str, str, List[str]], ...] = (
        (
            "a",
            "inherited environment, TZ, PYTHONHASHSEED and one more variable",
            ["TZ=Asia/Kathmandu", "PYTHONHASHSEED=1", "ORACLE_NOISE=1"],
        ),
        (
            os.path.join("bb", "c", "d"),
            "only PATH and PYTHONPATH",
            ["-i", "PATH=" + os.defpath],
        ),
    )
    with tempfile.TemporaryDirectory() as tmp:
        for subdir, what, settings in variants:
            cwd = os.path.join(tmp, subdir)
            os.makedirs(cwd)
            done = subprocess.run(
                ["env"] + settings + child,
                cwd=cwd,
                input=pickle.dumps(cell),
                stdout=subprocess.PIPE,
                stderr=subprocess.PIPE,
            )
            label = "subprocess in %s (%s)" % (subdir, what)
            if done.returncode != 0:
                lines = done.stderr.decode(errors="replace").strip().splitlines()
                return OracleResult(
                    "determinism",
                    False,
                    "%s exited %d: %s"
                    % (label, done.returncode, lines[-1] if lines else ""),
                )
            remote = _payload_view(json.loads(done.stdout))
            if remote != local:
                return OracleResult(
                    "determinism",
                    False,
                    "%s diverges from the in-process run: %s"
                    % (label, _diff_keys(local, remote)),
                )
    return OracleResult(
        "determinism",
        True,
        "in-process run and %d subprocesses (cwd, TZ, PYTHONHASHSEED, "
        "environment varied) agree on %d stats (config %s)"
        % (
            len(variants),
            sum(1 for key in local if key.startswith("stats.")),
            local["stats.manifest.config_sha256"][:12],
        ),
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
