"""Runtime verification: online invariant audits, the flight recorder,
and differential oracles (``repro verify``).

Three layers defend the simulation itself (docs/verification.md):

* :class:`~repro.verify.auditor.AuditorSuite` -- online invariant
  checkpoints over the live machine (stat conservation, TLB/page-table
  coherence, cache sanity, DRAM legality, TEMPO causality);
* :class:`~repro.verify.recorder.FlightRecorder` -- a bounded ring
  buffer of the last N reference/walk/DRAM events, dumped as structured
  context when any :class:`~repro.common.errors.ReproError` escapes a
  run;
* :func:`~repro.verify.oracles.run_verification` -- whole-run
  differential and metamorphic oracles behind ``repro verify``.

The suite and the recorder are :class:`~repro.obs.probe.Probe` s.
``SystemSimulator(check_invariants="sample"|"full")`` attaches both next
to any probe the run was given; the mode stays a string so the executor
can ship it to pool workers, where a live probe could not go.
"""

from repro.common.errors import InvariantViolation
from repro.verify.auditor import (
    AuditorSuite,
    CacheSanityAuditor,
    DramLegalityAuditor,
    InvariantAuditor,
    StatConservationAuditor,
    TempoCausalityAuditor,
    TlbCoherenceAuditor,
    Violation,
)
from repro.verify.oracles import OracleResult, run_verification
from repro.verify.recorder import FlightRecorder

__all__ = [
    "AuditorSuite",
    "CacheSanityAuditor",
    "DramLegalityAuditor",
    "FlightRecorder",
    "InvariantAuditor",
    "InvariantViolation",
    "OracleResult",
    "StatConservationAuditor",
    "TempoCausalityAuditor",
    "TlbCoherenceAuditor",
    "Violation",
    "run_verification",
]
