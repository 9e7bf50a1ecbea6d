"""Deterministic fault injection for the experiment executor.

The resilience layer (:mod:`repro.exec.resilience`) is only trustworthy
if its failure paths are exercised on schedule, not by hoping for real
crashes.  This module provides that schedule:

* :class:`FaultPlan` -- a concrete, picklable script of faults keyed by
  cell key and attempt number: kill the worker (``os._exit``), delay the
  cell (to trip timeouts), raise an injected exception, corrupt a cache
  entry, or abort the whole sweep after N completed cells (a
  deterministic stand-in for ``kill -9`` mid-run).
* :class:`FaultSpec` -- a rate-based description (``kill=0.3``) that
  materialises into a :class:`FaultPlan` once the batch's cell keys are
  known.  Selection draws from :class:`~repro.common.rng.DeterministicRng`
  seeded per key, so the same spec over the same sweep always injects
  the same faults -- tests and the CI resilience-smoke step rely on it.

Faults only ever fire when a plan is supplied; production runs carry
``faults=None`` and pay nothing.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple

from repro.common.errors import ReproError
from repro.common.rng import DeterministicRng

#: Exit status a kill fault dies with; any non-zero status is treated as
#: a crashed worker by the scheduler, this one just reads clearly in logs.
KILL_EXIT_CODE = 86


class InjectedFault(ReproError):
    """Raised by a ``fail`` fault: a recoverable in-process error."""


@dataclass(frozen=True)
class FaultPlan:
    """A scripted set of faults for one batch of cells.

    ``kill``/``fail``/``delay`` map a cell key to the attempt numbers
    the fault fires on (``delay`` pairs each attempt with a duration in
    seconds).  ``corrupt`` lists cell keys whose cache entries the
    harness garbles before the batch resolves.  ``abort_after`` aborts
    the sweep (raising ``SweepAborted`` in the scheduler) once that many
    cells have completed -- the deterministic "killed mid-run" fault.
    """

    kill: Mapping[str, Tuple[int, ...]] = field(default_factory=dict)
    fail: Mapping[str, Tuple[int, ...]] = field(default_factory=dict)
    delay: Mapping[str, Tuple[Tuple[int, float], ...]] = field(default_factory=dict)
    corrupt: Tuple[str, ...] = ()
    abort_after: Optional[int] = None

    def has_kills(self) -> bool:
        """True when any cell is scheduled to kill its worker (the
        scheduler then forces process isolation)."""
        return any(attempts for attempts in self.kill.values())

    def delay_for(self, key: str, attempt: int) -> float:
        for when, seconds in self.delay.get(key, ()):
            if when == attempt:
                return seconds
        return 0.0

    def should_kill(self, key: str, attempt: int) -> bool:
        return attempt in self.kill.get(key, ())

    def should_fail(self, key: str, attempt: int) -> bool:
        return attempt in self.fail.get(key, ())

    def inject(self, key: str, attempt: int) -> None:
        """Apply this plan's faults for one ``(cell, attempt)``.

        Called at the top of every simulation attempt -- inline or
        inside a worker process.  Delays sleep, ``fail`` raises
        :class:`InjectedFault`, ``kill`` exits the process without
        cleanup (exactly like a crashed or OOM-killed worker).
        """
        seconds = self.delay_for(key, attempt)
        if seconds > 0:
            time.sleep(seconds)
        if self.should_fail(key, attempt):
            raise InjectedFault(
                "injected fault for cell %s attempt %d" % (key[:12], attempt),
                context={"cell_key": key[:12], "attempt": attempt},
            )
        if self.should_kill(key, attempt):
            os._exit(KILL_EXIT_CODE)


@dataclass(frozen=True)
class FaultSpec:
    """Rate-based fault description, materialised per batch.

    The CLI's ``--faults`` flag parses into one of these; the executor
    calls :meth:`materialize` once the batch's cell keys are known.
    Rates are per-cell probabilities; every injected
    kill/fail/delay fires on attempt 0 only, so a policy with at
    least one retry always recovers.
    """

    seed: int = 0
    kill_rate: float = 0.0
    fail_rate: float = 0.0
    delay_rate: float = 0.0
    delay_seconds: float = 0.05
    corrupt_rate: float = 0.0
    abort_after: Optional[int] = None

    #: ``--faults`` field names -> FaultSpec attributes.
    _FIELDS = {
        "seed": "seed",
        "kill": "kill_rate",
        "fail": "fail_rate",
        "delay": "delay_rate",
        "delay-seconds": "delay_seconds",
        "corrupt": "corrupt_rate",
        "abort-after": "abort_after",
    }

    @classmethod
    def parse(cls, text: str) -> "FaultSpec":
        """Parse ``"seed=1,kill=0.3,delay=0.2,delay-seconds=0.05"``."""
        values: Dict[str, Any] = {}
        for part in text.split(","):
            part = part.strip()
            if not part:
                continue
            name, _, raw = part.partition("=")
            attr = cls._FIELDS.get(name.strip())
            if attr is None or not raw:
                raise ValueError(
                    "bad --faults field %r (known: %s)"
                    % (part, ", ".join(cls._FIELDS))
                )
            if attr in ("seed", "abort_after"):
                values[attr] = int(raw)
            else:
                values[attr] = float(raw)
        return cls(**values)

    def materialize(self, keys: Sequence[str]) -> FaultPlan:
        """Roll the per-key dice and return the concrete plan.

        Deterministic in ``(seed, key)`` alone: the same cell draws the
        same faults regardless of batch composition or ordering.  The
        draws run in a fixed order (kill, fail, delay, corrupt); a new
        fault kind draws after them so historical ``(seed, rate)`` pairs
        keep selecting the same cells.
        """
        kill: Dict[str, Tuple[int, ...]] = {}
        fail: Dict[str, Tuple[int, ...]] = {}
        delay: Dict[str, Tuple[Tuple[int, float], ...]] = {}
        corrupt: List[str] = []
        for key in sorted(keys):
            rng = DeterministicRng(self.seed, "exec.faults/%s" % key)
            if rng.random() < self.kill_rate:
                kill[key] = (0,)
            if rng.random() < self.fail_rate:
                fail[key] = (0,)
            if rng.random() < self.delay_rate:
                delay[key] = ((0, self.delay_seconds),)
            if rng.random() < self.corrupt_rate:
                corrupt.append(key)
        return FaultPlan(
            kill=kill,
            fail=fail,
            delay=delay,
            corrupt=tuple(corrupt),
            abort_after=self.abort_after,
        )
