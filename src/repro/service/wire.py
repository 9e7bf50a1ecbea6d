"""Wire schemas for the sweep service: job specs and response shapes.

Everything that crosses the HTTP boundary is defined here, away from
both the socket code (:mod:`repro.service.app`) and the execution code
(:mod:`repro.service.jobs`), so the client, the server, and the docs
honesty gate all validate against one vocabulary.

A *job spec* names a figure or ablation driver by its registry id
(:data:`repro.analysis.experiments.EXPERIMENT_DRIVERS` |
:data:`repro.analysis.ablations.ABLATION_DRIVERS`) plus the driver
overrides (``length``, ``seed``, ``workloads``) and per-job executor
options (``check_invariants``, retry policy).  Validation
is strict -- unknown keys, unknown figures, unknown workload names, and
workload lists that contradict the driver's shape are all
:class:`WireError`, which the server maps to HTTP 400 with the error's
structured ``context`` in the response body.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from typing import Any, Callable, Dict, Mapping, Optional, Tuple

from repro.common.errors import ReproError

#: Version of every request/response body this package speaks; carried
#: in each response envelope and in persisted job records.
WIRE_SCHEMA = 2

#: The keys a job-spec body may carry, and nothing else.
_SPEC_KEYS = (
    "figure",
    "length",
    "seed",
    "workloads",
    "check_invariants",
    "max_retries",
    "cell_timeout",
    "allow_partial",
)

_INVARIANT_MODES = ("off", "sample", "full")


class WireError(ReproError):
    """A request body or parameter the service cannot honor (HTTP 400)."""


@dataclass(frozen=True)
class FigureInfo:
    """One submittable driver: its registry id, the callable, and how it
    treats workload overrides (``list`` accepts any subset, ``single``
    takes exactly one name, ``fixed`` accepts none)."""

    figure: str
    driver: Callable[..., Dict[str, Any]]
    workload_mode: str
    kind: str  # "figure" | "ablation"


def driver_catalog() -> Dict[str, FigureInfo]:
    """Every submittable figure and ablation, keyed by id.

    Imported lazily so the wire module stays importable without the
    full analysis stack (the typed client pulls this module in).
    """
    from repro.analysis.ablations import (
        ABLATION_DRIVERS,
        SINGLE_WORKLOAD_ABLATIONS,
    )
    from repro.analysis.experiments import (
        EXPERIMENT_DRIVERS,
        FIXED_WORKLOAD_FIGURES,
    )

    catalog: Dict[str, FigureInfo] = {}
    for figure, driver in EXPERIMENT_DRIVERS.items():
        mode = "fixed" if figure in FIXED_WORKLOAD_FIGURES else "list"
        catalog[figure] = FigureInfo(figure, driver, mode, "figure")
    for figure, driver in ABLATION_DRIVERS.items():
        mode = "single" if figure in SINGLE_WORKLOAD_ABLATIONS else "list"
        catalog[figure] = FigureInfo(figure, driver, mode, "ablation")
    return catalog


@dataclass(frozen=True)
class JobSpec:
    """A validated sweep-job submission.

    ``None`` means "use the driver's / server's default" throughout, so
    two specs that hash identically run identical cells -- the property
    the warm-cache story depends on.
    """

    figure: str
    length: Optional[int] = None
    seed: int = 0
    workloads: Optional[Tuple[str, ...]] = None
    check_invariants: Optional[str] = None
    max_retries: Optional[int] = None
    cell_timeout: Optional[float] = None
    allow_partial: bool = False

    def canonical(self) -> Dict[str, Any]:
        """The JSON-stable dict this spec persists and hashes as."""
        return {
            "schema": WIRE_SCHEMA,
            "figure": self.figure,
            "length": self.length,
            "seed": self.seed,
            "workloads": list(self.workloads) if self.workloads else None,
            "check_invariants": self.check_invariants,
            "max_retries": self.max_retries,
            "cell_timeout": self.cell_timeout,
            "allow_partial": self.allow_partial,
        }

    def digest(self) -> str:
        """SHA-256 of the canonical spec; job ids embed a prefix of it."""
        payload = json.dumps(self.canonical(), sort_keys=True)
        return hashlib.sha256(payload.encode("utf-8")).hexdigest()

    def driver_kwargs(self) -> Dict[str, Any]:
        """The keyword arguments this spec passes to its driver."""
        info = driver_catalog()[self.figure]
        kwargs: Dict[str, Any] = {"seed": self.seed}
        if self.length is not None:
            kwargs["length"] = self.length
        if self.workloads:
            if info.workload_mode == "single":
                kwargs["workload"] = self.workloads[0]
            else:
                kwargs["workloads"] = tuple(self.workloads)
        return kwargs


def _require(condition: bool, message: str, context: Dict[str, Any]) -> None:
    if not condition:
        raise WireError(message, context=context)


def parse_job_spec(payload: Any) -> JobSpec:
    """Validate a submission body into a :class:`JobSpec`.

    Raises :class:`WireError` (HTTP 400) with a structured context on
    the first violation; nothing about the request is ever guessed.
    """
    _require(
        isinstance(payload, Mapping),
        "job spec must be a JSON object",
        {"got": type(payload).__name__},
    )
    assert isinstance(payload, Mapping)
    unknown = sorted(set(payload) - set(_SPEC_KEYS))
    _require(
        not unknown,
        "unknown job-spec key(s): %s" % ", ".join(unknown),
        {"unknown": unknown, "known": list(_SPEC_KEYS)},
    )

    catalog = driver_catalog()
    figure = payload.get("figure")
    _require(
        isinstance(figure, str) and figure in catalog,
        "unknown figure %r" % (figure,),
        {"figure": figure, "known": sorted(catalog)},
    )
    assert isinstance(figure, str)
    info = catalog[figure]

    length = payload.get("length")
    if length is not None:
        _require(
            isinstance(length, int) and not isinstance(length, bool) and length > 0,
            "length must be a positive integer",
            {"length": length},
        )
    seed = payload.get("seed", 0)
    _require(
        isinstance(seed, int) and not isinstance(seed, bool) and seed >= 0,
        "seed must be a non-negative integer",
        {"seed": seed},
    )

    workloads = _parse_workloads(payload.get("workloads"), info)

    invariants = payload.get("check_invariants")
    if invariants is not None:
        _require(
            invariants in _INVARIANT_MODES,
            "check_invariants must be one of %s" % (_INVARIANT_MODES,),
            {"check_invariants": invariants},
        )

    max_retries = payload.get("max_retries")
    if max_retries is not None:
        _require(
            isinstance(max_retries, int)
            and not isinstance(max_retries, bool)
            and max_retries >= 0,
            "max_retries must be a non-negative integer",
            {"max_retries": max_retries},
        )
    cell_timeout = payload.get("cell_timeout")
    if cell_timeout is not None:
        _require(
            isinstance(cell_timeout, (int, float))
            and not isinstance(cell_timeout, bool)
            and cell_timeout > 0,
            "cell_timeout must be a positive number of seconds",
            {"cell_timeout": cell_timeout},
        )
        cell_timeout = float(cell_timeout)
    allow_partial = payload.get("allow_partial", False)
    _require(
        isinstance(allow_partial, bool),
        "allow_partial must be a boolean",
        {"allow_partial": allow_partial},
    )

    return JobSpec(
        figure=figure,
        length=length,
        seed=seed,
        workloads=workloads,
        check_invariants=invariants,
        max_retries=max_retries,
        cell_timeout=cell_timeout,
        allow_partial=allow_partial,
    )


def _parse_workloads(
    value: Any, info: FigureInfo
) -> Optional[Tuple[str, ...]]:
    if value is None:
        return None
    _require(
        isinstance(value, (list, tuple)) and len(value) > 0,
        "workloads must be a non-empty list of workload names",
        {"workloads": value},
    )
    assert isinstance(value, (list, tuple))
    names = tuple(value)
    _require(
        all(isinstance(name, str) for name in names),
        "workloads must be strings",
        {"workloads": list(names)},
    )

    from repro.workloads.registry import workload_names

    known = set(workload_names(include_extensions=True))
    bad = sorted(name for name in names if name not in known)
    _require(
        not bad,
        "unknown workload(s): %s" % ", ".join(bad),
        {"unknown": bad, "known": sorted(known)},
    )
    _require(
        info.workload_mode != "fixed",
        "%s uses a fixed workload set; omit 'workloads'" % info.figure,
        {"figure": info.figure},
    )
    if info.workload_mode == "single":
        _require(
            len(names) == 1,
            "%s studies one workload; pass exactly one name" % info.figure,
            {"figure": info.figure, "workloads": list(names)},
        )
    return names


def service_envelope() -> Dict[str, Any]:
    """The provenance block stamped onto every HTTP response."""
    from repro import __version__

    return {
        "name": "repro-sweep-service",
        "version": __version__,
        "wire_schema": WIRE_SCHEMA,
    }
