"""Job model for the verification service.

A *job* is one compile+simulate+verify request against a registered
benchmark app: the case name, its sizing options, the stimulus seed and
the execution options.  Everything else — the dedup key and the batch
group — is derived, never sent, so a client cannot lie about identity:
two requests that hash alike *are* alike by construction.

Two derived identities drive the scheduler:

* **job key** — :func:`repro.core.cache.case_key` over the resolved
  case.  Identical to the artifact-cache digest, so "dedup against the
  artifact cache" is literal: a job key is a cache filename.
* **group key** — :func:`repro.core.cache.structure_key` plus the
  execution options minus the seed.  Jobs sharing a group compile to
  the same design and run on the same backend, differing only in
  stimulus, which is exactly the precondition for one batched dispatch
  on one elaboration.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import Mapping

from ..apps.registry import CASE_BUILDERS, suite_case
from ..core.cache import case_key, structure_key
from ..core.testsuite import SuiteCase
from ..sim.backends import SIMULATOR_BACKENDS

__all__ = ["JobError", "JobSpec", "ResolvedJob", "resolve_job"]

_FSM_MODES = ("generated", "interpreted")


class JobError(ValueError):
    """A request that cannot become a job (unknown case, bad field)."""


@dataclass(frozen=True)
class JobSpec:
    """One verification request, exactly as it crosses the wire."""

    case: str
    size: Mapping[str, int] = field(default_factory=dict)
    seed: int = 0
    backend: str = "traced"
    fsm_mode: str = "generated"

    @classmethod
    def from_dict(cls, data: object) -> "JobSpec":
        """Validate an untrusted wire dict into a spec.

        Raises :class:`JobError` with a client-facing message on any
        malformed field; never raises anything else.
        """
        if not isinstance(data, dict):
            raise JobError(f"job must be an object, got {type(data).__name__}")
        # "trace" is telemetry, not identity: a span context dict that
        # rides the wire next to the job (client -> daemon -> worker)
        # but never reaches the spec, so two requests differing only in
        # tracing still dedup/coalesce/batch identically
        unknown = set(data) - {"case", "size", "seed", "backend",
                               "fsm_mode", "trace"}
        if unknown:
            raise JobError(f"unknown job field(s): {sorted(unknown)}")
        trace = data.get("trace")
        if trace is not None and not isinstance(trace, dict):
            raise JobError(f"'trace' must be a span context object, "
                           f"got {type(trace).__name__}")
        case = data.get("case")
        if not isinstance(case, str) or not case:
            raise JobError("job needs a 'case' name (string)")
        size = data.get("size", {})
        if not isinstance(size, dict):
            raise JobError("'size' must be an object of integer options")
        for key, value in size.items():
            if not isinstance(key, str) or isinstance(value, bool) \
                    or not isinstance(value, int):
                raise JobError(
                    f"'size' entries must map names to integers, "
                    f"got {key!r}={value!r}")
        seed = data.get("seed", 0)
        if isinstance(seed, bool) or not isinstance(seed, int):
            raise JobError(f"'seed' must be an integer, got {seed!r}")
        backend = data.get("backend", "traced")
        if backend not in SIMULATOR_BACKENDS:
            raise JobError(
                f"unknown backend {backend!r} "
                f"(known: {sorted(SIMULATOR_BACKENDS)})")
        fsm_mode = data.get("fsm_mode", "generated")
        if fsm_mode not in _FSM_MODES:
            raise JobError(
                f"unknown fsm_mode {fsm_mode!r} (known: {_FSM_MODES})")
        return cls(case=case, size=dict(size), seed=seed,
                   backend=backend, fsm_mode=fsm_mode)

    def to_dict(self) -> dict:
        return {"case": self.case, "size": dict(self.size),
                "seed": self.seed, "backend": self.backend,
                "fsm_mode": self.fsm_mode}


@dataclass
class ResolvedJob:
    """A spec bound to its built case and derived identities."""

    spec: JobSpec
    case: SuiteCase
    #: the content-hash artifact digest (dedup/coalesce/cache key)
    key: str
    #: structure + options minus seed (batch grouping)
    group: str
    #: may this job be folded into a batched dispatch? (it needs a
    #: seeded stimulus factory, one input set per lane)
    batchable: bool


def resolve_job(spec: JobSpec) -> ResolvedJob:
    """Build the case and derive the job's identities.

    Raises :class:`JobError` when the case name is unknown or the
    sizing options don't fit its builder (an unknown name, a zero or
    misaligned size) — before anything is queued, so a bad request
    never reaches a worker.
    """
    if spec.case not in CASE_BUILDERS:
        raise JobError(
            f"unknown case {spec.case!r} (known: {sorted(CASE_BUILDERS)})")
    try:
        case = suite_case(spec.case, **dict(spec.size))
    except (TypeError, ValueError) as exc:
        raise JobError(
            f"bad size options for {spec.case!r}: {exc}") from None
    key = case_key(case, seed=spec.seed, fsm_mode=spec.fsm_mode,
                   backend=spec.backend)
    structure = structure_key(case, fsm_mode=spec.fsm_mode)
    group_blob = f"{structure}:{spec.backend}:{spec.fsm_mode}"
    group = hashlib.sha256(group_blob.encode("utf-8")).hexdigest()
    return ResolvedJob(spec=spec, case=case, key=key, group=group,
                       batchable=case.inputs is not None)
