"""Content-hash artifact cache: the one store of passing verdicts.

The paper's scenario is re-running the whole benchmark suite after every
compiler change.  The cache keys a case by everything that determines
its outcome — the algorithm's source text, the memory specifications,
the compile options, the stimulus seed, the execution options and the
toolchain itself (:func:`~repro.core.kernelcache.toolchain_fingerprint`)
— so a rerun with nothing changed is answered from the store, and any
edit to the toolchain re-verifies every case.

Only *passing* results are cached: failures must re-execute every time so
their diagnostics (mismatch triples, error messages) stay live, and so a
fixed compiler immediately re-verifies them.

Directory entries are single JSON files named by the SHA-256 of the key
material, safe for concurrent writers (atomic rename) and trivially
inspectable.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
from pathlib import Path
from typing import Dict, Optional, Union

from ..obs.coverage import CoverageReport
from ..util.loc import function_source
from .kernelcache import toolchain_fingerprint, write_json
from .report import ConfigurationMetrics, DesignMetrics
from .verification import MemoryCheck, VerificationResult

__all__ = ["ArtifactCache", "case_key", "structure_key", "design_key",
           "result_to_payload", "result_from_payload", "payload_passed"]

#: bump when the layout of :func:`result_to_payload` changes
_PAYLOAD_VERSION = 2

#: memory-layer entries kept before oldest-first eviction; passing
#: payloads are a few KB each, so this bounds memory at a few tens of MB
_MEMORY_ENTRIES = 4096


def _function_fingerprint(func) -> str:
    """Source text of *func* — the compiler input the cache key guards.

    Read once per process (:func:`~repro.util.loc.function_source`), so
    deriving a key per request costs a dict lookup, not a re-tokenize."""
    try:
        return function_source(func)
    except (OSError, TypeError):
        # no retrievable source (REPL lambdas, builtins): fall back to
        # identity, which under-caches but never falsely hits
        return f"{getattr(func, '__module__', '?')}." \
               f"{getattr(func, '__qualname__', repr(func))}"


def _structure_material(case) -> dict:
    """Everything that determines the *compiled structure* of a case —
    the algorithm source, the compile options and the toolchain, but not
    the stimulus seed or the simulation backend."""
    return {
        "toolchain": toolchain_fingerprint(),
        "name": case.name,
        "source": _function_fingerprint(case.func),
        "arrays": {
            name: [spec.width, spec.depth, spec.signed, spec.role]
            for name, spec in sorted(case.arrays.items())
        },
        "params": {str(k): int(v)
                   for k, v in sorted(case.params.items())},
        "n_partitions": case.n_partitions,
        "word_width": case.word_width,
        "opt_level": case.opt_level,
    }


def _digest(material: dict) -> str:
    blob = json.dumps(material, sort_keys=True).encode("utf-8")
    return hashlib.sha256(blob).hexdigest()


def case_key(case, *, seed: int, fsm_mode: str, backend: str,
             coverage: bool = False, batch: int = 0) -> str:
    """SHA-256 over everything that determines a case's outcome.

    This is *the* content-hash artifact digest: the artifact cache
    names its entries with it and the serve scheduler deduplicates and
    coalesces jobs by it, so both layers agree by construction on what
    "the same verification" means.  Any mutation of the design — a
    changed source line, a resized array, a different compile option,
    an edit anywhere in the toolchain — produces a different key, which
    is why dedup can never serve a stale artifact.
    """
    material = _structure_material(case)
    material.update({
        "coverage": bool(coverage),
        "batch": int(batch),
        "max_cycles": case.max_cycles,
        "seed": seed,
        "fsm_mode": fsm_mode,
        "backend": backend,
    })
    return _digest(material)


def structure_key(case, *, fsm_mode: str = "generated") -> str:
    """Digest of the case's compiled structure only (no seed/backend).

    Jobs that share a structure key compile to the same design and so
    elaborate to the same kernels — the serve scheduler uses this to
    group them into one batched dispatch.
    """
    material = _structure_material(case)
    material["fsm_mode"] = fsm_mode
    return _digest(material)


def design_key(case) -> str:
    """Digest of what the compiler is given for *case*, toolchain
    included: the key of the compile stage
    (:meth:`repro.core.testsuite.SuiteCase.compile`)."""
    return _digest(_structure_material(case))


# ----------------------------------------------------------------------
# Result <-> JSON payload codecs, shared by the artifact cache and the
# serve wire protocol (results must survive a socket exactly as they
# survive a cache file)
# ----------------------------------------------------------------------
def result_to_payload(result) -> dict:
    """Serialize a :class:`CaseResult` to a JSON-safe dict.

    Unlike cache entries — which only ever hold passes — the payload
    carries failure diagnostics too (mismatch triples, error text), so
    the serve protocol can stream any verdict through it.
    """
    v = result.verification
    m = result.metrics
    payload = {
        "version": _PAYLOAD_VERSION,
        "case": result.case,
        "compile_seconds": result.compile_seconds,
        "error": result.error,
        "traceback": result.traceback,
        "verification": None,
        "metrics": None,
    }
    if v is not None:
        payload["verification"] = {
            "design": v.design,
            "checks": [{"memory": c.memory, "role": c.role,
                        "words": c.words,
                        "mismatches": [[mm.address, mm.expected, mm.actual]
                                       for mm in c.mismatches]}
                       for c in v.checks],
            "cycles": v.cycles,
            "reconfigurations": v.reconfigurations,
            "golden_seconds": v.golden_seconds,
            "simulation_seconds": v.simulation_seconds,
            "evaluations": v.evaluations,
            "backend": v.backend,
            "coverage": (v.coverage.as_dict()
                         if v.coverage is not None else None),
        }
    if m is not None:
        payload["metrics"] = {
            "name": m.name,
            "lo_source": m.lo_source,
            "configurations": [vars(c) for c in m.configurations],
            "simulation_seconds": m.simulation_seconds,
            "cycles": m.cycles,
            "backend": m.backend,
            "state_coverage": m.state_coverage,
        }
    return payload


def payload_passed(payload: dict) -> bool:
    """Verdict of a :func:`result_to_payload` payload without rebuilding
    the result: no error, and no mismatch in any check."""
    v = payload.get("verification")
    return payload.get("error") is None and v is not None \
        and all(not check["mismatches"] for check in v["checks"])


def result_from_payload(payload: dict, *, cached: bool = False):
    """Rebuild a :class:`CaseResult` from :func:`result_to_payload`."""
    from ..util.files import MemoryMismatch
    from .testsuite import CaseResult

    verification = None
    v = payload.get("verification")
    if v is not None:
        coverage = v.get("coverage")
        verification = VerificationResult(
            design=v["design"],
            checks=[MemoryCheck(
                c["memory"], c["role"], c["words"],
                mismatches=[MemoryMismatch(*mm)
                            for mm in c.get("mismatches", [])])
                for c in v["checks"]],
            cycles=v["cycles"],
            reconfigurations=v["reconfigurations"],
            golden_seconds=v["golden_seconds"],
            simulation_seconds=v["simulation_seconds"],
            evaluations=v["evaluations"],
            backend=v["backend"],
            coverage=(CoverageReport.from_dict(coverage)
                      if coverage is not None else None),
        )
    metrics = None
    m = payload.get("metrics")
    if m is not None:
        metrics = DesignMetrics(
            name=m["name"],
            lo_source=m["lo_source"],
            configurations=[ConfigurationMetrics(**c)
                            for c in m["configurations"]],
            simulation_seconds=m["simulation_seconds"],
            cycles=m["cycles"],
            backend=m.get("backend"),
            state_coverage=m.get("state_coverage"),
        )
    return CaseResult(
        case=payload["case"],
        verification=verification,
        metrics=metrics,
        compile_seconds=payload["compile_seconds"],
        error=payload.get("error"),
        traceback=payload.get("traceback"),
        cached=cached,
    )


def _answers(payload) -> bool:
    """A pass of the current layout, metrics included: all the store keeps."""
    return payload.get("version") == _PAYLOAD_VERSION \
        and payload.get("metrics") is not None and payload_passed(payload)


class ArtifactCache:
    """The one store of passing :func:`result_to_payload` payloads, keyed
    by :func:`case_key`, for the suite runner and the serve daemon: a
    memory layer of the newest ``_MEMORY_ENTRIES`` (oldest out first)
    over an optional directory of ``<key>.json`` files."""

    def __init__(self, root: Optional[Union[str, Path]] = None) -> None:
        self.root = None if root is None else Path(root)
        if self.root is not None:
            if self.root.exists() and not self.root.is_dir():
                raise NotADirectoryError(
                    f"cache path {self.root} exists and is not a directory")
            self.root.mkdir(parents=True, exist_ok=True)
        self._memory: Dict[str, dict] = {}
        self.hits = 0
        self.misses = 0

    def __len__(self) -> int:
        return len(self._memory)

    # -- lookup / store -------------------------------------------------
    def recall(self, key: str) -> Optional[dict]:
        """The memory layer's payload for *key*, or ``None``."""
        return self._memory.get(key)

    def load(self, key: str) -> Optional[dict]:
        """The payload for *key* from memory, else from the directory
        (promoted into memory), or ``None``.  An unreadable or malformed
        entry, another layout version or a non-pass is a miss, never a
        verdict."""
        payload = self._memory.get(key)
        if payload is None and self.root is not None:
            try:
                payload = json.loads((self.root / f"{key}.json").read_text())
                if _answers(payload):
                    result_from_payload(payload)  # a missing field raises
                else:
                    payload = None
            except (OSError, ValueError, AttributeError, KeyError,
                    TypeError):
                payload = None
            if payload is not None:
                self._remember(key, payload)
        if payload is None:
            self.misses += 1
        else:
            self.hits += 1
        return payload

    def store(self, key: str, payload: dict, *,
              persist: bool = True) -> bool:
        """Keep *payload* if it is a pass, in memory only unless
        *persist*; returns stored?"""
        if not _answers(payload):
            return False
        self._remember(key, payload)
        if not persist or self.root is None:
            return True
        return write_json(self.root / f"{key}.json", payload)

    def _remember(self, key: str, payload: dict) -> None:
        if key not in self._memory \
                and len(self._memory) >= _MEMORY_ENTRIES:
            self._memory.pop(next(iter(self._memory)))
        self._memory[key] = payload

    def summary(self) -> str:
        """One-line hit/miss account, printed when ``--cache`` is active."""
        total = self.hits + self.misses
        rate = f", {100 * self.hits / total:.0f}% hit rate" if total else ""
        entries = sum(1 for _ in self.root.glob("*.json")) \
            if self.root is not None else len(self)
        return (f"cache: {self.hits} hit(s), {self.misses} miss(es)"
                f"{rate}, {entries} entr(ies) in {self.root or 'memory'}")

    def clear(self) -> int:
        """Empty both layers; returns how many files were removed."""
        self._memory.clear()
        removed = 0
        for path in self.root.glob("*.json") if self.root else ():
            with contextlib.suppress(OSError):
                path.unlink()
                removed += 1
        return removed
