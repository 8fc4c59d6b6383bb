"""Persistent codegen cache: generated kernels keyed by design structure.

The compiled/traced simulation backends and the generated-FSM behaviour
pay a per-elaboration code-generation and ``compile()`` cost (tens of
milliseconds on the larger benchmarks).  That cost is pure function of
the *structure* being compiled, so this module caches the generated
source and its marshalled bytecode on disk, keyed by a structural hash
of (datapath, FSM, backend options, coverage flag).  Suite fork-workers,
repeated ``flow`` invocations and fuzz-corpus replays then skip codegen
entirely and ``exec`` the cached code object.

Two layers:

* an in-process memo (reconfiguration loops re-elaborate the same
  configuration many times within one run);
* a disk store under ``$REPRO_KERNEL_CACHE`` (default
  ``~/.cache/repro-kernels``), shared across processes.  Set
  ``REPRO_KERNEL_CACHE=off`` to keep the cache memory-only.

Entries are self-validating: each payload records the cache schema
version and the interpreter's bytecode magic, so a cache directory
shared across Python versions or library upgrades degrades to misses,
never to wrong code.  All disk writes are atomic (tempfile + rename),
all reads treat any corruption as a miss.

The same store also holds pickled objects (:meth:`KernelCache.get_object`),
which is how the suite caches its compile stage: a case's
:class:`~repro.compiler.pipeline.Design` keyed by what the compiler was
given plus :func:`toolchain_fingerprint`.  Only this program writes
them, into the cache directory it also ``exec``s kernels from.
"""

from __future__ import annotations

import base64
import gc
import hashlib
import importlib.util
import json
import marshal
import os
import pickle
import tempfile
from pathlib import Path
from types import CodeType
from typing import Any, Dict, Optional, Tuple

__all__ = ["KernelCache", "default_cache", "set_default_cache",
           "digest_parts", "datapath_digest", "fsm_digest",
           "batch_group_key", "toolchain_fingerprint"]

#: bump when the payload schema changes
_SCHEMA_VERSION = 1

#: interpreter bytecode magic, base64 for JSON transport
_MAGIC = base64.b64encode(importlib.util.MAGIC_NUMBER).decode("ascii")


def _fingerprint_package(root: Path) -> str:
    """SHA-256 over the relative path and bytes of every ``.py`` file
    under *root*."""
    h = hashlib.sha256()
    for path in sorted(root.rglob("*.py"),
                       key=lambda p: p.relative_to(root).as_posix()):
        try:
            data = path.read_bytes()
        except OSError:
            continue  # not a module: a dangling editor lock link, say
        h.update(f"{path.relative_to(root).as_posix()}\0{len(data)}\0"
                 .encode("utf-8"))
        h.update(data)
    return h.hexdigest()


#: the toolchain as this process loaded it, hashed once at import
_TOOLCHAIN = _fingerprint_package(Path(__file__).resolve().parent.parent)


def toolchain_fingerprint() -> str:
    """Digest of the source of the whole ``repro`` package.

    Cache and dedup keys fold it in, so an edit anywhere in the
    toolchain — compiler, translators, kernels, golden runner — turns
    every earlier verdict and compiled design into a miss.  It is taken
    once, when this module is imported: a file edited afterwards cannot
    relabel code the process has already loaded (the same rule as
    :func:`repro.util.loc.function_source`), and fork workers inherit
    it instead of hashing again.
    """
    return _TOOLCHAIN


# ----------------------------------------------------------------------
# Structural digests
# ----------------------------------------------------------------------
def digest_parts(*parts) -> str:
    """One stable hex digest over any mix of strings/ints/bools."""
    h = hashlib.sha256()
    for part in parts:
        h.update(str(part).encode("utf-8", "replace"))
        h.update(b"\x1e")
    return h.hexdigest()


def datapath_digest(datapath) -> str:
    """Hash everything about a datapath that code generation can see.

    Memoised on the model object (``_digest_memo``): re-elaborating the
    same design — the benchmark harness and the parallel suite runner
    both do, many times — must not re-walk a few hundred declarations
    per run.  The model's mutators clear the memo.
    """
    memo = getattr(datapath, "_digest_memo", None)
    if memo is not None:
        return memo
    h = hashlib.sha256()

    def w(*fields) -> None:
        h.update("\x1f".join(map(str, fields)).encode("utf-8", "replace"))
        h.update(b"\x1e")

    w("dp", datapath.name, datapath.width)
    for comp in datapath.components.values():
        w("comp", comp.name, comp.type, comp.width,
          sorted(comp.params.items()))
    for net in datapath.nets.values():
        w("net", net.name, net.width, net.source,
          ";".join(map(str, net.sinks)))
    for line in datapath.controls.values():
        w("ctl", line.name, line.width, ";".join(map(str, line.targets)))
    for status in datapath.statuses.values():
        w("status", status.name, status.source)
    for mem in datapath.memories.values():
        w("mem", mem.name, mem.width, mem.depth, mem.init, mem.role)
    digest = h.hexdigest()
    try:
        datapath._digest_memo = digest
    except AttributeError:  # duck-typed stand-ins without a dict
        pass
    return digest


def fsm_digest(fsm) -> str:
    """Hash the FSM semantics: vectors, guards, targets, finals.

    Memoised like :func:`datapath_digest`; ``Fsm`` mutators and the
    ``State`` helpers clear the memo through the state's owner link.
    """
    memo = getattr(fsm, "_digest_memo", None)
    if memo is not None:
        return memo
    h = hashlib.sha256()

    def w(*fields) -> None:
        h.update("\x1f".join(map(str, fields)).encode("utf-8", "replace"))
        h.update(b"\x1e")

    w("fsm", fsm.name, fsm.reset_state, sorted(fsm.final_states),
      list(fsm.inputs))
    for decl in fsm.outputs.values():
        w("out", decl.name, decl.width, decl.default)
    for state in fsm.states.values():
        w("state", state.name, sorted(state.assigns.items()))
        for transition in state.transitions:
            w("tr", transition.condition.to_python(), transition.target)
    digest = h.hexdigest()
    try:
        fsm._digest_memo = digest
    except AttributeError:
        pass
    return digest


def batch_group_key(datapath, fsm, fsm_mode: str = "generated") -> str:
    """Public grouping key: runs with equal keys share generated code.

    Two (datapath, FSM) pairs with the same key elaborate to the same
    kernel, so their stimulus sets can advance through **one** batch
    (see :mod:`repro.sim.batched`) — this is how the fuzz harness folds
    a wave's structurally-identical programs into shared batches.  The
    key is derived from the same memoised structural digests the kernel
    cache itself uses, so any model mutation that would invalidate the
    cached kernel (the mutators clear ``_digest_memo``) changes the
    group key too — stale grouping is impossible by construction.
    """
    return digest_parts("batch-group-v1", datapath_digest(datapath),
                        fsm_digest(fsm), fsm_mode)


# ----------------------------------------------------------------------
# The cache
# ----------------------------------------------------------------------
class KernelCache:
    """Two-layer (memory + disk) store for generated-code payloads.

    A payload is a JSON-serialisable dict; the associated code object is
    transported as marshalled bytes under the reserved ``"code"`` key.
    ``get`` returns ``(payload, code)`` and never raises — corruption,
    version skew and I/O errors are all misses.
    """

    def __init__(self, root: Optional[Path] = None) -> None:
        #: ``None`` root means memory-only
        self.root = Path(root) if root is not None else None
        self._memory: Dict[Tuple[str, str],
                           Tuple[dict, Optional[CodeType]]] = {}
        self.memory_hits = 0
        self.disk_hits = 0
        self.misses = 0
        self.stores = 0
        self.errors = 0

    # ------------------------------------------------------------------
    def _path(self, kind: str, key: str) -> Path:
        return self.root / kind / f"{key}.json"

    def get(self, kind: str, key: str
            ) -> Tuple[Optional[dict], Optional[CodeType]]:
        cached = self._memory.get((kind, key))
        if cached is not None:
            self.memory_hits += 1
            return cached
        if self.root is None:
            self.misses += 1
            return None, None
        try:
            raw = self._path(kind, key).read_text()
        except OSError:
            self.misses += 1
            return None, None
        try:
            payload = json.loads(raw)
            if payload.get("v") != _SCHEMA_VERSION \
                    or payload.get("magic") != _MAGIC:
                self.misses += 1
                return None, None
            blob = payload.pop("code", None)
            code = (marshal.loads(base64.b64decode(blob))
                    if blob is not None else None)
        except Exception:  # noqa: BLE001 - any corruption is a miss
            self.errors += 1
            self.misses += 1
            return None, None
        self.disk_hits += 1
        self._memory[(kind, key)] = (payload, code)
        return payload, code

    def get_object(self, kind: str, key: str) -> Any:
        """The object :meth:`put_object` filed under *key*, or ``None``.

        Every hit unpickles afresh, so callers may mutate what they get.
        An entry that does not unpickle, or that names another key, is a
        miss.
        """
        in_memory = (kind, key) in self._memory
        payload, _ = self.get(kind, key)
        if payload is None:
            return None
        # a design unpickles into thousands of objects at once; with the
        # cyclic collector paused they load in about 60% of the time
        collecting = gc.isenabled()
        gc.disable()
        try:
            if payload.get("key") != key:
                raise ValueError(f"entry filed under {payload.get('key')}")
            return pickle.loads(base64.b64decode(payload["pickle"]))
        except Exception:  # noqa: BLE001 - any corruption is a miss
            del self._memory[(kind, key)]
            if in_memory:
                self.memory_hits -= 1
            else:
                self.disk_hits -= 1
            self.errors += 1
            self.misses += 1
            return None
        finally:
            if collecting:
                gc.enable()

    def put_object(self, kind: str, key: str, value: Any) -> None:
        """File a pickle of *value* under *key*."""
        blob = pickle.dumps(value, protocol=pickle.HIGHEST_PROTOCOL)
        self.put(kind, key, {"key": key,
                             "pickle": base64.b64encode(blob).decode("ascii")})

    def put(self, kind: str, key: str, payload: dict,
            code: Optional[CodeType] = None) -> None:
        payload = dict(payload)
        payload["v"] = _SCHEMA_VERSION
        payload["magic"] = _MAGIC
        self._memory[(kind, key)] = (payload, code)
        self.stores += 1
        if self.root is None:
            return
        on_disk = dict(payload)
        if code is not None:
            on_disk["code"] = base64.b64encode(
                marshal.dumps(code)).decode("ascii")
        try:
            path = self._path(kind, key)
            path.parent.mkdir(parents=True, exist_ok=True)
            fd, tmp = tempfile.mkstemp(dir=path.parent, suffix=".tmp")
            try:
                with os.fdopen(fd, "w") as handle:
                    json.dump(on_disk, handle)
                os.replace(tmp, path)
            except BaseException:
                try:
                    os.unlink(tmp)
                except OSError:
                    pass
                raise
        except OSError:
            # unwritable cache dir: degrade to memory-only for this entry
            self.errors += 1

    # ------------------------------------------------------------------
    def clear(self) -> None:
        """Drop the memory layer and every on-disk entry, including
        ``*.tmp`` staging files orphaned by writers killed mid-
        :func:`os.replace` (they are invisible to lookups but would
        otherwise accumulate forever)."""
        self._memory.clear()
        if self.root is None or not self.root.exists():
            return
        for pattern in ("*/*.json", "*/*.tmp", "*.tmp"):
            for path in self.root.glob(pattern):
                try:
                    path.unlink()
                except OSError:
                    self.errors += 1

    def summary(self) -> Dict[str, object]:
        return {
            "root": str(self.root) if self.root is not None else None,
            "memory_hits": self.memory_hits,
            "disk_hits": self.disk_hits,
            "misses": self.misses,
            "stores": self.stores,
            "errors": self.errors,
        }

    def describe(self) -> str:
        info = self.summary()
        where = info["root"] or "memory-only"
        return (f"kernel cache [{where}]: "
                f"{info['memory_hits']} memory hit(s), "
                f"{info['disk_hits']} disk hit(s), "
                f"{info['misses']} miss(es), {info['stores']} store(s)")


# ----------------------------------------------------------------------
# Process-wide default
# ----------------------------------------------------------------------
_default: Optional[KernelCache] = None


def _default_root() -> Optional[Path]:
    configured = os.environ.get("REPRO_KERNEL_CACHE")
    if configured is not None:
        if configured.strip().lower() in ("off", "0", "none", ""):
            return None
        return Path(configured)
    return Path.home() / ".cache" / "repro-kernels"


def default_cache() -> KernelCache:
    """The process-wide cache (created on first use; fork-safe, since
    children inherit the memory layer and share the disk layer)."""
    global _default
    if _default is None:
        _default = KernelCache(_default_root())
    return _default


def set_default_cache(cache: Optional[KernelCache]) -> Optional[KernelCache]:
    """Swap the process-wide cache (tests use this to isolate); returns
    the previous one."""
    global _default
    previous = _default
    _default = cache
    return previous
