"""The run ledger: every suite/flow/fuzz/bench run as a database row.

The paper's workflow re-verifies the whole benchmark suite after every
compiler change — which makes each run a *data point*, not a one-off.
The per-run observability layer (:mod:`repro.obs.trace`,
:mod:`repro.obs.metrics`, :mod:`repro.obs.coverage`) computes timings,
counters and coverage and then throws them away with the process; this
module persists them, so a kernel slowdown or a coverage drop *between*
commits is a query instead of a manual diff of ``BENCH_suite.json``.

Design:

* **stdlib ``sqlite3`` only**, WAL journal mode, ``busy_timeout`` set —
  concurrent recorders (a suite run and a fuzz campaign finishing at
  the same time, CI matrix jobs sharing a volume) serialize cleanly;
* **schema-versioned** with forward migration hooks: opening an old
  ledger upgrades it in place and never drops existing rows
  (:data:`SCHEMA_VERSION`, ``_MIGRATIONS``);
* **harvest, don't instrument**: like :mod:`repro.obs.metrics`, the
  recorders take finished report objects (duck-typed — this module
  imports nothing from ``repro.core``/``repro.fuzz``) and write one
  transaction per run, so the hot simulation paths never see the
  database;
* **provenance per run**: git revision, python version, hostname and
  the recording argv, so any row can be traced back to a commit.

The consumers are :mod:`repro.obs.regress` (the regression sentinel)
and :mod:`repro.obs.dashboard` (the static HTML dashboard and the
Prometheus textfile exporter), all reachable as ``python -m repro obs``.
"""

from __future__ import annotations

import contextlib
import functools
import json
import os
import socket
import sqlite3
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import (Any, Dict, Iterator, List, Mapping, Optional, Sequence,
                    Tuple, Union)

__all__ = ["SCHEMA_VERSION", "LedgerError", "Ledger", "RunRow", "CaseRow",
           "CoverageRow", "CacheRow", "FuzzRow", "FaultRow",
           "ledger_from_env", "ledger_sink", "LEDGER_ENV"]

#: current on-disk schema generation (see ``_MIGRATIONS`` for history)
SCHEMA_VERSION = 4

#: environment variable naming the ledger file recorders should append to
LEDGER_ENV = "REPRO_LEDGER"


class LedgerError(RuntimeError):
    """The ledger file is unusable (future schema, corrupt metadata)."""


# ----------------------------------------------------------------------
# Row types — plain data, no live database handles
# ----------------------------------------------------------------------
@dataclass
class RunRow:
    """One recorded run (a suite, flow, fuzz campaign, bench or verify)."""

    run_id: int
    kind: str
    started_at: float
    wall_seconds: float
    passed: bool
    backend: Optional[str]
    jobs: Optional[int]
    git_rev: Optional[str]
    python: Optional[str]
    hostname: Optional[str]
    argv: Optional[str]
    extra: Dict[str, Any]


@dataclass
class CaseRow:
    """Per-app timing of one run under one backend at one size."""

    run_id: int
    app: str
    backend: str
    size: str
    sim_seconds: Optional[float]
    compile_seconds: Optional[float]
    cycles: Optional[int]
    evaluations: Optional[int]
    passed: bool
    cached: bool
    #: stimulus sets run in one batch (None/1 = plain serial run)
    batch_size: Optional[int] = None
    #: amortized simulation seconds per stimulus set in a batched run
    lane_seconds: Optional[float] = None

    @property
    def stimuli(self) -> int:
        """Stimulus sets this row times: its batch size, or 1."""
        return self.batch_size or 1


@dataclass
class CoverageRow:
    """Functional coverage of one scope (an app, or an aggregate)."""

    run_id: int
    scope: str
    state_coverage: Optional[float]
    transition_coverage: Optional[float]
    operator_coverage: Optional[float]


@dataclass
class CacheRow:
    """Hit/miss tallies of one cache (artifact or kernel) in one run."""

    run_id: int
    cache: str
    hits: int
    misses: int

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0


@dataclass
class FuzzRow:
    """One outcome-classification tally of a fuzz campaign."""

    run_id: int
    kind: str
    count: int


@dataclass
class FaultRow:
    """One classified fault-injection run of a campaign.

    ``descriptor`` is the full replayable fault descriptor (the
    JSON-decoded :meth:`FaultDescriptor.to_dict` form), so a hang row
    pulled out of the ledger reproduces with ``repro inject --replay``.
    """

    run_id: int
    fault_id: str
    kind: str       # stuck | reg_flip | mem_flip | none (baseline)
    target: str
    verdict: str    # masked | sdc | hang | crash
    mechanism: Optional[str]
    cycles: Optional[int]
    seconds: Optional[float]
    note: Optional[str]
    descriptor: Optional[Dict[str, Any]]


# ----------------------------------------------------------------------
# Schema + migrations
# ----------------------------------------------------------------------
# v1 (historical): meta, runs (without argv), case_runs, coverage_runs.
# v2: + runs.argv column, + cache_runs, + fuzz_runs.
# v3: + case_runs.batch_size, case_runs.lane_seconds (batched execution).
# v4: + fault_runs (per-fault verdicts of injection campaigns).
_SCHEMA_V4 = """
CREATE TABLE IF NOT EXISTS meta (
    key   TEXT PRIMARY KEY,
    value TEXT NOT NULL
);
CREATE TABLE IF NOT EXISTS runs (
    run_id       INTEGER PRIMARY KEY AUTOINCREMENT,
    kind         TEXT NOT NULL,
    started_at   REAL NOT NULL,
    wall_seconds REAL,
    passed       INTEGER,
    backend      TEXT,
    jobs         INTEGER,
    git_rev      TEXT,
    python       TEXT,
    hostname     TEXT,
    argv         TEXT,
    extra        TEXT
);
CREATE TABLE IF NOT EXISTS case_runs (
    id              INTEGER PRIMARY KEY AUTOINCREMENT,
    run_id          INTEGER NOT NULL REFERENCES runs(run_id),
    app             TEXT NOT NULL,
    backend         TEXT NOT NULL,
    size            TEXT NOT NULL DEFAULT '',
    sim_seconds     REAL,
    compile_seconds REAL,
    cycles          INTEGER,
    evaluations     INTEGER,
    passed          INTEGER,
    cached          INTEGER DEFAULT 0,
    batch_size      INTEGER,
    lane_seconds    REAL
);
CREATE TABLE IF NOT EXISTS coverage_runs (
    id                  INTEGER PRIMARY KEY AUTOINCREMENT,
    run_id              INTEGER NOT NULL REFERENCES runs(run_id),
    scope               TEXT NOT NULL,
    state_coverage      REAL,
    transition_coverage REAL,
    operator_coverage   REAL
);
CREATE TABLE IF NOT EXISTS cache_runs (
    id     INTEGER PRIMARY KEY AUTOINCREMENT,
    run_id INTEGER NOT NULL REFERENCES runs(run_id),
    cache  TEXT NOT NULL,
    hits   INTEGER NOT NULL,
    misses INTEGER NOT NULL
);
CREATE TABLE IF NOT EXISTS fuzz_runs (
    id     INTEGER PRIMARY KEY AUTOINCREMENT,
    run_id INTEGER NOT NULL REFERENCES runs(run_id),
    kind   TEXT NOT NULL,
    count  INTEGER NOT NULL
);
CREATE TABLE IF NOT EXISTS fault_runs (
    id         INTEGER PRIMARY KEY AUTOINCREMENT,
    run_id     INTEGER NOT NULL REFERENCES runs(run_id),
    fault_id   TEXT NOT NULL,
    kind       TEXT NOT NULL,
    target     TEXT NOT NULL,
    verdict    TEXT NOT NULL,
    mechanism  TEXT,
    cycles     INTEGER,
    seconds    REAL,
    note       TEXT,
    descriptor TEXT
);
CREATE INDEX IF NOT EXISTS idx_case_runs_key
    ON case_runs (app, backend, size, run_id);
CREATE INDEX IF NOT EXISTS idx_runs_kind ON runs (kind, run_id);
CREATE INDEX IF NOT EXISTS idx_fault_runs_run
    ON fault_runs (run_id, verdict);
"""


def _execute_script(conn: sqlite3.Connection, script: str) -> None:
    """Run a multi-statement DDL script inside the caller's transaction.

    ``Connection.executescript`` force-commits any open transaction
    before it runs, which would tear holes in the ``BEGIN IMMEDIATE``
    bootstrap/migration lock; our scripts are plain ``;``-separated
    statements with no string literals, so a split is exact."""
    for statement in script.split(";"):
        if statement.strip():
            conn.execute(statement)


def _migrate_1_to_2(conn: sqlite3.Connection) -> None:
    """v1 ledgers predate provenance argv and the cache/fuzz tables."""
    columns = {row[1] for row in conn.execute("PRAGMA table_info(runs)")}
    if "argv" not in columns:
        conn.execute("ALTER TABLE runs ADD COLUMN argv TEXT")
    _execute_script(conn, """
        CREATE TABLE IF NOT EXISTS cache_runs (
            id     INTEGER PRIMARY KEY AUTOINCREMENT,
            run_id INTEGER NOT NULL REFERENCES runs(run_id),
            cache  TEXT NOT NULL,
            hits   INTEGER NOT NULL,
            misses INTEGER NOT NULL
        );
        CREATE TABLE IF NOT EXISTS fuzz_runs (
            id     INTEGER PRIMARY KEY AUTOINCREMENT,
            run_id INTEGER NOT NULL REFERENCES runs(run_id),
            kind   TEXT NOT NULL,
            count  INTEGER NOT NULL
        );
        CREATE INDEX IF NOT EXISTS idx_case_runs_key
            ON case_runs (app, backend, size, run_id);
        CREATE INDEX IF NOT EXISTS idx_runs_kind ON runs (kind, run_id);
    """)


def _migrate_2_to_3(conn: sqlite3.Connection) -> None:
    """v2 ledgers predate batched execution's per-case batch columns."""
    columns = {row[1]
               for row in conn.execute("PRAGMA table_info(case_runs)")}
    if "batch_size" not in columns:
        conn.execute("ALTER TABLE case_runs ADD COLUMN batch_size INTEGER")
    if "lane_seconds" not in columns:
        conn.execute("ALTER TABLE case_runs ADD COLUMN lane_seconds REAL")


def _migrate_3_to_4(conn: sqlite3.Connection) -> None:
    """v3 ledgers predate fault-injection campaigns (fault_runs)."""
    _execute_script(conn, """
        CREATE TABLE IF NOT EXISTS fault_runs (
            id         INTEGER PRIMARY KEY AUTOINCREMENT,
            run_id     INTEGER NOT NULL REFERENCES runs(run_id),
            fault_id   TEXT NOT NULL,
            kind       TEXT NOT NULL,
            target     TEXT NOT NULL,
            verdict    TEXT NOT NULL,
            mechanism  TEXT,
            cycles     INTEGER,
            seconds    REAL,
            note       TEXT,
            descriptor TEXT
        );
        CREATE INDEX IF NOT EXISTS idx_fault_runs_run
            ON fault_runs (run_id, verdict);
    """)


#: migration hooks: ``_MIGRATIONS[v]`` upgrades a ledger from schema v
#: to v+1; applied in sequence until :data:`SCHEMA_VERSION` is reached
_MIGRATIONS = {
    1: _migrate_1_to_2,
    2: _migrate_2_to_3,
    3: _migrate_3_to_4,
}


# ----------------------------------------------------------------------
# Provenance
# ----------------------------------------------------------------------
_GIT_REV: Optional[str] = None


def _git_revision() -> Optional[str]:
    """Short git revision of the working tree, cached per process."""
    global _GIT_REV
    if _GIT_REV is None:
        try:
            _GIT_REV = subprocess.run(
                ["git", "rev-parse", "--short", "HEAD"],
                capture_output=True, text=True, timeout=5,
            ).stdout.strip() or "unknown"
        except (OSError, subprocess.SubprocessError):
            _GIT_REV = "unknown"
    return None if _GIT_REV == "unknown" else _GIT_REV


def _provenance() -> Dict[str, Optional[str]]:
    try:
        hostname = socket.gethostname()
    except OSError:
        hostname = None
    return {
        "git_rev": _git_revision(),
        "python": "%d.%d.%d" % sys.version_info[:3],
        "hostname": hostname,
    }


def _retry_once(method):
    """Retry a recorder exactly once when SQLite reports SQLITE_BUSY.

    The ``busy_timeout`` pragma already makes SQLite wait for a lock,
    but it gives up (a) when the holder's transaction outlives the
    timeout or (b) on the unwaitable ``database is locked`` raised
    mid-upgrade from a read to a write lock under contention.  Both are
    transient for our append-only recorders — a second attempt starts a
    fresh transaction with a fresh wait budget — so one retry converts
    the practical concurrent-writer failure mode (two CI jobs, or a
    serve daemon and a suite run, harvesting into one ledger) into a
    short delay.  Anything still failing after the retry propagates.
    """
    @functools.wraps(method)
    def wrapper(self, *args, **kwargs):
        try:
            return method(self, *args, **kwargs)
        except sqlite3.OperationalError as exc:
            message = str(exc).lower()
            if "locked" not in message and "busy" not in message:
                raise
            time.sleep(0.05)
            return method(self, *args, **kwargs)
    return wrapper


def _size_key(size: Optional[Mapping[str, Any]]) -> str:
    """Canonical text key for a sizing mapping (order-independent)."""
    if not size:
        return ""
    return json.dumps({str(k): v for k, v in size.items()}, sort_keys=True)


# ----------------------------------------------------------------------
# The ledger
# ----------------------------------------------------------------------
class Ledger:
    """An SQLite-backed, append-mostly record of every run.

    Opening a ledger creates or migrates the schema.  All ``record_*``
    methods are single transactions, safe against concurrent recorders
    (WAL mode + busy timeout).  Query methods return plain row
    dataclasses, never live cursors.
    """

    def __init__(self, path: Union[str, Path], *,
                 timeout: float = 30.0) -> None:
        self.path = Path(path)
        if self.path.parent and not self.path.parent.exists():
            self.path.parent.mkdir(parents=True, exist_ok=True)
        self._conn = sqlite3.connect(str(self.path), timeout=timeout,
                                     check_same_thread=False)
        self._conn.row_factory = sqlite3.Row
        try:
            self._conn.execute("PRAGMA journal_mode=WAL")
        except sqlite3.DatabaseError:
            pass  # WAL unsupported on this filesystem: rollback journal
        self._conn.execute("PRAGMA busy_timeout=%d" % int(timeout * 1000))
        self._ensure_schema()

    # -- lifecycle ------------------------------------------------------
    def close(self) -> None:
        if self._conn is not None:
            self._conn.close()
            self._conn = None

    def __enter__(self) -> "Ledger":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    def __repr__(self) -> str:
        return f"Ledger({str(self.path)!r})"

    # -- schema ---------------------------------------------------------
    def _ensure_schema(self) -> None:
        conn = self._conn
        # BEGIN IMMEDIATE serialises bootstrap across processes: the
        # exists-check, the table creation and the version-row insert
        # happen under one write lock, so a second opener either waits
        # (busy_timeout) or sees the schema complete — never the
        # half-created window between them.  executescript cannot be
        # used here: it force-commits first, reopening that window.
        conn.execute("BEGIN IMMEDIATE")
        try:
            tables = {row[0] for row in conn.execute(
                "SELECT name FROM sqlite_master WHERE type='table'")}
            if "meta" not in tables:
                _execute_script(conn, _SCHEMA_V4)
                conn.execute(
                    "INSERT OR REPLACE INTO meta (key, value) "
                    "VALUES ('schema_version', ?)",
                    (str(SCHEMA_VERSION),))
            else:
                version = self.schema_version()
                if version > SCHEMA_VERSION:
                    raise LedgerError(
                        f"{self.path}: ledger schema v{version} is newer "
                        f"than this code (v{SCHEMA_VERSION}); upgrade "
                        f"repro")
                while version < SCHEMA_VERSION:
                    migrate = _MIGRATIONS.get(version)
                    if migrate is None:
                        raise LedgerError(
                            f"{self.path}: no migration from schema "
                            f"v{version}")
                    migrate(conn)
                    version += 1
                    conn.execute(
                        "INSERT OR REPLACE INTO meta (key, value) "
                        "VALUES ('schema_version', ?)", (str(version),))
        except BaseException:
            if conn.in_transaction:
                conn.execute("ROLLBACK")
            raise
        conn.execute("COMMIT")

    def schema_version(self) -> int:
        row = self._conn.execute(
            "SELECT value FROM meta WHERE key='schema_version'").fetchone()
        if row is None:
            raise LedgerError(f"{self.path}: meta table has no "
                              f"schema_version")
        try:
            return int(row[0])
        except ValueError as exc:
            raise LedgerError(
                f"{self.path}: bad schema_version {row[0]!r}") from exc

    # ------------------------------------------------------------------
    # Recorders — duck-typed harvesters, one transaction per run
    # ------------------------------------------------------------------
    def _insert_run(self, conn: sqlite3.Connection, kind: str, *,
                    wall_seconds: Optional[float], passed: bool,
                    backend: Optional[str] = None,
                    jobs: Optional[int] = None,
                    argv: Optional[Sequence[str]] = None,
                    extra: Optional[Mapping[str, Any]] = None) -> int:
        prov = _provenance()
        cursor = conn.execute(
            "INSERT INTO runs (kind, started_at, wall_seconds, passed, "
            "backend, jobs, git_rev, python, hostname, argv, extra) "
            "VALUES (?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?)",
            (kind, time.time(), wall_seconds, int(bool(passed)), backend,
             jobs, prov["git_rev"], prov["python"], prov["hostname"],
             " ".join(argv) if argv else None,
             json.dumps(dict(extra), default=str) if extra else None))
        return int(cursor.lastrowid)

    def _insert_case(self, conn: sqlite3.Connection, run_id: int,
                     app: str, backend: str, size: str, *,
                     sim_seconds: Optional[float] = None,
                     compile_seconds: Optional[float] = None,
                     cycles: Optional[int] = None,
                     evaluations: Optional[int] = None,
                     passed: bool = True, cached: bool = False,
                     batch_size: Optional[int] = None,
                     lane_seconds: Optional[float] = None) -> None:
        conn.execute(
            "INSERT INTO case_runs (run_id, app, backend, size, "
            "sim_seconds, compile_seconds, cycles, evaluations, passed, "
            "cached, batch_size, lane_seconds) "
            "VALUES (?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?)",
            (run_id, app, backend, size, sim_seconds, compile_seconds,
             cycles, evaluations, int(bool(passed)), int(bool(cached)),
             batch_size, lane_seconds))

    def _insert_coverage(self, conn: sqlite3.Connection, run_id: int,
                         scope: str, coverage) -> None:
        """*coverage* is any object with the three ``*_coverage`` props."""
        conn.execute(
            "INSERT INTO coverage_runs (run_id, scope, state_coverage, "
            "transition_coverage, operator_coverage) VALUES (?, ?, ?, ?, ?)",
            (run_id, scope,
             float(coverage.state_coverage),
             float(coverage.transition_coverage),
             float(coverage.operator_coverage)))

    def _insert_cache(self, conn: sqlite3.Connection, run_id: int,
                      cache: str, hits: int, misses: int) -> None:
        if hits or misses:
            conn.execute(
                "INSERT INTO cache_runs (run_id, cache, hits, misses) "
                "VALUES (?, ?, ?, ?)", (run_id, cache, hits, misses))

    def _kernel_cache_stats(self) -> Optional[Tuple[int, int]]:
        """(hits, misses) of the process-wide kernel cache, if any."""
        try:
            from ..core.kernelcache import default_cache

            info = default_cache().summary()
        except Exception:  # noqa: BLE001 - provenance, never fatal
            return None
        hits = int(info.get("memory_hits", 0)) + int(info.get("disk_hits", 0))
        return hits, int(info.get("misses", 0))

    # ------------------------------------------------------------------
    @_retry_once
    def record_suite(self, report, *, suite: str = "suite",
                     sizes: Optional[Mapping[str, Mapping[str, Any]]] = None,
                     cache=None,
                     argv: Optional[Sequence[str]] = None) -> int:
        """Record one :class:`repro.core.SuiteReport`; returns run id.

        *sizes* maps app name to its sizing parameters (the suite knows
        them as ``SuiteCase.params``); *cache* is the
        :class:`~repro.core.cache.ArtifactCache` used, if any.
        """
        sizes = sizes or {}
        with self._conn as conn:
            run_id = self._insert_run(
                conn, "suite", wall_seconds=report.wall_seconds,
                passed=report.passed, backend=report.backend,
                jobs=report.jobs, argv=argv,
                extra={"suite": suite, "cases": len(report.results),
                       "failures": len(report.failures)})
            for result in report.results:
                verification = result.verification
                # batched suite cases carry a BatchVerificationResult,
                # which quacks like VerificationResult plus batch stats
                batch_size = getattr(verification, "batch_size", None)
                self._insert_case(
                    conn, run_id, result.case, report.backend,
                    _size_key(sizes.get(result.case)),
                    sim_seconds=(verification.simulation_seconds
                                 if verification is not None else None),
                    compile_seconds=result.compile_seconds,
                    cycles=(verification.cycles
                            if verification is not None else None),
                    evaluations=(verification.evaluations
                                 if verification is not None else None),
                    passed=result.passed, cached=result.cached,
                    batch_size=batch_size,
                    lane_seconds=(verification.lane_seconds
                                  if batch_size else None))
                if verification is not None \
                        and verification.coverage is not None:
                    self._insert_coverage(conn, run_id, result.case,
                                          verification.coverage)
            if report.coverage is not None:
                self._insert_coverage(conn, run_id, "aggregate",
                                      report.coverage)
            if cache is not None:
                self._insert_cache(conn, run_id, "artifact",
                                   cache.hits, cache.misses)
            elif report.cache_hits or report.cache_misses:
                self._insert_cache(conn, run_id, "artifact",
                                   report.cache_hits, report.cache_misses)
            kernel = self._kernel_cache_stats()
            if kernel is not None:
                self._insert_cache(conn, run_id, "kernel", *kernel)
            return run_id

    @_retry_once
    def record_verification(self, result, *, app: Optional[str] = None,
                            size: Optional[Mapping[str, Any]] = None,
                            compile_seconds: Optional[float] = None,
                            argv: Optional[Sequence[str]] = None) -> int:
        """Record one standalone :class:`VerificationResult`."""
        app = app or result.design
        with self._conn as conn:
            run_id = self._insert_run(
                conn, "verify",
                wall_seconds=result.golden_seconds
                + result.simulation_seconds,
                passed=result.passed, backend=result.backend, argv=argv,
                extra={"design": result.design,
                       "reconfigurations": result.reconfigurations})
            self._insert_case(
                conn, run_id, app, result.backend, _size_key(size),
                sim_seconds=result.simulation_seconds,
                compile_seconds=compile_seconds, cycles=result.cycles,
                evaluations=result.evaluations, passed=result.passed)
            if result.coverage is not None:
                self._insert_coverage(conn, run_id, app, result.coverage)
            return run_id

    @_retry_once
    def record_batch_verification(self, result, *,
                                  app: Optional[str] = None,
                                  size: Optional[Mapping[str, Any]] = None,
                                  compile_seconds: Optional[float] = None,
                                  argv: Optional[Sequence[str]] = None
                                  ) -> int:
        """Record one :class:`BatchVerificationResult` as a single case
        row carrying the batch columns (total seconds in
        ``sim_seconds``, amortized per-lane seconds in
        ``lane_seconds``)."""
        app = app or result.design
        with self._conn as conn:
            run_id = self._insert_run(
                conn, "verify",
                wall_seconds=result.golden_seconds
                + result.simulation_seconds,
                passed=result.passed, backend=result.backend, argv=argv,
                extra={"design": result.design,
                       "batch_size": result.batch_size,
                       "elaborations": result.elaborations})
            self._insert_case(
                conn, run_id, app, result.backend, _size_key(size),
                sim_seconds=result.simulation_seconds,
                compile_seconds=compile_seconds,
                cycles=sum(lane.cycles for lane in result.lanes),
                evaluations=sum(lane.evaluations for lane in result.lanes),
                passed=result.passed,
                batch_size=result.batch_size,
                lane_seconds=result.lane_seconds)
            return run_id

    @_retry_once
    def record_flow(self, report, *, app: str, backend: str = "event",
                    size: Optional[Mapping[str, Any]] = None,
                    argv: Optional[Sequence[str]] = None) -> int:
        """Record one :class:`repro.core.FlowReport` (Figure 1 flow)."""
        stage_seconds = {stage.name: stage.seconds
                         for stage in report.stages}
        rtg = report.context.get("rtg_run")
        passed = bool(report.context.get("passed"))
        with self._conn as conn:
            run_id = self._insert_run(
                conn, "flow", wall_seconds=report.total_seconds,
                passed=passed, backend=backend, argv=argv,
                extra={"stage_seconds": {name: round(seconds, 6)
                                         for name, seconds
                                         in stage_seconds.items()}})
            self._insert_case(
                conn, run_id, app, backend, _size_key(size),
                sim_seconds=stage_seconds.get("simulate"),
                compile_seconds=stage_seconds.get("compile"),
                cycles=rtg.total_cycles if rtg is not None else None,
                evaluations=(rtg.total_evaluations
                             if rtg is not None else None),
                passed=passed)
            coverage = report.context.get("coverage")
            if coverage is not None:
                self._insert_coverage(conn, run_id, app, coverage)
            return run_id

    @_retry_once
    def record_fuzz(self, report,
                    argv: Optional[Sequence[str]] = None) -> int:
        """Record one :class:`repro.fuzz.CampaignReport`."""
        extra: Dict[str, Any] = {"seed": report.seed}
        items = getattr(report, "coverage_items", None)
        if items:
            extra["coverage_items"] = len(items)
            extra["new_coverage_seeds"] = \
                len(getattr(report, "new_coverage_seeds", ()))
        with self._conn as conn:
            run_id = self._insert_run(
                conn, "fuzz", wall_seconds=report.wall_seconds,
                passed=report.passed, jobs=report.jobs, argv=argv,
                extra=extra)
            conn.execute(
                "INSERT INTO fuzz_runs (run_id, kind, count) "
                "VALUES (?, 'iterations', ?)", (run_id, report.iterations))
            for kind in sorted(report.counts):
                conn.execute(
                    "INSERT INTO fuzz_runs (run_id, kind, count) "
                    "VALUES (?, ?, ?)", (run_id, kind, report.counts[kind]))
            return run_id

    @_retry_once
    def record_bench(self, data: Mapping[str, Any],
                     argv: Optional[Sequence[str]] = None) -> int:
        """Record one ``BENCH_suite.json`` payload (see the E4 bench).

        Each app lands as one case row per measured backend, keyed by
        the bench sizing, so bench runs build the same rolling history
        the sentinel reads.
        """
        sizes = data.get("sizes", {})
        suite = data.get("suite", {})
        with self._conn as conn:
            run_id = self._insert_run(
                conn, "bench",
                wall_seconds=suite.get("event_serial_wall_seconds"),
                passed=True, argv=argv,
                extra={"quick": bool(data.get("quick")), "suite": suite})
            for app, case in data.get("cases", {}).items():
                size = _size_key(sizes.get(app))
                for backend in ("event", "compiled", "traced", "batched"):
                    seconds = case.get(f"{backend}_sim_seconds")
                    if seconds is None:
                        continue
                    if backend == "batched":
                        # bench batched seconds are already amortized
                        # per stimulus set
                        self._insert_case(
                            conn, run_id, app, backend, size,
                            sim_seconds=float(seconds),
                            batch_size=case.get("batch_size"),
                            lane_seconds=float(seconds))
                    else:
                        self._insert_case(conn, run_id, app, backend, size,
                                          sim_seconds=float(seconds))
            return run_id

    @_retry_once
    def record_injection_campaign(self, report, *,
                                  size: Optional[Mapping[str, Any]] = None,
                                  argv: Optional[Sequence[str]] = None
                                  ) -> int:
        """Record one :class:`repro.inject.CampaignReport` (duck-typed).

        One ``inject`` run row carries the verdict tallies; every
        classified injection (plus the fault-free baseline) lands as a
        ``fault_runs`` row with its full replayable descriptor.  The
        baseline timing is also written as a case row so the campaign
        appears in per-app views — the regression sentinel excludes
        ``inject``-kind rows from its perf baselines.
        """
        tally = report.tally()
        baseline = report.baseline
        extra: Dict[str, Any] = {
            "app": report.app, "seed": report.seed,
            "cycle_budget": report.cycle_budget,
            "faults": len(report.results), "verdicts": tally,
        }
        if baseline is not None:
            extra["baseline_cycles"] = baseline.cycles
        with self._conn as conn:
            run_id = self._insert_run(
                conn, "inject", wall_seconds=report.wall_seconds,
                passed=True, backend=report.backend, jobs=report.jobs,
                argv=argv, extra=extra)
            if baseline is not None:
                self._insert_case(
                    conn, run_id, report.app, report.backend,
                    _size_key(size), sim_seconds=baseline.seconds,
                    cycles=baseline.cycles, passed=True)
                self._insert_fault(conn, run_id, baseline)
            for result in report.results:
                self._insert_fault(conn, run_id, result)
            return run_id

    @_retry_once
    def record_triage(self, record: Mapping[str, Any], *,
                      wall_seconds: float = 0.0,
                      argv: Optional[Sequence[str]] = None) -> int:
        """Record one divergence-triage verdict (duck-typed dict).

        *record* is a :class:`repro.obs.triage.TriageRecord` dict — the
        whole machine-readable triage record rides in the run row's
        ``extra`` column (no schema bump needed), so dashboards and
        ``repro obs report`` can surface first-divergent cycles and
        suspect nets alongside the runs that produced them.
        """
        record = dict(record)
        with self._conn as conn:
            return self._insert_run(
                conn, "triage", wall_seconds=wall_seconds,
                passed=record.get("mode") != "none",
                backend=record.get("backend_sub"), jobs=1,
                argv=argv, extra=record)

    @_retry_once
    def record_serve(self, stats: Mapping[str, Any],
                     rows: Sequence[Mapping[str, Any]], *,
                     argv: Optional[Sequence[str]] = None) -> int:
        """Record one ``repro serve`` session: a ``serve`` run row plus
        one case row per answered job.

        *stats* is the scheduler's final counters dict (rides whole in
        the run's ``extra`` column); *rows* are the scheduler's
        accumulated per-job ledger rows.  Jobs answered without
        execution (memo/artifact/coalesced) land with ``cached=1``, the
        dedup tallies land as a ``serve`` cache row, and the run kind
        keeps serve timings out of the regression sentinel's perf
        baselines (service rows mix batch-amortized and cache-served
        timings, which are not comparable to a suite run's).
        """
        rows = list(rows)
        with self._conn as conn:
            run_id = self._insert_run(
                conn, "serve",
                wall_seconds=stats.get("wall_seconds"),
                passed=all(row.get("passed", False) for row in rows),
                jobs=stats.get("workers"), argv=argv,
                extra=dict(stats))
            for row in rows:
                batch = row.get("batch_size") or 0
                self._insert_case(
                    conn, run_id, str(row.get("case", "?")),
                    row.get("backend") or "serve", "",
                    sim_seconds=row.get("simulation_seconds"),
                    compile_seconds=row.get("compile_seconds"),
                    cycles=row.get("cycles"),
                    evaluations=row.get("evaluations"),
                    passed=row.get("passed", False),
                    cached=row.get("cached", False),
                    batch_size=batch if batch > 1 else None,
                    lane_seconds=(row.get("simulation_seconds")
                                  if batch > 1 else None))
            served = (int(stats.get("memo_hits", 0))
                      + int(stats.get("artifact_hits", 0))
                      + int(stats.get("coalesced", 0)))
            self._insert_cache(conn, run_id, "serve", served,
                               int(stats.get("executed", 0)))
            return run_id

    @staticmethod
    def _insert_fault(conn: sqlite3.Connection, run_id: int,
                      result) -> None:
        """*result* quacks like :class:`repro.inject.InjectionResult`."""
        fault = result.fault
        conn.execute(
            "INSERT INTO fault_runs (run_id, fault_id, kind, target, "
            "verdict, mechanism, cycles, seconds, note, descriptor) "
            "VALUES (?, ?, ?, ?, ?, ?, ?, ?, ?, ?)",
            (run_id,
             fault.fault_id if fault is not None else "baseline",
             fault.kind if fault is not None else "none",
             fault.target if fault is not None else "",
             result.verdict, result.mechanism, result.cycles,
             result.seconds, result.note or None,
             json.dumps(fault.to_dict()) if fault is not None else None))

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def runs(self, kind: Optional[str] = None,
             limit: Optional[int] = None) -> List[RunRow]:
        """Most recent first; *kind* filters, *limit* truncates."""
        sql = "SELECT * FROM runs"
        params: List[Any] = []
        if kind is not None:
            sql += " WHERE kind = ?"
            params.append(kind)
        sql += " ORDER BY run_id DESC"
        if limit is not None:
            sql += " LIMIT ?"
            params.append(int(limit))
        return [self._run_row(row)
                for row in self._conn.execute(sql, params)]

    def latest_run(self, kind: Optional[str] = None) -> Optional[RunRow]:
        rows = self.runs(kind=kind, limit=1)
        return rows[0] if rows else None

    def run(self, run_id: int) -> Optional[RunRow]:
        row = self._conn.execute("SELECT * FROM runs WHERE run_id = ?",
                                 (run_id,)).fetchone()
        return self._run_row(row) if row is not None else None

    @staticmethod
    def _run_row(row: sqlite3.Row) -> RunRow:
        extra = row["extra"]
        try:
            extra = json.loads(extra) if extra else {}
        except ValueError:
            extra = {}
        if not isinstance(extra, dict):
            # a hand-written or corrupted row can hold any JSON value;
            # every consumer expects a mapping (dashboard sections call
            # .get on it), so coerce rather than crash them
            extra = {"value": extra}
        return RunRow(run_id=row["run_id"], kind=row["kind"],
                      started_at=row["started_at"],
                      wall_seconds=row["wall_seconds"] or 0.0,
                      passed=bool(row["passed"]), backend=row["backend"],
                      jobs=row["jobs"], git_rev=row["git_rev"],
                      python=row["python"], hostname=row["hostname"],
                      argv=row["argv"], extra=extra)

    def case_rows(self, run_id: int) -> List[CaseRow]:
        return [self._case_row(row) for row in self._conn.execute(
            "SELECT * FROM case_runs WHERE run_id = ? ORDER BY id",
            (run_id,))]

    def batch_rows(self) -> List[CaseRow]:
        """Every case row that times a batch of more than one stimulus
        set, whatever its backend, oldest first."""
        return [self._case_row(row) for row in self._conn.execute(
            "SELECT * FROM case_runs WHERE batch_size > 1 "
            "ORDER BY run_id, id")]

    def case_history(self, app: str, backend: str, size: str = "", *,
                     exclude_run: Optional[int] = None,
                     exclude_kinds: Sequence[str] = (),
                     limit: Optional[int] = None) -> List[CaseRow]:
        """Rows for one (app, backend, size) key, oldest first.

        *exclude_kinds* drops rows belonging to runs of those kinds —
        the sentinel uses it to keep fault-campaign baselines out of
        its perf history.
        """
        sql = ("SELECT * FROM case_runs WHERE app = ? AND backend = ? "
               "AND size = ?")
        params: List[Any] = [app, backend, size]
        if exclude_run is not None:
            sql += " AND run_id != ?"
            params.append(exclude_run)
        if exclude_kinds:
            marks = ", ".join("?" for _ in exclude_kinds)
            sql += (f" AND run_id NOT IN (SELECT run_id FROM runs "
                    f"WHERE kind IN ({marks}))")
            params.extend(exclude_kinds)
        sql += " ORDER BY run_id DESC"
        if limit is not None:
            sql += " LIMIT ?"
            params.append(int(limit))
        rows = [self._case_row(row)
                for row in self._conn.execute(sql, params)]
        rows.reverse()
        return rows

    @staticmethod
    def _case_row(row: sqlite3.Row) -> CaseRow:
        return CaseRow(run_id=row["run_id"], app=row["app"],
                       backend=row["backend"], size=row["size"],
                       sim_seconds=row["sim_seconds"],
                       compile_seconds=row["compile_seconds"],
                       cycles=row["cycles"], evaluations=row["evaluations"],
                       passed=bool(row["passed"]),
                       cached=bool(row["cached"]),
                       batch_size=row["batch_size"],
                       lane_seconds=row["lane_seconds"])

    def coverage_rows(self, run_id: int) -> List[CoverageRow]:
        return [CoverageRow(run_id=row["run_id"], scope=row["scope"],
                            state_coverage=row["state_coverage"],
                            transition_coverage=row["transition_coverage"],
                            operator_coverage=row["operator_coverage"])
                for row in self._conn.execute(
                    "SELECT * FROM coverage_runs WHERE run_id = ? "
                    "ORDER BY id", (run_id,))]

    def coverage_history(self, scope: str, *,
                         exclude_run: Optional[int] = None,
                         limit: Optional[int] = None) -> List[CoverageRow]:
        sql = "SELECT * FROM coverage_runs WHERE scope = ?"
        params: List[Any] = [scope]
        if exclude_run is not None:
            sql += " AND run_id != ?"
            params.append(exclude_run)
        sql += " ORDER BY run_id DESC"
        if limit is not None:
            sql += " LIMIT ?"
            params.append(int(limit))
        rows = [CoverageRow(run_id=row["run_id"], scope=row["scope"],
                            state_coverage=row["state_coverage"],
                            transition_coverage=row["transition_coverage"],
                            operator_coverage=row["operator_coverage"])
                for row in self._conn.execute(sql, params)]
        rows.reverse()
        return rows

    def cache_rows(self, run_id: int) -> List[CacheRow]:
        return [CacheRow(run_id=row["run_id"], cache=row["cache"],
                         hits=row["hits"], misses=row["misses"])
                for row in self._conn.execute(
                    "SELECT * FROM cache_runs WHERE run_id = ? ORDER BY id",
                    (run_id,))]

    def cache_history(self, cache: str, *,
                      exclude_run: Optional[int] = None,
                      limit: Optional[int] = None) -> List[CacheRow]:
        sql = "SELECT * FROM cache_runs WHERE cache = ?"
        params: List[Any] = [cache]
        if exclude_run is not None:
            sql += " AND run_id != ?"
            params.append(exclude_run)
        sql += " ORDER BY run_id DESC"
        if limit is not None:
            sql += " LIMIT ?"
            params.append(int(limit))
        rows = [CacheRow(run_id=row["run_id"], cache=row["cache"],
                         hits=row["hits"], misses=row["misses"])
                for row in self._conn.execute(sql, params)]
        rows.reverse()
        return rows

    def fuzz_rows(self, run_id: int) -> List[FuzzRow]:
        return [FuzzRow(run_id=row["run_id"], kind=row["kind"],
                        count=row["count"])
                for row in self._conn.execute(
                    "SELECT * FROM fuzz_runs WHERE run_id = ? ORDER BY id",
                    (run_id,))]

    def fault_rows(self, run_id: int) -> List[FaultRow]:
        rows = []
        for row in self._conn.execute(
                "SELECT * FROM fault_runs WHERE run_id = ? ORDER BY id",
                (run_id,)):
            descriptor = row["descriptor"]
            try:
                descriptor = json.loads(descriptor) if descriptor else None
            except ValueError:
                descriptor = None
            rows.append(FaultRow(
                run_id=row["run_id"], fault_id=row["fault_id"],
                kind=row["kind"], target=row["target"],
                verdict=row["verdict"], mechanism=row["mechanism"],
                cycles=row["cycles"], seconds=row["seconds"],
                note=row["note"], descriptor=descriptor))
        return rows

    def apps(self) -> List[str]:
        return [row[0] for row in self._conn.execute(
            "SELECT DISTINCT app FROM case_runs ORDER BY app")]

    def latest_size(self, app: str, backend: str) -> Optional[str]:
        """The size key this (app, backend) pair was most recently run
        at — trend charts must not mix sizes on one axis."""
        row = self._conn.execute(
            "SELECT size FROM case_runs WHERE app = ? AND backend = ? "
            "ORDER BY run_id DESC LIMIT 1", (app, backend)).fetchone()
        return row[0] if row is not None else None

    def coverage_scopes(self) -> List[str]:
        return [row[0] for row in self._conn.execute(
            "SELECT DISTINCT scope FROM coverage_runs ORDER BY scope")]

    def backends(self) -> List[str]:
        return [row[0] for row in self._conn.execute(
            "SELECT DISTINCT backend FROM case_runs ORDER BY backend")]

    def counts(self) -> Dict[str, int]:
        """Run tallies per kind (for ``repro obs report``)."""
        return {row[0]: row[1] for row in self._conn.execute(
            "SELECT kind, COUNT(*) FROM runs GROUP BY kind ORDER BY kind")}

    # ------------------------------------------------------------------
    # Retention
    # ------------------------------------------------------------------
    def gc(self, keep: int = 100) -> int:
        """Drop all but the newest *keep* runs (children cascade by hand
        — the schema predates ``ON DELETE CASCADE`` and must keep
        working on v1 files).  Returns the number of runs removed."""
        if keep < 0:
            raise ValueError(f"keep must be >= 0, got {keep}")
        with self._conn as conn:
            stale = [row[0] for row in conn.execute(
                "SELECT run_id FROM runs ORDER BY run_id DESC "
                "LIMIT -1 OFFSET ?", (keep,))]
            for run_id in stale:
                for table in ("case_runs", "coverage_runs", "cache_runs",
                              "fuzz_runs", "fault_runs"):
                    conn.execute(
                        f"DELETE FROM {table} WHERE run_id = ?",  # noqa: S608
                        (run_id,))
                conn.execute("DELETE FROM runs WHERE run_id = ?", (run_id,))
        if stale:
            try:
                self._conn.execute("VACUUM")
            except sqlite3.DatabaseError:
                pass
        return len(stale)


@contextlib.contextmanager
def ledger_sink(ledger: Union[Ledger, str, Path]) -> Iterator[Ledger]:
    """*ledger* itself when it is a :class:`Ledger`; otherwise a ledger
    opened on that path for the ``with`` block and closed after it."""
    if isinstance(ledger, Ledger):
        yield ledger
    else:
        with Ledger(ledger) as sink:
            yield sink


def ledger_from_env(explicit: Optional[Union[str, Path]] = None,
                    env: Mapping[str, str] = os.environ
                    ) -> Optional[Ledger]:
    """Open the ledger named by *explicit* or ``$REPRO_LEDGER``, if any."""
    path = explicit or env.get(LEDGER_ENV)
    return Ledger(path) if path else None
