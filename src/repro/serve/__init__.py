"""Verification as a service: the ``repro serve`` daemon.

Long-lived asyncio parent + forked worker pool answering
compile+simulate+verify jobs over an NDJSON Unix socket (plus an
optional HTTP shim), with request dedup/coalescing keyed by the
artifact-cache content hash, structure-sharded work stealing, and
batched dispatches of same-structure jobs on one elaboration.  See
:doc:`docs/serving.md` for the protocol and policies.
"""

from .client import ServeClient, wait_for_socket
from .jobs import JobError, JobSpec, ResolvedJob, resolve_job
from .scheduler import ServeScheduler, Submission
from .server import ServeDaemon
from .workers import execute_jobs, worker_main

__all__ = [
    "JobError", "JobSpec", "ResolvedJob", "resolve_job",
    "ServeScheduler", "Submission",
    "ServeDaemon",
    "ServeClient", "wait_for_socket",
    "worker_main", "execute_jobs",
]
