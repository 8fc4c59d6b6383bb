"""Verification as a service: the ``repro serve`` daemon.

Long-lived asyncio parent + forked worker pool (the one
:class:`~repro.util.pool.ForkPool` the batch runners use) answering
compile+simulate+verify jobs over an NDJSON Unix socket (plus an
optional HTTP shim), with request dedup/coalescing keyed by the
artifact-cache content hash, one run queue whose oldest job goes to the
next idle worker, and batched dispatches of same-structure jobs on one
elaboration.  See :doc:`docs/serving.md` for the protocol and
policies.
"""

from .client import ServeClient, wait_for_socket
from .jobs import JobError, JobSpec, ResolvedJob, resolve_job
from .scheduler import ServeScheduler, Submission
from .server import ServeDaemon
from .workers import execute_jobs, run_job

__all__ = [
    "JobError", "JobSpec", "ResolvedJob", "resolve_job",
    "ServeScheduler", "Submission",
    "ServeDaemon",
    "ServeClient", "wait_for_socket",
    "run_job", "execute_jobs",
]
