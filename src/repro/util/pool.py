"""The one fork pool: the batch runners' workers and the serve daemon's.

The test suite, fault campaigns and fuzz campaigns all fan independent
tasks out the same way::

    with ForkPool(jobs, state) as pool:
        for result in pool.map(run_one, tasks):
            ...

``map`` calls ``run_one(state, task)`` for every task and yields the
results in task order.  The state is whatever a task needs besides its
own small payload: suite cases with their stimulus closures, a
campaign's live elaboration, a generator configuration.  Forked workers
inherit it, so it is never pickled; the function (by its import path),
a task and its result are.

A pool runs inline — in the calling process, one task at a time, as
the caller pulls results — when ``jobs == 1``, when a call has fewer
than two tasks, or when the platform has no ``fork``.  Otherwise a call
forks the workers it lacks, up to ``min(jobs, len(tasks))``, and the
pool keeps them until it closes.  ``map`` hands a task only to an idle
worker, so nothing is queued ahead of the results the caller pulls.

Each worker is one fork :class:`~multiprocessing.Process` with one
duplex pipe: ``(fn, task)`` goes in, and ``(True, result)`` or
``(False, exception)`` comes back.  The serve scheduler
(:mod:`repro.serve.scheduler`) drives the workers of a
``ForkPool(jobs, None)`` itself: it forks one by index
(:meth:`ForkPool.fork`, again after a death), sends it a dispatch,
reads its ``conn`` from the event loop and closes the pool at shutdown.

A task function should turn its own errors into results, so that one
bad task cannot stop the others; a task that raises anyway raises the
same exception in the caller.  A worker that dies outright (a hard
crash, ``os._exit``, the OOM killer) raises one :class:`RuntimeError`
naming the tasks left unfinished.

No worker outlives its parent.  A worker ignores SIGINT and closes the
pool's end of every pipe it inherited, so once its parent is gone, even
by SIGKILL, its next read of its pipe ends it: at once when idle, after
its current task when busy.  A pool left normally closes its pipes and
lets the workers finish their current task; a pool left by an
exception, a Ctrl-C included, terminates them.
"""

from __future__ import annotations

import multiprocessing
import signal
from multiprocessing.connection import wait
from typing import Any, Callable, Iterable, Iterator, List

__all__ = ["ForkPool"]


def _work(conn, inherited: List, state: Any) -> None:
    """A worker's loop: answer each ``(fn, task)`` until its pipe ends."""
    for end in inherited:
        end.close()
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    while True:
        try:
            fn, task = conn.recv()
        except (EOFError, OSError):  # the pool closed it, or is gone
            return
        try:
            reply = (True, fn(state, task))
        except Exception as exc:  # noqa: BLE001 - raised in the caller
            reply = (False, exc)
        try:
            conn.send(reply)
        except OSError:
            return


class _Worker:
    """One worker process, the pool's end of its pipe, and the task its
    owner last sent it (``None`` while idle)."""

    __slots__ = ("process", "conn", "task")

    def __init__(self, process, conn) -> None:
        self.process = process
        self.conn = conn
        self.task = None


class ForkPool:
    """Run ``fn(state, task)`` per task, inline or on forked workers."""

    def __init__(self, jobs: int, state: Any) -> None:
        self.jobs = jobs
        self.state = state
        self.workers: List[_Worker] = []

    def __enter__(self) -> "ForkPool":
        return self

    def __exit__(self, exc_type, *exc_info) -> None:
        self.close(terminate=exc_type is not None)

    def fork(self, index: int) -> _Worker:
        """Start worker *index*: a new one, or a dead one's successor."""
        context = multiprocessing.get_context("fork")
        conn, child = context.Pipe()
        inherited = [conn] + [worker.conn for worker in self.workers]
        process = context.Process(target=_work, daemon=True,
                                  args=(child, inherited, self.state))
        process.start()
        child.close()
        self.workers[index:index + 1] = [_Worker(process, conn)]
        return self.workers[index]

    def close(self, terminate: bool = False) -> None:
        """Stop every worker: after its current task, or at once."""
        for worker in self.workers:
            worker.conn.close()
            if terminate:
                worker.process.terminate()
        for worker in self.workers:
            worker.process.join()
        self.workers = []

    def map(self, fn: Callable, tasks: Iterable,
            label: Callable = lambda task: [task]) -> Iterator:
        """Yield ``fn(state, task)`` for each task, in task order.

        *label* names the work in a task (default: the task itself) for
        the error a dead worker raises.
        """
        tasks = list(tasks)
        if self.jobs == 1 or len(tasks) < 2 \
                or "fork" not in multiprocessing.get_all_start_methods():
            for task in tasks:
                yield fn(self.state, task)
            return
        while len(self.workers) < min(self.jobs, len(tasks)):
            self.fork(len(self.workers))
        for worker in self.workers:
            if worker.task is not None:
                worker.task = -1  # its reply belongs to an abandoned map
        replies: dict = {}
        sent = 0
        for position in range(len(tasks)):
            try:
                while position not in replies:
                    for worker in self.workers:
                        if worker.task is None and sent < len(tasks):
                            worker.conn.send((fn, tasks[sent]))
                            worker.task, sent = sent, sent + 1
                    ready = wait([worker.conn for worker in self.workers
                                  if worker.task is not None])
                    for worker in self.workers:
                        if worker.conn in ready:
                            replies[worker.task] = worker.conn.recv()
                            worker.task = None
            except (EOFError, OSError) as exc:
                unfinished = [str(name) for task in tasks[position:]
                              for name in label(task)]
                shown = ", ".join(unfinished[:8])
                if len(unfinished) > 8:
                    shown += f" and {len(unfinished) - 8} more"
                raise RuntimeError(
                    f"a worker process died with unfinished work: {shown}; "
                    f"rerun with jobs=1 to reproduce in-process") from exc
            ok, result = replies.pop(position)
            if not ok:
                raise result
            yield result
