"""The one fork pool the batch runners share.

The test suite, fault campaigns and fuzz campaigns all fan independent
tasks out the same way::

    with ForkPool(jobs, state) as pool:
        for result in pool.map(run_one, tasks):
            ...

``map`` calls ``run_one(state, task)`` for every task and yields the
results in task order.  The state is whatever a task needs besides its
own small payload: suite cases with their stimulus closures, a
campaign's live elaboration, a generator configuration.  Forked workers
inherit it, so it is never pickled; a task and its result are.

A pool runs inline — in the calling process, one task at a time, as
the caller pulls results — when ``jobs == 1``, when a call has fewer
than two tasks, or when the platform has no ``fork``.  Otherwise it
forks ``min(jobs, len(tasks))`` workers on its first parallel call and
keeps them until it closes; every task of a call is submitted up front.

A task function should turn its own errors into results, so that one
bad task cannot stop the others.  A worker that dies outright (a hard
crash, ``os._exit``, the OOM killer) raises one :class:`RuntimeError`
naming the tasks left unfinished.  Tasks still pending when the pool
closes early — the caller stopped pulling results — are cancelled.
"""

from __future__ import annotations

import multiprocessing
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from typing import Any, Callable, Iterable, Iterator, Optional

__all__ = ["ForkPool"]

#: the state of the pool this process works for; set once, by the
#: initializer of each worker process, and never in the parent
_state: Any = None


def _inherit(state: Any) -> None:
    global _state
    _state = state


def _call(fn: Callable, task: Any) -> Any:
    return fn(_state, task)


class ForkPool:
    """Run ``fn(state, task)`` per task, inline or on forked workers."""

    def __init__(self, jobs: int, state: Any) -> None:
        self.jobs = jobs
        self.state = state
        self._executor: Optional[ProcessPoolExecutor] = None

    def __enter__(self) -> "ForkPool":
        return self

    def __exit__(self, *exc_info) -> None:
        if self._executor is not None:
            self._executor.shutdown(cancel_futures=True)
            self._executor = None

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
        if self._executor is None:
            self._executor = ProcessPoolExecutor(
                max_workers=min(self.jobs, len(tasks)),
                mp_context=multiprocessing.get_context("fork"),
                initializer=_inherit, initargs=(self.state,))
        futures = [self._executor.submit(_call, fn, task) for task in tasks]
        for done, future in enumerate(futures):
            try:
                result = future.result()
            except BrokenProcessPool as exc:
                unfinished = [str(name) for task in tasks[done:]
                              for name in label(task)]
                shown = ", ".join(unfinished[:8])
                if len(unfinished) > 8:
                    shown += f" and {len(unfinished) - 8} more"
                raise RuntimeError(
                    f"a worker process died with unfinished work: {shown}; "
                    f"rerun with jobs=1 to reproduce in-process") from exc
            yield result
