"""Scheduler policies: coalescing, dedup, the run queue, batching,
respawn.

The central acceptance property lives here: M identical + K distinct
concurrent jobs produce exactly K executions and M + K correct results,
and a design mutation always changes the dedup key, so stale artifacts
are unreachable by construction.
"""

import asyncio
import json
import os
import signal
import time

import pytest

from repro.apps import suite_case, threshold
from repro.apps.registry import CASE_BUILDERS
from repro.core import (ArtifactCache, TestSuite, kernelcache,
                        payload_passed, testsuite)
from repro.core.kernelcache import KernelCache, set_default_cache
from repro.core.testsuite import SuiteCase
from repro.serve import ServeScheduler
from repro.serve.jobs import JobSpec, resolve_job
from repro.translate import to_python

TINY = {"case": "threshold", "size": {"n_pixels": 32}}


def run(coro):
    return asyncio.run(coro)


async def drain(scheduler, submissions):
    payloads = await asyncio.gather(*(s.future for s in submissions))
    await scheduler.shutdown()
    return payloads


class TestCoalescing:
    def test_m_identical_plus_k_distinct(self):
        """3 identical + 3 distinct concurrent jobs -> exactly 3
        executions, 6 correct results."""
        async def go():
            scheduler = ServeScheduler(jobs=2, batch_max=4)
            await scheduler.start()
            identical = [scheduler.submit(dict(TINY)) for _ in range(3)]
            distinct = [scheduler.submit({**TINY, "seed": s})
                        for s in (0, 1, 2)]
            payloads = await drain(scheduler, identical + distinct)
            return scheduler, identical, distinct, payloads

        scheduler, identical, distinct, payloads = run(go())
        assert all(payload_passed(p) for p in payloads)
        counters = scheduler.stats()
        # seed=0 duplicates the first identical job's key: the three
        # "identical" submissions plus distinct[0] share one execution
        assert counters["executed"] == 3
        assert counters["coalesced"] == 3
        assert counters["submitted"] == 6
        assert identical[0].served == "queued"
        assert {s.served for s in identical[1:]} == {"coalesced"}
        # every waiter of one key got the same payload object
        keyed = {}
        for s, p in zip(identical + distinct, payloads):
            keyed.setdefault(s.key, []).append(p)
        for group in keyed.values():
            assert all(p is group[0] for p in group)

    def test_repeat_after_completion_is_memo_served(self):
        async def go():
            scheduler = ServeScheduler(jobs=1)
            await scheduler.start()
            first = scheduler.submit(dict(TINY))
            await first.future
            again = scheduler.submit(dict(TINY))
            await again.future
            await scheduler.shutdown()
            return scheduler, again

        scheduler, again = run(go())
        assert again.served == "memo"
        assert scheduler.stats()["executed"] == 1

    def test_answers_keep_no_rows_without_a_ledger(self):
        """Only a daemon with a ledger harvests per-job rows, so a
        scheduler without one holds none, however many it answers."""
        async def go():
            scheduler = ServeScheduler(jobs=1)
            await scheduler.start()
            await scheduler.submit(dict(TINY)).future
            for _ in range(50):
                await scheduler.submit(dict(TINY)).future
            await scheduler.shutdown()
            return scheduler

        scheduler = run(go())
        assert scheduler.stats()["memo_hits"] == 50
        assert not scheduler.ledger_rows

    def test_invalid_job_resolves_immediately(self):
        async def go():
            scheduler = ServeScheduler(jobs=1)
            await scheduler.start()
            bad = scheduler.submit({"case": "nonesuch"})
            payload = await bad.future
            await scheduler.shutdown()
            return scheduler, bad, payload

        scheduler, bad, payload = run(go())
        assert bad.served == "invalid"
        assert "unknown case" in payload["error"]
        assert scheduler.stats()["executed"] == 0


class TestArtifactCache:
    def test_disk_hit_after_restart(self, tmp_path):
        cache_dir = str(tmp_path / "cache")

        async def session():
            scheduler = ServeScheduler(jobs=1, cache=cache_dir)
            await scheduler.start()
            sub = scheduler.submit(dict(TINY))
            await sub.future
            await scheduler.shutdown()
            return scheduler, sub

        first_sched, first = run(session())
        assert first.served == "queued"
        second_sched, second = run(session())
        assert second.served == "artifact"
        assert second_sched.stats()["executed"] == 0
        assert second.key == first.key

    def test_edited_compiler_misses_verdicts_but_hits_kernels(
            self, tmp_path, monkeypatch):
        """A daemon restarted on an edited compiler re-executes a job it
        answered before, while its workers still hit every kernel: the
        persistent kernel cache gains the new design and nothing else."""
        cache_dir = str(tmp_path / "cache")
        kernels = tmp_path / "kernels"

        def stored():
            return {kind: len(list((kernels / kind).glob("*.json")))
                    for kind in ("design", "kernel", "fsm")}

        async def session():
            scheduler = ServeScheduler(jobs=1, cache=cache_dir)
            await scheduler.start()
            sub = scheduler.submit(dict(TINY))
            payload = await sub.future
            await scheduler.shutdown()
            return sub, payload

        def restart():
            # a new daemon process: no FSM memo, an empty memory layer
            monkeypatch.setattr(to_python, "_BEHAVIOR_MEMO", {})
            previous = set_default_cache(KernelCache(kernels))
            try:
                return run(session())
            finally:
                set_default_cache(previous)

        first, _ = restart()
        before = stored()
        assert before["design"] >= 1 and before["kernel"] >= 1 \
            and before["fsm"] >= 1
        assert restart()[0].served == "artifact"
        monkeypatch.setattr(kernelcache, "_TOOLCHAIN", "an edited compiler")
        edited, payload = restart()
        assert first.served == "queued"
        assert edited.served == "queued"
        assert edited.key != first.key
        assert payload_passed(payload)
        assert stored() == {**before, "design": before["design"] + 1}

    def test_batched_results_never_hit_the_disk_cache(self, tmp_path):
        """Lanes of a batched dispatch are memo-only: their
        ``simulation_seconds`` is a share of the batch and must not be
        stored as a plain run under the job's key."""
        cache_dir = str(tmp_path / "cache")

        async def go():
            scheduler = ServeScheduler(jobs=1, batch_max=4,
                                       cache=cache_dir)
            await scheduler.start()
            subs = [scheduler.submit({**TINY, "seed": s})
                    for s in range(3)]
            payloads = await drain(scheduler, subs)
            return scheduler, payloads

        scheduler, payloads = run(go())
        assert all(payload_passed(p) for p in payloads)
        assert scheduler.stats()["batched_jobs"] == 3
        assert ArtifactCache(cache_dir).load(
            resolve_job(JobSpec.from_dict({**TINY, "seed": 0})).key) is None


def _serve_once(cache_dir, job=TINY):
    async def go():
        scheduler = ServeScheduler(jobs=1, cache=cache_dir)
        await scheduler.start()
        sub = scheduler.submit(dict(job))
        payload = await sub.future
        await scheduler.shutdown()
        return scheduler, sub, payload
    return run(go())


def _suite_of_tiny():
    """The suite twin of TINY: same case, size, seed and backend."""
    suite = TestSuite("tiny")
    suite.add(suite_case("threshold", n_pixels=32))
    return suite


class TestOneStore:
    """The suite and the daemon answer a case from one store."""

    def test_a_daemon_verdict_answers_the_suite(self, tmp_path,
                                                monkeypatch):
        cache_dir = tmp_path / "cache"
        _, sub, payload = _serve_once(str(cache_dir))
        assert sub.served == "queued" and payload_passed(payload)

        def never(*args, **kwargs):
            raise AssertionError("a cached case was executed")

        monkeypatch.setattr(testsuite, "_run_case", never)
        report = _suite_of_tiny().run(seed=0, backend="traced",
                                      cache=cache_dir)
        assert report.passed
        assert (report.cache_hits, report.cache_misses) == (1, 0)
        assert report.results[0].cached

    def test_a_suite_verdict_answers_the_daemon(self, tmp_path):
        cache_dir = tmp_path / "cache"
        report = _suite_of_tiny().run(seed=0, backend="traced",
                                      cache=cache_dir)
        assert report.passed and report.cache_misses == 1
        scheduler, sub, payload = _serve_once(str(cache_dir))
        assert sub.served == "artifact"
        assert scheduler.stats()["executed"] == 0
        assert payload_passed(payload)

    @pytest.mark.parametrize("entry", ["truncated", "mismatch"])
    def test_a_non_passing_entry_is_a_miss(self, tmp_path, entry):
        """A file under the job's key that does not record a pass is
        neither the suite's verdict nor the daemon's: both execute."""
        cache_dir = tmp_path / "cache"
        _, sub, payload = _serve_once(str(cache_dir))
        path = cache_dir / f"{sub.key}.json"
        assert path.exists()
        if entry == "truncated":
            text = path.read_text()
            planted = text[:len(text) // 2]
        else:
            payload = json.loads(path.read_text())
            payload["verification"]["checks"][0]["mismatches"] = \
                [[0, 0, 255]]
            planted = json.dumps(payload)

        path.write_text(planted)
        report = _suite_of_tiny().run(seed=0, backend="traced",
                                      cache=cache_dir)
        assert report.passed
        assert (report.cache_hits, report.cache_misses) == (0, 1)
        assert not report.results[0].cached

        path.write_text(planted)
        scheduler, again, payload = _serve_once(str(cache_dir))
        assert again.served == "queued"
        assert scheduler.stats()["executed"] == 1
        assert payload_passed(payload)


class TestDigestInvalidation:
    def test_mutated_design_never_served_stale(self, tmp_path):
        """Same case name, changed kernel source -> different dedup
        key, so a warm artifact cache cannot answer for the mutant."""
        cache_dir = str(tmp_path / "cache")

        def v1_kernel(pixels_in, pixels_out, n_pixels=32, cut=128):
            for i in range(n_pixels):
                if pixels_in[i] >= cut:
                    pixels_out[i] = 255
                else:
                    pixels_out[i] = 0

        def v2_kernel(pixels_in, pixels_out, n_pixels=32, cut=128):
            for i in range(n_pixels):
                if pixels_in[i] >= cut:
                    pixels_out[i] = 200
                else:
                    pixels_out[i] = 1

        def builder_for(func):
            def build(n_pixels=32):
                return SuiteCase(
                    name="mutant", func=func,
                    arrays=threshold.threshold_arrays(n_pixels),
                    params=threshold.threshold_params(n_pixels),
                    inputs=lambda seed: threshold.threshold_inputs(
                        n_pixels, seed=seed + 1),
                )
            return build

        async def session():
            scheduler = ServeScheduler(jobs=1, cache=cache_dir)
            await scheduler.start()
            sub = scheduler.submit({"case": "mutant",
                                    "size": {"n_pixels": 32}})
            payload = await sub.future
            await scheduler.shutdown()
            return sub, payload

        try:
            CASE_BUILDERS["mutant"] = builder_for(v1_kernel)
            before, payload_before = run(session())
            assert before.served == "queued"
            assert payload_passed(payload_before)
            # warm cache answers the unchanged design...
            warm, _ = run(session())
            assert warm.served == "artifact"
            # ...but the mutated design misses and re-executes
            CASE_BUILDERS["mutant"] = builder_for(v2_kernel)
            after, payload_after = run(session())
        finally:
            CASE_BUILDERS.pop("mutant", None)
        assert after.served == "queued"
        assert after.key != before.key
        assert payload_passed(payload_after)


class _Recording(ServeScheduler):
    """A scheduler that notes every dispatch: (worker, seeds)."""

    def __init__(self, **options):
        super().__init__(**options)
        self.sent = []

    def _send(self, index, batch):
        self.sent.append((index, [queued.spec.seed for queued in batch]))
        super()._send(index, batch)


class TestRunQueue:
    def test_jobs_are_dispatched_oldest_first_to_idle_workers(self):
        """With batching off, six jobs of one group go out in the order
        they came in, and both workers run some of them."""
        async def go():
            scheduler = _Recording(jobs=2, batch_max=1)
            await scheduler.start()
            subs = [scheduler.submit({**TINY, "seed": s})
                    for s in range(6)]
            payloads = await drain(scheduler, subs)
            return scheduler, payloads

        scheduler, payloads = run(go())
        assert all(payload_passed(p) for p in payloads)
        assert [seeds for _, seeds in scheduler.sent] == \
            [[s] for s in range(6)]
        assert {index for index, _ in scheduler.sent} == {0, 1}
        counters = scheduler.stats()
        assert counters["executed"] == 6
        assert counters["batches"] == 0
        assert (counters["steals"], counters["stolen_jobs"]) == (0, 0)
        assert counters["queue_depths"] == [0]

    def test_a_batch_gathers_the_oldest_jobs_of_the_oldest_group(self):
        """An idle worker takes the oldest job and the next
        ``batch_max - 1`` queued jobs of its group; a job of another
        group keeps its place in the queue."""
        other = {"case": "popcount", "size": {"n_words": 16}}

        async def go():
            scheduler = _Recording(jobs=1, batch_max=2)
            await scheduler.start()
            subs = [scheduler.submit({**TINY, "seed": 0}),
                    scheduler.submit(dict(other)),
                    scheduler.submit({**TINY, "seed": 1}),
                    scheduler.submit({**TINY, "seed": 2})]
            payloads = await drain(scheduler, subs)
            return scheduler, payloads

        scheduler, payloads = run(go())
        assert all(payload_passed(p) for p in payloads)
        assert [seeds for _, seeds in scheduler.sent] == \
            [[0, 1], [0], [2]]


class TestRemovedCacheDirectory:
    def test_jobs_resolve_when_the_directory_is_removed(self, tmp_path):
        """The ``--cache`` directory removed under a running daemon: a
        store makes it again, and no job hangs or costs a worker."""
        cache_dir = tmp_path / "cache"

        async def go():
            scheduler = ServeScheduler(jobs=1, cache=str(cache_dir))
            await scheduler.start()
            cache_dir.rmdir()
            subs = [scheduler.submit({**TINY, "size": {"n_pixels": 64},
                                      "backend": "compiled"}),
                    scheduler.submit({"case": "popcount",
                                      "size": {"n_words": 32},
                                      "backend": "compiled"})]
            try:
                payloads = await asyncio.wait_for(
                    asyncio.gather(*(s.future for s in subs)), 30)
            except asyncio.TimeoutError:
                scheduler._pool.close(terminate=True)
                raise
            await scheduler.shutdown()
            return scheduler, subs, payloads

        scheduler, subs, payloads = run(go())
        assert all(payload_passed(p) for p in payloads)
        counters = scheduler.stats()
        assert counters["respawns"] == 0
        assert counters["completed"] == 2
        for sub in subs:
            assert (cache_dir / f"{sub.key}.json").exists()


class TestAdaptiveBatching:
    def test_same_group_jobs_fold_into_one_dispatch(self):
        async def go():
            scheduler = ServeScheduler(jobs=1, batch_max=8)
            await scheduler.start()
            subs = [scheduler.submit({**TINY, "seed": s})
                    for s in range(4)]
            payloads = await drain(scheduler, subs)
            return scheduler, payloads

        scheduler, payloads = run(go())
        assert all(payload_passed(p) for p in payloads)
        counters = scheduler.stats()
        assert counters["dispatches"] == 1
        assert counters["batched_jobs"] == 4

    def test_batched_lanes_report_the_requested_backend(self):
        """A gathered dispatch runs on its jobs' own backend: every
        payload names ``traced`` in its verification and its metrics,
        with the cycles of the same job dispatched alone."""
        async def go(batch_max):
            scheduler = ServeScheduler(jobs=1, batch_max=batch_max)
            await scheduler.start()
            subs = [scheduler.submit({**TINY, "seed": s,
                                      "backend": "traced"})
                    for s in range(3)]
            payloads = await drain(scheduler, subs)
            return scheduler, payloads

        batched, payloads = run(go(8))
        solo, solo_payloads = run(go(1))
        assert batched.stats()["batched_jobs"] == 3
        assert solo.stats()["batches"] == 0
        for payload, reference in zip(payloads, solo_payloads):
            assert payload_passed(payload)
            assert payload["verification"]["backend"] == "traced"
            assert payload["metrics"]["backend"] == "traced"
            assert payload["verification"]["cycles"] == \
                reference["verification"]["cycles"]


class TestWorkerRespawn:
    def test_killed_worker_is_replaced(self):
        async def go():
            scheduler = ServeScheduler(jobs=1)
            await scheduler.start()
            first = scheduler.submit(dict(TINY))
            await first.future
            victim = scheduler._pool.workers[0].process
            os.kill(victim.pid, signal.SIGKILL)
            deadline = time.monotonic() + 10
            while scheduler.counters["respawns"] == 0:
                if time.monotonic() > deadline:
                    raise TimeoutError("worker death never noticed")
                await asyncio.sleep(0.05)
            again = scheduler.submit({**TINY, "seed": 5})
            payload = await again.future
            await scheduler.shutdown()
            return scheduler, payload

        scheduler, payload = run(go())
        assert payload_passed(payload)
        assert scheduler.stats()["respawns"] == 1

    def test_spent_budget_fails_new_work_instead_of_hanging(self):
        """With no respawn left and no live worker, a job submitted
        later resolves to the error the dead worker's jobs get, and
        shutdown returns."""
        async def go():
            scheduler = ServeScheduler(jobs=1, max_respawns=0)
            await scheduler.start()
            await scheduler.submit(dict(TINY)).future
            os.kill(scheduler._pool.workers[0].process.pid, signal.SIGKILL)
            deadline = time.monotonic() + 10
            while scheduler.counters["respawns"] == 0:
                if time.monotonic() > deadline:
                    raise TimeoutError("worker death never noticed")
                await asyncio.sleep(0.05)
            again = scheduler.submit({**TINY, "seed": 5})
            payload = await asyncio.wait_for(again.future, 10)
            await asyncio.wait_for(scheduler.shutdown(), 10)
            return scheduler, again, payload

        scheduler, again, payload = run(go())
        assert again.served == "queued"
        assert payload["case"] == "threshold"
        assert "respawn budget is exhausted" in payload["error"]
        assert scheduler.stats()["failed"] == 1
