"""Scheduler policies: coalescing, dedup, stealing, batching, respawn.

The central acceptance property lives here: M identical + K distinct
concurrent jobs produce exactly K executions and M + K correct results,
and a design mutation always changes the dedup key, so stale artifacts
are unreachable by construction.
"""

import asyncio
import os
import signal
import time

import pytest

from repro.apps import threshold
from repro.apps.registry import CASE_BUILDERS
from repro.core import ArtifactCache, kernelcache, payload_passed
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


class TestStealing:
    def test_idle_worker_steals_from_loaded_shard(self):
        """With batching off, same-group jobs pile onto one shard; the
        other worker must steal to keep busy."""
        async def go():
            scheduler = ServeScheduler(jobs=2, batch_max=1)
            await scheduler.start()
            subs = [scheduler.submit({**TINY, "seed": s})
                    for s in range(6)]
            payloads = await drain(scheduler, subs)
            return scheduler, payloads

        scheduler, payloads = run(go())
        assert all(payload_passed(p) for p in payloads)
        counters = scheduler.stats()
        assert counters["executed"] == 6
        assert counters["batches"] == 0
        assert counters["steals"] >= 1


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
