"""The artifact cache: keying, hit/miss behaviour, pass-only storage,
its two layers, and the suite runner's use of it."""

import importlib.util
import json
import os

import pytest

from repro.apps import suite_case, threshold
from repro.core import (ArtifactCache, CaseResult, TestSuite, case_key,
                        result_from_payload, result_to_payload)
from repro.core import cache as cache_module
from repro.core.testsuite import SuiteCase, _run_case


def _case(**sizes):
    return suite_case("popcount", **(sizes or {"n_words": 16}))


class TestKeying:
    def test_key_is_deterministic(self):
        case = _case()
        key1 = case_key(case, seed=0, fsm_mode="generated",
                        backend="event")
        key2 = case_key(_case(), seed=0, fsm_mode="generated",
                        backend="event")
        assert key1 == key2

    def test_key_depends_on_run_options(self):
        case = _case()
        base = case_key(case, seed=0, fsm_mode="generated",
                        backend="event")
        assert base != case_key(case, seed=1, fsm_mode="generated",
                                backend="event")
        assert base != case_key(case, seed=0, fsm_mode="interpreted",
                                backend="event")
        assert base != case_key(case, seed=0, fsm_mode="generated",
                                backend="compiled")

    def test_key_depends_on_case_content(self):
        small = _case(n_words=16)
        large = _case(n_words=32)
        assert case_key(small, seed=0, fsm_mode="generated",
                        backend="event") != \
            case_key(large, seed=0, fsm_mode="generated",
                     backend="event")


KERNEL_V1 = """\
def kernel(pixels_in, pixels_out, n_pixels=32, cut=128):
    for i in range(n_pixels):
        if pixels_in[i] >= cut:
            pixels_out[i] = 255
        else:
            pixels_out[i] = 0
"""

KERNEL_V2 = KERNEL_V1.replace("255", "200").replace("= 0", "= 17")


def test_key_compile_and_golden_agree_after_an_edit(tmp_path):
    """Editing the kernel's file under a running process changes
    nothing it derives from the loaded function: the key, the compiled
    design and the golden model all stay on the text first read."""
    path = tmp_path / "edited_kernel.py"
    path.write_text(KERNEL_V1)
    spec = importlib.util.spec_from_file_location("edited_kernel", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    case = SuiteCase(
        name="edited", func=module.kernel,
        arrays=threshold.threshold_arrays(32),
        params=threshold.threshold_params(32),
        inputs=lambda seed: threshold.threshold_inputs(32, seed=seed))
    assert case.compile().source == KERNEL_V1
    key = case_key(case, seed=0, fsm_mode="generated", backend="compiled")

    path.write_text(KERNEL_V2)
    mtime = path.stat().st_mtime_ns + 10 ** 10
    os.utime(path, ns=(mtime, mtime))
    assert case.compile().source == KERNEL_V1
    assert case_key(case, seed=0, fsm_mode="generated",
                    backend="compiled") == key
    result = _run_case(case, seed=0, fsm_mode="generated",
                       backend="compiled")
    assert result.passed, result.error


def _passing_payload(case=None):
    case = case or _case()
    result = _run_case(case, seed=0, fsm_mode="generated",
                       backend="event")
    assert result.passed
    key = case_key(case, seed=0, fsm_mode="generated", backend="event")
    return key, result, result_to_payload(result)


class TestRoundTrip:
    def test_store_then_load(self, tmp_path):
        cache = ArtifactCache(tmp_path)
        key, result, payload = _passing_payload()
        assert cache.store(key, payload)
        # a new store on the directory answers from the file
        stored = ArtifactCache(tmp_path).load(key)
        assert stored is not None
        loaded = result_from_payload(stored, cached=True)
        assert loaded.cached
        assert loaded.passed
        assert loaded.case == result.case
        assert loaded.verification.cycles == result.verification.cycles
        assert loaded.verification.evaluations == \
            result.verification.evaluations
        assert loaded.metrics.total_operators() == \
            result.metrics.total_operators()

    def test_miss_on_unknown_key(self, tmp_path):
        cache = ArtifactCache(tmp_path)
        assert cache.load("0" * 64) is None
        assert cache.misses == 1

    def test_failures_are_never_cached(self, tmp_path):
        cache = ArtifactCache(tmp_path)
        failed = CaseResult("broken", None, None, 0.1, error="boom")
        assert not cache.store("f" * 64, result_to_payload(failed))
        assert cache.load("f" * 64) is None

    def test_clear(self, tmp_path):
        cache = ArtifactCache(tmp_path)
        key, _, payload = _passing_payload()
        cache.store(key, payload)
        assert cache.clear() == 1
        assert cache.load(key) is None


class TestLayers:
    def test_memory_only_store(self):
        cache = ArtifactCache()
        key, _, payload = _passing_payload()
        assert cache.root is None and cache.load(key) is None
        assert cache.store(key, payload)
        assert cache.recall(key) is payload
        assert cache.load(key) is payload
        assert (cache.hits, cache.misses, len(cache)) == (1, 1, 1)

    def test_a_directory_hit_is_promoted_into_memory(self, tmp_path):
        key, _, payload = _passing_payload()
        ArtifactCache(tmp_path).store(key, payload)
        fresh = ArtifactCache(tmp_path)
        assert fresh.recall(key) is None
        assert fresh.load(key) == payload
        assert fresh.recall(key) == payload

    def test_persist_false_keeps_the_payload_off_disk(self, tmp_path):
        cache = ArtifactCache(tmp_path)
        key, _, payload = _passing_payload()
        assert cache.store(key, payload, persist=False)
        assert cache.load(key) is payload
        assert not list(tmp_path.glob("*.json"))
        assert ArtifactCache(tmp_path).load(key) is None

    @pytest.mark.parametrize("entry", ["truncated", "mismatch", "list",
                                       "missing field"])
    def test_an_entry_that_is_not_a_whole_pass_is_a_miss(self, tmp_path,
                                                         entry):
        key, _, payload = _passing_payload()
        text = json.dumps(payload)
        if entry == "truncated":
            text = text[:len(text) // 2]
        elif entry == "mismatch":
            payload["verification"]["checks"][0]["mismatches"] = [[0, 1, 2]]
            text = json.dumps(payload)
        elif entry == "list":
            text = json.dumps([payload])
        else:
            del payload["verification"]["cycles"]
            text = json.dumps(payload)
        (tmp_path / f"{key}.json").write_text(text)
        cache = ArtifactCache(tmp_path)
        assert cache.load(key) is None
        assert (cache.hits, cache.misses, len(cache)) == (0, 1, 0)

    def test_a_removed_directory_is_made_again(self, tmp_path):
        root = tmp_path / "cache"
        cache = ArtifactCache(root)
        root.rmdir()
        key, _, payload = _passing_payload()
        assert cache.store(key, payload)
        assert ArtifactCache(root).load(key) == payload

    def test_an_unwritable_directory_keeps_the_memory_layer(self,
                                                            tmp_path):
        root = tmp_path / "cache"
        cache = ArtifactCache(root)
        root.rmdir()
        root.write_text("a file where the directory was")
        key, _, payload = _passing_payload()
        assert not cache.store(key, payload)
        assert cache.recall(key) is payload
        assert list(tmp_path.iterdir()) == [root]

    def test_memory_layer_drops_its_oldest_entry(self, monkeypatch):
        monkeypatch.setattr(cache_module, "_MEMORY_ENTRIES", 2)
        cache = ArtifactCache()
        _, _, payload = _passing_payload()
        for key in ("a", "b", "a", "c"):
            cache.store(key, payload)
        assert len(cache) == 2
        assert cache.recall("a") is None
        assert cache.recall("b") is cache.recall("c") is payload


def _two_case_suite():
    suite = TestSuite("cached")
    suite.add(suite_case("threshold", n_pixels=32))
    suite.add(suite_case("popcount", n_words=16))
    return suite


class TestSuiteCache:
    def test_counts_are_per_run(self, tmp_path):
        from repro.obs import Ledger, suite_metrics

        suite = _two_case_suite()
        cache = ArtifactCache(tmp_path / "cache")
        counts = []
        for seed in (0, 1, 1):
            report = suite.run(seed=seed, cache=cache,
                               ledger=tmp_path / "l.sqlite")
            counts.append((report.cache_hits, report.cache_misses))
            assert report.passed
        assert counts == [(0, 2), (0, 2), (2, 0)]
        metrics = suite_metrics(report, cache=cache)
        assert (metrics.counters["cache_hits"],
                metrics.counters["cache_misses"]) == (2, 0)
        with Ledger(tmp_path / "l.sqlite") as ledger:
            run_id = ledger.latest_run("suite").run_id
            rows = {row.cache: row for row in ledger.cache_rows(run_id)}
        assert (rows["artifact"].hits, rows["artifact"].misses) == (2, 0)

    def test_a_removed_directory_does_not_crash_the_run(self, tmp_path):
        """The directory removed under a live cache: the run returns its
        pass, and its verdicts land in the directory made again."""
        root = tmp_path / "cache"
        cache = ArtifactCache(root)
        root.rmdir()
        report = _two_case_suite().run(seed=0, cache=cache)
        assert report.passed
        assert (report.cache_hits, report.cache_misses) == (0, 2)
        assert len(list(root.glob("*.json"))) == 2

    def test_a_batched_run_neither_looks_up_nor_stores(self, tmp_path):
        suite = _two_case_suite()
        for _ in range(2):
            report = suite.run(batch=2, backend="traced",
                               cache=tmp_path)
            assert report.passed
            assert (report.cache_hits, report.cache_misses) == (0, 0)
            assert not any(result.cached for result in report.results)
        assert not list(tmp_path.glob("*.json"))
