"""The artifact cache: keying, hit/miss behaviour, pass-only storage."""

import importlib.util
import os

from repro.apps import suite_case, threshold
from repro.core import ArtifactCache, CaseResult, case_key
from repro.core.testsuite import SuiteCase, _run_case


def _case(**sizes):
    return suite_case("popcount", **(sizes or {"n_words": 16}))


class TestKeying:
    def test_key_is_deterministic(self, tmp_path):
        cache = ArtifactCache(tmp_path)
        case = _case()
        key1 = cache.key_for(case, seed=0, fsm_mode="generated",
                             backend="event")
        key2 = cache.key_for(_case(), seed=0, fsm_mode="generated",
                             backend="event")
        assert key1 == key2

    def test_key_depends_on_run_options(self, tmp_path):
        cache = ArtifactCache(tmp_path)
        case = _case()
        base = cache.key_for(case, seed=0, fsm_mode="generated",
                             backend="event")
        assert base != cache.key_for(case, seed=1, fsm_mode="generated",
                                     backend="event")
        assert base != cache.key_for(case, seed=0, fsm_mode="interpreted",
                                     backend="event")
        assert base != cache.key_for(case, seed=0, fsm_mode="generated",
                                     backend="compiled")

    def test_key_depends_on_case_content(self, tmp_path):
        cache = ArtifactCache(tmp_path)
        small = _case(n_words=16)
        large = _case(n_words=32)
        assert cache.key_for(small, seed=0, fsm_mode="generated",
                             backend="event") != \
            cache.key_for(large, seed=0, fsm_mode="generated",
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


class TestRoundTrip:
    def test_store_then_load(self, tmp_path):
        cache = ArtifactCache(tmp_path)
        case = _case()
        result = _run_case(case, seed=0, fsm_mode="generated",
                           backend="event")
        assert result.passed
        key = cache.key_for(case, seed=0, fsm_mode="generated",
                            backend="event")
        assert cache.store(key, result)
        loaded = cache.load(key)
        assert loaded is not None
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
        assert not cache.store("f" * 64, failed)
        assert cache.load("f" * 64) is None

    def test_clear(self, tmp_path):
        cache = ArtifactCache(tmp_path)
        case = _case()
        result = _run_case(case, seed=0, fsm_mode="generated",
                           backend="event")
        key = cache.key_for(case, seed=0, fsm_mode="generated",
                            backend="event")
        cache.store(key, result)
        assert cache.clear() == 1
        assert cache.load(key) is None
