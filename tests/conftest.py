"""Session-wide isolation for the test suite."""

import pytest

from repro.core.kernelcache import set_default_cache
from repro.sim import TracedSimulator


@pytest.fixture(scope="session", autouse=True)
def private_kernel_cache(tmp_path_factory):
    """Give the session a kernel cache of its own.

    Left alone, every test would read and write the user's cache
    (``~/.cache/repro-kernels``): a test could pass on an entry a cold
    run would rebuild, and whether a short traced run starts fused
    depends on what the cache holds.  Subprocesses inherit the
    variable.  Tests that check persistence build their own
    ``KernelCache(tmp_path)``.
    """
    with pytest.MonkeyPatch.context() as patch:
        patch.setenv("REPRO_KERNEL_CACHE",
                     str(tmp_path_factory.mktemp("kernel-cache")))
        set_default_cache(None)
        yield
    set_default_cache(None)


@pytest.fixture(scope="session", autouse=True)
def traced_starts_fused():
    """Run every traced elaboration on its fused program from cycle 0.

    Test runs are far too short to promote, and the generic tier is the
    compiled kernel: left alone, every traced case would run the
    compiled kernel a second time and no test would run fused code.
    Forked pool workers inherit the setting; subprocesses do not.
    tests/integration/test_traced_tiers.py puts the threshold back to
    test the promotion itself.
    """
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(TracedSimulator, "promote_after", 0)
        yield
