"""A5 — trace fusion on/off, and codegen-cache cold vs warm start.

Two ablations for the trace-fusing tier on top of the compiled kernel:

* **fusion**: the same fdct1 design verified under the plain compiled
  kernel (fusion off) and the traced kernel started fused (fusion on,
  at any size), interleaved best-of-N.  Outputs must be
  byte-identical; the traced kernel must not be slower, and at full
  size must clear the 2x acceptance floor asserted by
  ``test_bench_suite``.  The report also gives what the fused program
  costs to build (codegen plus ``compile()``), a report line only.

* **codegen cache**: first traced elaboration against an empty
  :class:`KernelCache` pays trace discovery + code generation +
  ``compile()``; a fresh process pointed at the same cache directory
  deserialises the stored bytecode instead.  We emulate the fresh
  process by swapping in a new cache object on the same root (empty
  memory layer, warm disk layer) and require a measurable warm-start
  saving plus disk hits actually observed.

Timing on shared CI hosts is noisy (±30-50% run to run), so every
ratio here is min-over-repeats of interleaved runs — the stable
statistic — and the quick mode asserts only the mechanism (identical
outputs, disk hits), never wall-clock floors.
"""

import os
import time
from pathlib import Path

import pytest

from repro.apps import suite_case
from repro.core import prepare_images, verify_design
from repro.core.kernelcache import KernelCache, set_default_cache
from repro.sim import TracedSimulator
from repro.sim.compiled import _build_program
from repro.translate import build_simulation

QUICK = os.environ.get("REPRO_BENCH_QUICK") == "1"

PIXELS = 256 if QUICK else 32768
REPEATS = 1 if QUICK else 3


def _verify(case, design, inputs, backend):
    result = verify_design(design, case.func, inputs, backend=backend)
    assert result.passed, result.design
    return result


def _signature(result):
    return (result.cycles,
            sorted(repr(check.__dict__) for check in result.checks))


def _fused_build_seconds(design, inputs):
    """Best-of-N time to generate and ``compile()`` the fused program of
    *design*'s one configuration."""
    config = design.configurations[0]
    sim = build_simulation(config.datapath, config.fsm,
                           prepare_images(design, inputs),
                           backend="traced").sim
    best = None
    for _ in range(REPEATS):
        started = time.perf_counter()
        _build_program(sim, fuse=True)
        best = min(filter(None, (best, time.perf_counter() - started)))
    return best


@pytest.mark.benchmark(group="ablation-fusion")
def test_fusion_on_off(report_writer, monkeypatch):
    # quick-mode runs are too short to promote to fused code
    monkeypatch.setattr(TracedSimulator, "promote_after", 0)
    case = suite_case("fdct1", pixels=PIXELS)
    design = case.compile()
    inputs = case.inputs(seed=0)

    compiled_best = traced_best = None
    compiled_sig = traced_sig = None
    for _ in range(REPEATS):
        compiled = _verify(case, design, inputs, "compiled")
        traced = _verify(case, design, inputs, "traced")
        compiled_sig = _signature(compiled)
        traced_sig = _signature(traced)
        compiled_best = min(filter(None, (compiled_best,
                                          compiled.simulation_seconds)))
        traced_best = min(filter(None, (traced_best,
                                        traced.simulation_seconds)))

    # fusion must be an optimisation, never a semantic change
    assert compiled_sig == traced_sig
    ratio = compiled_best / max(traced_best, 1e-9)
    build = _fused_build_seconds(design, inputs)

    report_writer("ablation_fusion", "\n".join([
        f"A5 -- trace fusion ablation (fdct1, {PIXELS} pixels, "
        f"best of {REPEATS}, identical outputs and cycle counts)",
        "",
        "kernel              sim seconds",
        "------------------  -----------",
        f"compiled (no fuse)  {compiled_best:.4f}",
        f"traced (fused)      {traced_best:.4f}",
        "",
        f"fusion speedup x{ratio:.2f}",
        f"fused build {build * 1000:.1f} ms (codegen + compile(), "
        f"best of {REPEATS})",
    ]) + "\n")

    if not QUICK:
        assert ratio >= 2.0, (compiled_best, traced_best)


@pytest.mark.benchmark(group="ablation-fusion")
def test_codegen_cache_cold_warm(report_writer, tmp_path):
    # elaboration-dominated size: the cache saves codegen, not simulation
    case = suite_case("fdct1", pixels=64)
    design = case.compile()
    inputs = case.inputs(seed=0)
    root = Path(tmp_path) / "kernels"

    def timed_verify():
        best = None
        for _ in range(max(REPEATS, 3)):
            started = time.perf_counter()
            _verify(case, design, inputs, "traced")
            elapsed = time.perf_counter() - started
            best = min(filter(None, (best, elapsed)))
        return best

    previous = set_default_cache(None)
    try:
        cold_cache = KernelCache(root)
        set_default_cache(cold_cache)
        cold_started = time.perf_counter()
        _verify(case, design, inputs, "traced")
        cold = time.perf_counter() - cold_started
        assert cold_cache.stores > 0, cold_cache.summary()

        # fresh memory layer, warm disk layer == a new process start
        warm_cache = KernelCache(root)
        set_default_cache(warm_cache)
        warm = timed_verify()
        assert warm_cache.disk_hits > 0, warm_cache.summary()
    finally:
        set_default_cache(previous)

    saved = cold - warm
    report_writer("ablation_codegen_cache", "\n".join([
        "A5 -- codegen cache cold vs warm start (fdct1, 64 pixels; "
        "warm = fresh process, populated disk cache)",
        "",
        "start  seconds",
        "-----  -------",
        f"cold   {cold:.4f}",
        f"warm   {warm:.4f}",
        "",
        f"warm start saves {saved * 1000:.1f} ms "
        f"({cold_cache.stores} store(s) cold, "
        f"{warm_cache.disk_hits} disk hit(s) warm)",
    ]) + "\n")

    if not QUICK:
        # codegen + compile() costs tens of ms; disk read costs ~1 ms
        assert saved > 0, (cold, warm)
