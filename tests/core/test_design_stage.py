"""The compile stage: ``SuiteCase.compile()`` through the kernel cache.

A persistent kernel cache files each compiled design, with its Table I
line counts, under :func:`repro.core.cache.design_key`.  A hit must be
indistinguishable from a fresh compile, must never share objects with
the next hit, and must miss once the toolchain fingerprint changes.
"""

from pathlib import Path

import pytest

import repro.core.report as report_module
import repro.core.testsuite as testsuite_module
from repro.apps import CASE_BUILDERS, suite_case
from repro.core import kernelcache
from repro.core.cache import case_key, design_key, structure_key
from repro.core.faults import run_campaign
from repro.core.kernelcache import (KernelCache, datapath_digest,
                                    fsm_digest, set_default_cache,
                                    toolchain_fingerprint)
from repro.core.report import collect_metrics

#: the full sizes of benchmarks/test_bench_suite.py
SIZES_FULL = {
    "fdct1": {"pixels": 32768},
    "fdct2": {"pixels": 8192},
    "idct": {"pixels": 8192},
    "hamming": {"n_words": 8192},
    "fir": {"n_out": 4096, "taps": 8},
    "matmul": {"n": 20},
    "threshold": {"n_pixels": 16384},
    "popcount": {"n_words": 8192},
}


@pytest.fixture()
def stage(tmp_path):
    """A persistent kernel cache installed as the process default."""
    cache = KernelCache(tmp_path / "kernels")
    previous = set_default_cache(cache)
    yield cache
    set_default_cache(previous)


def _fresh_compile(case):
    """Compile *case* with the stage out of the way."""
    previous = set_default_cache(KernelCache(None))
    try:
        return case.compile()
    finally:
        set_default_cache(previous)


def _digests(design):
    """Per-configuration structural digests, recomputed from scratch
    (a pickled design carries its digest memos along)."""
    rows = []
    for config in design.configurations:
        config.datapath._digest_memo = None
        config.fsm._digest_memo = None
        rows.append((config.name, datapath_digest(config.datapath),
                     fsm_digest(config.fsm)))
    return rows


def test_fingerprint_is_the_package_source_hash():
    package = Path(kernelcache.__file__).resolve().parents[1]
    assert toolchain_fingerprint() == \
        kernelcache._fingerprint_package(package)


def test_fingerprint_follows_every_module_byte_and_path(tmp_path):
    (tmp_path / "sub").mkdir()
    (tmp_path / "a.py").write_text("x = 1\n")
    (tmp_path / "sub" / "b.py").write_text("y = 2\n")
    (tmp_path / "notes.txt").write_text("not a module")
    base = kernelcache._fingerprint_package(tmp_path)

    # a dangling editor lock link is no module and must not break import
    (tmp_path / ".#a.py").symlink_to("user@host.1234:5678")
    (tmp_path / "notes.txt").write_text("still not a module")
    assert kernelcache._fingerprint_package(tmp_path) == base

    (tmp_path / "sub" / "b.py").write_text("y = 3\n")
    edited = kernelcache._fingerprint_package(tmp_path)
    assert edited != base
    (tmp_path / "sub" / "b.py").rename(tmp_path / "sub" / "c.py")
    assert kernelcache._fingerprint_package(tmp_path) not in (base, edited)


def test_patched_fingerprint_changes_every_key(monkeypatch):
    cases = [suite_case(name) for name in CASE_BUILDERS]
    assert len(cases) == 8

    def keys():
        return [(case_key(case, seed=0, fsm_mode="generated",
                          backend="compiled"),
                 structure_key(case), design_key(case))
                for case in cases]

    before = keys()
    monkeypatch.setattr(kernelcache, "_TOOLCHAIN", "an edited compiler")
    after = keys()
    for name, old, new in zip(CASE_BUILDERS, before, after):
        assert all(o != n for o, n in zip(old, new)), name


@pytest.mark.parametrize("sizes", [{}, SIZES_FULL],
                         ids=["default", "full"])
def test_hit_matches_a_fresh_compile(stage, sizes):
    cases = [suite_case(name, **sizes.get(name, {}))
             for name in CASE_BUILDERS]
    for case in cases:
        case.compile()
    assert stage.misses == 8 and stage.stores == 8

    warm = KernelCache(stage.root)  # a new process: same disk, no memory
    set_default_cache(warm)
    for case in cases:
        hit = case.compile()
        fresh = _fresh_compile(case)
        assert _digests(hit) == _digests(fresh), case.name
        assert collect_metrics(hit) == collect_metrics(fresh), case.name
        assert hit.source == fresh.source
    assert warm.disk_hits == 8 and warm.misses == 0


def test_hit_neither_compiles_nor_prints_xml(stage, monkeypatch):
    case = suite_case("fdct2")
    expected = collect_metrics(case.compile())

    def refuse(*args, **kwargs):
        raise AssertionError("a warm compile stage must not run this")

    monkeypatch.setattr(testsuite_module, "compile_function", refuse)
    # the line counts come with the hit: no XML tree, no FSM code
    for name in ("fsm_tree", "datapath_tree", "fsm_module_source"):
        monkeypatch.setattr(report_module, name, refuse)
    set_default_cache(KernelCache(stage.root))
    assert collect_metrics(case.compile()) == expected


def test_mutating_a_hit_leaves_the_next_hit_intact(stage):
    case = suite_case("threshold")
    case.compile()
    first = case.compile()
    expected = _digests(first)
    config = first.configurations[0]
    config.datapath.components.popitem()
    config.fsm.states.popitem()
    first.name = "mutated"
    second = case.compile()
    assert second is not first
    assert second.name == "threshold"
    assert _digests(second) == expected


def test_patched_fingerprint_misses(stage, monkeypatch):
    case = suite_case("popcount")
    case.compile()
    case.compile()
    assert stage.memory_hits == 1 and stage.misses == 1
    monkeypatch.setattr(kernelcache, "_TOOLCHAIN", "an edited compiler")
    case.compile()
    assert stage.misses == 2 and stage.stores == 2


def test_memory_only_cache_skips_the_stage():
    cache = KernelCache(None)
    previous = set_default_cache(cache)
    try:
        case = suite_case("popcount")
        assert case.compile() is not case.compile()
    finally:
        set_default_cache(previous)
    assert cache.summary()["misses"] == 0 and cache.stores == 0
    assert not cache._memory


def test_e5_kill_rates_are_unchanged_on_a_warm_stage(stage, monkeypatch):
    case = suite_case("threshold", n_pixels=32)

    def verdicts():
        result = run_campaign(case.compile(), case.func, case.inputs(1),
                              sample=8, seed=1, max_cycles=20_000)
        return [(v.fault.kind, v.fault.target, v.verdict)
                for v in result.verdicts]

    cold = verdicts()
    set_default_cache(KernelCache(stage.root))
    monkeypatch.setattr(testsuite_module, "compile_function", None)
    assert verdicts() == cold
