"""Kernel and FSM-module cache keys follow their code generators.

A generated kernel is a function of the design digest and the kernel
generators' source; a generated FSM module of the FSM digest and the
FSM generator's source.  Each kind is keyed by a fingerprint of its
generator's scope (``kernelcache._KERNEL_SCOPE`` / ``_FSM_SCOPE``), so
an edit to a generator misses every entry of its kind, and an edit
elsewhere — the compiler, say — misses none.
"""

import ast
from pathlib import Path

import pytest

from repro.apps import CASE_BUILDERS, suite_case
from repro.core import kernelcache, verify_design
from repro.core.kernelcache import (KernelCache, fsm_fingerprint,
                                    kernel_fingerprint, set_default_cache)
from repro.translate import to_python
from repro.translate.to_sim import build_simulation

PACKAGE = Path(kernelcache.__file__).resolve().parents[1]

#: the cache layer the generators call into: it stores keys and bytes
#: and generates no code, so it lies outside both scopes
STORAGE = "core/kernelcache.py"


def _module_path(name: str):
    """The file under the package that defines module *name*, if any."""
    parts = name.split(".")[1:]
    base = PACKAGE.joinpath(*parts)
    for path in (base / "__init__.py", base.with_suffix(".py")):
        if path.exists():
            return path
    return None


def _imports(path: Path):
    """``repro`` modules *path* imports anywhere, function bodies too."""
    # the importing package: ``repro.sim`` for sim/compiled.py and for
    # sim/__init__.py alike
    package = list(path.relative_to(PACKAGE.parent).with_suffix("")
                   .parts[:-1])
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.ImportFrom):
            if node.level:
                stem = package[:len(package) - node.level + 1]
                module = ".".join(stem + ([node.module] if node.module
                                          else []))
            else:
                module = node.module or ""
            yield module
            for alias in node.names:  # ``from .pkg import module``
                yield f"{module}.{alias.name}"
        elif isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.name


def _closure(*files: str):
    """Relative paths of every package module the AST import closure
    of *files* reaches."""
    seen, todo = set(), [PACKAGE / name for name in files]
    while todo:
        path = todo.pop()
        name = path.relative_to(PACKAGE).as_posix()
        if name in seen:
            continue
        seen.add(name)
        for module in _imports(path):
            if module.split(".")[0] == "repro":
                found = _module_path(module)
                if found is not None:
                    todo.append(found)
    return seen


@pytest.mark.parametrize("generators,scope", [
    (("sim/compiled.py", "sim/trace.py"), kernelcache._KERNEL_SCOPE),
    (("translate/to_python.py",), kernelcache._FSM_SCOPE),
], ids=["kernel", "fsm"])
def test_scope_covers_the_generators_import_closure(generators, scope):
    closure = _closure(*generators)
    assert set(generators) <= closure
    outside = sorted(name for name in closure - {STORAGE}
                     if not name.startswith(scope))
    assert outside == [], f"imported by the generators, outside {scope}"


def test_scope_fingerprints_hash_their_scope_only(tmp_path):
    assert kernel_fingerprint() == kernelcache._fingerprint_scopes(
        PACKAGE, [kernelcache._KERNEL_SCOPE])[0]
    assert fsm_fingerprint() == kernelcache._fingerprint_scopes(
        PACKAGE, [kernelcache._FSM_SCOPE])[0]

    (tmp_path / "sim").mkdir()
    (tmp_path / "compiler").mkdir()
    (tmp_path / "sim" / "kernel.py").write_text("x = 1\n")
    (tmp_path / "compiler" / "passes.py").write_text("y = 1\n")

    def digests():
        return kernelcache._fingerprint_scopes(
            tmp_path, [("",), kernelcache._KERNEL_SCOPE])

    whole, kernel = digests()
    (tmp_path / "compiler" / "passes.py").write_text("y = 2\n")
    edited_whole, same_kernel = digests()
    assert edited_whole != whole and same_kernel == kernel
    (tmp_path / "sim" / "kernel.py").write_text("x = 2\n")
    assert digests()[1] != kernel


def test_only_a_generator_edit_changes_its_keys(monkeypatch):
    """An edit to the compiler alone (the whole-package fingerprint)
    changes no kernel or FSM key; an edit to either generator changes
    every key of its own kind and none of the other's."""
    designs = [suite_case(name).compile() for name in CASE_BUILDERS]

    def keys():
        kernels, fsms = [], []
        for design in designs:
            for config in design.configurations:
                sim = build_simulation(config.datapath, config.fsm,
                                       backend="compiled").sim
                kernels.append(sim._cache_key())
                fsms.append(to_python._fsm_key(config.fsm))
        return kernels, fsms

    kernels, fsms = keys()
    assert None not in kernels
    monkeypatch.setattr(kernelcache, "_TOOLCHAIN", "an edited compiler")
    assert keys() == (kernels, fsms)
    monkeypatch.setattr(kernelcache, "_KERNEL_SOURCE", "an edited kernel")
    edited_kernels, same_fsms = keys()
    assert same_fsms == fsms
    assert all(old != new for old, new in zip(kernels, edited_kernels))
    monkeypatch.undo()
    monkeypatch.setattr(kernelcache, "_FSM_SOURCE", "an edited generator")
    same_kernels, edited_fsms = keys()
    assert same_kernels == kernels
    assert all(old != new for old, new in zip(fsms, edited_fsms))


def test_patched_fingerprint_misses_its_kind(tmp_path, monkeypatch):
    """On a persistent cache, each run stands for a new process: a
    patched generator fingerprint stores fresh entries of its kind only,
    and a patched whole-package fingerprint stores none."""
    case = suite_case("threshold", n_pixels=32)
    design = case.compile()
    root = tmp_path / "kernels"

    def stored_after_a_run():
        # a fresh process: no FSM behaviour memo, no memory layer
        monkeypatch.setattr(to_python, "_BEHAVIOR_MEMO", {})
        previous = set_default_cache(KernelCache(root))
        try:
            result = verify_design(design, case.func, case.inputs(0),
                                   backend="compiled")
        finally:
            set_default_cache(previous)
        assert result.passed
        return {kind: len(list((root / kind).glob("*.json")))
                for kind in ("kernel", "fsm")}

    first = stored_after_a_run()
    assert first["kernel"] >= 1 and first["fsm"] >= 1
    assert stored_after_a_run() == first
    monkeypatch.setattr(kernelcache, "_TOOLCHAIN", "an edited compiler")
    assert stored_after_a_run() == first
    monkeypatch.setattr(kernelcache, "_KERNEL_SOURCE", "an edited kernel")
    after_kernel = stored_after_a_run()
    assert after_kernel == {"kernel": 2 * first["kernel"],
                            "fsm": first["fsm"]}
    monkeypatch.setattr(kernelcache, "_FSM_SOURCE", "an edited generator")
    assert stored_after_a_run() == {"kernel": after_kernel["kernel"],
                                    "fsm": 2 * first["fsm"]}
