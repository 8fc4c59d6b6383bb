"""Tests for the translation engine, dot backends and Python codegen."""

import copy

import pytest

from repro.apps import CASE_BUILDERS, suite_case
from repro.compiler.pipeline import compile_function
from repro.core.kernelcache import (MEMO_ENTRIES, KernelCache, fsm_digest,
                                    set_default_cache)
from repro.fuzz.generator import generate
from repro.hdl import Datapath, Fsm, Rtg
from repro.translate import (GeneratedFsmBehavior, InterpretedFsmBehavior,
                             InterpretedRtgControl, TranslationEngine,
                             TranslationError, compile_fsm, compile_rtg,
                             fsm_to_python, rtg_to_python, to_python,
                             translate)
from repro.util.loc import count_lines

from tests.hdl.test_datapath import build_sample
from tests.hdl.test_fsm_rtg import build_fsm, build_rtg


class TestEngine:
    def test_default_targets_registered(self):
        assert "dot" in translate.__globals__["default_engine"].targets_for(Datapath)
        for source in (Datapath, Fsm, Rtg):
            targets = translate.__globals__["default_engine"].targets_for(source)
            assert "dot" in targets

    def test_unknown_target_reports_available(self):
        with pytest.raises(TranslationError, match="available targets"):
            translate(build_fsm(), "cobol")

    def test_custom_engine_registration(self):
        engine = TranslationEngine()

        @engine.register(Fsm, "summary")
        def fsm_summary(fsm):
            return f"{fsm.name}:{fsm.state_count()}"

        assert engine.translate(build_fsm(), "summary") == "ctl:3"
        assert engine.sources_for("summary") == ["Fsm"]

    def test_duplicate_registration_rejected(self):
        engine = TranslationEngine()
        engine.register(Fsm, "x", lambda f: "")
        with pytest.raises(TranslationError, match="already registered"):
            engine.register(Fsm, "x", lambda f: "")

    def test_options_forwarded(self):
        engine = TranslationEngine()
        engine.register(Fsm, "opt", lambda f, prefix="": prefix + f.name)
        assert engine.translate(build_fsm(), "opt", prefix=">") == ">ctl"


class TestDotBackends:
    def test_datapath_dot(self):
        dot = translate(build_sample(), "dot")
        assert dot.startswith('digraph "sample"')
        assert '"add_1"' in dot
        assert "FSM ->" in dot       # control edges
        assert "-> FSM" in dot       # status edges
        assert dot.rstrip().endswith("}")

    def test_fsm_dot(self):
        dot = translate(build_fsm(), "dot")
        assert "doublecircle" in dot       # final state
        assert "__reset ->" in dot
        assert "st_lt" in dot              # guard label

    def test_rtg_dot(self):
        dot = translate(build_rtg(), "dot")
        assert '"cfg0" -> "cfg1"' in dot
        assert "cylinder" in dot           # shared memory node

    def test_quoting(self):
        dp = Datapath("we\"ird", width=8)
        dot = translate(dp, "dot")
        assert '\\"' in dot


def _fsms():
    """(source, FSM): the hand-built sample, then every configuration of
    the 8 apps and of fuzz seeds 0-49."""
    yield "sample", build_fsm()
    for name in CASE_BUILDERS:
        for config in suite_case(name).compile().configurations:
            yield name, config.fsm
    for seed in range(50):
        program = generate(seed)
        design = compile_function(
            program.source, program.arrays, dict(program.params),
            name=program.name, word_width=program.word_width,
            n_partitions=program.n_partitions)
        for config in design.configurations:
            yield f"fuzz seed {seed}", config.fsm


def _reordered(fsm):
    """A copy of *fsm* whose busiest state lists its assignments in
    reverse insertion order: the same FSM, with the same digest."""
    twin = copy.deepcopy(fsm)
    state = max(twin.states.values(), key=lambda s: len(s.assigns))
    assigns = list(state.assigns.items())
    state.assigns.clear()
    for output, value in reversed(assigns):
        state.assign(output, value)
    return twin


def _listed(module):
    """Entries of the output-default and per-state assignment tables of
    the generated *module* text."""
    namespace = {}
    exec(module, namespace)
    return len(namespace["OUTPUT_DEFAULTS"]) + sum(
        map(len, namespace["STATE_ASSIGNS"].values()))


class TestFsmCodegen:
    @pytest.fixture
    def fresh_fsm_cache(self, monkeypatch):
        """An empty behaviour memo and memory-only kernel cache."""
        monkeypatch.setattr(to_python, "_BEHAVIOR_MEMO", {})
        cache = KernelCache(None)
        previous = set_default_cache(cache)
        yield cache
        set_default_cache(previous)

    def test_generated_module_fields(self):
        behavior = compile_fsm(build_fsm())
        assert behavior.reset_state == "S_idle"
        assert behavior.finals == frozenset({"S_done"})
        assert behavior.output_widths["done"] == 1
        assert behavior.output_vectors["S_run"]["en_acc"] == 1

    def test_generated_matches_interpreted(self, fresh_fsm_cache):
        for source, fsm in _fsms():
            generated = compile_fsm(fsm)
            interpreted = InterpretedFsmBehavior(fsm)
            envs = (dict.fromkeys(fsm.inputs, 0),
                    dict.fromkeys(fsm.inputs, 1))
            for state in fsm.states:
                for env in envs:
                    assert generated.next_state(state, env) == \
                        interpreted.next_state(state, env), source
            # the same vectors in the same state and key order: the
            # compiled kernels number states in this order
            expected = {state: fsm.output_vector(state)
                        for state in fsm.states}
            assert [(state, list(vector.items())) for state, vector
                    in generated.output_vectors.items()] == \
                [(state, list(vector.items())) for state, vector
                 in expected.items()], source
            assert interpreted.output_vectors == expected, source

            # the module lists what fsm.xml lists: each default once and
            # each state's own assignments, not states x outputs
            assert _listed(generated.source) == len(fsm.outputs) + sum(
                len(state.assigns) for state in fsm.states.values()), source

            # assignment order is not part of the FSM: the twin has the
            # same digest, the same text and the same fsm cache entry
            twin = _reordered(fsm)
            assert fsm_digest(twin) == fsm_digest(fsm), source
            assert fsm_to_python(twin) == generated.source, source
            to_python._BEHAVIOR_MEMO.clear()
            stores = fresh_fsm_cache.stores
            assert compile_fsm(twin).source == generated.source, source
            assert fresh_fsm_cache.stores == stores, source

    def test_behaviour_memo_keeps_the_newest_entries(self, fresh_fsm_cache):
        fsms = []
        for index in range(MEMO_ENTRIES + 10):
            fsm = Fsm(f"ctl{index}")
            fsm.add_state("S_done", final=True)
            fsms.append(fsm)
        behaviors = [compile_fsm(fsm) for fsm in fsms[:MEMO_ENTRIES]]
        assert compile_fsm(fsms[0]) is behaviors[0]  # now the newest
        behaviors += [compile_fsm(fsm) for fsm in fsms[MEMO_ENTRIES:]]
        assert len(to_python._BEHAVIOR_MEMO) == MEMO_ENTRIES
        for index in (0, 11, MEMO_ENTRIES + 9):
            assert compile_fsm(fsms[index]) is behaviors[index]
        assert compile_fsm(fsms[1]) is not behaviors[1]
        assert len(to_python._BEHAVIOR_MEMO) == MEMO_ENTRIES

    def test_unknown_state_raises(self):
        behavior = compile_fsm(build_fsm())
        with pytest.raises(ValueError, match="unknown state"):
            behavior.next_state("S_ghost", {})

    def test_source_is_line_countable(self):
        source = fsm_to_python(build_fsm())
        assert count_lines(source) > 20
        assert "def next_state" in source

    def test_via_engine(self):
        assert "def next_state" in translate(build_fsm(), "python")


class TestRtgCodegen:
    def test_generated_control(self):
        control = compile_rtg(build_rtg())
        assert control.start == "cfg0"
        assert control.next_configuration("cfg0", {}) == "cfg1"
        assert control.next_configuration("cfg1", {}) is None
        assert "cfg0" in control.configurations

    def test_generated_matches_interpreted(self):
        rtg = build_rtg()
        generated = compile_rtg(rtg)
        interpreted = InterpretedRtgControl(rtg)
        for name in rtg.configurations:
            assert generated.next_configuration(name, {}) == \
                interpreted.next_configuration(name, {})

    def test_unknown_configuration_raises(self):
        control = compile_rtg(build_rtg())
        with pytest.raises(ValueError, match="unknown configuration"):
            control.next_configuration("ghost", {})

    def test_source_via_engine(self):
        assert "def next_configuration" in translate(build_rtg(), "python")
