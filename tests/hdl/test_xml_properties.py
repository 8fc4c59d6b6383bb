"""Property tests: XML round trips over randomly generated models.

The dialects are the compiler/infrastructure contract; these properties
assert ``read(write(x))`` preserves everything observable for FSMs and
RTGs drawn from a structured random generator (names, widths, defaults,
guards, finality, transition order — order matters because guards are
evaluated first-match).  Table I's loXML columns count lines from the
element trees instead of the printed text; the last two tests hold the
two counts equal.
"""

from hypothesis import given, settings, strategies as st

from repro.apps import CASE_BUILDERS, suite_case
from repro.compiler.pipeline import compile_function
from repro.fuzz.generator import generate
from repro.hdl import (Fsm, Rtg, read_fsm, read_rtg, write_datapath,
                       write_fsm, write_rtg)
from repro.hdl.model.expressions import And, Const, Not, Or, Var
from repro.hdl.xmlio.common import count_pretty_lines
from repro.hdl.xmlio.datapath_xml import datapath_tree
from repro.hdl.xmlio.fsm_xml import fsm_tree
from repro.util.loc import count_lines

_NAMES = st.from_regex(r"[a-z][a-z0-9_]{0,8}", fullmatch=True)


@st.composite
def conditions(draw, inputs):
    """A guard over the declared inputs (depth <= 2)."""
    if not inputs:
        return Const(draw(st.integers(0, 1)))
    base = st.one_of(
        st.sampled_from(inputs).map(Var),
        st.integers(0, 1).map(Const),
    )
    node = draw(st.integers(0, 3))
    if node == 0:
        return draw(base)
    if node == 1:
        return Not(draw(base))
    left, right = draw(base), draw(base)
    return And(left, right) if node == 2 else Or(left, right)


@st.composite
def fsms(draw):
    fsm = Fsm(draw(_NAMES))
    inputs = draw(st.lists(_NAMES, min_size=0, max_size=3, unique=True))
    for name in inputs:
        fsm.add_input(name)
    n_outputs = draw(st.integers(1, 4))
    outputs = []
    for index in range(n_outputs):
        width = draw(st.integers(1, 8))
        name = f"o{index}"
        fsm.add_output(name, width=width,
                       default=draw(st.integers(0, (1 << width) - 1)))
        outputs.append((name, width))
    n_states = draw(st.integers(1, 5))
    state_names = [f"s{index}" for index in range(n_states)]
    final = draw(st.sampled_from(state_names))
    for name in state_names:
        state = fsm.add_state(name, final=name == final)
        for output, width in outputs:
            if draw(st.booleans()):
                state.assign(output, draw(st.integers(0,
                                                      (1 << width) - 1)))
        n_guarded = draw(st.integers(0, 2))
        for _ in range(n_guarded):
            state.transition(draw(st.sampled_from(state_names)),
                             draw(conditions(inputs)))
        if name != final or draw(st.booleans()):
            state.transition(draw(st.sampled_from(state_names)))
    fsm.validate()
    return fsm


@given(fsms())
@settings(max_examples=60, deadline=None)
def test_fsm_roundtrip_preserves_everything(fsm):
    loaded = read_fsm(write_fsm(fsm))
    assert loaded.name == fsm.name
    assert loaded.inputs == fsm.inputs
    assert loaded.reset_state == fsm.reset_state
    assert loaded.final_states == fsm.final_states
    assert loaded.state_names == fsm.state_names
    for name in fsm.states:
        assert loaded.output_vector(name) == fsm.output_vector(name)
        original = fsm.states[name].transitions
        reloaded = loaded.states[name].transitions
        assert [t.target for t in original] == [t.target for t in reloaded]
        # guard semantics preserved under every input assignment
        inputs = fsm.inputs
        for bits in range(1 << len(inputs)):
            env = {input_name: (bits >> position) & 1
                   for position, input_name in enumerate(inputs)}
            assert loaded.next_state(name, env) == fsm.next_state(name, env)


@st.composite
def rtgs(draw):
    rtg = Rtg(draw(_NAMES))
    n_configs = draw(st.integers(1, 4))
    names = [f"c{index}" for index in range(n_configs)]
    for index, name in enumerate(names):
        rtg.add_configuration(name, final=index == n_configs - 1)
    for index in range(n_configs - 1):
        rtg.add_transition(names[index], names[index + 1])
    n_memories = draw(st.integers(0, 3))
    for index in range(n_memories):
        rtg.add_memory(f"m{index}", width=draw(st.integers(1, 32)),
                       depth=draw(st.integers(1, 1024)),
                       role=draw(st.sampled_from(
                           ["data", "input", "output", "intermediate"])))
    rtg.validate()
    return rtg


@given(rtgs())
@settings(max_examples=40, deadline=None)
def test_rtg_roundtrip_preserves_everything(rtg):
    loaded = read_rtg(write_rtg(rtg))
    assert loaded.name == rtg.name
    assert loaded.start == rtg.start
    assert list(loaded.configurations) == list(rtg.configurations)
    assert loaded.final_configurations == rtg.final_configurations
    for name in rtg.configurations:
        if name in rtg.final_configurations and \
                not rtg.transitions_from(name):
            assert loaded.next_configuration(name) is None
        else:
            assert loaded.next_configuration(name) == \
                rtg.next_configuration(name)
    for name, decl in rtg.memories.items():
        reloaded = loaded.memories[name]
        assert (reloaded.width, reloaded.depth, reloaded.role) == \
            (decl.width, decl.depth, decl.role)


def _configurations():
    """(source, configuration) for every configuration of the 8 apps
    (both of fdct2's) and of fuzz seeds 0-49."""
    for name in CASE_BUILDERS:
        for config in suite_case(name).compile().configurations:
            yield name, config
    for seed in range(50):
        program = generate(seed)
        design = compile_function(
            program.source, program.arrays, dict(program.params),
            name=program.name, word_width=program.word_width,
            n_partitions=program.n_partitions)
        for config in design.configurations:
            yield f"fuzz seed {seed}", config


def test_tree_line_counts_match_the_printed_documents():
    for source, config in _configurations():
        assert count_pretty_lines(fsm_tree(config.fsm)) \
            == count_lines(write_fsm(config.fsm)), source
        assert count_pretty_lines(datapath_tree(config.datapath)) \
            == count_lines(write_datapath(config.datapath)), source


@given(fsms())
@settings(max_examples=30, deadline=None)
def test_tree_line_count_matches_the_printed_fsm(fsm):
    assert count_pretty_lines(fsm_tree(fsm)) == count_lines(write_fsm(fsm))
