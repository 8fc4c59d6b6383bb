"""Batched execution differential: batch-of-N must equal N fresh runs.

A batch runs N independent stimulus sets one after another on one
elaboration per configuration, rewinding it to its post-elaboration
snapshot and copying each lane's memory words in and out.  That
machinery is pure bookkeeping: every lane must produce bit-for-bit the
cycles and memory contents a fresh run of the same stimulus produces on
the same backend — under *every* registered backend.  Data-dependent
run lengths matter most: ``popcount``'s cycle count depends on its
input, so a lane that inherited anything from the lane before it would
show.
"""

import pytest

from repro.apps import CASE_BUILDERS, suite_case
from repro.core import prepare_images, verify_design_batch
from repro.hdl import Fsm, parse_condition
from repro.rtg import (ReconfigurationContext, RtgBatchExecutor,
                       RtgExecutor)
from repro.sim import SIMULATOR_BACKENDS, LaneBatch
from repro.translate import build_simulation
from repro.util.files import MemoryImage

from tests.hdl.test_datapath import build_sample

SMALL_SIZES = {
    "fdct1": {"pixels": 64},
    "fdct2": {"pixels": 64},
    "idct": {"pixels": 64},
    "hamming": {"n_words": 16},
    "fir": {"n_out": 16, "taps": 4},
    "matmul": {"n": 4},
    "threshold": {"n_pixels": 32},
    "popcount": {"n_words": 16},
}

BATCH = 4


def _serial(design, inputs, backend):
    images = prepare_images(design, inputs)
    context = ReconfigurationContext.from_rtg(design.rtg, initial=images)
    result = RtgExecutor(design.rtg, context, backend=backend).run()
    memories = {name: tuple(context.memory(name).words())
                for name in context.memories}
    return result.total_cycles, memories


def _batched(design, inputs_list, backend):
    contexts = [
        ReconfigurationContext.from_rtg(
            design.rtg, initial=prepare_images(design, inputs))
        for inputs in inputs_list
    ]
    report = RtgBatchExecutor(design.rtg, contexts, backend=backend).run()
    lanes = []
    for context, lane in zip(contexts, report.lanes):
        memories = {name: tuple(context.memory(name).words())
                    for name in context.memories}
        lanes.append((lane.total_cycles, memories))
    return report, lanes


@pytest.mark.parametrize("name", sorted(CASE_BUILDERS))
def test_batch_equals_serial_every_backend(name):
    """One batch of BATCH seeds vs BATCH fresh runs, per backend."""
    case = suite_case(name, **SMALL_SIZES[name])
    design = case.compile()
    inputs_list = [case.inputs(seed) for seed in range(BATCH)]
    for backend in sorted(SIMULATOR_BACKENDS):
        report, lanes = _batched(design, inputs_list, backend)
        assert report.batch_size == BATCH
        for seed, (cycles, memories) in enumerate(lanes):
            ref_cycles, ref_memories = _serial(design, inputs_list[seed],
                                               backend)
            assert cycles == ref_cycles, \
                f"{name}: {backend} lane {seed} took {cycles} cycles, " \
                f"a fresh {backend} run took {ref_cycles}"
            assert memories == ref_memories, \
                f"{name}: {backend} lane {seed} memories diverge"


def test_lane_divergence_stays_bit_exact():
    """popcount lanes finish at data-dependent cycle counts; each lane
    must start from the rewound design, not from where the last lane
    stopped."""
    case = suite_case("popcount", **SMALL_SIZES["popcount"])
    design = case.compile()
    inputs_list = [case.inputs(seed) for seed in range(BATCH)]
    _, lanes = _batched(design, inputs_list, "traced")
    cycle_counts = {cycles for cycles, _ in lanes}
    assert len(cycle_counts) > 1, \
        "popcount stopped being data-dependent; pick another design"
    for seed, (cycles, memories) in enumerate(lanes):
        assert (cycles, memories) == _serial(design, inputs_list[seed],
                                             "traced")


def test_multi_configuration_batch():
    """fdct2 reconfigures mid-run: the batch must regroup lanes per
    configuration and elaborate each configuration once, not per lane."""
    case = suite_case("fdct2", **SMALL_SIZES["fdct2"])
    design = case.compile()
    assert design.multi_configuration
    inputs_list = [case.inputs(seed) for seed in range(BATCH)]
    report, lanes = _batched(design, inputs_list, "traced")
    assert report.elaborations == len(design.rtg.configurations)
    for seed, (cycles, memories) in enumerate(lanes):
        assert (cycles, memories) == _serial(design, inputs_list[seed],
                                             "traced")


@pytest.mark.parametrize("name", ["fdct1", "hamming"])
def test_verify_design_batch_passes(name):
    case = suite_case(name, **SMALL_SIZES[name])
    design = case.compile()
    inputs_list = [case.inputs(seed) for seed in range(BATCH)]
    result = verify_design_batch(design, case.func, inputs_list,
                                 backend="traced")
    assert result.passed, result.summary()
    assert result.backend == "traced"
    assert result.batch_size == BATCH
    assert len(result.lanes) == BATCH
    assert result.lane_seconds > 0
    for lane in result.lanes:
        assert lane.passed
        assert lane.backend == "traced"


@pytest.mark.parametrize("backend", sorted(SIMULATOR_BACKENDS))
def test_lanes_without_a_done_output(backend):
    """A design with no ``done`` line runs each lane to its final
    state, like ``run_to_done`` does."""
    fsm = Fsm("ctl")
    fsm.add_input("st_lt")
    fsm.add_output("en_acc")
    fsm.add_output("we_buf")
    fsm.add_state("S_idle").transition("S_run")
    run = fsm.add_state("S_run")
    run.assign("en_acc", 1)
    run.assign("we_buf", 1)
    run.transition("S_run", parse_condition("st_lt"))
    run.transition("S_done")
    fsm.add_state("S_done", final=True)

    def image():
        return MemoryImage(16, 64, words=[7] * 64)

    fresh = build_simulation(build_sample(), fsm, backend=backend,
                             memories={"buf": image()})
    cycles = fresh.run_to_done(max_cycles=100)
    design = build_simulation(build_sample(), fsm, backend=backend,
                              memories={"buf": MemoryImage(16, 64)})
    assert design.done_signal is None
    lanes = [{"buf": image()} for _ in range(2)]
    report = LaneBatch(design, lanes).run(max_cycles=100)
    assert report.all_done
    assert report.cycles == [cycles, cycles]
    assert report.final_states == ["S_done", "S_done"]
    for lane in lanes:
        assert lane["buf"].words() == fresh.memory("buf").words()


class TestLaneBatchValidation:
    """LaneBatch refuses malformed lane memory sets up front —
    mis-shaped lanes must be a loud ValueError, never a
    silently-wrong simulation."""

    def _design(self):
        case = suite_case("fir", **SMALL_SIZES["fir"])
        compiled = case.compile()
        name, ref = next(iter(sorted(compiled.rtg.configurations.items())))
        scratch = {
            decl.name: MemoryImage(decl.width, decl.depth, name=decl.name)
            for decl in compiled.rtg.memories.values()
        }
        design = build_simulation(ref.datapath, ref.fsm, memories=scratch,
                                  backend="traced")
        return compiled, design

    def _lane(self, compiled, seed=0):
        case = suite_case("fir", **SMALL_SIZES["fir"])
        images = prepare_images(compiled, case.inputs(seed))
        context = ReconfigurationContext.from_rtg(compiled.rtg,
                                                  initial=images)
        return dict(context.memories)

    def test_missing_memory_is_unsupported(self):
        compiled, design = self._design()
        try:
            lane = self._lane(compiled)
            lane.pop(next(iter(sorted(lane))))
            with pytest.raises(ValueError, match="missing"):
                LaneBatch(design, [lane])
        finally:
            design.release()

    def test_shape_mismatch_is_unsupported(self):
        compiled, design = self._design()
        try:
            lane = self._lane(compiled)
            name = next(iter(sorted(lane)))
            bad = MemoryImage(lane[name].width, lane[name].depth + 1,
                              name=name)
            lane[name] = bad
            with pytest.raises(ValueError, match="design binds"):
                LaneBatch(design, [lane])
        finally:
            design.release()

    def test_aliased_bound_image_is_unsupported(self):
        compiled, design = self._design()
        try:
            lane = self._lane(compiled)
            name = next(iter(sorted(lane)))
            lane[name] = design.memories[name]
            with pytest.raises(ValueError, match="alias"):
                LaneBatch(design, [lane])
        finally:
            design.release()
