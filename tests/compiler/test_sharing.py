"""Tests for resource sharing (the alternative binding mode)."""

import pytest

from repro.compiler import CompileError, MemorySpec, compile_function
from repro.core import verify_design
from repro.hdl import load_rtg_bundle
from repro.rtg import ReconfigurationContext, RtgExecutor

ARRAYS = {
    "src": MemorySpec(16, 16, signed=False, role="input"),
    "dst": MemorySpec(32, 16, role="output"),
}


def poly_kernel(src, dst, n=16):
    """Three multiplies per iteration, sequentially dependent via loads."""
    for i in range(n):
        a = src[i] * 3
        b = src[i] * src[i]
        dst[i] = a * 7 + b


INPUTS = {"src": list(range(1, 17))}


class TestAllocation:
    def test_expensive_shares_multipliers(self):
        spatial = compile_function(poly_kernel, ARRAYS, sharing="none")
        shared = compile_function(poly_kernel, ARRAYS, sharing="expensive")
        muls_spatial = spatial.configurations[0].datapath \
            .operator_histogram().get("mul", 0)
        muls_shared = shared.configurations[0].datapath \
            .operator_histogram().get("mul", 0)
        assert muls_spatial == 3
        assert muls_shared < muls_spatial

    def test_all_reduces_functional_units(self):
        """Sharing trades functional units for muxes: FU count must drop,
        mux count may rise (net win only on mul-heavy designs)."""

        def functional_units(design):
            histogram = design.configurations[0].datapath \
                .operator_histogram()
            return sum(count for kind, count in histogram.items()
                       if kind not in ("mux", "const", "reg", "sram"))

        spatial = compile_function(poly_kernel, ARRAYS, sharing="none")
        shared = compile_function(poly_kernel, ARRAYS, sharing="all")
        assert functional_units(shared) < functional_units(spatial)
        muxes = lambda d: d.configurations[0].datapath \
            .operator_histogram().get("mux", 0)
        assert muxes(shared) >= muxes(spatial)

    def test_shared_units_get_fsel_controls(self):
        shared = compile_function(poly_kernel, ARRAYS, sharing="expensive")
        dp = shared.configurations[0].datapath
        fsels = [name for name in dp.controls if name.startswith("fsel_")]
        assert fsels
        # one select line drives both operand muxes of a binary unit
        assert any(len(dp.controls[name].targets) == 2 for name in fsels)

    def test_single_combo_unit_needs_no_mux(self):
        # one multiply only: shared binding must not add sharing muxes
        def one_mul(src, dst, n=4):
            for i in range(n):
                dst[i] = src[i] * 5

        design = compile_function(one_mul, ARRAYS, sharing="expensive")
        dp = design.configurations[0].datapath
        assert not any(name.startswith("fsel_") for name in dp.controls)

    def test_bad_sharing_value_rejected(self):
        with pytest.raises(CompileError, match="sharing"):
            compile_function(poly_kernel, ARRAYS, sharing="some")

    def test_sharing_does_not_change_schedule(self):
        spatial = compile_function(poly_kernel, ARRAYS, sharing="none")
        shared = compile_function(poly_kernel, ARRAYS, sharing="all")
        assert spatial.configurations[0].fsm.state_count() == \
            shared.configurations[0].fsm.state_count()


class TestEquivalence:
    @pytest.mark.parametrize("sharing", ["none", "expensive", "all"])
    def test_verifies_against_golden(self, sharing):
        design = compile_function(poly_kernel, ARRAYS, sharing=sharing)
        result = verify_design(design, poly_kernel, INPUTS)
        assert result.passed, result.summary()

    def test_all_modes_same_cycles_and_outputs(self):
        outcomes = {}
        for sharing in ("none", "expensive", "all"):
            design = compile_function(poly_kernel, ARRAYS, sharing=sharing)
            result = verify_design(design, poly_kernel, INPUTS)
            outcomes[sharing] = result.cycles
        assert len(set(outcomes.values())) == 1  # sharing is zero-cycle

    def test_sharing_with_partitions(self):
        def two_pass(src, dst, n=16):
            s = 0
            for i in range(n):
                s = s + src[i] * src[i]
            for j in range(n):
                dst[j] = src[j] * s

        design = compile_function(two_pass, ARRAYS, sharing="all",
                                  partition_after=[1])
        result = verify_design(design, two_pass, INPUTS)
        assert result.passed, result.summary()

    def test_shared_design_xml_roundtrip(self, tmp_path):
        """fsel controls must survive the XML dialects."""
        design = compile_function(poly_kernel, ARRAYS, sharing="all",
                                  name="shared")
        design.save(tmp_path)
        rtg = load_rtg_bundle(tmp_path / "shared_rtg.xml")
        from repro.util.files import MemoryImage

        src = MemoryImage(16, 16, words=INPUTS["src"], name="src")
        context = ReconfigurationContext.from_rtg(rtg, initial={"src": src})
        RtgExecutor(rtg, context).run()
        expected = [i * 3 * 7 + i * i for i in INPUTS["src"]]
        assert context.memory("dst").words() == expected

    @pytest.mark.parametrize("seed", [2, 11, 23])
    def test_differential_with_sharing(self, seed):
        from tests.integration.test_differential import (ARRAYS as GEN_ARRAYS,
                                                         DEPTH,
                                                         ProgramGenerator)
        import random

        source = ProgramGenerator(seed).generate()
        namespace = {}
        exec(compile(source, "<gen>", "exec"), namespace)
        kernel = namespace["kernel"]
        rng = random.Random(seed + 99)
        inputs = {"src": [rng.randrange(256) for _ in range(DEPTH)]}
        design = compile_function(source, GEN_ARRAYS, sharing="all",
                                  name=f"gen{seed}")
        result = verify_design(design, kernel, inputs,
                               max_cycles=2_000_000)
        assert result.passed, f"{result.summary()}\n{source}"


MIXED_ARRAYS = {
    "src": MemorySpec(32, 4, role="input"),
    "dst": MemorySpec(32, 4, role="output"),
}


def not_at_two_widths(src, dst):
    """A 1-bit logical ``not`` next to a word-wide ``~``: both are
    ``not`` units, in two width pools (a reduced fuzz program)."""
    if (not (src[0] > 0)):
        pass
    else:
        dst[0] = (~src[0])


def and_at_two_widths(src, dst):
    """A logical ``and`` condition next to a word-wide ``&`` index."""
    if (src[0] > 0) and (src[1] > 2):
        dst[(src[0] & 1)] = 5


class TestOneOperatorAtTwoWidths:
    """Shared units are pooled per (operator, width) and named after
    both, so an operator used at two widths gets two distinct units."""

    @pytest.mark.parametrize("backend", ["event", "compiled"])
    @pytest.mark.parametrize("func", [not_at_two_widths, and_at_two_widths])
    def test_verifies_against_golden(self, func, backend):
        design = compile_function(func, MIXED_ARRAYS, sharing="all")
        for words in ([0, 0, 0, 0], [5, 7, 1, 2], [0xFFFFFFFF, 3, 9, 4]):
            result = verify_design(design, func, {"src": words},
                                   backend=backend)
            assert result.passed, result.summary()

    def test_units_are_named_by_width(self):
        design = compile_function(not_at_two_widths, MIXED_ARRAYS,
                                  sharing="all")
        units = {name for name in design.configurations[0].datapath.components
                 if name.startswith("su")}
        assert {"su0_not_w1", "su0_not_w32"} <= units
