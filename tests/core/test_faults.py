"""Tests for E5's compiler-bug mutants (qualifying the infrastructure
itself), which run as mutation kinds of the :mod:`repro.inject` engine."""

import random

import pytest

from repro.apps import (build_hamming, build_threshold, hamming_decode_kernel,
                        hamming_inputs, suite_case, threshold_inputs,
                        threshold_kernel)
from repro.cli import SUITE_SIZES, main
from repro.compiler import MemorySpec, compile_function
from repro.core import verify_design
from repro.inject import (FaultDescriptor, enumerate_mutants, mutate_design,
                          run_campaign)


@pytest.fixture(scope="module")
def design():
    return build_threshold(64)


@pytest.fixture(scope="module")
def inputs():
    return threshold_inputs(64)


def _mutant(kind, target, detail=""):
    return FaultDescriptor("m", kind, target, detail=detail)


def _campaign(design, func, inputs, mutants):
    return run_campaign(design, func, mutants, inputs, backend="event",
                        max_cycles=200_000)


class TestEnumeration:
    def test_covers_all_kinds(self, design):
        faults = enumerate_mutants(design)
        kinds = {fault.kind for fault in faults}
        assert kinds == {"const_value", "cmp_op", "mux_swap",
                         "branch_swap", "stuck_control",
                         "wrong_state_order"}

    def test_limit_per_kind(self, design):
        faults = enumerate_mutants(design, limit_per_kind=1)
        kinds = [fault.kind for fault in faults]
        assert len(kinds) == len(set(kinds))

    def test_done_never_a_stuck_target(self, design):
        faults = enumerate_mutants(design)
        assert not any(fault.kind == "stuck_control"
                       and fault.detail == "done" for fault in faults)


class TestInjection:
    def test_original_design_untouched(self, design, inputs):
        fault = _mutant("cmp_op", "u0_lt", "lt -> le")
        mutate_design(design, fault)
        # the original still verifies
        assert verify_design(design, threshold_kernel, inputs).passed

    def test_injected_cmp_fault_changes_behaviour(self, design, inputs):
        mutated = mutate_design(design, _mutant("cmp_op", "u0_lt"))
        assert mutated.configurations[0].datapath \
            .components["u0_lt"].type == "le"

    def test_multi_configuration_rejected(self):
        arrays = {"a": MemorySpec(16, 8, role="output")}

        def two(a, n=8):
            for i in range(n):
                a[i] = i
            for j in range(n):
                a[j] = a[j] + 1

        two_cfg = compile_function(two, arrays, partition_after=[0])
        with pytest.raises(ValueError, match="single-configuration"):
            mutate_design(two_cfg, _mutant("cmp_op", "u0_lt"))

    def test_unknown_kind_rejected(self, design):
        with pytest.raises(ValueError, match="unknown fault kind"):
            mutate_design(design, _mutant("cosmic_ray", "u0_lt"))
        # a hardware fault kind is known to the descriptor but no mutant
        with pytest.raises(ValueError, match="not mutation kinds"):
            mutate_design(design, FaultDescriptor("m", "stuck", "u0_lt"))


class TestCampaign:
    def test_baseline_must_pass(self, design):
        def wrong(pixels_in, pixels_out, n_pixels=64, cut=128):
            for i in range(n_pixels):
                pixels_out[i] = 1

        with pytest.raises(ValueError, match="baseline"):
            _campaign(design, wrong, threshold_inputs(64),
                      enumerate_mutants(design))

    def test_majority_of_faults_killed(self, design, inputs):
        result = _campaign(design, threshold_kernel, inputs,
                           enumerate_mutants(design))
        assert len(result.results) > 20
        assert result.kill_rate >= 0.7
        assert "campaign threshold" in result.summary()

    def test_specific_faults_detected(self, design, inputs):
        # a loop-bound bug and a swapped branch are must-kills
        for fault in (_mutant("cmp_op", "u0_lt", "lt -> le"),
                      _mutant("branch_swap", "S_for_head_0")):
            result = _campaign(design, threshold_kernel, inputs, [fault])
            assert result.results[0].verdict != "masked", fault.describe()

    def test_boundary_stimulus_kills_threshold_mutants(self, design):
        """The 128^1 constant and ge->gt survivors are stimulus-masked:
        an image containing the exact threshold value kills them."""
        boundary_faults = [_mutant("const_value", "k1", "value 128 ^ 1"),
                           _mutant("cmp_op", "u1_ge", "ge -> gt")]
        plain = threshold_inputs(64)
        weak = _campaign(design, threshold_kernel, plain, boundary_faults)
        assert weak.kill_rate < 1.0  # masked under generic stimulus

        image = plain["pixels_in"].copy()
        image.write(0, 128)  # boundary value present
        strong = _campaign(design, threshold_kernel, {"pixels_in": image},
                           boundary_faults)
        assert strong.kill_rate == 1.0

    def test_sampling(self, capsys):
        # `repro faults --sample` draws from the full enumeration with
        # the `--seed` RNG
        case = suite_case("threshold", **SUITE_SIZES["threshold"])
        drawn = random.Random(1).sample(enumerate_mutants(case.compile()),
                                        5)
        assert main(["faults", "threshold", "--sample", "5",
                     "--seed", "1"]) == 0
        rows = [line.split("] ", 1)[1]
                for line in capsys.readouterr().out.splitlines()
                if line.startswith("  [")]
        assert len(rows) == 5
        assert rows == [fault.describe() for fault in drawn]

    def test_hamming_campaign(self):
        design = build_hamming(32)
        result = _campaign(design, hamming_decode_kernel, hamming_inputs(32),
                           enumerate_mutants(design, limit_per_kind=3))
        assert result.kill_rate >= 0.6
