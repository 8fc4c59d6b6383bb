"""Tests for seeded faultload generation and JSON replay."""

import pytest

from repro.apps import suite_case
from repro.inject import (FaultDescriptor, FaultloadGenerator,
                          enumerate_mutants, load_faultload,
                          output_adjacent_nets, save_faultload)
from repro.inject.faultload import FAULT_KINDS, MUTATION_KINDS


@pytest.fixture(scope="module")
def design():
    return suite_case("threshold", n_pixels=32).compile()


class TestDescriptor:
    def test_rejects_unknown_kind(self):
        with pytest.raises(ValueError, match="unknown fault kind"):
            FaultDescriptor(fault_id="x", kind="gamma_ray", target="n")

    def test_rejects_bad_stuck_value(self):
        with pytest.raises(ValueError, match="stuck_value"):
            FaultDescriptor(fault_id="x", kind="stuck", target="n",
                            stuck_value=2)

    def test_rejects_negative_bit(self):
        with pytest.raises(ValueError, match="bit"):
            FaultDescriptor(fault_id="x", kind="stuck", target="n", bit=-1)

    def test_from_dict_rejects_unknown_fields(self):
        with pytest.raises(ValueError, match="unknown descriptor field"):
            FaultDescriptor.from_dict({"fault_id": "x", "kind": "stuck",
                                       "target": "n", "polarity": 1})

    def test_describe_mentions_the_target(self):
        fault = FaultDescriptor(fault_id="f1", kind="reg_flip",
                                target="n_reg_q", bit=3, state="S2",
                                cycle_lo=5, cycle_hi=9)
        text = fault.describe()
        assert "n_reg_q" in text and "S2" in text and "[5, 9]" in text


class TestGenerator:
    def test_same_seed_same_faultload(self, design):
        a = FaultloadGenerator(design, seed=7, max_cycle=200).generate(40)
        b = FaultloadGenerator(design, seed=7, max_cycle=200).generate(40)
        assert a == b

    def test_different_seed_differs(self, design):
        a = FaultloadGenerator(design, seed=7, max_cycle=200).generate(40)
        b = FaultloadGenerator(design, seed=8, max_cycle=200).generate(40)
        assert a != b

    def test_kinds_filter(self, design):
        faults = FaultloadGenerator(design, seed=0, max_cycle=100) \
            .generate(10, kinds=("mem_flip",))
        assert all(fault.kind == "mem_flip" for fault in faults)

    def test_unknown_kind_rejected(self, design):
        generator = FaultloadGenerator(design, seed=0)
        with pytest.raises(ValueError, match="unknown fault kind"):
            generator.generate(1, kinds=("cosmic",))

    def test_never_draws_a_mutation_kind(self, design):
        generator = FaultloadGenerator(design, seed=2, max_cycle=100)
        assert {fault.kind for fault in generator.generate(60)} \
            == set(FAULT_KINDS)
        for kind in MUTATION_KINDS:
            with pytest.raises(ValueError, match="unknown fault kind"):
                generator.generate(1, kinds=(kind,))

    def test_windows_respect_max_cycle(self, design):
        faults = FaultloadGenerator(design, seed=3, max_cycle=50) \
            .generate(30, kinds=("reg_flip",))
        assert all(1 <= fault.cycle_lo <= fault.cycle_hi <= 50
                   for fault in faults)

    def test_targets_exist_in_the_design(self, design):
        datapath = design.configurations[0].datapath
        faults = FaultloadGenerator(design, seed=1, max_cycle=100) \
            .generate(30)
        for fault in faults:
            if fault.kind == "mem_flip":
                assert fault.target in design.arrays
            else:
                assert fault.target in datapath.nets


class TestMutants:
    def test_ids_follow_the_full_enumeration(self, design):
        mutants = enumerate_mutants(design)
        assert [fault.fault_id for fault in mutants] \
            == [f"m{index:05d}" for index in range(len(mutants))]
        limited = enumerate_mutants(design, limit_per_kind=1)
        assert [fault.kind for fault in limited] == list(MUTATION_KINDS)
        assert all(fault in mutants for fault in limited)

    def test_round_trip_and_describe(self, design, tmp_path):
        mutants = enumerate_mutants(design)
        path = save_faultload(mutants, tmp_path / "mutants.json")
        assert load_faultload(path) == mutants
        cmp_op = next(fault for fault in mutants if fault.kind == "cmp_op")
        assert cmp_op.describe() == \
            f"{cmp_op.fault_id}: cmp_op @ u0_lt (lt -> le)"


class TestSerialisation:
    def test_round_trip(self, design, tmp_path):
        faults = FaultloadGenerator(design, seed=5, max_cycle=100) \
            .generate(12)
        path = save_faultload(faults, tmp_path / "load.json")
        assert load_faultload(path) == faults

    def test_bare_descriptor_and_bare_list_load(self, tmp_path):
        fault = FaultDescriptor(fault_id="f0", kind="stuck", target="n")
        single = tmp_path / "one.json"
        single.write_text('{"fault_id": "f0", "kind": "stuck", '
                          '"target": "n"}')
        assert load_faultload(single) == [fault]
        listed = tmp_path / "list.json"
        listed.write_text('[{"fault_id": "f0", "kind": "stuck", '
                          '"target": "n"}]')
        assert load_faultload(listed) == [fault]

    def test_garbage_is_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('"just a string"')
        with pytest.raises(ValueError, match="not a faultload"):
            load_faultload(path)


class TestOutputAdjacent:
    def test_finds_a_net_for_every_injectable_app(self):
        # every single-configuration app writes an output memory, so
        # each must expose at least one SDC-canary target for the CI
        # smoke gate; multi-configuration designs are refused
        from repro.apps import CASE_BUILDERS

        sizes = {"fdct1": {"pixels": 64}, "fdct2": {"pixels": 64},
                 "idct": {"pixels": 64}, "hamming": {"n_words": 16},
                 "fir": {"n_out": 16, "taps": 4}, "matmul": {"n": 4},
                 "threshold": {"n_pixels": 32}, "popcount": {"n_words": 16}}
        for name in CASE_BUILDERS:
            compiled = suite_case(name, **sizes.get(name, {})).compile()
            if compiled.multi_configuration:
                with pytest.raises(ValueError,
                                   match="single-configuration"):
                    output_adjacent_nets(compiled)
                continue
            nets = output_adjacent_nets(compiled)
            assert nets, f"{name} exposes no output-adjacent nets"
            datapath = compiled.configurations[0].datapath
            assert all(net in datapath.nets for net in nets)
