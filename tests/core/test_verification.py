"""Tests for verification, stimulus and metrics reporting."""

import ast
from pathlib import Path

import pytest

from repro.apps import suite_case
from repro.compiler import SPILL_MEMORY, MemorySpec, compile_function
from repro.core import (check_memories, collect_metrics, format_table,
                        golden_reference, prepare_images, ramp_image,
                        random_words, synthetic_image, verification,
                        verify_design, write_stimulus_files,
                        load_stimulus_files)
from repro.util.files import MemoryImage

ARRAYS = {
    "src": MemorySpec(16, 8, signed=False, role="input"),
    "dst": MemorySpec(32, 8, role="output"),
}


def double(src, dst, n=8):
    for i in range(n):
        dst[i] = src[i] * 2


def build():
    return compile_function(double, ARRAYS)


class TestStimulus:
    def test_random_words_deterministic(self):
        a = random_words(16, 8, seed=3)
        b = random_words(16, 8, seed=3)
        c = random_words(16, 8, seed=4)
        assert a == b
        assert a != c

    def test_random_words_range(self):
        image = random_words(64, 8, seed=1, low=5, high=9)
        assert all(5 <= word <= 9 for word in image)

    def test_synthetic_image_bounds(self):
        image = synthetic_image(256, seed=7)
        assert all(0 <= pixel <= 255 for pixel in image)

    def test_synthetic_image_not_constant(self):
        image = synthetic_image(256, seed=7)
        assert len(set(image.words())) > 10

    @pytest.mark.parametrize("seed", [0, 1, 7, 1234])
    @pytest.mark.parametrize("width,low,high", [
        (1, 0, None), (8, 0, None), (8, 5, 9), (16, 0, 1000),
        (32, 0, None), (33, 0, None), (64, 7, (1 << 63) + 5),
        (12, 3, 3)])
    def test_random_words_are_randint_draws(self, seed, width, low, high):
        """Word for word what one ``randint`` call per word draws."""
        import random

        rng = random.Random(seed)
        top = (1 << width) - 1 if high is None else high
        expected = [rng.randint(low, top) for _ in range(300)]
        image = random_words(300, width, seed=seed, low=low, high=high)
        assert image.words() == expected

    @pytest.mark.parametrize("seed", [0, 3, 99])
    @pytest.mark.parametrize("pixels,max_value", [
        (1, 255), (2, 255), (64, 255), (1000, 255), (777, 4095), (50, 10)])
    def test_synthetic_image_is_the_randint_formula(self, seed, pixels,
                                                    max_value):
        import random

        rng = random.Random(seed)
        expected = []
        for index in range(pixels):
            gradient = (index * max_value) // max(pixels - 1, 1)
            noise = rng.randint(-24, 24)
            expected.append(min(max(gradient // 2 + noise + max_value // 4,
                                    0), max_value))
        image = synthetic_image(pixels, seed=seed, max_value=max_value)
        assert image.words() == expected

    def test_random_words_refuse_an_empty_range(self):
        with pytest.raises(ValueError):
            random_words(4, 8, seed=0, low=9, high=5)

    def test_ramp(self):
        image = ramp_image(5, width=8, step=3)
        assert image.words() == [0, 3, 6, 9, 12]

    def test_stimulus_file_roundtrip(self, tmp_path):
        images = {"a": random_words(8, 16, seed=1, name="a"),
                  "b": ramp_image(8, name="b")}
        paths = write_stimulus_files(tmp_path, images)
        assert sorted(p.name for p in paths.values()) == ["a.mem", "b.mem"]
        loaded = load_stimulus_files(tmp_path, ["a", "b"])
        assert loaded["a"] == images["a"]
        assert loaded["b"] == images["b"]


class TestPrepareImages:
    def test_sequences_and_images_accepted(self):
        design = build()
        images = prepare_images(design, {
            "src": [1, 2, 3],
        })
        assert images["src"].words()[:4] == [1, 2, 3, 0]
        assert images["dst"].words() == [0] * 8

    def test_wrong_shape_rejected(self):
        design = build()
        with pytest.raises(ValueError, match="design expects"):
            prepare_images(design, {"src": MemoryImage(16, 9)})

    def test_unknown_input_rejected(self):
        design = build()
        with pytest.raises(ValueError, match="unknown arrays"):
            prepare_images(design, {"ghost": [1]})

    def test_supplied_image_copied(self):
        design = build()
        src = MemoryImage(16, 8, words=[5] * 8)
        images = prepare_images(design, {"src": src})
        images["src"].write(0, 9)
        assert src.read(0) == 5


class TestOracle:
    @pytest.fixture(scope="class")
    def fdct2(self):
        """Two configurations and a spill memory, which golden never
        sees and the oracle never compares."""
        case = suite_case("fdct2", pixels=64)
        design = case.compile()
        return design, golden_reference(design, case.func, case.inputs(0))

    def test_golden_runs_on_copies_of_the_start_images(self, fdct2):
        design, (start, golden) = fdct2
        assert list(start) == list(design.arrays)
        assert SPILL_MEMORY in start and SPILL_MEMORY not in golden
        assert list(golden) == ["img_in", "img_mid", "img_out"]
        assert golden["img_in"] == start["img_in"]
        assert start["img_out"].words() == [0] * 64
        assert golden["img_out"].words() != [0] * 64

    def test_arrays_compared(self, fdct2):
        design, (start, golden) = fdct2
        memories = {**start, **{name: image.copy()
                                for name, image in golden.items()}}
        memories["img_mid"].write(3, memories["img_mid"].read(3) ^ 1)
        checks = check_memories(design, golden, memories)
        assert [(check.memory, check.role, check.words, check.passed)
                for check in checks] == [
            ("img_in", "input", 64, True),
            ("img_mid", "intermediate", 64, False),
            ("img_out", "output", 64, True)]
        (outputs,) = check_memories(design, golden, memories,
                                    compare="outputs")
        assert (outputs.memory, outputs.passed) == ("img_out", True)

    def test_mismatches_are_limited(self, fdct2):
        design, (start, golden) = fdct2
        (check,) = check_memories(design, golden, start,
                                  compare="outputs", limit=3)
        assert [mismatch.address for mismatch in check.mismatches] == \
            [0, 1, 2]

    def test_no_other_module_runs_golden_or_compares(self):
        """The oracle is the one place in the package that calls
        ``run_golden`` or ``compare_images``; definitions, imports and
        re-exports elsewhere are fine."""
        oracle = Path(verification.__file__).resolve()
        package = oracle.parents[1]

        def callee(node):
            func = node.func
            return getattr(func, "id", None) or getattr(func, "attr", None)

        callers = sorted(
            f"{path.relative_to(package).as_posix()}:{node.lineno}"
            for path in package.rglob("*.py") if path != oracle
            for node in ast.walk(ast.parse(path.read_text()))
            if isinstance(node, ast.Call)
            and callee(node) in ("run_golden", "compare_images"))
        assert callers == []


class TestVerifyDesign:
    def test_pass(self):
        result = verify_design(build(), double, {"src": list(range(8))})
        assert result.passed
        assert result.cycles > 8
        assert result.reconfigurations == 0
        assert {check.memory for check in result.checks} == {"src", "dst"}
        assert "PASS" in result.summary()

    def test_outputs_only_mode(self):
        result = verify_design(build(), double, {"src": [1] * 8},
                               compare="outputs")
        assert [check.memory for check in result.checks] == ["dst"]

    def test_bad_compare_mode(self):
        with pytest.raises(ValueError, match="compare"):
            verify_design(build(), double, compare="some")

    def test_detects_wrong_golden(self):
        def wrong(src, dst, n=8):
            for i in range(n):
                dst[i] = src[i] * 3  # deliberately different

        result = verify_design(build(), wrong, {"src": [1] * 8})
        assert not result.passed
        failed = result.failed_checks()
        assert [check.memory for check in failed] == ["dst"]
        first = failed[0].mismatches[0]
        assert (first.expected, first.actual) == (3, 2)
        assert "FAIL" in result.summary()

    def test_mismatch_limit_respected(self):
        def wrong(src, dst, n=8):
            for i in range(n):
                dst[i] = src[i] + 1

        result = verify_design(build(), wrong, {"src": [3] * 8},
                               mismatch_limit=3)
        assert len(result.failed_checks()[0].mismatches) == 3


class TestMetrics:
    def test_collect(self):
        design = build()
        metrics = collect_metrics(design, simulation_seconds=1.25,
                                  cycles=100)
        assert metrics.name == "double"
        assert metrics.lo_source >= 3
        config = metrics.configurations[0]
        assert config.lo_xml_datapath > 10
        assert config.lo_xml_fsm > 5
        assert config.lo_generated_fsm > 10
        assert config.operators == design.total_operators()

    def test_format_table_single(self):
        table = format_table([collect_metrics(build(),
                                              simulation_seconds=0.5)])
        assert "double" in table
        assert "0.5" in table
        assert "Operators" in table

    def test_format_table_multi_configuration_stacks(self):
        def two(src, dst, n=8):
            for i in range(n):
                dst[i] = src[i]
            for j in range(n):
                dst[j] = dst[j] + 1

        design = compile_function(two, ARRAYS, partition_after=[0])
        table = format_table([collect_metrics(design)])
        lines = table.splitlines()
        data_lines = [line for line in lines[2:] if line.strip()]
        assert len(data_lines) == 2  # one per configuration
        assert data_lines[0].startswith("two")
        assert data_lines[1].startswith(" ")  # continuation row
