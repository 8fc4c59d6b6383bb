"""E5 — does the infrastructure catch compiler bugs? (extension)

The paper's purpose is detecting regressions in compiler-generated
designs, but it never *measures* the detection capability.  This bench
does: a systematic fault-injection campaign over two benchmarks (every
applicable constant / comparator / mux / FSM fault), reporting the kill
rate and classifying the survivors — which turn out to be equivalent or
stimulus-masked mutants, the classic mutation-testing result.  One
targeted boundary-value stimulus demonstrably kills the masked ones.
"""

from collections import Counter

import pytest

from repro.apps import (build_hamming, build_threshold,
                        hamming_decode_kernel, hamming_inputs,
                        threshold_inputs, threshold_kernel)
from repro.inject import FaultDescriptor, enumerate_mutants, run_campaign

_CAMPAIGNS = {}


def _campaign(design, func, inputs, mutants):
    # the event kernel under the campaign's hang budget: a runaway
    # mutant costs 4x the fault-free cycles, not the whole max_cycles
    return run_campaign(design, func, mutants, inputs, backend="event",
                        max_cycles=200_000)


@pytest.mark.benchmark(group="faults")
def test_faults_threshold(benchmark):
    design = build_threshold(64)
    result = benchmark.pedantic(
        lambda: _campaign(design, threshold_kernel, threshold_inputs(64),
                          enumerate_mutants(design)),
        rounds=1, iterations=1)
    _CAMPAIGNS["threshold"] = result
    benchmark.extra_info["faults"] = len(result.results)
    benchmark.extra_info["killed"] = result.killed
    assert result.kill_rate >= 0.7


@pytest.mark.benchmark(group="faults")
def test_faults_hamming(benchmark):
    design = build_hamming(32)
    result = benchmark.pedantic(
        lambda: _campaign(design, hamming_decode_kernel, hamming_inputs(32),
                          enumerate_mutants(design, limit_per_kind=4)),
        rounds=1, iterations=1)
    _CAMPAIGNS["hamming"] = result
    benchmark.extra_info["faults"] = len(result.results)
    benchmark.extra_info["killed"] = result.killed
    assert result.kill_rate >= 0.6


@pytest.mark.benchmark(group="faults")
def test_faults_report(benchmark, report_writer):
    assert set(_CAMPAIGNS) == {"threshold", "hamming"}
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)

    # the boundary-stimulus refinement: masked threshold mutants die
    design = build_threshold(64)
    boundary_faults = [
        FaultDescriptor("k1", "const_value", "k1", detail="value 128 ^ 1"),
        FaultDescriptor("u1_ge", "cmp_op", "u1_ge", detail="ge -> gt")]
    image = threshold_inputs(64)["pixels_in"].copy()
    image.write(0, 128)
    refined = _campaign(design, threshold_kernel, {"pixels_in": image},
                        boundary_faults)
    assert refined.kill_rate == 1.0

    lines = ["E5 -- fault-injection campaign: does verification catch "
             "compiler-bug-shaped faults?", ""]
    lines.append("design     faults  killed  rate   surviving kinds")
    lines.append("---------  ------  ------  -----  ---------------")
    for name, result in _CAMPAIGNS.items():
        total = len(result.results)
        kinds = Counter(v.fault.kind for v in result.results
                        if v.verdict == "masked")
        kind_text = ", ".join(f"{k}x{c}" for k, c in kinds.items()) or "-"
        lines.append(f"{name:<9}  {total:<6}  {result.killed:<6}  "
                     f"{result.kill_rate:<5.0%}  {kind_text}")
    lines.append("")
    lines.append("survivors are equivalent or stimulus-masked mutants "
                 "(e.g. threshold 128 vs 129 with no boundary pixel); "
                 "adding one boundary-value pixel kills the masked pair "
                 "(2/2) — stimulus quality, not the comparison mechanism, "
                 "is the limiting factor.")
    report_writer("faults", "\n".join(lines) + "\n")
