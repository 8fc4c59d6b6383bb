"""Replay every checked-in reproducer through every backend.

The corpus is the fuzzer's long-term memory: each file locks either a
fixed bug (must now pass), a known-open divergence (``xfail``: must keep
failing exactly as recorded), or an always-green regression program
(``kind: pass``).  Running the whole directory on every CI build keeps
old findings from quietly regressing — and keeps the oracle itself
honest, since an ``xfail`` wrap-divergence lock that suddenly "passes"
means the harness lost sensitivity, not that a bug was fixed.
"""

from pathlib import Path

import pytest

from repro.fuzz import load_corpus, run_program

CORPUS_DIR = Path(__file__).resolve().parents[2] / "fuzz" / "corpus"
CORPUS = load_corpus(CORPUS_DIR)


def test_corpus_is_checked_in():
    assert CORPUS, f"no corpus entries under {CORPUS_DIR}"


@pytest.mark.parametrize(
    "entry", CORPUS,
    ids=[entry.path.stem for entry in CORPUS])
def test_replay(entry):
    outcome = run_program(entry.program, input_seed=entry.input_seed)
    if entry.xfail:
        # a known-open divergence must keep failing exactly as recorded;
        # anything else means either the bug was fixed (drop the xfail)
        # or the oracle changed behaviour (investigate before touching)
        assert outcome.kind == entry.kind, (
            f"{entry.path.name} is marked xfail ({entry.xfail}) but now "
            f"classifies as {outcome.describe()} instead of {entry.kind}")
        if entry.exc_type:
            assert outcome.exc_type == entry.exc_type
    else:
        assert outcome.kind == "pass", (
            f"{entry.path.name} regressed: {outcome.describe()} "
            f"(recorded kind: {entry.kind})")


def test_replay_includes_optimized_backends():
    """The default replay above must keep exercising the compiled and
    trace-fusing kernels — dropping either from the registry would
    shrink the net."""
    from repro.fuzz.harness import DEFAULT_BACKENDS

    assert {"compiled", "traced"} <= set(DEFAULT_BACKENDS)


@pytest.mark.parametrize(
    "entry", CORPUS,
    ids=[entry.path.stem for entry in CORPUS])
def test_replay_traced_only(entry):
    """Every reproducer classifies identically when the hardware side
    runs on the traced backend (paired with the event reference so
    cross-backend outcome kinds stay reachable)."""
    outcome = run_program(entry.program, input_seed=entry.input_seed,
                          backends=("event", "traced"))
    expected = entry.kind if entry.xfail else "pass"
    assert outcome.kind == expected, (
        f"{entry.path.name} classifies as {outcome.describe()} through "
        f"the traced backend (recorded kind: {entry.kind})")
