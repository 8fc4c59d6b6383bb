"""Differential compiler fuzzing.

The paper's infrastructure re-verifies a fixed benchmark suite after
every compiler change; this package turns that oracle loose on *random*
programs.  A seeded generator emits restricted-Python algorithms the
compiler must accept, the harness runs each through the golden software
execution plus every simulation backend, and any divergence is
delta-minimized into a reproducer under ``fuzz/corpus/`` that the
regression suite replays forever after.

Entry points: ``python -m repro fuzz`` (CLI) or::

    from repro.fuzz import generate, run_program, run_campaign
"""

from .corpus import (CorpusEntry, entry_filename, load_corpus, load_entry,
                     save_entry)
from .generator import GeneratorConfig, ProgramGenerator, generate, make_images
from .harness import (DEFAULT_BACKENDS, DEFAULT_MAX_CYCLES, CampaignReport,
                      FuzzCaseResult, Outcome, run_campaign, run_program)
from .ir import FuzzProgram
from .reduce import ReductionResult, reduce_program

__all__ = [
    "CampaignReport", "CorpusEntry", "DEFAULT_BACKENDS",
    "DEFAULT_MAX_CYCLES", "FuzzCaseResult", "FuzzProgram",
    "GeneratorConfig", "Outcome", "ProgramGenerator", "ReductionResult",
    "entry_filename", "generate", "load_corpus", "load_entry",
    "make_images", "reduce_program", "run_campaign", "run_program",
    "save_entry",
]
