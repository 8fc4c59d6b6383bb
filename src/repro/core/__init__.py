"""The test infrastructure core (the paper's contribution).

* stimulus files and deterministic generators
* golden-vs-simulation verification by memory comparison
* the staged build-and-test flow (the ANT substitute)
* the regression suite runner and Table I metrics
* :class:`TestInfrastructure`, the one-object façade
"""

from .cache import (ArtifactCache, case_key, result_from_payload,
                    result_to_payload, structure_key)
from .flow import Flow, FlowReport, FlowStage, StageResult, standard_flow
from .infrastructure import TestInfrastructure
from .report import (ConfigurationMetrics, DesignMetrics, collect_metrics,
                     format_table)
from .stimulus import (load_stimulus_files, ramp_image, random_words,
                       synthetic_image, write_stimulus_files)
from .testsuite import (CaseResult, SuiteCase, SuiteReport, TestSuite,
                        run_case)
from .verification import (BatchVerificationResult, MemoryCheck,
                           VerificationResult, prepare_images,
                           verify_design, verify_design_batch)

__all__ = [
    "TestInfrastructure",
    "verify_design", "VerificationResult", "MemoryCheck", "prepare_images",
    "verify_design_batch", "BatchVerificationResult",
    "TestSuite", "SuiteCase", "SuiteReport", "CaseResult", "run_case",
    "ArtifactCache", "case_key", "structure_key",
    "result_to_payload", "result_from_payload",
    "Flow", "FlowStage", "FlowReport", "StageResult", "standard_flow",
    "collect_metrics", "format_table", "DesignMetrics",
    "ConfigurationMetrics",
    "synthetic_image", "ramp_image", "random_words",
    "write_stimulus_files", "load_stimulus_files",
]
