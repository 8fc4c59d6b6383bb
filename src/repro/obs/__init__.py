"""Observability: tracing, metrics and functional coverage.

The paper's premise is that language-level simulation gives visibility a
raw FPGA cannot — probes, assertions, stop mechanisms.  This package
applies the same idea to the test infrastructure *itself*:

* :mod:`repro.obs.trace` — hierarchical timing spans recorded to an
  append-only JSONL file (safe across the fork-based worker pools) and
  exported as Chrome/Perfetto ``trace_event`` JSON, so one
  ``TestSuite.run(jobs=N)`` or fuzz campaign renders as a single
  timeline including every worker process;
* :mod:`repro.obs.metrics` — counters (events processed, cycles, FSM
  transitions, cache hits/misses, fuzz outcome tallies) aggregated into
  a machine-readable ``metrics.json``;
* :mod:`repro.obs.coverage` — functional coverage: FSM state and
  transition coverage plus datapath operator-activation coverage,
  collected from all four simulation backends;
* :mod:`repro.obs.ledger` — the cross-run half: an SQLite run ledger
  persisting timings, coverage, cache rates and fuzz tallies per run
  (``--ledger`` / ``$REPRO_LEDGER``), read back by
  :mod:`repro.obs.regress` (the median+MAD regression sentinel,
  ``repro obs compare``) and :mod:`repro.obs.dashboard` (the
  self-contained HTML dashboard and Prometheus textfile exporter).

Everything is pay-for-what-you-use: with no recorder installed,
:func:`repro.obs.trace.span` returns a shared no-op object, and no
coverage hooks or watchers exist unless a collector is attached.  The
same holds for imports: only tracing and coverage load with the
package, which the verification path uses; every other name below is
imported from its module on first access (PEP 562).
"""

import importlib

from .coverage import (ConfigurationCoverage, CoverageCollector,
                       CoverageReport, FsmCoverage, OperatorCoverage,
                       format_coverage)
from .trace import (Span, TraceRecorder, active_recorder, current_context,
                    event, export_chrome_trace, install, new_trace_id,
                    recording, span, start_span, trace_context, uninstall)

#: lazily imported name -> the submodule that defines it
_LAZY = {
    **dict.fromkeys(("export_json", "export_prometheus",
                     "render_dashboard"), "dashboard"),
    **dict.fromkeys(("LEDGER_ENV", "Ledger", "LedgerError",
                     "SCHEMA_VERSION", "ledger_from_env"), "ledger"),
    **dict.fromkeys(("Histogram", "Metrics", "campaign_metrics",
                     "flow_metrics", "render_prometheus_histogram",
                     "serve_metrics", "suite_metrics",
                     "verification_metrics"), "metrics"),
    **dict.fromkeys(("KernelProfiler", "ProfileError", "ProfileReport",
                     "profile_case"), "profile"),
    **dict.fromkeys(("Finding", "RegressionReport", "Thresholds",
                     "compare_run"), "regress"),
    **dict.fromkeys(("Suspect", "TriageError", "TriageRecord",
                     "TriageResult", "attach_to_ledger",
                     "locate_divergence", "render_triage_html",
                     "triage_backends", "triage_fault",
                     "triage_fuzz_entry"), "triage"),
}


def __getattr__(name: str):
    module = _LAZY.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute "
                             f"{name!r}")
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


__all__ = [
    "Span", "TraceRecorder", "recording", "span", "event", "start_span",
    "active_recorder", "install", "uninstall", "export_chrome_trace",
    "new_trace_id", "current_context", "trace_context",
    "Metrics", "Histogram", "render_prometheus_histogram",
    "verification_metrics", "suite_metrics", "flow_metrics",
    "campaign_metrics", "serve_metrics",
    "KernelProfiler", "ProfileError", "ProfileReport", "profile_case",
    "CoverageCollector", "CoverageReport", "ConfigurationCoverage",
    "FsmCoverage", "OperatorCoverage", "format_coverage",
    "Ledger", "LedgerError", "SCHEMA_VERSION", "LEDGER_ENV",
    "ledger_from_env",
    "Thresholds", "Finding", "RegressionReport", "compare_run",
    "render_dashboard", "export_prometheus", "export_json",
    "TriageError", "TriageRecord", "TriageResult", "Suspect",
    "locate_divergence", "triage_fault", "triage_backends",
    "triage_fuzz_entry", "render_triage_html", "attach_to_ledger",
]
