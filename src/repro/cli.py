"""Command-line interface: the infrastructure as one command.

The paper's operational promise is that the whole compiler test suite
re-verifies with a single automated invocation (their ANT build).  This
module is that invocation::

    python -m repro suite                     # verify every benchmark
    python -m repro fuzz -n 200 --jobs 2      # differential compiler fuzzing
    python -m repro campaign fdct1 -n 1000 --jobs 4  # hardware fault injection
    python -m repro inject fdct1 --replay hang.json  # replay one fault
    python -m repro triage fdct1 --fault sdc.json    # first-divergence triage
    python -m repro table1                    # print the Table I metrics
    python -m repro flow fdct1 --workdir out  # full Figure 1 flow, artifacts on disk
    python -m repro translate dp.xml --to dot # one translation backend
    python -m repro serve --jobs auto --cache     # verification-as-a-service daemon
    python -m repro obs compare --fail-on-regression  # regression sentinel
    python -m repro version

Exit status is 0 only if everything verified/parsed cleanly, so the
command slots directly into CI for a compiler under development.
"""

from __future__ import annotations

import argparse
import os
import sys
from contextlib import contextmanager
from datetime import datetime
from pathlib import Path
from typing import List, Optional

__all__ = ["main", "build_parser"]

#: per-case sizing presets used by the CLI (kept interactive-fast)
SUITE_SIZES = {
    "fdct1": {"pixels": 1024},
    "fdct2": {"pixels": 1024},
    "idct": {"pixels": 1024},
    "hamming": {"n_words": 256},
    "fir": {"n_out": 128, "taps": 8},
    "matmul": {"n": 8},
    "threshold": {"n_pixels": 512},
    "popcount": {"n_words": 128},
}


class _Default(str):
    """An option default that ``is`` tells apart from the same text
    given on the command line."""


#: ``suite --backend`` when none is given: ``event``, or ``traced``
#: with ``--batch``
_SUITE_BACKEND = _Default("event")


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def _jobs_arg(text: str):
    """A worker count: a positive integer, or 'auto' for one worker
    per available CPU."""
    if text.strip().lower() == "auto":
        return "auto"
    try:
        return _positive_int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"must be a positive integer or 'auto', got {text!r}"
        ) from None


def _resolve_jobs(value) -> int:
    """Turn a ``--jobs`` value into a concrete worker count."""
    if value == "auto":
        return max(os.cpu_count() or 1, 1)
    return int(value)


def _add_obs_flags(command: argparse.ArgumentParser, *,
                   coverage: bool = True) -> None:
    """The observability flags shared by suite/flow/fuzz/serve.

    ``coverage=False`` drops the ``--coverage`` flag for commands with
    no per-design coverage concept (the serve daemon).
    """
    command.add_argument("--trace", metavar="FILE", default=None,
                         help="record per-phase timing spans; writes "
                              "Chrome/Perfetto trace JSON to FILE (raw "
                              "events land next to it as .jsonl)")
    command.add_argument("--metrics", metavar="FILE", default=None,
                         help="write aggregated counters as JSON to FILE")
    if coverage:
        command.add_argument("--coverage", action="store_true",
                             help="collect FSM state/transition and "
                                  "operator activation coverage")
    command.add_argument("--ledger", metavar="PATH", default=None,
                         help="append this run to the SQLite run ledger "
                              "at PATH (default: $REPRO_LEDGER when set); "
                              "read it back with 'repro obs'")


@contextmanager
def _tracing(trace_path: Optional[str]):
    """Install a span recorder for the block; export Chrome JSON after.

    The export runs in the ``finally`` so a failing run still leaves a
    loadable trace (CI uploads these artifacts on failure).
    """
    if trace_path is None:
        yield
        return
    from .obs import TraceRecorder, export_chrome_trace, install, uninstall

    out = Path(trace_path)
    events = out.with_suffix(".jsonl")
    if events == out:
        events = out.with_suffix(".events.jsonl")
    recorder = TraceRecorder(events)
    install(recorder)
    try:
        yield
    finally:
        uninstall()
        recorder.close()
        count = export_chrome_trace(events, out)
        print(f"trace: {count} event(s) -> {out} "
              f"(open at https://ui.perfetto.dev)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Functional test infrastructure for compiler-"
                    "generated FPGA designs (DATE 2005 reproduction).",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    suite = sub.add_parser(
        "suite", help="compile, simulate and verify every benchmark")
    suite.add_argument("--seed", type=int, default=0,
                       help="stimulus seed (default 0)")
    suite.add_argument("--fsm-mode", choices=("generated", "interpreted"),
                       default="generated")
    suite.add_argument("--case", action="append", dest="cases",
                       metavar="NAME",
                       help="run only the named case(s); repeatable")
    suite.add_argument("--backend",
                       choices=("event", "oblivious", "compiled", "traced"),
                       default=_SUITE_BACKEND,
                       help="simulation kernel (default: event, or traced "
                            "with --batch; 'traced' is fastest, see "
                            "docs/performance.md)")
    suite.add_argument("--batch", type=_positive_int, default=1,
                       metavar="N",
                       help="verify N stimulus sets per case, one after "
                            "another on one elaboration per configuration "
                            "(incompatible with --coverage)")
    suite.add_argument("--jobs", type=_jobs_arg, default=1, metavar="N",
                       help="run cases over N worker processes, or "
                            "'auto' for one per available CPU "
                            "(default 1: serial)")
    suite.add_argument("--cache", metavar="DIR", nargs="?",
                       const=".repro-cache", default=None,
                       help="artifact cache directory; skip unchanged "
                            "passing cases (default dir: .repro-cache)")
    _add_obs_flags(suite)
    suite.add_argument("--min-state-coverage", type=float, default=None,
                       metavar="PCT",
                       help="fail (exit 1) if aggregate FSM state coverage "
                            "is below PCT percent; implies --coverage")

    table1 = sub.add_parser(
        "table1", help="print the Table I metrics for every benchmark")
    table1.add_argument("--run", action="store_true",
                        help="also simulate to fill the timing column")

    flow = sub.add_parser(
        "flow", help="run the full Figure 1 flow for one benchmark, "
                     "writing every artifact")
    flow.add_argument("case", help="benchmark name (see 'suite')")
    flow.add_argument("--workdir", default="repro_out",
                      help="artifact directory (default: repro_out)")
    flow.add_argument("--seed", type=int, default=0)
    flow.add_argument("--backend",
                      choices=("event", "oblivious", "compiled", "traced"),
                      default="event",
                      help="simulation kernel (default: event)")
    _add_obs_flags(flow)

    translate = sub.add_parser(
        "translate", help="translate a datapath/fsm/rtg XML document")
    translate.add_argument("path", help="the XML file")
    translate.add_argument("--to", dest="target", required=True,
                           choices=("dot", "python", "vhdl", "verilog"))
    translate.add_argument("--output", "-o", help="write here instead of "
                                                  "stdout")

    fuzz = sub.add_parser(
        "fuzz", help="differential fuzzing: random programs through "
                     "golden + every simulation backend")
    fuzz.add_argument("--iterations", "-n", type=_positive_int, default=100,
                      help="number of random programs (default 100)")
    fuzz.add_argument("--seed", type=int, default=0,
                      help="campaign seed; case i uses generator seed "
                           "seed+i (default 0)")
    fuzz.add_argument("--jobs", type=_positive_int, default=1, metavar="N",
                      help="fuzz over N worker processes (default 1)")
    fuzz.add_argument("--corpus", metavar="DIR", default="fuzz/corpus",
                      help="directory for minimized reproducers "
                           "(default: fuzz/corpus)")
    fuzz.add_argument("--max-cycles", type=_positive_int, default=None,
                      help="per-configuration cycle budget before a "
                           "program is classified as a timeout")
    fuzz.add_argument("--time-budget", type=float, default=None,
                      metavar="SECONDS",
                      help="stop the campaign after this many seconds "
                           "(used by the nightly CI job)")
    fuzz.add_argument("--input-seed", type=int, default=0,
                      help="stimulus seed for input memories (default 0)")
    fuzz.add_argument("--backends", metavar="LIST", default=None,
                      help="comma-separated simulation kernels to "
                           "cross-check (default: all registered); the "
                           "CI smoke matrix pairs 'event' with one "
                           "optimized kernel per job")
    fuzz.add_argument("--no-reduce", action="store_true",
                      help="write failures unminimized (faster triage "
                           "of a long campaign)")
    fuzz.add_argument("--replay", action="append", metavar="FILE",
                      help="replay corpus reproducer(s) instead of "
                           "fuzzing; exit 1 while any still fails")
    fuzz.add_argument("--no-triage", action="store_true",
                      help="skip the automatic divergence triage of "
                           "mismatch reproducers")
    fuzz.add_argument("--triage-out", metavar="DIR", default="triage",
                      help="artifact directory for auto-triage reports "
                           "(default: triage)")
    _add_obs_flags(fuzz)

    faults = sub.add_parser(
        "faults", help="fault-injection campaign: verify the "
                       "infrastructure catches mutated designs")
    faults.add_argument("case", help="benchmark name (single-"
                                     "configuration cases only)")
    faults.add_argument("--seed", type=int, default=0)
    faults.add_argument("--sample", type=int,
                        help="randomly sample this many faults")
    faults.add_argument("--limit-per-kind", type=int, default=None)

    inject = sub.add_parser(
        "inject", help="arm one hardware fault (bit-flip, stuck-at, "
                       "memory upset) and classify the run against "
                       "golden")
    inject.add_argument("case", help="benchmark name (single-"
                                     "configuration cases only)")
    inject.add_argument("--replay", metavar="FILE", default=None,
                        help="replay fault descriptor(s) from a "
                             "faultload JSON file (e.g. a hang "
                             "reproducer uploaded by CI) instead of "
                             "drawing one")
    inject.add_argument("--kind", choices=("stuck", "reg_flip", "mem_flip"),
                        default="stuck",
                        help="fault kind to draw (default: stuck)")
    inject.add_argument("--seed", type=int, default=0,
                        help="faultload + stimulus seed (default 0)")
    inject.add_argument("--backend",
                        choices=("event", "compiled", "traced"),
                        default="compiled",
                        help="simulation kernel (default: compiled)")
    inject.add_argument("--max-cycles", type=_positive_int,
                        default=2_000_000,
                        help="hang budget in cycles (default 2000000)")
    inject.add_argument("--save", metavar="FILE", default=None,
                        help="also write the descriptor(s) as a "
                             "replayable faultload JSON file")

    campaign = sub.add_parser(
        "campaign", help="fault-injection campaign: fan a seeded "
                         "faultload out, tally masked/sdc/hang/crash")
    campaign.add_argument("case", help="benchmark name (single-"
                                       "configuration cases only)")
    campaign.add_argument("--faults", "-n", type=_positive_int, default=200,
                          help="faultload size (default 200)")
    campaign.add_argument("--seed", type=int, default=0,
                          help="faultload + stimulus seed (default 0)")
    campaign.add_argument("--jobs", type=_jobs_arg, default=1,
                          metavar="N",
                          help="fan injections over N worker processes, "
                               "or 'auto' for one per available CPU "
                               "(default 1: serial)")
    campaign.add_argument("--backend",
                          choices=("event", "compiled", "traced"),
                          default="compiled",
                          help="simulation kernel (default: compiled)")
    campaign.add_argument("--kinds", metavar="LIST", default=None,
                          help="comma-separated fault kinds to draw "
                               "(default: stuck,reg_flip,mem_flip)")
    campaign.add_argument("--hang-factor", type=_positive_int, default=4,
                          help="hang budget = baseline cycles x this "
                               "(default 4)")
    campaign.add_argument("--time-budget", type=float, default=None,
                          metavar="SECONDS",
                          help="stop scheduling injections after this "
                               "many seconds (the nightly CI job)")
    campaign.add_argument("--faultload", metavar="FILE", default=None,
                          help="replay this saved faultload instead of "
                               "generating one")
    campaign.add_argument("--save-faultload", metavar="FILE", default=None,
                          help="write the generated faultload here")
    campaign.add_argument("--save-hangs", metavar="FILE", default=None,
                          help="write hang reproducer descriptors here "
                               "(only when hangs occurred)")
    campaign.add_argument("--ledger", metavar="PATH", default=None,
                          help="append this campaign to the SQLite run "
                               "ledger at PATH (default: $REPRO_LEDGER "
                               "when set)")
    campaign.add_argument("--triage-sdc", type=int, default=2,
                          metavar="N",
                          help="divergence-triage a seeded sample of N "
                               "sdc verdicts after the campaign "
                               "(default 2; 0 disables)")
    campaign.add_argument("--triage-out", metavar="DIR", default="triage",
                          help="artifact directory for those triage "
                               "reports (default: triage)")

    triage = sub.add_parser(
        "triage", help="divergence triage: bisect a failing pair to its "
                       "first divergent cycle/net, capture a waveform "
                       "window, rank cone-of-influence suspects")
    triage.add_argument("target",
                        help="benchmark case name, or a fuzz-corpus "
                             "reproducer (.py) written by 'repro fuzz'")
    triage.add_argument("--fault", metavar="FILE[:ID]", default=None,
                        help="replay one descriptor from a faultload "
                             "JSON file (fault-free vs faulted "
                             "lockstep); ':ID' picks a fault id, "
                             "default: first entry")
    triage.add_argument("--run", type=int, default=None, metavar="ID",
                        help="replay the first sdc fault recorded under "
                             "this ledger run id (an inject/campaign "
                             "row) instead of a faultload file")
    triage.add_argument("--against", default=None,
                        choices=("event", "compiled", "traced"),
                        help="triage a backend disagreement: this "
                             "reference kernel vs --backend")
    triage.add_argument("--backend",
                        choices=("event", "compiled", "traced"),
                        default="compiled",
                        help="subject simulation kernel "
                             "(default: compiled)")
    triage.add_argument("--seed", type=int, default=0,
                        help="stimulus seed (default 0)")
    triage.add_argument("--window", type=_positive_int, default=64,
                        metavar="N",
                        help="waveform ring-buffer size in cycles "
                             "(default 64); older cycles are dropped "
                             "and the report carries a truncation "
                             "marker")
    triage.add_argument("--stride", type=_positive_int, default=None,
                        metavar="N",
                        help="coarse checkpoint stride in cycles "
                             "(default: the window size)")
    triage.add_argument("--max-cycles", type=_positive_int,
                        default=1_000_000,
                        help="bisection budget in cycles "
                             "(default 1000000)")
    triage.add_argument("--out", metavar="DIR", default="triage",
                        help="artifact directory for the JSON record "
                             "and HTML report (default: triage)")
    triage.add_argument("--no-html", action="store_true",
                        help="write only the JSON record")
    triage.add_argument("--ledger", metavar="PATH", default=None,
                        help="append the triage record to the SQLite "
                             "run ledger at PATH (default: "
                             "$REPRO_LEDGER when set)")

    serve = sub.add_parser(
        "serve", help="verification as a service: a long-lived daemon "
                      "answering compile+simulate+verify jobs over an "
                      "NDJSON socket (see docs/serving.md)")
    serve.add_argument("--socket", metavar="PATH",
                       default="repro-serve.sock",
                       help="Unix socket path to listen on "
                            "(default: repro-serve.sock)")
    serve.add_argument("--http", type=_positive_int, default=None,
                       metavar="PORT",
                       help="also serve the HTTP shim on 127.0.0.1:PORT "
                            "(GET /healthz, GET /status, POST /jobs)")
    serve.add_argument("--jobs", type=_jobs_arg, default=1, metavar="N",
                       help="worker processes, or 'auto' for one per "
                            "available CPU (default 1)")
    serve.add_argument("--batch-max", type=_positive_int, default=8,
                       metavar="N",
                       help="max same-group jobs folded into one "
                            "batched dispatch (default 8; "
                            "1 disables batching)")
    serve.add_argument("--cache", metavar="DIR", nargs="?",
                       const=".repro-cache", default=None,
                       help="artifact cache directory; repeat jobs are "
                            "answered from disk and new passes stored "
                            "(default dir: .repro-cache, shared with "
                            "'repro suite --cache')")
    _add_obs_flags(serve, coverage=False)

    obs = sub.add_parser(
        "obs", help="cross-run observability: query the run ledger, "
                    "compare against baselines, render the dashboard")
    obs_sub = obs.add_subparsers(dest="obs_command", required=True)

    def _ledger_arg(command: argparse.ArgumentParser) -> None:
        command.add_argument("--ledger", metavar="PATH", default=None,
                             help="ledger database (default: $REPRO_LEDGER "
                                  "when set, else repro-ledger.sqlite)")

    obs_report = obs_sub.add_parser(
        "report", help="summarize recorded runs")
    _ledger_arg(obs_report)
    obs_report.add_argument("--limit", type=_positive_int, default=10,
                            metavar="N",
                            help="show the N most recent runs (default 10)")

    obs_compare = obs_sub.add_parser(
        "compare", help="regression sentinel: one run vs its rolling "
                        "baseline (median + scaled-MAD noise band)")
    _ledger_arg(obs_compare)
    obs_compare.add_argument("--baseline", metavar="PATH", default=None,
                             help="take baseline history from this ledger "
                                  "instead of the run's own (e.g. the "
                                  "committed CI baseline)")
    obs_compare.add_argument("--run", type=int, default=None, metavar="ID",
                             help="compare this run id (default: latest)")
    obs_compare.add_argument("--sigma", type=float, default=3.0,
                             help="perf noise-band width in scaled MADs "
                                  "(default 3)")
    obs_compare.add_argument("--min-samples", type=int, default=3,
                             metavar="N",
                             help="baseline points required before a key "
                                  "is judged (default 3)")
    obs_compare.add_argument("--min-rel", type=float, default=1.25,
                             metavar="RATIO",
                             help="perf findings also need current > "
                                  "RATIO * baseline median (default 1.25)")
    obs_compare.add_argument("--coverage-drop", type=float, default=5.0,
                             metavar="PTS",
                             help="flag coverage drops above PTS "
                                  "percentage points (default 5)")
    obs_compare.add_argument("--cache-drop", type=float, default=0.25,
                             metavar="RATE",
                             help="flag cache hit-rate drops above RATE "
                                  "(default 0.25)")
    obs_compare.add_argument("--fail-on-regression", action="store_true",
                             help="exit 1 when any regression is flagged "
                                  "(default: report only)")

    obs_dashboard = obs_sub.add_parser(
        "dashboard", help="render the ledger as one self-contained "
                          "offline HTML page")
    _ledger_arg(obs_dashboard)
    obs_dashboard.add_argument("--output", "-o",
                               default="repro-dashboard.html",
                               help="output file "
                                    "(default: repro-dashboard.html)")
    obs_dashboard.add_argument("--history", type=_positive_int, default=30,
                               metavar="N",
                               help="runs per trend series (default 30)")
    obs_dashboard.add_argument("--title", default="repro run ledger")

    obs_export = obs_sub.add_parser(
        "export", help="export ledger facts for external collectors")
    _ledger_arg(obs_export)
    obs_export.add_argument("--format", choices=("prom", "json"),
                            default="prom",
                            help="prom = Prometheus textfile collector, "
                                 "json = recent-run dump (default: prom)")
    obs_export.add_argument("--output", "-o", default=None,
                            help="write here instead of stdout")
    obs_export.add_argument("--history", type=_positive_int, default=30,
                            metavar="N",
                            help="runs included in the json dump "
                                 "(default 30)")

    obs_profile = obs_sub.add_parser(
        "profile", help="kernel hot-spot profiler: run one case and "
                        "attribute its simulated cycles and wall time "
                        "to FSM states and fused trace segments "
                        "(needs no ledger)")
    obs_profile.add_argument("case", metavar="CASE",
                             help="benchmark case to profile (see "
                                  "'repro suite --list')")
    obs_profile.add_argument("--backend", choices=("compiled", "traced"),
                             default="traced",
                             help="simulator backend (default: traced; "
                                  "traced also attributes fused "
                                  "loop/line segments)")
    obs_profile.add_argument("--seed", type=int, default=0,
                             help="stimulus seed (default 0)")
    obs_profile.add_argument("--fsm-mode",
                             choices=("generated", "interpreted"),
                             default="generated",
                             help="FSM flavour (default: generated)")
    obs_profile.add_argument("--top", type=_positive_int, default=15,
                             metavar="N",
                             help="hottest frames shown (default 15)")
    obs_profile.add_argument("--collapsed", metavar="FILE", default=None,
                             help="write cycle-weighted collapsed "
                                  "stacks (flamegraph.pl / speedscope "
                                  "input)")
    obs_profile.add_argument("--json", metavar="FILE", default=None,
                             help="write the full report as JSON")

    obs_gc = obs_sub.add_parser(
        "gc", help="drop old runs beyond a retention limit")
    _ledger_arg(obs_gc)
    obs_gc.add_argument("--keep", type=int, default=100, metavar="N",
                        help="newest runs to retain (default 100)")

    sub.add_parser("version", help="print the library version")
    return parser


def _load_xml(path: Path):
    from .hdl import load_datapath, load_fsm, load_rtg
    from .hdl.xmlio.common import XmlFormatError

    errors = []
    for loader in (load_datapath, load_fsm, load_rtg):
        try:
            return loader(path)
        except XmlFormatError as exc:
            errors.append(str(exc))
        except ValueError as exc:
            errors.append(str(exc))
    raise SystemExit(
        f"error: {path} is not a valid datapath/fsm/rtg document:\n  "
        + "\n  ".join(errors)
    )


def _cmd_suite(args) -> int:
    from .apps import CASE_BUILDERS, suite_case
    from .core import ArtifactCache, TestSuite
    from .obs import format_coverage, suite_metrics

    names = args.cases or list(CASE_BUILDERS)
    unknown = [name for name in names if name not in CASE_BUILDERS]
    if unknown:
        print(f"error: unknown case(s) {unknown}; "
              f"known: {sorted(CASE_BUILDERS)}", file=sys.stderr)
        return 2
    coverage = args.coverage or args.min_state_coverage is not None
    batch = args.batch if args.batch > 1 else 0
    if batch and coverage:
        print("error: --batch and --coverage are mutually exclusive "
              "(batched lanes share one elaboration; per-lane coverage "
              "is not collected)", file=sys.stderr)
        return 2
    backend = "traced" if batch and args.backend is _SUITE_BACKEND \
        else str(args.backend)
    suite = TestSuite("cli")
    for name in names:
        suite.add(suite_case(name, **SUITE_SIZES.get(name, {})))
    from .obs.ledger import ledger_from_env

    ledger = ledger_from_env(args.ledger)
    try:
        cache = ArtifactCache(args.cache) if args.cache else None
        with _tracing(args.trace):
            report = suite.run(seed=args.seed, fsm_mode=args.fsm_mode,
                               backend=backend,
                               jobs=_resolve_jobs(args.jobs),
                               cache=cache, coverage=coverage,
                               batch=batch, ledger=ledger)
    except NotADirectoryError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        if ledger is not None:
            ledger.close()
    if ledger is not None:
        print(f"ledger -> {ledger.path}")
    print(report.summary())
    print()
    print(report.metrics_table())
    if coverage and report.coverage is not None:
        print()
        print(format_coverage(report.coverage))
    if cache is not None:
        print(cache.summary())
    if backend in ("compiled", "traced"):
        from .core.kernelcache import default_cache

        print(default_cache().describe())
    if args.metrics:
        metrics = suite_metrics(report, cache=cache)
        metrics.write(args.metrics)
        print(f"metrics -> {args.metrics}")
    if not report.passed:
        return 1
    if args.min_state_coverage is not None:
        if report.coverage is None:
            print("coverage gate FAILED: no coverage was collected "
                  "(the run produced no coverage report)", file=sys.stderr)
            return 1
        got = 100 * report.coverage.state_coverage
        if got < args.min_state_coverage:
            print(f"coverage gate FAILED: aggregate FSM state coverage "
                  f"{got:.1f}% < required {args.min_state_coverage:.1f}%",
                  file=sys.stderr)
            return 1
        print(f"coverage gate passed: {got:.1f}% >= "
              f"{args.min_state_coverage:.1f}%")
    return 0


def _cmd_table1(args) -> int:
    from .apps import CASE_BUILDERS, suite_case
    from .core import collect_metrics, format_table, verify_design

    rows = []
    for name in CASE_BUILDERS:
        case = suite_case(name, **SUITE_SIZES.get(name, {}))
        design = case.compile()
        if args.run:
            result = verify_design(design, case.func, case.inputs(0))
            if not result.passed:
                print(result.summary(), file=sys.stderr)
                return 1
            rows.append(collect_metrics(
                design, simulation_seconds=result.simulation_seconds,
                cycles=result.cycles))
        else:
            rows.append(collect_metrics(design))
    print(format_table(rows))
    return 0


def _cmd_flow(args) -> int:
    from .apps import CASE_BUILDERS, suite_case
    from .core import standard_flow

    if args.case not in CASE_BUILDERS:
        print(f"error: unknown case {args.case!r}; "
              f"known: {sorted(CASE_BUILDERS)}", file=sys.stderr)
        return 2
    case = suite_case(args.case, **SUITE_SIZES.get(args.case, {}))
    inputs = case.inputs(args.seed) if case.inputs else None
    flow = standard_flow(case.func, case.arrays, dict(case.params),
                         workdir=args.workdir, inputs=inputs,
                         n_partitions=case.n_partitions,
                         backend=args.backend, coverage=args.coverage)
    with _tracing(args.trace):
        report = flow.run()
    print(report.summary())
    if args.coverage and report.context.get("coverage") is not None:
        from .obs import format_coverage

        print()
        print(format_coverage(report.context["coverage"]))
    if args.metrics:
        from .obs import flow_metrics

        flow_metrics(report).write(args.metrics)
        print(f"metrics -> {args.metrics}")
    from .obs.ledger import ledger_from_env

    ledger = ledger_from_env(args.ledger)
    if ledger is not None:
        with ledger:
            ledger.record_flow(report, app=args.case, backend=args.backend,
                               size=case.params)
        print(f"ledger -> {ledger.path}")
    print(f"\nartifacts in {args.workdir}/")
    return 0 if report.context.get("passed") else 1


def _cmd_translate(args) -> int:
    from .translate import translate

    artifact = _load_xml(Path(args.path))
    text = translate(artifact, args.target)
    if args.output:
        Path(args.output).write_text(text)
        print(f"wrote {args.output}")
    else:
        print(text, end="")
    return 0


def _write_triage(result, basename: str, out_dir: str, ledger, *,
                  wall_seconds: float = 0.0, html: bool = True) -> None:
    """Persist one triage result: artifacts on disk + a ledger row."""
    from .obs.triage import attach_to_ledger

    paths = result.write(out_dir, basename, html=html)
    for line in result.record.describe().splitlines():
        print(f"  triage: {line}")
    for kind in sorted(paths):
        print(f"  triage {kind} -> {paths[kind]}")
    if ledger is not None:
        run_id = attach_to_ledger(ledger, result,
                                  wall_seconds=wall_seconds,
                                  argv=sys.argv[1:], paths=paths)
        print(f"  triage ledger row -> #{run_id}")


def _triage_fuzz_mismatch(entry, basename: str, out_dir: str,
                          ledger) -> None:
    """Best-effort auto-triage of one fuzz mismatch reproducer.

    Triage is diagnostics, not a verdict: a triage crash must never turn
    a recorded reproducer into a CLI failure, so everything is caught.
    """
    import time

    from .obs.triage import TriageError, triage_fuzz_entry

    start = time.monotonic()
    try:
        result = triage_fuzz_entry(entry)
    except TriageError as exc:
        print(f"  triage: skipped ({exc})")
        return
    except Exception as exc:  # noqa: BLE001 - diagnostics stay best-effort
        print(f"  triage: failed ({type(exc).__name__}: {exc})")
        return
    _write_triage(result, f"{basename}-triage", out_dir, ledger,
                  wall_seconds=time.monotonic() - start)


def _cmd_fuzz(args) -> int:
    from .fuzz import (CorpusEntry, DEFAULT_BACKENDS, DEFAULT_MAX_CYCLES,
                       load_entry, reduce_program, run_campaign,
                       run_program, save_entry)
    from .sim import SIMULATOR_BACKENDS

    max_cycles = args.max_cycles or DEFAULT_MAX_CYCLES
    backends = DEFAULT_BACKENDS
    if args.backends:
        backends = tuple(name.strip()
                         for name in args.backends.split(",") if name.strip())
        unknown = [name for name in backends
                   if name not in SIMULATOR_BACKENDS]
        if unknown:
            print(f"error: unknown backend(s) {unknown}; "
                  f"known: {sorted(SIMULATOR_BACKENDS)}", file=sys.stderr)
            return 2

    if args.replay:
        status = 0
        for path in args.replay:
            entry = load_entry(path)
            outcome = run_program(entry.program, max_cycles=max_cycles,
                                  input_seed=entry.input_seed)
            if entry.xfail:
                # known-open divergence: healthy iff it still fails
                # exactly as recorded (see docs/fuzzing.md)
                ok = entry.outcome.matches(outcome)
                recorded = f"recorded: {entry.kind}, xfail"
            else:
                ok = not outcome.failed
                recorded = f"recorded: {entry.kind}"
            marker = "PASS" if ok else "FAIL"
            print(f"[{marker}] {path}: {outcome.describe()} ({recorded})")
            if not ok:
                status = 1
        return status

    from .obs.ledger import ledger_from_env

    ledger = ledger_from_env(args.ledger)
    try:
        with _tracing(args.trace):
            report = run_campaign(
                args.iterations, seed=args.seed, jobs=args.jobs,
                backends=backends, max_cycles=max_cycles,
                input_seed=args.input_seed,
                time_budget=args.time_budget, coverage=args.coverage,
                ledger=ledger,
            )
        for failure in report.failures:
            if failure.program is None:
                continue  # harness error: no program to reduce
            outcome = failure.outcome
            if not args.no_reduce:
                reduction = reduce_program(failure.program, outcome,
                                           max_cycles=max_cycles,
                                           input_seed=args.input_seed)
                program, outcome = reduction.program, reduction.outcome
            else:
                program = failure.program
            entry = CorpusEntry(program=program, kind=outcome.kind,
                                backend=outcome.backend,
                                exc_type=outcome.exc_type,
                                input_seed=args.input_seed,
                                detail=outcome.detail)
            path = save_entry(entry, args.corpus)
            report.written.append(str(path))
            if outcome.kind == "mismatch" and not args.no_triage:
                # divergence triage rides along with the minimized
                # reproducer: first divergent cycle/net + suspect cone
                _triage_fuzz_mismatch(entry, Path(path).stem,
                                      args.triage_out, ledger)
    finally:
        if ledger is not None:
            ledger.close()
    if ledger is not None:
        print(f"ledger -> {ledger.path}")
    print(report.summary())
    if args.metrics:
        from .obs import campaign_metrics

        campaign_metrics(report).write(args.metrics)
        print(f"metrics -> {args.metrics}")
    return 0 if report.passed else 1


def _cmd_faults(args) -> int:
    import random

    from .inject import enumerate_mutants, run_campaign

    compiled = _compile_injectable(args.case, args.seed)
    if compiled is None:
        return 2
    case, design, inputs = compiled
    mutants = enumerate_mutants(design, limit_per_kind=args.limit_per_kind)
    if args.sample is not None and args.sample < len(mutants):
        mutants = random.Random(args.seed).sample(mutants, args.sample)
    report = run_campaign(design, case.func, mutants, inputs,
                          app=args.case, backend="event", seed=args.seed,
                          max_cycles=2_000_000)
    print(f"fault campaign: {report.killed}/{len(report.results)} killed "
          f"({report.kill_rate:.0%})")
    print(report.summary())
    for result in report.results:
        print(f"  [{result.verdict:^6}] {result.fault.describe()}")
    masked = report.tally()["masked"]
    if masked:
        print(f"\n{masked} survivor(s) — equivalent or stimulus-masked "
              f"mutants; consider boundary-value stimuli")
    return 0


def _compile_injectable(case_name: str, seed: int):
    """Shared by inject/campaign: (case, design, inputs) or an error."""
    from .apps import CASE_BUILDERS, suite_case

    if case_name not in CASE_BUILDERS:
        print(f"error: unknown case {case_name!r}; "
              f"known: {sorted(CASE_BUILDERS)}", file=sys.stderr)
        return None
    case = suite_case(case_name, **SUITE_SIZES.get(case_name, {}))
    design = case.compile()
    if design.multi_configuration:
        print(f"error: {case_name} compiles to multiple configurations; "
              f"fault injection needs a single one", file=sys.stderr)
        return None
    return case, design, case.inputs(seed) if case.inputs else None


def _cmd_inject(args) -> int:
    from .inject import (FaultloadGenerator, load_faultload, run_injection,
                         save_faultload)

    compiled = _compile_injectable(args.case, args.seed)
    if compiled is None:
        return 2
    case, design, inputs = compiled

    if args.replay:
        if not Path(args.replay).exists():
            print(f"error: no faultload at {args.replay}", file=sys.stderr)
            return 2
        faults = load_faultload(args.replay)
    else:
        # size the upset window from the fault-free run, so transient
        # flips land while the design is live
        baseline = run_injection(design, case.func, None, inputs,
                                 backend=args.backend,
                                 max_cycles=args.max_cycles)
        if baseline.verdict != "masked":
            print(f"error: fault-free baseline classifies as "
                  f"{baseline.verdict!r} ({baseline.note})",
                  file=sys.stderr)
            return 1
        generator = FaultloadGenerator(design, seed=args.seed,
                                       max_cycle=baseline.cycles)
        faults = generator.generate(1, kinds=(args.kind,))

    for fault in faults:
        result = run_injection(design, case.func, fault, inputs,
                               backend=args.backend,
                               max_cycles=args.max_cycles)
        line = (f"[{result.verdict.upper()}] {fault.describe()} "
                f"(mechanism {result.mechanism}, {result.cycles} cycles, "
                f"{result.seconds:.3f}s)")
        if result.note:
            line += f"\n  {result.note}"
        print(line)
    if args.save:
        path = save_faultload(faults, args.save)
        print(f"faultload -> {path}")
    return 0


def _triage_campaign_sdc(report, design, func, inputs, args,
                         ledger) -> None:
    """Triage a seeded sample of the campaign's sdc verdicts.

    Fault-vs-fault-free lockstep names the first corrupted cycle/net
    for each sampled silent corruption; the records feed the dashboard's
    kind × top-suspect-net table.  Best-effort: a triage crash never
    fails the campaign.
    """
    import random
    import time

    from .obs.triage import TriageError, triage_fault

    sdc = report.sdc_results
    if not sdc:
        return
    take = min(args.triage_sdc, len(sdc))
    picks = random.Random(args.seed).sample(sdc, take)
    print(f"triage: {take}/{len(sdc)} sdc verdict(s) sampled "
          f"(seed {args.seed})")
    for result in picks:
        fault = result.fault
        start = time.monotonic()
        try:
            triaged = triage_fault(design, func, fault, inputs,
                                   backend=args.backend, app=args.case,
                                   kind="campaign-sdc")
        except TriageError as exc:
            print(f"  triage: {fault.fault_id} skipped ({exc})")
            continue
        except Exception as exc:  # noqa: BLE001 - diagnostics only
            print(f"  triage: {fault.fault_id} failed "
                  f"({type(exc).__name__}: {exc})")
            continue
        _write_triage(triaged, f"{args.case}-{fault.fault_id}",
                      args.triage_out, ledger,
                      wall_seconds=time.monotonic() - start)


def _cmd_campaign(args) -> int:
    from .inject import (FaultloadGenerator, load_faultload, run_campaign,
                         run_injection, save_faultload)
    from .inject.faultload import FAULT_KINDS
    from .obs.ledger import ledger_from_env

    compiled = _compile_injectable(args.case, args.seed)
    if compiled is None:
        return 2
    case, design, inputs = compiled

    if args.faultload:
        if not Path(args.faultload).exists():
            print(f"error: no faultload at {args.faultload}",
                  file=sys.stderr)
            return 2
        faults = load_faultload(args.faultload)
    else:
        kinds = FAULT_KINDS
        if args.kinds:
            kinds = tuple(name.strip() for name in args.kinds.split(",")
                          if name.strip())
            unknown = [name for name in kinds if name not in FAULT_KINDS]
            if unknown:
                print(f"error: unknown fault kind(s) {unknown}; "
                      f"known: {list(FAULT_KINDS)}", file=sys.stderr)
                return 2
        probe = run_injection(design, case.func, None, inputs,
                              backend=args.backend)
        if probe.verdict != "masked":
            print(f"error: fault-free baseline classifies as "
                  f"{probe.verdict!r} ({probe.note})", file=sys.stderr)
            return 1
        generator = FaultloadGenerator(design, seed=args.seed,
                                       max_cycle=probe.cycles)
        faults = generator.generate(args.faults, kinds=kinds)

    ledger = ledger_from_env(args.ledger)
    try:
        try:
            report = run_campaign(design, case.func, faults, inputs,
                                  app=args.case, backend=args.backend,
                                  jobs=_resolve_jobs(args.jobs),
                                  seed=args.seed,
                                  hang_factor=args.hang_factor,
                                  time_budget=args.time_budget,
                                  ledger=ledger)
        except ValueError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
        if ledger is not None:
            print(f"ledger -> {ledger.path}")
        print(report.summary())
        if args.triage_sdc > 0:
            _triage_campaign_sdc(report, design, case.func, inputs,
                                 args, ledger)
    finally:
        if ledger is not None:
            ledger.close()
    if args.save_faultload:
        path = save_faultload(faults, args.save_faultload)
        print(f"faultload -> {path}")
    hangs = report.hang_reproducers
    if args.save_hangs and hangs:
        path = save_faultload(hangs, args.save_hangs)
        print(f"{len(hangs)} hang reproducer(s) -> {path} "
              f"(replay with 'repro inject {args.case} --replay {path}')")
    return 0


def _fault_from_file(spec: str):
    """Resolve a ``--fault FILE[:ID]`` spec to one descriptor."""
    from .inject import load_faultload

    path, _, fault_id = spec.partition(":")
    if not Path(path).exists():
        print(f"error: no faultload at {path}", file=sys.stderr)
        return None
    faults = load_faultload(path)
    if not faults:
        print(f"error: faultload {path} is empty", file=sys.stderr)
        return None
    if not fault_id:
        return faults[0]
    for fault in faults:
        if fault.fault_id == fault_id:
            return fault
    print(f"error: no fault {fault_id!r} in {path}; ids: "
          f"{[fault.fault_id for fault in faults]}", file=sys.stderr)
    return None


def _fault_from_ledger(ledger, args):
    """First replayable non-masked descriptor under ``--run ID``."""
    from .inject import FaultDescriptor
    from .obs.ledger import LEDGER_ENV, Ledger

    owned = None
    if ledger is None:
        path = args.ledger or os.environ.get(LEDGER_ENV) \
            or "repro-ledger.sqlite"
        if not Path(path).exists():
            print(f"error: --run needs a ledger; none at {path}",
                  file=sys.stderr)
            return None
        ledger = owned = Ledger(path)
    try:
        rows = ledger.fault_rows(args.run)
    finally:
        if owned is not None:
            owned.close()
    rows = [row for row in rows if row.descriptor]
    picks = [row for row in rows if row.verdict == "sdc"] \
        or [row for row in rows if row.verdict != "masked"]
    if not picks:
        print(f"error: ledger run #{args.run} has no replayable "
              f"non-masked fault row", file=sys.stderr)
        return None
    row = picks[0]
    print(f"replaying fault {row.fault_id} (verdict {row.verdict}) "
          f"from ledger run #{args.run}")
    return FaultDescriptor.from_dict(row.descriptor)


def _cmd_triage(args) -> int:
    import time

    from .obs.ledger import ledger_from_env
    from .obs.triage import (TriageError, triage_backends, triage_fault,
                             triage_fuzz_entry)

    start = time.monotonic()
    target = args.target
    ledger = ledger_from_env(args.ledger)
    try:
        try:
            if target.endswith(".py"):
                if not Path(target).exists():
                    print(f"error: no corpus reproducer at {target}",
                          file=sys.stderr)
                    return 2
                from .fuzz import load_entry

                entry = load_entry(target)
                result = triage_fuzz_entry(entry, window=args.window,
                                           stride=args.stride,
                                           max_cycles=args.max_cycles)
                basename = f"{Path(target).stem}-triage"
            else:
                compiled = _compile_injectable(target, args.seed)
                if compiled is None:
                    return 2
                case, design, inputs = compiled
                fault = None
                if args.run is not None:
                    fault = _fault_from_ledger(ledger, args)
                    if fault is None:
                        return 2
                elif args.fault:
                    fault = _fault_from_file(args.fault)
                    if fault is None:
                        return 2
                if fault is not None:
                    result = triage_fault(
                        design, case.func, fault, inputs,
                        backend=args.backend, window=args.window,
                        stride=args.stride, max_cycles=args.max_cycles,
                        app=target)
                    basename = f"{target}-{fault.fault_id}"
                elif args.against:
                    result = triage_backends(
                        design, inputs, backend_ref=args.against,
                        backend_sub=args.backend, window=args.window,
                        stride=args.stride, max_cycles=args.max_cycles,
                        app=target)
                    basename = f"{target}-{args.against}" \
                               f"-vs-{args.backend}"
                else:
                    print("error: pick a failing pair: --fault "
                          "FILE[:ID], --run ID, or --against BACKEND",
                          file=sys.stderr)
                    return 2
        except TriageError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
        _write_triage(result, basename, args.out, ledger,
                      wall_seconds=time.monotonic() - start,
                      html=not args.no_html)
    finally:
        if ledger is not None:
            ledger.close()
    return 0


def _obs_report(ledger, args) -> int:
    counts = ledger.counts()
    if not counts:
        print(f"ledger {ledger.path}: empty")
        return 0
    tally = ", ".join(f"{kind}={count}"
                      for kind, count in sorted(counts.items()))
    print(f"ledger {ledger.path}: {tally}")
    for run in ledger.runs(limit=args.limit):
        when = datetime.fromtimestamp(run.started_at) \
            .strftime("%Y-%m-%d %H:%M:%S")
        verdict = "PASS" if run.passed else "FAIL"
        line = (f"  #{run.run_id} {when} [{verdict}] {run.kind} "
                f"wall {run.wall_seconds:.2f}s")
        if run.backend:
            line += f" backend={run.backend}"
        if run.jobs:
            line += f" jobs={run.jobs}"
        if run.git_rev:
            line += f" rev={run.git_rev}"
        print(line)
    return 0


def _obs_compare(ledger, args) -> int:
    from .obs.ledger import Ledger
    from .obs.regress import Thresholds, compare_run

    thresholds = Thresholds(sigma=args.sigma,
                            min_samples=args.min_samples,
                            min_rel=args.min_rel,
                            coverage_drop=args.coverage_drop,
                            cache_drop=args.cache_drop)
    baseline = None
    if args.baseline:
        if not Path(args.baseline).exists():
            print(f"error: no baseline ledger at {args.baseline}",
                  file=sys.stderr)
            return 2
        baseline = Ledger(args.baseline)
    try:
        report = compare_run(ledger, run_id=args.run, baseline=baseline,
                             thresholds=thresholds)
    finally:
        if baseline is not None:
            baseline.close()
    print(report.summary())
    if report.run is None:
        return 2
    if report.findings and args.fail_on_regression:
        return 1
    return 0


def _obs_dashboard(ledger, args) -> int:
    from .obs.dashboard import render_dashboard

    html = render_dashboard(ledger, history=args.history, title=args.title)
    out = Path(args.output)
    if out.parent and not out.parent.exists():
        out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(html)
    print(f"dashboard -> {out} (self-contained; open in any browser)")
    return 0


def _obs_export(ledger, args) -> int:
    from .obs.dashboard import export_json, export_prometheus

    if args.format == "prom":
        text = export_prometheus(ledger)
    else:
        text = export_json(ledger, history=args.history)
    if args.output:
        Path(args.output).write_text(text)
        print(f"export -> {args.output}")
    else:
        print(text, end="")
    return 0


def _obs_gc(ledger, args) -> int:
    if args.keep < 0:
        print(f"error: --keep must be >= 0, got {args.keep}",
              file=sys.stderr)
        return 2
    removed = ledger.gc(keep=args.keep)
    print(f"gc: removed {removed} run(s), kept the newest "
          f"{args.keep} in {ledger.path}")
    return 0


def _obs_profile(args) -> int:
    from .obs.profile import ProfileError, profile_case

    try:
        report = profile_case(args.case, seed=args.seed,
                              backend=args.backend,
                              fsm_mode=args.fsm_mode)
    except ProfileError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(report.format(top=args.top))
    if args.collapsed:
        path = report.write_collapsed(args.collapsed)
        print(f"collapsed stacks -> {path} "
              f"(feed to flamegraph.pl or speedscope)")
    if args.json:
        path = report.write_json(args.json)
        print(f"profile json -> {path}")
    return 0


_OBS_COMMANDS = {
    "report": _obs_report,
    "compare": _obs_compare,
    "dashboard": _obs_dashboard,
    "export": _obs_export,
    "gc": _obs_gc,
}


def _cmd_obs(args) -> int:
    from .obs.ledger import LEDGER_ENV, Ledger, LedgerError

    # profile runs a fresh simulation; it neither needs nor opens
    # a ledger
    if args.obs_command == "profile":
        return _obs_profile(args)

    path = args.ledger or os.environ.get(LEDGER_ENV) \
        or "repro-ledger.sqlite"
    if not Path(path).exists():
        print(f"error: no ledger at {path} (record one with --ledger/"
              f"${LEDGER_ENV} on suite/flow/fuzz runs)", file=sys.stderr)
        return 2
    try:
        with Ledger(path) as ledger:
            return _OBS_COMMANDS[args.obs_command](ledger, args)
    except LedgerError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def _cmd_serve(args) -> int:
    import asyncio

    from .obs.ledger import LEDGER_ENV
    from .serve import ServeDaemon, ServeScheduler

    jobs = _resolve_jobs(args.jobs)
    ledger_path = args.ledger or os.environ.get(LEDGER_ENV) or None
    try:
        scheduler = ServeScheduler(jobs=jobs, batch_max=args.batch_max,
                                   cache=args.cache)
    except (RuntimeError, NotADirectoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    daemon = ServeDaemon(scheduler, socket_path=args.socket,
                         http_port=args.http, ledger_path=ledger_path)
    print(f"serve: {jobs} worker(s), batch_max={args.batch_max}, "
          f"listening on {args.socket}"
          + (f" and http://127.0.0.1:{args.http}" if args.http else ""),
          flush=True)
    with _tracing(args.trace):
        stats = asyncio.run(daemon.run())
    print(f"serve: {stats['submitted']} job(s) submitted, "
          f"{stats['executed']} executed, "
          f"{stats['coalesced']} coalesced, "
          f"{stats['memo_hits'] + stats['artifact_hits']} cache-served, "
          f"{stats['failed']} failed "
          f"({stats['wall_seconds']:.1f}s)")
    if args.metrics:
        from .obs.metrics import serve_metrics

        serve_metrics(stats).write(args.metrics)
        print(f"metrics -> {args.metrics}")
    if ledger_path is not None:
        print(f"ledger -> {ledger_path}")
    return 0


def _cmd_version(args) -> int:
    from . import __version__

    print(f"repro {__version__}")
    return 0


_COMMANDS = {
    "suite": _cmd_suite,
    "fuzz": _cmd_fuzz,
    "faults": _cmd_faults,
    "inject": _cmd_inject,
    "campaign": _cmd_campaign,
    "triage": _cmd_triage,
    "table1": _cmd_table1,
    "flow": _cmd_flow,
    "translate": _cmd_translate,
    "serve": _cmd_serve,
    "obs": _cmd_obs,
    "version": _cmd_version,
}


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    return _COMMANDS[args.command](args)


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    sys.exit(main())
