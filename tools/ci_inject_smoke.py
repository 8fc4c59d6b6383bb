"""CI fault-injection smoke: the SBFI layer must classify correctly.

Four gates, cheap enough for every push (fdct1, ~200 injections):

1. **Golden equivalence** — a run with zero faults armed must
   classify as ``masked`` with every memory (not just outputs)
   bit-exact against the golden software execution.  If this fails,
   campaign verdicts mean nothing.
2. **SDC canary** — a stuck-at on an output-adjacent net (a line
   wired into an output memory's write-data port) must classify as
   ``sdc``: the injector demonstrably corrupts real outputs and the
   comparator demonstrably notices.  Both stuck polarities are tried
   because one may coincide with the bit's actual value everywhere.
3. **Campaign** — a ~200-fault seeded campaign over the fork pool
   must classify every fault and record to the campaign ledger
   (``inject-campaign.sqlite``).  Hang reproducer descriptors are
   written to ``hang-reproducers.json``; CI uploads both as
   artifacts, so a hang replays locally with
   ``repro inject fdct1 --replay hang-reproducers.json``.
4. **Rewind fidelity** — a campaign runs every fault on one rewound
   elaboration; every 8th fault is re-run on a fresh elaboration
   (a one-off ``run_injection``) and must classify identically:
   same verdict, cycles, mechanism and note.

Exit status 0 = all gates pass.
"""

import sys

from repro.apps import suite_case
from repro.inject import (FaultDescriptor, FaultloadGenerator,
                          output_adjacent_nets, run_campaign,
                          run_injection, save_faultload)

CASE = "fdct1"
SIZE = {"pixels": 256}
CAMPAIGN_FAULTS = 200
CAMPAIGN_SEED = 0
JOBS = 4
#: every REWIND_STRIDE-th campaign fault is re-run on a fresh elaboration
REWIND_STRIDE = 8
LEDGER = "inject-campaign.sqlite"
HANGS = "hang-reproducers.json"


def golden_gate(design, case, inputs):
    baseline = run_injection(design, case.func, None, inputs,
                             backend="compiled")
    ok = baseline.verdict == "masked"
    marker = "ok" if ok else "FAIL"
    print(f"[{marker}] golden equivalence: zero-fault run is "
          f"{baseline.verdict} over {baseline.cycles} cycles "
          f"{baseline.note}")
    return baseline if ok else None


def sdc_gate(design, case, inputs):
    nets = output_adjacent_nets(design)
    if not nets:
        print(f"[FAIL] sdc canary: {CASE} exposes no output-adjacent "
              f"nets to target")
        return False
    target = nets[0]
    for value in (0, 1):
        fault = FaultDescriptor(fault_id=f"smoke-sa{value}", kind="stuck",
                                target=target, bit=0, stuck_value=value)
        result = run_injection(design, case.func, fault, inputs,
                               backend="compiled")
        print(f"  stuck-at-{value} {target}[0] -> {result.verdict} "
              f"({result.mechanism}) {result.note}")
        if result.verdict == "sdc":
            print(f"[ok]   sdc canary: output corruption detected on "
                  f"{target}")
            return True
    print(f"[FAIL] sdc canary: neither stuck polarity on {target} "
          f"classified as sdc")
    return False


def campaign_gate(design, case, inputs, baseline):
    generator = FaultloadGenerator(design, seed=CAMPAIGN_SEED,
                                   max_cycle=baseline.cycles)
    faults = generator.generate(CAMPAIGN_FAULTS)
    report = run_campaign(design, case.func, faults, inputs, app=CASE,
                          backend="compiled", jobs=JOBS,
                          seed=CAMPAIGN_SEED, ledger=LEDGER)
    print(report.summary())
    print(f"ledger -> {LEDGER}")
    if len(report.results) != CAMPAIGN_FAULTS:
        print(f"[FAIL] campaign: classified {len(report.results)} of "
              f"{CAMPAIGN_FAULTS} faults")
        return None
    hangs = report.hang_reproducers
    if hangs:
        save_faultload(hangs, HANGS)
        print(f"{len(hangs)} hang reproducer(s) -> {HANGS}")
    print(f"[ok]   campaign: all {CAMPAIGN_FAULTS} faults classified")
    return report


def rewind_gate(design, case, inputs, report):
    def row(result):
        return (result.verdict, result.cycles, result.mechanism,
                result.note)

    sampled = report.results[::REWIND_STRIDE]
    differ = []
    for result in sampled:
        fresh = run_injection(design, case.func, result.fault, inputs,
                              backend="compiled",
                              max_cycles=report.cycle_budget)
        if row(fresh) != row(result):
            differ.append((result.fault, row(result), row(fresh)))
    for fault, rewound, fresh in differ:
        print(f"  {fault.describe()}: rewound {rewound} != fresh {fresh}")
    if differ:
        print(f"[FAIL] rewind fidelity: {len(differ)} of {len(sampled)} "
              f"re-run fault(s) classify differently on a fresh "
              f"elaboration")
        return False
    print(f"[ok]   rewind fidelity: {len(sampled)} re-run fault(s) "
          f"classify identically on a fresh elaboration")
    return True


def main() -> int:
    case = suite_case(CASE, **SIZE)
    design = case.compile()
    inputs = case.inputs(0)
    baseline = golden_gate(design, case, inputs)
    if baseline is None:
        return 1
    if not sdc_gate(design, case, inputs):
        return 1
    report = campaign_gate(design, case, inputs, baseline)
    if report is None:
        return 1
    if not rewind_gate(design, case, inputs, report):
        return 1
    print("inject smoke: all gates passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
