"""One-process-per-job baseline: the cost model ``repro serve`` beats.

``python -m repro.serve.oneshot '<job json>'`` boots a fresh
interpreter, imports the whole toolchain, compiles, simulates,
verifies, prints the result payload and exits — exactly what a naive
"shell out per verification" integration pays for every job.  The
serve bench spawns this per job to measure the baseline its warm
daemon is compared against; both paths run a single job through the
identical :func:`repro.serve.workers.run_job`, so the speedup is all
amortization (interpreter boot, imports, codegen cache warmth), not a
different code path.
"""

from __future__ import annotations

import json
import sys
from typing import List, Optional

from .workers import run_job


def main(argv: Optional[List[str]] = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    raw = argv[0] if argv else sys.stdin.read()
    try:
        job = json.loads(raw)
    except ValueError as exc:
        print(json.dumps({"error": f"bad job JSON: {exc}"}))
        return 2
    payload = run_job(job)
    print(json.dumps(payload, sort_keys=True))
    failed = payload.get("error") is not None \
        or payload.get("verification") is None \
        or any(check["mismatches"]
               for check in payload["verification"]["checks"])
    return 1 if failed else 0


if __name__ == "__main__":
    raise SystemExit(main())
