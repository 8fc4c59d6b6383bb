"""The verification path loads no observability or co-simulation
module it does not use: ``repro.obs`` and ``repro`` re-export those
names lazily (PEP 562)."""

import json
import os
import subprocess
import sys
from pathlib import Path

import repro

#: modules ``import repro.apps, repro.inject`` must leave unloaded
LAZY = ("repro.obs.dashboard", "repro.obs.ledger", "repro.obs.metrics",
        "repro.obs.profile", "repro.obs.regress", "repro.obs.triage",
        "repro.cosim")

PROBE = """
import json, sys
import repro.apps, repro.inject
before = sorted(name for name in sys.modules if name.startswith("repro"))
from repro.obs import Ledger, render_dashboard, triage_fault
from repro import CoupledSystem
import repro.obs
print(json.dumps({
    "before": before,
    "names": [Ledger.__module__, render_dashboard.__module__,
              triage_fault.__module__, CoupledSystem.__module__],
    "missing": hasattr(repro.obs, "no_such_name"),
}))
"""


def test_verify_path_leaves_obs_and_cosim_unloaded():
    env = dict(os.environ,
               PYTHONPATH=str(Path(repro.__file__).resolve().parents[1]))
    out = subprocess.run([sys.executable, "-c", PROBE], env=env,
                         capture_output=True, text=True, check=True)
    seen = json.loads(out.stdout)
    assert not set(LAZY) & set(seen["before"])
    assert seen["names"] == ["repro.obs.ledger", "repro.obs.dashboard",
                             "repro.obs.triage", "repro.cosim.system"]
    assert seen["missing"] is False
