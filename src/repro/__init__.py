"""repro: a functional test infrastructure for compiler-generated FPGA designs.

A faithful reproduction of Rodrigues & Cardoso, *"An Infrastructure to
Functionally Test Designs Generated by Compilers Targeting FPGAs"*
(DATE 2005), as a self-contained Python library:

* :mod:`repro.compiler` — a high-level compiler (the Galadriel & Nenya
  substitute) turning restricted-Python algorithms into datapath /
  FSM / RTG descriptions;
* :mod:`repro.hdl` — the three XML dialects and their object models;
* :mod:`repro.translate` — the XSLT-equivalent backends (simulator
  netlists, generated Python, Graphviz dot, VHDL, Verilog);
* :mod:`repro.sim` + :mod:`repro.operators` — the event-driven
  simulation kernel and operator library (the Hades substitute);
* :mod:`repro.rtg` — the reconfiguration runtime executing temporal
  partitions;
* :mod:`repro.golden` — software execution of the input algorithm;
* :mod:`repro.core` — the verification harness: stimulus files,
  golden-vs-simulation comparison, the automated flow, suite runner and
  Table I metrics;
* :mod:`repro.apps` — the paper's benchmarks (FDCT, Hamming) and more;
* :mod:`repro.cosim` — hardware/software co-simulation: a host CPU
  tightly coupled to compiled accelerators (the paper's further work).

Quickstart::

    from repro import MemorySpec, compile_function, verify_design

    def double(src, dst, n=16):
        for i in range(n):
            dst[i] = src[i] * 2

    design = compile_function(
        double,
        arrays={"src": MemorySpec(16, 16, role="input"),
                "dst": MemorySpec(16, 16, role="output")},
        params={"n": 16},
    )
    result = verify_design(design, double, {"src": list(range(16))})
    assert result.passed
"""

import importlib

from .compiler import (CompileError, Design, MemorySpec,
                       UnsupportedConstructError, compile_function)
from .core import (TestInfrastructure, TestSuite, SuiteCase, collect_metrics,
                   format_table, standard_flow, verify_design)
from .golden import run_golden
from .hdl import (Datapath, Fsm, Rtg, load_datapath, load_fsm, load_rtg,
                  load_rtg_bundle, save_datapath, save_fsm, save_rtg)
from .rtg import ReconfigurationContext, RtgExecutor
from .sim import ObliviousSimulator, Simulator
from .translate import build_simulation, translate
from .util import MemoryImage, compare_images

__version__ = "1.0.0"

#: co-simulation names, imported from :mod:`repro.cosim` on first access
#: (PEP 562): the verification path never needs them
_LAZY_COSIM = ("CosimResult", "CoupledSystem", "Microprocessor")


def __getattr__(name: str):
    if name not in _LAZY_COSIM:
        raise AttributeError(f"module {__name__!r} has no attribute "
                             f"{name!r}")
    value = getattr(importlib.import_module(".cosim", __name__), name)
    globals()[name] = value
    return value

__all__ = [
    "compile_function", "Design", "MemorySpec", "CompileError",
    "UnsupportedConstructError",
    "verify_design", "TestInfrastructure", "TestSuite", "SuiteCase",
    "standard_flow", "collect_metrics", "format_table",
    "run_golden",
    "Datapath", "Fsm", "Rtg",
    "save_datapath", "save_fsm", "save_rtg",
    "load_datapath", "load_fsm", "load_rtg", "load_rtg_bundle",
    "ReconfigurationContext", "RtgExecutor",
    "Simulator", "ObliviousSimulator",
    "build_simulation", "translate",
    "MemoryImage", "compare_images",
    "CoupledSystem", "CosimResult", "Microprocessor",
    "__version__",
]
