"""Run ``repro serve`` with the benchmark's layer spans installed.

Usage: ``PYTHONPATH=src python traced_daemon.py EVENTS.jsonl [repro
serve options]``.  The traced serve run starts the daemon through this
launcher so that its fork workers inherit the same wrappers and
recorder as the in-process workloads; the daemon itself is the
unmodified CLI command.
"""

import sys

import layers
from repro.cli import main
from repro.obs import trace

if __name__ == "__main__":
    layers.wrap_layers()
    trace.install(trace.TraceRecorder(sys.argv[1]))
    sys.exit(main(["serve", *sys.argv[2:]]))
