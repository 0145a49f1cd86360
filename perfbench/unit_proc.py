"""Measured units of a batch workload (``collect-day``,
``analyze-cold``), in a process of their own.

The benchmark process generates the inputs, starts helpers and checks
the outputs; this process only runs the program on the inputs, so its
peak memory (VmHWM) and CPU time are the program's alone. It calls the
workload's ``units(context, seconds)`` and writes the result, with the
process's VmHWM, as JSON to ``--out``. With ``--trace-out`` the layer
wrappers are installed first, and the spans, the aio connection-pool
counters and (where the workload reads them) the ``repro.obs``
snapshot are written there on exit.

Run from the repository root with ``PYTHONPATH=src``::

    python3 perfbench/unit_proc.py --workload analyze-cold \\
        --context CONTEXT.json --seconds 10 --out RESULT.json
"""

from __future__ import annotations

import argparse
import importlib
import json
import sys
from pathlib import Path


def main() -> int:
    from common import WORKLOADS, vm_hwm_mb

    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--context", required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--trace-out", default=None)
    args = parser.parse_args()

    module, cls = WORKLOADS[args.workload]
    workload = getattr(importlib.import_module(module), cls)()
    context = json.loads(Path(args.context).read_text())

    tracer = None
    if args.trace_out:
        import layers
        from spans import Tracer
        tracer = Tracer(args.workload, "units")
        layers.install(tracer, "bench")
        workload.tracer = tracer
        if workload.obs_in_bench:
            from repro import obs
            obs.enable()

    result = workload.units(context, args.seconds)
    result["rss_mb"] = vm_hwm_mb()
    Path(args.out).write_text(json.dumps(result))

    if tracer is not None:
        extra = {"pools": [[p.opened, p.reused] for p in tracer.pools]}
        if workload.obs_in_bench:
            extra["obs"] = obs.get_registry().snapshot()
        tracer.dump(Path(args.trace_out), extra)
    return 0


if __name__ == "__main__":
    sys.exit(main())
