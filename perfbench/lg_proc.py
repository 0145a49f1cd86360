"""Looking Glass helper process for the ``collect-day`` workload.

Generates the route servers of the given mounts from the seed, serves
them with :class:`repro.lg.LookingGlassServer` under a
:class:`repro.lg.FaultSchedule`, prints ``READY <port>`` and serves
until SIGTERM. ``repro.obs`` is enabled, as ``repro-study serve`` does
by default. With ``--trace-out`` the layer wrappers are installed
first, and spans plus the ``repro.obs`` snapshot are written there on
exit.

Run from the repository root with ``PYTHONPATH=src``::

    python3 perfbench/lg_proc.py --seed 1 --scale 0.005 \\
        --mounts decix-fra:4 bcix:6 --slow-delay 0.001 --malformed-every 40
"""

from __future__ import annotations

import argparse
import signal
import sys
import threading
from pathlib import Path


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--scale", type=float, required=True)
    parser.add_argument("--mounts", nargs="+", required=True,
                        help="ixp:family pairs")
    parser.add_argument("--slow-delay", type=float, required=True)
    parser.add_argument("--malformed-every", type=int, required=True)
    parser.add_argument("--trace-out", default=None)
    parser.add_argument("--run-id", default="")
    args = parser.parse_args()

    stop = threading.Event()
    signal.signal(signal.SIGTERM, lambda *_: stop.set())

    tracer = None
    if args.trace_out:
        from layers import install
        from spans import Tracer
        tracer = Tracer(args.run_id, "lg")
        install(tracer, "lg")

    from repro import obs
    from repro.ixp import get_profile
    from repro.lg import FaultSchedule, LookingGlassServer
    from repro.workload import ScenarioConfig, SnapshotGenerator

    obs.enable()
    config = ScenarioConfig(scale=args.scale, seed=args.seed)
    generators = {}
    mounts = {}
    for spec in args.mounts:
        ixp, family = spec.split(":")
        if ixp not in generators:
            generators[ixp] = SnapshotGenerator(get_profile(ixp), config)
        mounts[(ixp, int(family))] = \
            generators[ixp].populated_route_server(int(family))
    server = LookingGlassServer(
        mounts, faults=FaultSchedule(
            slow_every=1, slow_delay=args.slow_delay,
            malformed_every=args.malformed_every))
    server.start()
    print(f"READY {server.port}", flush=True)
    try:
        while not stop.wait(0.5):
            pass
    finally:
        server.stop()
        if tracer is not None:
            tracer.dump(Path(args.trace_out),
                        {"obs": obs.get_registry().snapshot()})
    return 0


if __name__ == "__main__":
    sys.exit(main())
