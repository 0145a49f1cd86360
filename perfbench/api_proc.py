"""Query API launcher for the ``query-live`` workload.

Runs ``repro-study api`` (:func:`repro.cli.main`) with the arguments
after ``--``. With ``--trace-dir`` the layer wrappers are installed
before the pre-fork workers start, so every worker inherits them; each
worker writes its spans and ``repro.obs`` snapshot to
``<trace-dir>/api-<pid>.json`` once its server has drained.

Run from the repository root with ``PYTHONPATH=src``::

    python3 perfbench/api_proc.py -- api --store STORE --port 8700
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--trace-dir", default=None)
    parser.add_argument("--run-id", default="")
    parser.add_argument("cli", nargs=argparse.REMAINDER)
    args = parser.parse_args()
    cli_args = args.cli[1:] if args.cli[:1] == ["--"] else args.cli

    if args.trace_dir:
        from layers import install
        from spans import Tracer
        from repro import obs
        from repro.query.server import QueryHTTPServer

        tracer = Tracer(args.run_id, "api")
        install(tracer, "api")
        stop = QueryHTTPServer.stop

        def stop_and_dump(server: QueryHTTPServer) -> None:
            stop(server)
            tracer.dump(Path(args.trace_dir) / f"api-{os.getpid()}.json",
                        {"obs": obs.get_registry().snapshot()})
        QueryHTTPServer.stop = stop_and_dump

    from repro.cli import main as cli_main
    return cli_main(cli_args)


if __name__ == "__main__":
    sys.exit(main())
