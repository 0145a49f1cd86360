#!/usr/bin/env python3
"""The repository benchmark: three workloads against the real stack.

Usage, from the repository root::

    python3 perfbench/run.py --workload collect-day --seed 1 \\
        --seconds 10 --trace 0

Workloads: ``collect-day``, ``analyze-cold`` and ``query-live`` (see
README.md in this directory). Each run sets up ``SETUP_REPEATS`` times
and reports the median set-up cost, measures for ``--seconds``,
checks the outputs, and prints human-readable lines followed by one
JSON result line: ``{"correct", "attempted", "failed", "metrics"}``.
Timings that carry a bound are reference CPU seconds: CPU times scaled
by a gauge measured at the same time (``common.Gauge``; README.md says
why). Raw CPU and wall-clock figures are printed beside them.

``--trace 0`` reports the end-to-end metrics. ``--trace 1`` runs the
workload twice, first untraced and then with the layer wrappers of
``layers.py`` installed in every process, and reports the per-layer
metrics plus the tracing overhead. The spans of the traced pass are
kept in ``.perfbench_work/`` under the repository root.

Exits 2 without a result line when the program (``src/repro``) is not
there.
"""

from __future__ import annotations

import argparse
import importlib
import json
import shutil
import statistics
import sys
import time
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

ROOT = Path.cwd()

#: end-to-end metrics every workload reports, in BENCHMARK.json order.
END_TO_END = ("setup_s", "work_per_ref_cpu_s", "ok_share", "peak_rss_mb",
              "store_bytes_per_route")


def run_pass(bench: Any, workload: Any, repeats: int,
             trace_dir: Optional[Path] = None,
             ) -> Tuple[List[Tuple[float, float, float]], Dict, Tuple]:
    """Set up *repeats* times (keeping the last), measure, tear down.
    Returns ((reference CPU, CPU, wall) seconds per set-up,
    measurement, window of the last set-up)."""
    from common import Gauge, tree_cpu_s
    raw: List[Tuple[float, float]] = []
    state = None
    window = (0.0, 0.0)
    try:
        with Gauge() as gauge:
            for _index in range(repeats):
                if state is not None:
                    workload.teardown(state)
                    state = None
                started, cpu0 = time.perf_counter(), time.process_time()
                gauge0 = gauge.cpu_s
                state = workload.setup(bench, trace_dir)
                cpu = (time.process_time() - cpu0) - (gauge.cpu_s - gauge0)
                if "helper" in state:
                    cpu += tree_cpu_s(state["helper"].proc.pid)
                wall = time.perf_counter() - started
                raw.append((cpu, wall))
                window = (started, started + wall)
        setups = [(gauge.reference_cpu_s(cpu), cpu, wall)
                  for cpu, wall in raw]
        measurement = workload.measure(bench, state, bench.seconds,
                                       trace_dir)
    finally:
        if state is not None:
            workload.teardown(state)
    return setups, measurement, window


def end_to_end(bench: Any, workload: Any,
               setups: List[Tuple[float, float, float]],
               measurement: Dict) -> Dict[str, Dict[str, Any]]:
    from common import metric
    values = {"setup_s": (statistics.median(r for r, _c, _w in setups),
                          "s")}
    values.update(workload.end_to_end(measurement))
    bench.say(f"[{workload.name}] setup_s = {values['setup_s'][0]:.4f} s: "
              f"median reference CPU seconds of {len(setups)} set-ups, "
              f"every process (reference CPU: "
              f"{', '.join(f'{r:.3f}' for r, _c, _w in setups)}; CPU: "
              f"{', '.join(f'{c:.3f}' for _r, c, _w in setups)}; wall: "
              f"{', '.join(f'{w:.3f}' for _r, _c, w in setups)})")
    say_named_metrics(bench, workload, measurement, values)
    return {name: metric(*values[name]) for name in END_TO_END}


def say_named_metrics(bench: Any, workload: Any, measurement: Dict,
                      values: Dict[str, Tuple[float, str]],
                      label: str = "") -> None:
    """Print the workload's own metric names (``collect_routes_per_s``,
    ``query_p99_ms``, ...) with unit and sample basis."""
    prefix = f"[{workload.name}]{label}"
    for name, value, unit, basis in workload.named_metrics(
            measurement, values):
        bench.say(f"{prefix} {name} = {value:.6g} {unit} ({basis})")
    bench.say(f"{prefix} peak_rss_mb = {values['peak_rss_mb'][0]:.1f} MB "
              f"(process under test)")


def traced_metrics(bench: Any, workload: Any) -> Tuple[Dict, Dict, Dict]:
    """The untraced pass, then the traced pass; returns (untraced
    measurement, traced measurement, per-layer metrics)."""
    import layers
    from common import metric
    from spans import Tracer, load_dumps

    _s, plain, _w = run_pass(bench, workload, 1)
    plain_e2e = workload.end_to_end(plain)
    say_named_metrics(bench, workload, plain, plain_e2e, " untraced:")

    trace_dir = bench.workdir / "trace"
    trace_dir.mkdir()
    tracer = Tracer(bench.workload, "bench")
    layers.install(tracer, "bench")
    _s, traced, setup_window = run_pass(bench, workload, 1, trace_dir)
    tracer.dump(trace_dir / "bench.json")
    spans, payloads = load_dumps(sorted(trace_dir.glob("*.json")))
    obs_snapshots = [p["obs"] for p in payloads if "obs" in p]
    pools = [pool for p in payloads for pool in p.get("pools", [])]
    traced_e2e = workload.end_to_end(traced)
    say_named_metrics(bench, workload, traced, traced_e2e, " traced:")

    setup_spans = layers.in_window(spans, [setup_window])
    values = {name: 0.0 for name, _unit, _better in layers.PER_LAYER}
    values.update(layers.common_metrics(setup_spans))
    values.update(workload.layer_metrics(
        bench, traced, spans, obs_snapshots, pools))
    values.update({f"wall.{name}": value
                   for name, value in workload.wall(plain).items()})
    untraced = plain_e2e["work_per_ref_cpu_s"][0]
    values["trace.overhead_share"] = layers.ratio(
        untraced, traced_e2e["work_per_ref_cpu_s"][0]) - 1
    bench.say(f"[{workload.name}] tracing overhead: work_per_ref_cpu_s "
              f"{untraced:.6g} untraced vs "
              f"{traced_e2e['work_per_ref_cpu_s'][0]:.6g} traced")
    bench.say(f"[{workload.name}] spans by self time "
              f"({len(spans)} spans, {len(payloads)} processes, "
              f"kept in {trace_dir}):")
    for line in layers.self_time_table(
            layers.in_window(spans, traced["windows"]))[:25]:
        bench.say(line)
    per_layer = {name: metric(values[name], unit)
                 for name, unit, _better in layers.PER_LAYER}
    return plain, traced, per_layer


def main() -> int:
    from common import WORKLOADS
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", type=float, default=None,
                        help="generator scale instead of the workload's "
                             "own (for comparing layer shares across "
                             "scales; see README.md)")
    args = parser.parse_args()

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"no program under {ROOT / 'src' / 'repro'}; run from the "
              f"repository root", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))

    from common import Bench, host_facts, result_line

    workdir = (ROOT / ".perfbench_work"
               / f"{args.workload}-seed{args.seed}-trace{args.trace}")
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    bench = Bench(workload=args.workload, seed=args.seed,
                  seconds=args.seconds, trace=bool(args.trace),
                  root=ROOT, workdir=workdir)
    if args.scale is not None:
        # one unit at the CLI's default scale can take minutes.
        bench.unit_grace = 3600.0
    module, cls = WORKLOADS[args.workload]
    workload_cls = getattr(importlib.import_module(module), cls)
    workload = (workload_cls() if args.scale is None
                else workload_cls(args.scale))
    facts = host_facts(bench)
    facts["scale"] = workload.scale
    bench.say("facts " + json.dumps(facts, sort_keys=True))

    if args.trace:
        plain, traced, metrics = traced_metrics(bench, workload)
        measurements = [plain, traced]
    else:
        from common import SETUP_REPEATS
        setups, measurement, _w = run_pass(bench, workload, SETUP_REPEATS)
        metrics = end_to_end(bench, workload, setups, measurement)
        measurements = [measurement]

    errors = [e for m in measurements for e in m["errors"]]
    attempted = failed = 0
    for m in measurements:
        a, f = workload.attempts(m)
        attempted += a
        failed += f
    for error in errors:
        bench.say(f"[{workload.name}] GATE FAILED: {error}")
    if not args.trace:
        shutil.rmtree(workdir, ignore_errors=True)
    print(result_line(not errors, attempted, failed, metrics), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
