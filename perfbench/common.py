"""Shared plumbing: the run context, helper processes, host facts and
result formatting."""

from __future__ import annotations

import json
import os
import platform
import signal
import socket
import statistics
import subprocess
import sys
import threading
import time
import urllib.request
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence

HERE = Path(__file__).resolve().parent

#: how many times a run repeats the whole set-up to report its median.
SETUP_REPEATS = 3

#: date every collected or generated snapshot of a run is stamped with.
COLLECT_DATE = "2021-10-04"

#: CPU seconds one gauge sample takes on the reference host.
GAUGE_REFERENCE_S = 0.01
#: seconds between two gauge samples.
GAUGE_PERIOD_S = 0.2

#: workload name -> (module, class) in this directory.
WORKLOADS = {
    "collect-day": ("collect_day", "CollectDay"),
    "analyze-cold": ("analyze_cold", "AnalyzeCold"),
    "query-live": ("query_live", "QueryLive"),
}


@dataclass
class Bench:
    """One benchmark invocation."""

    workload: str
    seed: int
    seconds: float
    trace: bool
    root: Path          # the checkout: benchmark inputs live under it
    workdir: Path       # scratch space for this run, inside the checkout
    #: seconds a unit process may run past ``seconds`` before it is
    #: killed as hung.
    unit_grace: float = 120.0

    def say(self, text: str) -> None:
        """A human-readable line, printed before the result line."""
        print(text, flush=True)

    def child_env(self) -> Dict[str, str]:
        env = dict(os.environ)
        src = str(self.root / "src")
        env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"]
                                   if env.get("PYTHONPATH") else "")
        return env


def nproc() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # not Linux
        return os.cpu_count() or 1


def host_facts(bench: Bench) -> Dict[str, Any]:
    model = platform.processor() or platform.machine()
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                model = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {
        "nproc": nproc(),
        "cpu_model": model,
        "python": platform.python_version(),
        "platform": platform.platform(),
        "seed": bench.seed,
        "seconds": bench.seconds,
        "workload": bench.workload,
        "trace": int(bench.trace),
    }


def free_port() -> int:
    with socket.socket(socket.AF_INET, socket.SOCK_STREAM) as sock:
        sock.bind(("127.0.0.1", 0))
        return sock.getsockname()[1]


def process_tree(pid: int) -> List[int]:
    """*pid* and its live descendants (Linux ``/proc``)."""
    pids = [pid]
    for member in pids:
        try:
            tasks = list(Path(f"/proc/{member}/task").iterdir())
        except OSError:
            continue
        for task in tasks:
            try:
                pids += [int(c) for c in
                         (task / "children").read_text().split()]
            except OSError:
                pass
    return pids


def tree_cpu_s(pid: int) -> float:
    """CPU seconds (user + system) used so far by *pid* and its live
    descendants. CPU time leaves out the time the hypervisor gives the
    vCPU to other guests, which wall time on a shared host does not."""
    ticks = os.sysconf("SC_CLK_TCK")
    total = 0
    for member in process_tree(pid):
        try:
            stat = Path(f"/proc/{member}/stat").read_text()
        except OSError:
            continue
        fields = stat[stat.rindex(")") + 2:].split()
        total += int(fields[11]) + int(fields[12])   # utime, stime
    return total / ticks


class Gauge:
    """Measures how fast the host runs Python code while timed work
    runs beside it.

    A daemon thread times a small fixed piece of work (encoding and
    decoding 300 JSON records, ~0.01 s) every ``GAUGE_PERIOD_S``, in
    its own thread CPU time. :meth:`reference_cpu_s` scales a CPU time
    measured meanwhile to a host on which one sample takes
    ``GAUGE_REFERENCE_S``, using the median sample. ``cpu_s`` is the
    thread's own CPU time so far, for subtracting from the process's.
    """

    def __init__(self) -> None:
        self.samples: List[float] = []
        self.cpu_s = 0.0
        self._records = [{"prefix": f"10.{i % 256}.{i // 256}.0/24",
                          "asn": i,
                          "communities": [[i % 65535, j] for j in range(4)]}
                         for i in range(300)]
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, name="gauge",
                                        daemon=True)

    def __enter__(self) -> "Gauge":
        self._thread.start()
        return self

    def __exit__(self, *_exc: Any) -> None:
        self._stop.set()
        self._thread.join()

    def _run(self) -> None:
        while True:
            started = time.thread_time()
            data = self._records
            for _round in range(5):
                data = json.loads(json.dumps(data, sort_keys=True))
            self.samples.append(time.thread_time() - started)
            self.cpu_s = time.thread_time()
            if self._stop.wait(GAUGE_PERIOD_S):
                return

    def reference_cpu_s(self, cpu_s: float) -> float:
        return cpu_s * GAUGE_REFERENCE_S / statistics.median(self.samples)


def vm_hwm_mb(pid: Any = "self") -> float:
    """Peak resident set size (VmHWM) of one process, in MB (0 when the
    process is gone)."""
    try:
        status = Path(f"/proc/{pid}/status").read_text()
    except OSError:
        return 0.0
    for line in status.splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1]) / 1024.0
    return 0.0


class Helper:
    """A helper process (Looking Glass or query API) started from a
    script in this directory. ``stop`` sends SIGTERM, waits, and kills
    it if it does not exit in time; it always reaps the process."""

    def __init__(self, bench: Bench, script: str, args: Sequence[str],
                 log_name: str) -> None:
        self.log_path = bench.workdir / f"{log_name}.log"
        self._log = open(self.log_path, "wb")
        self.proc = subprocess.Popen(
            [sys.executable, str(HERE / script), *args],
            stdout=subprocess.PIPE, stderr=self._log,
            env=bench.child_env(), cwd=str(bench.root))

    def read_line(self, timeout: float) -> str:
        """The helper's next stdout line (its readiness report)."""
        import selectors
        selector = selectors.DefaultSelector()
        selector.register(self.proc.stdout, selectors.EVENT_READ)
        try:
            if not selector.select(timeout):
                raise RuntimeError(
                    f"helper gave no output within {timeout}s; see "
                    f"{self.log_path}")
        finally:
            selector.close()
        line = self.proc.stdout.readline().decode().strip()
        if not line:
            raise RuntimeError(f"helper exited early; see {self.log_path}")
        return line

    def stop(self, timeout: float = 20.0) -> int:
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.proc.stdout.close()
        self._log.close()
        return self.proc.returncode


def run_units(bench: Bench, workload: str, context: Dict[str, Any],
              seconds: float, trace_dir: Optional[Path]) -> Dict[str, Any]:
    """Run a batch workload's measured units in a fresh process
    (``unit_proc.py``) and return what it reports. The process holds
    only the program and its inputs, so its peak memory and CPU time
    are the program's."""
    context_path = bench.workdir / "units-in.json"
    out_path = bench.workdir / "units-out.json"
    context_path.write_text(json.dumps(context))
    args = [sys.executable, str(HERE / "unit_proc.py"),
            "--workload", workload, "--context", str(context_path),
            "--seconds", str(seconds), "--out", str(out_path)]
    if trace_dir is not None:
        args += ["--trace-out", str(trace_dir / "units.json")]
    log_path = bench.workdir / "units.log"
    with open(log_path, "wb") as log:
        done = subprocess.run(args, stdout=log, stderr=log,
                              env=bench.child_env(), cwd=str(bench.root),
                              timeout=seconds + bench.unit_grace)
    if done.returncode != 0:
        raise RuntimeError(f"unit process exited {done.returncode}; "
                           f"see {log_path}")
    result = json.loads(out_path.read_text())
    out_path.unlink()
    return result


def wait_http(url: str, timeout: float) -> None:
    deadline = time.monotonic() + timeout
    while True:
        try:
            with urllib.request.urlopen(url, timeout=2) as response:
                if response.status == 200:
                    return
        except OSError:
            pass
        if time.monotonic() > deadline:
            raise RuntimeError(f"{url} not ready within {timeout}s")
        time.sleep(0.05)


def metric(value: float, unit: str) -> Dict[str, Any]:
    return {"value": float(value), "unit": unit}


def result_line(correct: bool, attempted: int, failed: int,
                metrics: Dict[str, Dict[str, Any]]) -> str:
    return json.dumps({"correct": bool(correct),
                       "attempted": int(max(1, attempted)),
                       "failed": int(failed),
                       "metrics": metrics})
