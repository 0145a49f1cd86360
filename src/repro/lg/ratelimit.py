"""Fault injection for the Looking Glass server.

The paper's collection "was subject to communication failures because of
LG instability and/or query rate limits" (§3, citing Periscope). The
simulated LG reproduces both: the shared
:class:`repro.net.ratelimit.TokenBucket` answers HTTP 429 when clients
query too fast, and this module's instability injector fails a
fraction of requests with HTTP 503.

On top of those two probabilistic modes, :class:`FaultSchedule` injects
the *deterministic* fault shapes a resilient campaign must survive:
scheduled outage windows (every request in a request-index window gets
503 — an LG down for an afternoon), slow responses (the server stalls
before answering, to exercise client timeouts), and truncated JSON
payloads (the bytes on the wire stop mid-document — the malformed
responses §3's sanitation existed to catch downstream).
"""

from __future__ import annotations

import threading
import types
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence, Tuple

from .. import obs
from ..utils import stable_fraction

#: fault kinds a :class:`FaultSchedule` can inject.
FAULT_OUTAGE = "outage"
FAULT_SLOW = "slow"
FAULT_MALFORMED = "malformed"

_METRICS = obs.MetricSet(lambda reg: types.SimpleNamespace(
    instability=reg.counter(
        "repro_lg_server_instability_total",
        "Requests failed 503 by the probabilistic instability "
        "injector"),
    faults=reg.counter(
        "repro_lg_server_faults_total",
        "Scheduled faults injected by kind", ("kind",)),
))


@dataclass
class InstabilityInjector:
    """Deterministically fails a fraction of requests (HTTP 503).

    Failures are keyed on (seed, counter) so test runs are reproducible,
    and bursty: failures cluster in runs of `burst_length`, mimicking an
    LG falling over for a stretch rather than coin-flip noise.
    """

    failure_rate: float = 0.0
    burst_length: int = 5
    seed: int = 7
    _counter: int = 0

    def should_fail(self) -> bool:
        if self.failure_rate <= 0:
            return False
        window = self._counter // max(1, self.burst_length)
        self._counter += 1
        failing = stable_fraction(self.seed, window) < self.failure_rate
        if failing:
            _METRICS().instability.labels().inc()
        return failing


@dataclass
class FaultSchedule:
    """Deterministic, request-indexed fault plan for the simulated LG.

    All faults are keyed on a request counter rather than wall-clock
    time, so tests and demos are exactly reproducible:

    * ``outage_windows`` — half-open ``(start, stop)`` request-index
      intervals during which every request fails with HTTP 503;
    * ``slow_every`` — every Nth request is delayed by ``slow_delay``
      seconds before being answered (0 disables);
    * ``malformed_every`` — every Nth request's JSON body is truncated
      mid-document (0 disables).

    Outages shadow the other two: a dead LG answers nothing, slowly or
    otherwise.
    """

    outage_windows: Sequence[Tuple[int, int]] = ()
    slow_every: int = 0
    slow_delay: float = 0.0
    malformed_every: int = 0
    _counter: int = field(default=0, repr=False)
    _lock: threading.Lock = field(default_factory=threading.Lock,
                                  repr=False)

    def next_fault(self) -> Optional[str]:
        """Advance the request counter and return the fault (if any)
        this request should suffer."""
        with self._lock:
            index = self._counter
            self._counter += 1
        fault: Optional[str] = None
        if any(start <= index < stop
               for start, stop in self.outage_windows):
            fault = FAULT_OUTAGE
        # counters are 1-based for the "every Nth" modes so that
        # malformed_every=1 means "every request", not "first only".
        elif self.malformed_every > 0 \
                and (index + 1) % self.malformed_every == 0:
            fault = FAULT_MALFORMED
        elif self.slow_every > 0 and (index + 1) % self.slow_every == 0:
            fault = FAULT_SLOW
        if fault is not None:
            _METRICS().faults.labels(fault).inc()
        return fault

    @property
    def requests_seen(self) -> int:
        with self._lock:
            return self._counter
