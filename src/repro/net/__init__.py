"""``repro.net`` — HTTP-server substrate shared by every serving layer.

Both HTTP front doors of this repository — the simulated Looking Glass
(:mod:`repro.lg.server`) and the study query API
(:mod:`repro.query.server`) — need the same two ingredients:

* a :class:`TokenBucket` request rate limiter whose ``retry_after``
  suggestion is always a positive sleep (a 429 must never tell the
  client to retry "in 0 seconds"), and
* a :class:`ShutdownLatch` that turns SIGINT/SIGTERM into an event a
  foreground server can block on, instead of polling ``time.sleep``
  loops that only ``KeyboardInterrupt`` can break, and
* the shared full-jitter backoff schedule (:mod:`repro.net.backoff`)
  every retry loop in the repository draws its delays from — the LG
  client, dispatch work stealing, and filesystem fault retries, and
* the event-driven I/O substrate (:mod:`repro.net.aio`): a selectors
  event loop, HTTP/1.1 client codec, and capped keep-alive connection
  pool behind the LG client, and
* the server side on that loop (:mod:`repro.net.httpserver`): an
  HTTP/1.1 server codec and a one-thread accept/read/write loop
  behind both the query API and the Looking Glass.

Keeping them here (rather than inside ``repro.lg``) lets the query
service depend on the rate limiter without importing the Looking
Glass, route servers, and workload machinery behind it.
"""

from .aio import (
    ConnectionClosed,
    ConnectionPool,
    EventLoop,
    HTTPResponse,
    IOTimeout,
    ProtocolError,
    Semaphore,
    Task,
    TaskCancelled,
    TimerWheel,
    http_request,
)
from .backoff import FullJitterBackoff, full_jitter_delay
from .ratelimit import MIN_RETRY_AFTER, TokenBucket
from .shutdown import ShutdownLatch

__all__ = ["TokenBucket", "MIN_RETRY_AFTER", "ShutdownLatch",
           "FullJitterBackoff", "full_jitter_delay",
           "EventLoop", "Task", "TimerWheel", "Semaphore",
           "ConnectionPool", "HTTPResponse", "http_request",
           "IOTimeout", "ConnectionClosed", "ProtocolError",
           "TaskCancelled"]
