"""Token-bucket rate limiting shared by both HTTP servers.

The simulated Looking Glass uses it to reproduce the paper's §3
"query rate limits", and the query API needs the identical discipline.
Each server counts its own rejections at its ``try_acquire`` call
site.

``retry_after`` fix: the original property computed
``max(0, 1 - tokens) / rate`` from the token count *at read time*.
Between a failed :meth:`try_acquire` (HTTP 429 sent) and the
``Retry-After`` header being rendered, refill can race a token back
into the bucket, so clients could be told to retry after ``0.000``
seconds — and a burst of them would immediately 429 again. The wait is
now computed against the post-acquire deficit and clamped to
:data:`MIN_RETRY_AFTER`, so a rejected request always receives a
positive, monotonically sensible sleep.
"""

from __future__ import annotations

import threading
import time

#: floor for ``retry_after``: a rejected client is never told to sleep
#: zero (or negative) seconds, even when refill has raced a token back
#: into the bucket before the header was rendered.
MIN_RETRY_AFTER = 0.001


class TokenBucket:
    """Classic token bucket; thread-safe. Each HTTP server serves from
    one event-loop thread, but tests and callers on other threads read
    and replace buckets while it serves. ``try_acquire`` never blocks;
    ``retry_after`` suggests a strictly positive client sleep."""

    def __init__(self, rate_per_second: float, burst: int) -> None:
        if rate_per_second <= 0:
            raise ValueError("rate must be positive")
        self.rate = rate_per_second
        self.capacity = max(1, burst)
        self._tokens = float(self.capacity)
        self._updated = time.monotonic()
        self._lock = threading.Lock()

    def _refill(self) -> None:
        """Accrue tokens since the last update (lock held)."""
        now = time.monotonic()
        elapsed = now - self._updated
        self._updated = now
        self._tokens = min(self.capacity,
                           self._tokens + elapsed * self.rate)

    def try_acquire(self, tokens: float = 1.0) -> bool:
        """Take *tokens* if available; never blocks."""
        with self._lock:
            self._refill()
            if self._tokens >= tokens:
                self._tokens -= tokens
                return True
            return False

    @property
    def retry_after(self) -> float:
        """Suggested wait (seconds) before the next token is available.

        Always at least :data:`MIN_RETRY_AFTER` — under a burst refill
        race the deficit can be zero or negative by the time the
        header is rendered, and "retry after 0s" just re-synchronises
        the thundering herd onto the next 429.
        """
        with self._lock:
            self._refill()
            missing = 1.0 - self._tokens
            return max(missing / self.rate, MIN_RETRY_AFTER)
