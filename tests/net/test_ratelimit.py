"""Tests for the shared token bucket (repro.net.ratelimit)."""

import threading

import pytest

import repro.net.ratelimit as rl
from repro.net.ratelimit import MIN_RETRY_AFTER, TokenBucket


@pytest.fixture
def clock(monkeypatch):
    """A controllable monotonic clock wired into the bucket module."""
    now = [0.0]
    monkeypatch.setattr(rl.time, "monotonic", lambda: now[0])
    return now


class TestTokenBucket:
    def test_burst_then_blocked(self):
        bucket = TokenBucket(rate_per_second=0.0001, burst=2)
        assert bucket.try_acquire()
        assert bucket.try_acquire()
        assert not bucket.try_acquire()

    def test_refill(self, clock):
        bucket = TokenBucket(rate_per_second=10.0, burst=1)
        assert bucket.try_acquire()
        assert not bucket.try_acquire()
        clock[0] += 0.1
        assert bucket.try_acquire()

    def test_capacity_cap(self, clock):
        """A long idle spell refills the bucket to its burst, no
        further."""
        bucket = TokenBucket(rate_per_second=100.0, burst=2)
        clock[0] += 100.0
        assert bucket.try_acquire()
        assert bucket.try_acquire()
        assert not bucket.try_acquire()

    def test_invalid_rate(self):
        with pytest.raises(ValueError):
            TokenBucket(rate_per_second=0.0, burst=1)

    def test_burst_clamped_to_one(self):
        bucket = TokenBucket(rate_per_second=0.0001, burst=0)
        assert bucket.try_acquire()
        assert not bucket.try_acquire()

    def test_retry_after_positive_when_empty(self, clock):
        bucket = TokenBucket(rate_per_second=2.0, burst=1)
        bucket.try_acquire()
        assert bucket.retry_after == pytest.approx(0.5)

    def test_retry_after_never_zero_or_negative(self, clock):
        """Regression for the burst-refill race: drain the bucket, let
        refill restore it past full before anyone reads the header —
        missing tokens go negative, and the old code handed clients a
        negative Retry-After. The contract is a positive floor."""
        bucket = TokenBucket(rate_per_second=100.0, burst=5)
        for _ in range(5):
            assert bucket.try_acquire()
        assert bucket.retry_after >= MIN_RETRY_AFTER
        clock[0] += 10.0  # refill far past capacity
        assert bucket.retry_after >= MIN_RETRY_AFTER
        assert bucket.retry_after == MIN_RETRY_AFTER

    def test_retry_after_full_bucket_is_floor(self):
        bucket = TokenBucket(rate_per_second=1.0, burst=3)
        assert bucket.retry_after == MIN_RETRY_AFTER

    def test_thread_safety_no_overdraft(self):
        """Many threads racing a small bucket never acquire more than
        burst + accrued tokens."""
        bucket = TokenBucket(rate_per_second=0.0001, burst=50)
        won = []
        barrier = threading.Barrier(8)

        def worker():
            barrier.wait()
            for _ in range(25):
                if bucket.try_acquire():
                    won.append(1)

        threads = [threading.Thread(target=worker) for _ in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert len(won) == 50
