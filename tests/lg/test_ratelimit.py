"""Tests for the LG's rate limiting, instability injector, and the
deterministic fault schedule."""

from repro import obs
from repro.lg import LookingGlassServer
from repro.lg.ratelimit import (
    FAULT_MALFORMED,
    FAULT_OUTAGE,
    FAULT_SLOW,
    FaultSchedule,
    InstabilityInjector,
)


class TestTokenBucket:
    """The LG server's use of the shared repro.net token bucket; the
    bucket mechanics are covered in tests/net/test_ratelimit.py."""

    def test_burst_allowed_then_blocked(self, lg_world):
        """Once the burst is spent the LG answers 429, and counts each
        rejection under its own metric family."""
        server = LookingGlassServer({("linx", 4): lg_world("linx")[1]},
                                    rate_per_second=0.0001, burst=3)
        obs.disable()
        registry = obs.enable()
        try:
            statuses = [server.handle("/linx/v4/api/v1/status")[0]
                        for _ in range(5)]
            rejected = registry.value("repro_lg_server_ratelimited_total")
        finally:
            obs.disable()
        assert statuses == [200, 200, 200, 429, 429]
        assert rejected == 2


class TestInstabilityInjector:
    def test_zero_rate_never_fails(self):
        injector = InstabilityInjector(failure_rate=0.0)
        assert not any(injector.should_fail() for _ in range(100))

    def test_full_rate_always_fails(self):
        injector = InstabilityInjector(failure_rate=1.0)
        assert all(injector.should_fail() for _ in range(100))

    def test_failures_come_in_bursts(self):
        injector = InstabilityInjector(failure_rate=0.3, burst_length=10,
                                       seed=3)
        outcomes = [injector.should_fail() for _ in range(500)]
        assert any(outcomes) and not all(outcomes)
        # within a burst window, outcomes are uniform
        for start in range(0, 500, 10):
            window = outcomes[start:start + 10]
            assert len(set(window)) == 1

    def test_deterministic_per_seed(self):
        a = InstabilityInjector(failure_rate=0.4, seed=1)
        b = InstabilityInjector(failure_rate=0.4, seed=1)
        assert [a.should_fail() for _ in range(50)] == \
            [b.should_fail() for _ in range(50)]

    def test_burst_length_one_degenerates_to_per_request(self):
        """With burst_length=1 each request is its own window — the
        failure pattern may change on every single request."""
        injector = InstabilityInjector(failure_rate=0.5, burst_length=1,
                                       seed=11)
        outcomes = [injector.should_fail() for _ in range(200)]
        flips = sum(1 for i in range(1, 200)
                    if outcomes[i] != outcomes[i - 1])
        # iid-ish pattern: far more transitions than the ~200/burst
        # bound a bursty injector would show at burst_length=10.
        assert flips > 40

    def test_longer_bursts_mean_fewer_transitions(self):
        short = InstabilityInjector(failure_rate=0.4, burst_length=2,
                                    seed=9)
        long = InstabilityInjector(failure_rate=0.4, burst_length=20,
                                   seed=9)
        outcomes_short = [short.should_fail() for _ in range(400)]
        outcomes_long = [long.should_fail() for _ in range(400)]
        transitions = lambda seq: sum(  # noqa: E731
            1 for i in range(1, len(seq)) if seq[i] != seq[i - 1])
        assert transitions(outcomes_long) < transitions(outcomes_short)

    def test_failure_fraction_tracks_rate(self):
        injector = InstabilityInjector(failure_rate=0.3, burst_length=5,
                                       seed=13)
        outcomes = [injector.should_fail() for _ in range(2000)]
        fraction = sum(outcomes) / len(outcomes)
        assert 0.15 < fraction < 0.45


class TestFaultSchedule:
    def test_no_faults_by_default(self):
        schedule = FaultSchedule()
        assert [schedule.next_fault() for _ in range(20)] == [None] * 20
        assert schedule.requests_seen == 20

    def test_outage_window_is_half_open_interval(self):
        schedule = FaultSchedule(outage_windows=[(2, 5)])
        faults = [schedule.next_fault() for _ in range(7)]
        assert faults == [None, None, FAULT_OUTAGE, FAULT_OUTAGE,
                          FAULT_OUTAGE, None, None]

    def test_multiple_windows(self):
        schedule = FaultSchedule(outage_windows=[(0, 1), (3, 4)])
        faults = [schedule.next_fault() for _ in range(5)]
        assert faults == [FAULT_OUTAGE, None, None, FAULT_OUTAGE, None]

    def test_malformed_every_nth(self):
        schedule = FaultSchedule(malformed_every=3)
        faults = [schedule.next_fault() for _ in range(6)]
        assert faults == [None, None, FAULT_MALFORMED,
                          None, None, FAULT_MALFORMED]

    def test_slow_every_nth(self):
        schedule = FaultSchedule(slow_every=2, slow_delay=0.5)
        faults = [schedule.next_fault() for _ in range(4)]
        assert faults == [None, FAULT_SLOW, None, FAULT_SLOW]

    def test_outage_shadows_other_faults(self):
        schedule = FaultSchedule(outage_windows=[(0, 10)],
                                 malformed_every=1, slow_every=1)
        assert all(schedule.next_fault() == FAULT_OUTAGE
                   for _ in range(10))

    def test_malformed_takes_precedence_over_slow(self):
        schedule = FaultSchedule(malformed_every=2, slow_every=2)
        assert [schedule.next_fault() for _ in range(4)] == [
            None, FAULT_MALFORMED, None, FAULT_MALFORMED]
