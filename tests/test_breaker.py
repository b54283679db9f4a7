"""Circuit-breaker state machine tests (repro/serve/breaker.py)."""

from repro.serve.breaker import (
    COOLDOWN_MS,
    FAILURE_THRESHOLD,
    BreakerState,
    CircuitBreaker,
)


def tripped_breaker(at_ms=0.0):
    """A breaker tripped OPEN at ``at_ms`` by consecutive failures."""
    breaker = CircuitBreaker()
    for _ in range(FAILURE_THRESHOLD):
        breaker.record_failure(at_ms)
    assert breaker.state(at_ms) is BreakerState.OPEN
    return breaker


class TestClosedState:
    def test_starts_closed_and_allows(self):
        breaker = CircuitBreaker()
        assert breaker.state(0.0) is BreakerState.CLOSED
        assert breaker.allow(0.0)

    def test_below_threshold_stays_closed(self):
        breaker = CircuitBreaker()
        for t in range(FAILURE_THRESHOLD - 1):
            assert not breaker.record_failure(float(t))
        assert breaker.state(5.0) is BreakerState.CLOSED
        assert breaker.allow(5.0)

    def test_success_resets_failure_streak(self):
        breaker = CircuitBreaker()
        for t in range(FAILURE_THRESHOLD - 1):
            breaker.record_failure(float(t))
        breaker.record_success(5.0)
        assert breaker.consecutive_failures == 0
        for t in range(FAILURE_THRESHOLD - 1):
            breaker.record_failure(6.0 + t)
        assert breaker.state(10.0) is BreakerState.CLOSED  # streak restarted


class TestTripping:
    def test_k_consecutive_failures_trip(self):
        assert FAILURE_THRESHOLD == 3
        breaker = CircuitBreaker()
        breaker.record_failure(0.0)
        breaker.record_failure(1.0)
        assert breaker.record_failure(2.0)  # the tripping failure
        assert breaker.state(2.0) is BreakerState.OPEN
        assert not breaker.allow(2.0)
        assert breaker.n_trips == 1

    def test_straggler_success_while_open_is_ignored(self):
        # A round launched before the trip may still report success while
        # the breaker is OPEN; only the cooldown may reopen the path.
        breaker = tripped_breaker()
        breaker.record_success(1.0)
        assert breaker.state(1.0) is BreakerState.OPEN
        assert breaker.n_recoveries == 0
        assert breaker.state(COOLDOWN_MS) is BreakerState.HALF_OPEN

    def test_open_blocks_until_cooldown(self):
        breaker = tripped_breaker()
        assert not breaker.allow(COOLDOWN_MS / 2)
        assert breaker.state(COOLDOWN_MS - 0.001) is BreakerState.OPEN


class TestHalfOpen:
    def test_cooldown_elapses_to_half_open(self):
        assert COOLDOWN_MS == 25.0
        breaker = tripped_breaker()
        assert breaker.state(25.0) is BreakerState.HALF_OPEN

    def test_single_probe_allowed(self):
        breaker = tripped_breaker()
        assert breaker.allow(COOLDOWN_MS)  # the probe
        assert not breaker.allow(COOLDOWN_MS)  # probe outstanding: no second
        assert breaker.n_probes == 1

    def test_probe_success_closes(self):
        breaker = tripped_breaker()
        assert breaker.allow(COOLDOWN_MS)
        breaker.record_success(COOLDOWN_MS + 1.0)
        assert breaker.state(COOLDOWN_MS + 1.0) is BreakerState.CLOSED
        assert breaker.n_recoveries == 1
        assert breaker.allow(COOLDOWN_MS + 1.0)

    def test_probe_failure_reopens(self):
        breaker = tripped_breaker()
        assert breaker.allow(COOLDOWN_MS)
        retrip = COOLDOWN_MS + 1.0
        assert breaker.record_failure(retrip)  # failed probe = a trip
        assert breaker.state(retrip) is BreakerState.OPEN
        assert breaker.n_trips == 2
        # A fresh cooldown starts from the re-trip.
        assert breaker.state(retrip + COOLDOWN_MS - 0.001) is BreakerState.OPEN
        assert breaker.state(retrip + COOLDOWN_MS) is BreakerState.HALF_OPEN


class TestSnapshotAndValidation:
    def test_snapshot_fields(self):
        breaker = tripped_breaker()
        snap = breaker.snapshot(0.0)
        assert snap["state"] == "open"
        assert snap["n_trips"] == 1
        assert snap["consecutive_failures"] == FAILURE_THRESHOLD
