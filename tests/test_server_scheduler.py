"""Tests for the cooperative daemon scheduler."""

import pytest

from repro.errors import DaemonError
from repro.server.scheduler import DaemonScheduler


def scheduler(*, failures=DaemonScheduler.MAX_CONSECUTIVE_FAILURES,
              parole=DaemonScheduler.PAROLE_AFTER, **kwargs):
    """A scheduler that quarantines after *failures* and paroles after
    *parole* rounds."""
    sched = DaemonScheduler(**kwargs)
    sched.MAX_CONSECUTIVE_FAILURES = failures
    sched.PAROLE_AFTER = parole
    return sched


class FakeDaemon:
    def __init__(self, name, work=0, fail_times=0):
        self.name = name
        self.work = work          # items to report per run until exhausted
        self.fail_times = fail_times
        self.runs = 0

    def run_once(self):
        self.runs += 1
        if self.fail_times > 0:
            self.fail_times -= 1
            raise RuntimeError("transient")
        if self.work > 0:
            self.work -= 1
            return 1
        return 0


def test_tick_runs_registered_daemons():
    sched = DaemonScheduler()
    d = FakeDaemon("d", work=3)
    sched.register(d)
    assert sched.tick() == 1
    assert sched.tick(2) == 2
    assert d.runs == 3


def test_periods_respected():
    sched = DaemonScheduler()
    fast = FakeDaemon("fast", work=100)
    slow = FakeDaemon("slow", work=100)
    sched.register(fast, period=1)
    sched.register(slow, period=4)
    sched.tick(8)
    assert fast.runs == 8
    assert slow.runs == 2


def test_run_until_idle():
    sched = DaemonScheduler()
    d = FakeDaemon("d", work=5)
    sched.register(d, period=2)
    total = sched.run_until_idle()
    assert total == 5
    assert d.work == 0


def test_run_until_idle_lets_a_batching_daemon_flush():
    """A daemon that flushes on the second run in a row that finds its
    input unchanged (as the theme daemon does) is not left holding it."""
    fast = FakeDaemon("fast", work=6)

    class Batching:
        name = "batching"
        quiet_runs = 0
        flushed = False

        def run_once(self):
            self.quiet_runs = self.quiet_runs + 1 if fast.work == 0 else 0
            if self.quiet_runs == 2 and not self.flushed:
                self.flushed = True
                return 1
            return 0

    sched = DaemonScheduler()
    sched.register(fast, period=1)
    slow = Batching()
    sched.register(slow, period=4)
    assert sched.run_until_idle() == 7
    assert slow.flushed


def test_run_until_idle_gives_up():
    class Forever:
        name = "forever"

        def run_once(self):
            return 1

    sched = DaemonScheduler()
    sched.register(Forever())
    with pytest.raises(DaemonError):
        sched.run_until_idle(max_rounds=10)


def test_failures_and_quarantine():
    sched = DaemonScheduler()
    d = FakeDaemon("flaky", work=10, fail_times=99)
    sched.register(d)
    sched.tick(5)
    stats = sched.stats()["flaky"]
    assert stats["quarantined"] is True
    assert stats["failures"] == 3  # stopped retrying after quarantine
    assert "transient" in stats["last_error"]
    runs_at_quarantine = d.runs
    sched.tick(5)
    assert d.runs == runs_at_quarantine  # really quarantined


def test_transient_failures_recover():
    sched = DaemonScheduler()
    d = FakeDaemon("flaky", work=2, fail_times=2)
    sched.register(d)
    sched.tick(6)
    stats = sched.stats()["flaky"]
    assert stats["quarantined"] is False
    assert stats["failures"] == 2
    assert stats["items"] == 2


def test_revive():
    sched = scheduler(failures=1)
    d = FakeDaemon("d", work=1, fail_times=1)
    sched.register(d)
    sched.tick()
    assert sched.stats()["d"]["quarantined"]
    sched.lift_quarantine("d")
    sched.tick()
    assert sched.stats()["d"]["items"] == 1
    with pytest.raises(DaemonError):
        sched.lift_quarantine("ghost")


def test_one_bad_daemon_does_not_block_others():
    sched = scheduler(failures=1)
    bad = FakeDaemon("bad", fail_times=99)
    good = FakeDaemon("good", work=3)
    sched.register(bad)
    sched.register(good)
    total = sched.run_until_idle()
    assert total == 3


def test_registration_validation():
    sched = DaemonScheduler()
    d = FakeDaemon("d")
    sched.register(d)
    with pytest.raises(DaemonError):
        sched.register(d)
    with pytest.raises(DaemonError):
        sched.register(FakeDaemon("e"), period=0)


# -- auto-parole -------------------------------------------------------------

def test_auto_parole_after_n_rounds():
    sched = scheduler(failures=2, parole=3)
    d = FakeDaemon("d", work=1, fail_times=2)
    sched.register(d)
    # Rounds 0-1 fail and quarantine; parole fires at round 4 and the
    # daemon runs (and succeeds) in the same round.
    sched.tick(5)
    stats = sched.stats()["d"]
    assert stats["quarantined"] is False
    assert stats["items"] == 1
    assert stats["parole_count"] == 0  # clean run resets the backoff
    assert d.runs == 3


def test_parole_backoff_doubles():
    sched = scheduler(failures=1, parole=2)
    d = FakeDaemon("d", fail_times=99)
    sched.register(d)
    # Quarantine at round 0 -> parole_at 2; re-quarantine at 2 -> parole_at
    # 6 (wait 4); re-quarantine at 6 -> parole_at 14 (wait 8).
    sched.tick(7)
    stats = sched.stats()["d"]
    assert stats["quarantined"] is True
    assert stats["parole_count"] == 3
    assert stats["parole_at"] == 14
    assert d.runs == 3


def test_a_quarantine_holds_until_its_parole_round():
    sched = scheduler(failures=1)
    d = FakeDaemon("d", fail_times=99)
    sched.register(d)
    sched.tick(DaemonScheduler.PAROLE_AFTER)
    stats = sched.stats()["d"]
    assert stats["quarantined"] is True
    assert stats["parole_at"] == DaemonScheduler.PAROLE_AFTER
    assert d.runs == 1
    sched.tick()  # the parole round: paroled, runs, fails, waits twice as long
    stats = sched.stats()["d"]
    assert d.runs == 2
    assert stats["parole_at"] == 3 * DaemonScheduler.PAROLE_AFTER


def test_manual_revive_resets_backoff():
    sched = scheduler(failures=1, parole=2)
    d = FakeDaemon("d", fail_times=99)
    sched.register(d)
    sched.tick(3)  # quarantine, parole at 2, re-quarantine with doubled wait
    assert sched.stats()["d"]["parole_count"] == 2
    sched.lift_quarantine("d")
    stats = sched.stats()["d"]
    assert stats["quarantined"] is False
    assert stats["parole_count"] == 0
    assert stats["parole_at"] is None
    # The next quarantine starts from the base wait again.
    sched.tick(1)
    assert sched.stats()["d"]["parole_at"] == sched._now - 1 + 2


def test_scheduler_transitions_recorded_as_metrics():
    from repro.obs import ManualClock, MetricsRegistry

    metrics = MetricsRegistry(clock=ManualClock())
    sched = scheduler(failures=2, parole=1, metrics=metrics)
    d = FakeDaemon("flaky", work=2, fail_times=2)
    sched.register(d)
    sched.tick(4)  # fail, fail -> quarantine, parole + success, success
    val = metrics.counter_value
    assert val("server.scheduler.quarantines", daemon="flaky") == 1
    assert val("server.scheduler.paroles", daemon="flaky") == 1
    assert val("server.scheduler.items", daemon="flaky") == 2
    stats = sched.stats()["flaky"]
    assert (stats["failures"], stats["runs"]) == (2, 2)
    # Every attempt (success or failure) lands in the latency histogram.
    h = metrics.histogram("server.scheduler.run_latency", daemon="flaky")
    assert h.count == 4


# -- concurrency: parole-then-run is one atomic scheduling decision ----------

def test_concurrent_ticks_exactly_once_per_round():
    """Racing tick() calls must (a) never lose a round (`_now` advances
    exactly once per round), (b) fire the one due parole exactly once,
    and (c) claim a period-1 daemon at most once per round with
    consistent bookkeeping."""
    import sys
    import threading

    from repro.obs import MetricsRegistry

    metrics = MetricsRegistry()
    sched = scheduler(failures=1, parole=1, metrics=metrics)

    observed_rounds = []

    class RoundRecorder:
        name = "recorder"

        def __init__(self):
            self.calls = 0

        def run_once(self):
            self.calls += 1
            if self.calls == 1:
                raise RuntimeError("first call fails -> quarantine")
            observed_rounds.append(sched._now)
            return 1

    daemon = RoundRecorder()
    sched.register(daemon, period=1)
    sched.tick()        # fails -> quarantined, parole_at = now + 1
    assert sched.quarantined()

    n_threads, rounds_each = 8, 400
    barrier = threading.Barrier(n_threads)

    def hammer():
        barrier.wait()
        for _ in range(rounds_each):
            sched.tick()

    old_interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=hammer) for _ in range(n_threads)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
    finally:
        sys.setswitchinterval(old_interval)

    total_rounds = n_threads * rounds_each
    # (a) no lost round counters
    assert sched._now == 1 + total_rounds
    # (b) the one parole fired exactly once
    assert metrics.counter_value(
        "server.scheduler.paroles", daemon="recorder") == 1
    # (c) at most one claim per round, bookkeeping consistent
    runs = sched.stats()["recorder"]["runs"]
    assert runs <= total_rounds
    assert runs == len(observed_rounds)


def test_concurrent_parole_is_a_single_decision(monkeypatch):
    """Two ticks racing a due parole must produce exactly one parole and
    one run.  The parole body is slowed down (deterministically widening
    the check-then-act window) so a second tick arriving mid-parole sees
    the stale ``quarantined`` flag unless the scheduler makes the whole
    parole-then-run choice one atomic decision."""
    import threading
    import time

    from repro.obs import MetricsRegistry

    metrics = MetricsRegistry()
    sched = scheduler(failures=1, parole=1, metrics=metrics)

    class FailsOnce:
        name = "flaky"

        def __init__(self):
            self.calls = 0
            self.runs = 0

        def run_once(self):
            self.calls += 1
            if self.calls == 1:
                raise RuntimeError("first call fails -> quarantine")
            self.runs += 1
            return 1

    daemon = FailsOnce()
    sched.register(daemon, period=100)   # long period: at most one due run
    sched.tick()                         # fails -> quarantined, parole_at = 1
    assert list(sched.quarantined()) == ["flaky"]

    in_parole = threading.Event()
    real_parole = DaemonScheduler._parole

    def slow_parole(self, entry):
        in_parole.set()
        time.sleep(0.05)
        real_parole(self, entry)

    monkeypatch.setattr(DaemonScheduler, "_parole", slow_parole)

    first = threading.Thread(target=sched.tick)
    first.start()
    # Arrive mid-parole: the first tick is asleep inside _parole with the
    # entry still flagged quarantined.
    assert in_parole.wait(timeout=5.0)
    sched.tick()
    first.join()

    assert metrics.counter_value(
        "server.scheduler.paroles", daemon="flaky") == 1
    assert daemon.runs == 1
    assert sched.stats()["flaky"]["runs"] == 1
