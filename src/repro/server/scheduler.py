"""Cooperative daemon scheduler.

"Background demons continually fetch pages, index them, and analyze them
w.r.t. topics and folders" (§3) while UI events get guaranteed immediate
processing.  We reproduce that split deterministically: servlets run
synchronously on request; daemons run when the host calls
:meth:`DaemonScheduler.tick`, each at its own period, with failure
isolation (a daemon that keeps throwing is quarantined, the server keeps
going — the robustness requirement of §3).

Quarantine heals itself: a quarantined daemon is automatically paroled
after :attr:`DaemonScheduler.PAROLE_AFTER` rounds, with the wait doubling
on every re-quarantine (exponential backoff), so a transiently-failing
daemon recovers without operator action.  :meth:`lift_quarantine` paroles
at once and resets the backoff.

Per daemon, the observability registry records a ``run_once`` latency
histogram, the items processed, and every quarantine and parole
(``server.scheduler.*{daemon=name}``); run and failure counts live in
:meth:`DaemonScheduler.stats`.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import Any, Protocol

from ..errors import DaemonError
from ..obs import (
    Logger,
    MetricsRegistry,
    Tracer,
    null_logger,
    null_registry,
    null_tracer,
)


class Daemon(Protocol):
    """A background worker: one bounded unit of work per call."""

    name: str

    def run_once(self) -> int:
        """Perform one batch; returns the number of items processed."""
        ...


@dataclass
class _Entry:
    daemon: Daemon
    period: int
    next_due: int
    runs: int = 0
    items: int = 0
    failures: int = 0
    consecutive_failures: int = 0
    quarantined: bool = False
    running: bool = False          # a claimed run is in flight (no overlap)
    last_error: str | None = None
    parole_at: int | None = None   # round at which auto-parole fires
    parole_count: int = 0          # quarantines since last success (backoff exponent)
    instruments: tuple[Any, ...] = ()


class DaemonScheduler:
    """Round-based scheduler with per-daemon periods and quarantine.

    Parameters
    ----------
    metrics / tracer / log:
        Observability hooks; default to the shared disabled instances.
        Quarantine and parole transitions emit structured log events
        (``daemon_quarantined`` / ``daemon_paroled``) and bump the
        daemon's ``server.scheduler.quarantines`` / ``paroles`` counters.
    """

    #: Failures in a row before a daemon is quarantined.
    MAX_CONSECUTIVE_FAILURES = 3
    #: Rounds a first quarantine lasts; each re-quarantine doubles it.
    PAROLE_AFTER = 8

    def __init__(
        self,
        *,
        metrics: MetricsRegistry | None = None,
        tracer: Tracer | None = None,
        log: Logger | None = None,
    ) -> None:
        self.metrics = metrics if metrics is not None else null_registry()
        self.tracer = tracer if tracer is not None else null_tracer()
        self.log = log if log is not None else null_logger("scheduler")
        self._entries: dict[str, _Entry] = {}
        self._now = 0
        # Scheduler lock (outermost rank in ``repro.locks.LOCK_ORDER``).
        # Every scheduling *decision* — the quarantine check, auto-parole,
        # due check, ``next_due`` advancement, post-run bookkeeping, and
        # the round counter — happens atomically under it.  It is never
        # held across ``run_once`` (Rule 2): a tick claims the daemon's
        # turn under the lock, then runs it outside.
        self._sched_lock = threading.RLock()

    def register(self, daemon: Daemon, *, period: int = 1) -> None:
        if period < 1:
            raise DaemonError("period must be >= 1")
        m = self.metrics
        instruments = (
            m.counter("server.scheduler.items", daemon=daemon.name),
            m.counter("server.scheduler.quarantines", daemon=daemon.name),
            m.counter("server.scheduler.paroles", daemon=daemon.name),
            m.histogram("server.scheduler.run_latency", daemon=daemon.name),
        )
        with self._sched_lock:
            if daemon.name in self._entries:
                raise DaemonError(f"daemon {daemon.name!r} already registered")
            self._entries[daemon.name] = _Entry(
                daemon=daemon, period=period, next_due=self._now,
                instruments=instruments,
            )

    def tick(self, rounds: int = 1) -> int:
        """Advance *rounds* scheduler rounds; returns items processed.

        Safe to call from several threads at once: each round's turn for
        a daemon is claimed atomically (see :meth:`_claim`), so racing
        ticks never double-parole, never run a daemon twice for the same
        round, and never lose a round-counter update.
        """
        total = 0
        clock = self.metrics.clock
        for _ in range(rounds):
            with self._sched_lock:
                entries = list(self._entries.values())
            for entry in entries:
                if not self._claim(entry):
                    continue
                m_items, m_quar, _m_parole, m_latency = entry.instruments
                start = clock()
                with self.tracer.span(f"daemon.{entry.daemon.name}") as span:
                    try:
                        done = entry.daemon.run_once()
                    except Exception as exc:  # noqa: BLE001 - isolation boundary
                        m_latency.observe(clock() - start)
                        span.set("status", "error")
                        with self._sched_lock:
                            entry.running = False
                            entry.failures += 1
                            entry.consecutive_failures += 1
                            entry.last_error = f"{type(exc).__name__}: {exc}"
                            if entry.consecutive_failures >= self.MAX_CONSECUTIVE_FAILURES:
                                self._quarantine(entry, m_quar)
                        continue
                    span.set("items", done)
                m_latency.observe(clock() - start)
                if done:
                    m_items.inc(done)
                with self._sched_lock:
                    entry.running = False
                    entry.runs += 1
                    entry.items += done
                    entry.consecutive_failures = 0
                    entry.parole_count = 0   # a clean run resets the backoff
                total += done
            with self._sched_lock:
                self._now += 1
        return total

    def _claim(self, entry: _Entry) -> bool:
        """Atomically decide whether *entry* gets this round's turn.

        Parole-then-run is a single scheduling decision: the quarantine
        check, the auto-parole, the due check, and the ``next_due``
        advancement all happen under the scheduler lock, so a concurrent
        tick observing the entry mid-decision either loses the claim
        outright or sees the fully-updated state.  The daemon itself runs
        *after* the claim, outside the lock.
        """
        with self._sched_lock:
            if entry.running:
                # The previous run is still in flight on another thread;
                # daemons are not re-entrant, so this round is skipped.
                return False
            if entry.quarantined:
                if self._now >= entry.parole_at:
                    self._parole(entry)
                else:
                    return False
            if self._now < entry.next_due:
                return False
            entry.next_due = self._now + entry.period
            entry.running = True
            return True

    def _quarantine(self, entry: _Entry, m_quar: Any) -> None:
        entry.quarantined = True
        m_quar.inc()
        entry.parole_at = self._now + self.PAROLE_AFTER * 2 ** entry.parole_count
        entry.parole_count += 1
        self.log.error(
            "daemon_quarantined",
            daemon=entry.daemon.name,
            consecutive_failures=entry.consecutive_failures,
            last_error=entry.last_error,
            parole_at=entry.parole_at,
        )

    def _parole(self, entry: _Entry) -> None:
        entry.quarantined = False
        entry.consecutive_failures = 0
        entry.parole_at = None
        entry.next_due = self._now   # eligible immediately
        entry.instruments[2].inc()
        self.log.info(
            "daemon_paroled",
            daemon=entry.daemon.name,
            parole_count=entry.parole_count,
        )

    def run_until_idle(self, *, max_rounds: int = 1000) -> int:
        """Tick until two full cycles of every daemon process nothing.

        Two, because a daemon may batch its input and flush on the first
        run that finds it unchanged (:class:`~.daemons.ThemeDaemon`): its
        first idle run notices that the stream stopped, its second would
        flush — and flushing is work, which restarts the count.
        """
        total = 0
        idle_run = 0
        longest = max((e.period for e in self._entries.values()), default=1)
        for _ in range(max_rounds):
            done = self.tick()
            total += done
            idle_run = idle_run + 1 if done == 0 else 0
            if idle_run >= 2 * longest:
                return total
        raise DaemonError(f"daemons still busy after {max_rounds} rounds")

    # -- introspection ------------------------------------------------------------

    def lift_quarantine(self, name: str) -> None:
        """Lift a quarantine (operator action after fixing the fault).

        Also resets the auto-parole backoff: an operator intervention is a
        statement that the fault is gone.
        """
        with self._sched_lock:
            try:
                entry = self._entries[name]
            except KeyError:
                raise DaemonError(f"unknown daemon {name!r}") from None
            entry.quarantined = False
            entry.consecutive_failures = 0
            entry.parole_at = None
            entry.parole_count = 0
            self.log.info("daemon_revived", daemon=name)

    def quarantined(self) -> dict[str, dict[str, Any]]:
        """Currently quarantined daemons and why — the health servlet's
        per-daemon quarantine state."""
        with self._sched_lock:
            return {
                name: {
                    "last_error": e.last_error,
                    "parole_at": e.parole_at,
                    "parole_count": e.parole_count,
                }
                for name, e in self._entries.items()
                if e.quarantined
            }

    def wedged(self) -> bool:
        """True when every registered daemon is quarantined — the
        scheduler can make no progress at all without intervention."""
        with self._sched_lock:
            return bool(self._entries) and all(
                e.quarantined for e in self._entries.values()
            )

    def stats(self) -> dict[str, dict]:
        with self._sched_lock:
            return {
                name: {
                    "runs": e.runs,
                    "items": e.items,
                    "failures": e.failures,
                    "quarantined": e.quarantined,
                    "last_error": e.last_error,
                    "parole_at": e.parole_at,
                    "parole_count": e.parole_count,
                }
                for name, e in self._entries.items()
            }
