"""Injectable time sources for the observability subsystem.

Every obs component that needs time takes a ``clock`` — any zero-argument
callable returning seconds as a float.  Production code passes
``time.perf_counter`` (latencies) or ``time.time`` (wall-clock stamps);
tests and benchmarks pass a :class:`ManualClock` so measurements are
deterministic.  The repository façade uses the same convention, so one
fake clock can drive storage timestamps and obs timers together.
"""

from __future__ import annotations

from collections.abc import Callable

Clock = Callable[[], float]


class ManualClock:
    """A steppable clock: time moves only when the test says so."""

    def __init__(self, start: float = 0.0) -> None:
        self._now = float(start)

    def __call__(self) -> float:
        return self._now

    def advance(self, dt: float) -> float:
        """Move time forward by *dt* seconds; returns the new time."""
        if dt < 0:
            raise ValueError("time cannot move backwards")
        self._now += dt
        return self._now
