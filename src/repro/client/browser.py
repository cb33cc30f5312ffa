"""A minimal simulated browser.

Reproduces the client-side reality the paper starts from: the browser has
only a *transient, one-dimensional history list* (§2 — "browsers have only
a transient context"), which is exactly why surfers lose topical context
and why Memex's server-side trail archive is valuable.  The Memex applet
taps :meth:`Browser.navigate` the way the real applet tapped Netscape's
location property.
"""

from __future__ import annotations

from collections.abc import Callable

# Listener signature: (url, referrer, at).
NavigationListener = Callable[[str, str | None, float], None]


class Browser:
    """Navigation with a linear back/forward history.

    Forward history is truncated on a fresh navigation, as in every real
    browser — another way context gets destroyed.
    """

    #: The transient history keeps this many entries.
    HISTORY_LIMIT = 50

    def __init__(self) -> None:
        self._history: list[str] = []
        self._cursor = -1
        self._listeners: list[NavigationListener] = []
        self.clock = 0.0

    # -- wiring -----------------------------------------------------------------

    def add_listener(self, listener: NavigationListener) -> None:
        """The Memex applet registers itself here."""
        self._listeners.append(listener)

    # -- navigation ---------------------------------------------------------------

    @property
    def location(self) -> str | None:
        if 0 <= self._cursor < len(self._history):
            return self._history[self._cursor]
        return None

    def navigate(self, url: str, *, at: float | None = None) -> None:
        """Go to *url*, truncating any forward history."""
        if at is not None:
            self.clock = max(self.clock, at)
        referrer = self.location
        del self._history[self._cursor + 1:]
        self._history.append(url)
        if len(self._history) > self.HISTORY_LIMIT:
            # The transient history silently forgets the oldest entries.
            drop = len(self._history) - self.HISTORY_LIMIT
            del self._history[:drop]
        self._cursor = len(self._history) - 1
        for listener in self._listeners:
            listener(url, referrer, self.clock)

    def back(self) -> str | None:
        """Go back one entry (no listener tap: revisits are not new taps)."""
        if self._cursor > 0:
            self._cursor -= 1
        return self.location

    def forward(self) -> str | None:
        if self._cursor < len(self._history) - 1:
            self._cursor += 1
        return self.location

    def history(self) -> list[str]:
        """The 1-D history list, oldest first."""
        return list(self._history)

    def clear_history(self) -> None:
        """What browsers routinely do — the information loss Memex fixes."""
        current = self.location
        self._history = [current] if current is not None else []
        self._cursor = len(self._history) - 1
