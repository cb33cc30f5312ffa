"""Top-level facade: build a Memex system, connect clients, replay surfing.

This is the entry point examples and benchmarks use::

    workload = build_workload(seed=1)
    system = MemexSystem.from_workload(workload)
    system.replay(workload.events)
    applet = system.connect("user00")
    applet.search("classical symphonies")
"""

from __future__ import annotations

from collections.abc import Iterable

from ..client.applet import MemexApplet, replay_events
from ..client.browser import Browser
from ..obs import Tracer, null_tracer
from ..server.daemons import FetchedPage, FetchFn
from ..server.events import SurfEvent
from ..webgen.corpus import WebCorpus
from ..webgen.workload import Workload
from .memex import MemexServer


def corpus_fetcher(corpus: WebCorpus) -> FetchFn:
    """The crawler's view of the simulated Web: URLs resolve to corpus
    pages; anything else is a dead link (returns None)."""

    def fetch(url: str) -> FetchedPage | None:
        page = corpus.pages.get(url)
        if page is None:
            return None
        return FetchedPage(
            url=page.url,
            title=page.title,
            text=page.text,
            out_links=tuple(page.out_links),
            front_page=page.front_page,
        )

    return fetch


class MemexSystem:
    """A Memex server plus its connected clients.

    The facade used by every example, benchmark, and the CLI: it owns one
    :class:`~repro.core.memex.MemexServer`, caches one
    :class:`~repro.client.applet.MemexApplet` per user, and knows how to
    replay a generated workload through those applets in the online
    regime (event batches interleaved with daemon ticks).  Usable as a
    context manager; :meth:`close` releases the underlying stores.

    ``client_tracer`` is the *applet-side* tracer: a separate instance
    from the server's so trace context crosses the wire in the request
    envelope (W3C-style ``traceparent``), never in-process span nesting.
    It defaults to a disabled tracer; pass
    ``Tracer(sample_every=8)``-style instances to trace client calls.
    """

    def __init__(
        self,
        server: MemexServer,
        *,
        client_tracer: Tracer | None = None,
    ) -> None:
        self.server = server
        self.client_tracer = (
            client_tracer if client_tracer is not None else null_tracer()
        )
        self._applets: dict[str, MemexApplet] = {}

    def close(self) -> None:
        self.server.close()

    def __enter__(self) -> "MemexSystem":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()

    @classmethod
    def from_corpus(
        cls,
        corpus: WebCorpus,
        *,
        client_tracer: Tracer | None = None,
        **server_kwargs,
    ) -> "MemexSystem":
        """A system whose crawler fetches from the given simulated Web;
        *server_kwargs* pass through to :class:`MemexServer` (e.g.
        ``root=``, ``metrics=``).  Read caching is on; to switch it off,
        set ``system.server.caches = None``, and every read from then on
        is computed afresh."""
        return cls(
            MemexServer(corpus_fetcher(corpus), **server_kwargs),
            client_tracer=client_tracer,
        )

    @classmethod
    def from_workload(
        cls,
        workload: Workload,
        **server_kwargs,
    ) -> "MemexSystem":
        """Build a system over the workload's corpus with every simulated
        surfer registered in the workload's community."""
        system = cls.from_corpus(workload.corpus, **server_kwargs)
        for profile in workload.profiles:
            system.register_user(profile.user_id, community=workload.name)
        return system

    # -- accounts ---------------------------------------------------------------

    def register_user(
        self,
        user_id: str,
        *,
        community: str | None = None,
        archive_mode: str = "community",
        cipher_key: bytes | None = None,
    ) -> MemexApplet:
        """Create the account and return a connected applet."""
        if cipher_key is not None:
            self.server.transport.set_key(user_id, cipher_key)
        self.server.transport.request(user_id, {
            "servlet": "register_user",
            "community": community,
            "archive_mode": archive_mode,
        })
        return self.connect(user_id)

    def connect(self, user_id: str, *, browser: Browser | None = None) -> MemexApplet:
        """An applet session for an existing user (cached per user unless a
        browser is supplied)."""
        if browser is not None:
            return MemexApplet(
                self.server.transport, user_id,
                browser=browser, tracer=self.client_tracer,
            )
        if user_id not in self._applets:
            self._applets[user_id] = MemexApplet(
                self.server.transport, user_id, tracer=self.client_tracer,
            )
        return self._applets[user_id]

    # -- replay -------------------------------------------------------------------

    def replay(
        self,
        events: Iterable[SurfEvent],
        *,
        tick_every: int = 100,
        finish: bool = True,
        batch_size: int = 32,
    ) -> dict[str, int]:
        """Feed simulated surf events through real client applets
        (:func:`~repro.client.applet.replay_events`: batched same-user
        runs, global event order preserved), interleaving daemon work
        every *tick_every* events — the online regime of the deployed
        system.  Returns event counts."""
        counts = replay_events(
            events, self.connect, batch_size=batch_size,
            tick_every=tick_every, on_tick=self.server.tick,
        )
        if finish:
            self.server.process_background_work()
        return counts
