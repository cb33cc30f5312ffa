"""The Memex client applet.

§2's client: it taps the browser for the current location, respects the
user's archive mode locally (an ``off`` mode means the URL never leaves
the machine), and exposes the function tabs — folder management, trail
replay, search — as methods that tunnel requests to the server.

Ingest batching: with ``batch_size > 1`` the applet buffers archive
events (``record_visit`` / ``bookmark``) and ships them as ONE framed
``batch`` envelope — one encode, one decode, one dispatch, one storage
group commit server-side.  The buffer flushes when it reaches
``batch_size``, before any synchronous UI call (``search``, folder views,
… — every tunneled request), and explicitly via :meth:`flush`.  The
default ``batch_size=0`` keeps the historical one-request-per-event
behaviour bit-for-bit.

Trace propagation: give the applet a :class:`repro.obs.Tracer` and every
tunneled request opens a ``client.<servlet>`` root span whose context is
stamped onto the request as a ``traceparent`` field (per-item inside
batch envelopes).  The server joins that trace, so a single applet click
is attributable through servlets, storage, and the daemons it triggers.
Without a tracer nothing is stamped and the wire format is unchanged.
"""

from __future__ import annotations

from collections.abc import Callable, Iterable
from typing import Any

from ..errors import CODE_UNKNOWN_USER, AuthError, MemexError
from ..obs import Tracer, null_tracer
from ..server.events import (
    ArchiveModeEvent,
    BookmarkEvent,
    FolderCreateEvent,
    FolderMoveEvent,
    SurfEvent,
    VisitEvent,
)
from ..server.transport import Transport
from .browser import Browser

ARCHIVE_OFF = "off"
ARCHIVE_PRIVATE = "private"
ARCHIVE_COMMUNITY = "community"


class MemexApplet:
    """One user's client session.

    Parameters
    ----------
    transport:
        Any wire to a Memex server — the in-process HTTP tunnel or the
        TCP socket client; the applet is identical above either.
    user_id:
        Who is logged in.
    browser:
        The browser being tapped; may be None for headless replay.
    tracer:
        Client-side tracer; its spans' contexts ride the wire as
        ``traceparent`` fields.  Defaults to the disabled tracer (no
        spans, nothing stamped).
    """

    def __init__(
        self,
        transport: Transport,
        user_id: str,
        *,
        browser: Browser | None = None,
        session_id: int = 1,
        batch_size: int = 0,
        tracer: Tracer | None = None,
    ) -> None:
        self.transport = transport
        self.user_id = user_id
        self.browser = browser
        self.tracer = tracer if tracer is not None else null_tracer()
        self.archive_mode = ARCHIVE_COMMUNITY
        self.session_id = session_id
        self.batch_size = batch_size
        self.dropped_events = 0  # visits not archived because mode was off
        self.batched_events = 0  # events that rode a batch frame
        self._pending: list[dict[str, Any]] = []
        if browser is not None:
            browser.add_listener(self._on_navigate)

    # -- plumbing -----------------------------------------------------------------

    @staticmethod
    def _raise_for_error(servlet: str, response: dict[str, Any]) -> None:
        """Typed-error dispatch: codes, not message substrings."""
        if response.get("status") == "ok":
            return
        error = response.get("error", "unknown server error")
        if response.get("error_code") == CODE_UNKNOWN_USER:
            raise AuthError(error)
        raise MemexError(f"servlet {servlet!r} failed: {error}")

    def _call(self, servlet: str, **kwargs: Any) -> dict[str, Any]:
        # Any synchronous call flushes buffered archive events first, so
        # the server sees this user's events in the order they happened.
        self.flush()
        request = {"servlet": servlet, **kwargs}
        with self.tracer.span(f"client.{servlet}") as span:
            ctx = span.context()
            if ctx is not None:
                request["traceparent"] = ctx.to_traceparent()
            response = self.transport.request(self.user_id, request)
        self._raise_for_error(servlet, response)
        return response

    def _enqueue(self, request: dict[str, Any]) -> None:
        """Buffer one archive event; flush when the buffer is full.

        When tracing, each buffered event gets its own (instant) client
        span whose context is stamped on the item — the causal origin is
        the user action, not the later flush that happens to carry it.
        """
        with self.tracer.span(f"client.{request['servlet']}") as span:
            ctx = span.context()
            if ctx is not None:
                request["traceparent"] = ctx.to_traceparent()
        self._pending.append(request)
        self.batched_events += 1
        if len(self._pending) >= self.batch_size:
            self.flush()

    def flush(self) -> list[dict[str, Any]]:
        """Ship buffered archive events as one batch frame.

        Returns the per-item responses.  Item failures are surfaced after
        the whole batch is accounted for: an ``unknown_user`` item raises
        :class:`AuthError`, any other failed item raises
        :class:`MemexError` naming the failure count.
        """
        if not self._pending:
            return []
        batch, self._pending = self._pending, []
        with self.tracer.span("client.flush") as span:
            span.set("items", len(batch))
            responses = self.transport.request_batch(self.user_id, batch)
        failed = [
            (req, resp) for req, resp in zip(batch, responses)
            if resp.get("status") != "ok"
        ]
        if failed:
            req, resp = failed[0]
            if resp.get("error_code") == CODE_UNKNOWN_USER:
                raise AuthError(resp.get("error", "unknown user"))
            raise MemexError(
                f"{len(failed)}/{len(batch)} batched events failed; first: "
                f"servlet {req.get('servlet')!r}: "
                f"{resp.get('error', 'unknown server error')}"
            )
        return responses

    # -- archive-mode control (Figure 1's three choices) -----------------------------

    def set_archive_mode(self, mode: str) -> None:
        """Switch between ``off``/``private``/``community`` archiving.

        Enforced locally first — in ``off`` mode URLs never leave the
        machine, so the server is only told about the non-off modes.
        Raises :class:`MemexError` on an unknown mode.
        """
        if mode not in (ARCHIVE_OFF, ARCHIVE_PRIVATE, ARCHIVE_COMMUNITY):
            raise MemexError(f"unknown archive mode {mode!r}")
        self.archive_mode = mode
        if mode != ARCHIVE_OFF:
            self._call("set_archive_mode", mode=mode)

    # -- browser tap ---------------------------------------------------------------------

    def _on_navigate(self, url: str, referrer: str | None, at: float) -> None:
        self.record_visit(url, referrer=referrer, at=at)

    def record_visit(
        self,
        url: str,
        *,
        at: float,
        referrer: str | None = None,
        session_id: int | None = None,
    ) -> bool:
        """Archive one visit; returns False when mode is off (nothing sent).

        With batching enabled the event is buffered (returns True once
        accepted locally) and ships on the next flush.
        """
        if self.archive_mode == ARCHIVE_OFF:
            self.dropped_events += 1
            return False
        request = {
            "servlet": "visit",
            "url": url,
            "at": at,
            "referrer": referrer,
            "session_id": session_id if session_id is not None else self.session_id,
        }
        if self.batch_size > 1:
            self._enqueue(request)
        else:
            self._call(
                "visit",
                url=url,
                at=at,
                referrer=referrer,
                session_id=request["session_id"],
            )
        return True

    def new_session(self) -> int:
        """Start a new browsing session (the 30-minute-gap boundary the
        trail and context tabs segment on); returns the new session id."""
        self.session_id += 1
        return self.session_id

    def import_history(self, entries: list[dict[str, Any]]) -> dict[str, int]:
        """Bulk-import a raw browser history (``[{url, at, referrer?}]``).

        The server reconstructs sessions with the 30-minute gap rule so
        context recall works on pre-Memex history.  Respects archive-off.
        """
        if self.archive_mode == ARCHIVE_OFF:
            self.dropped_events += len(entries)
            return {"imported": 0, "sessions_assigned": 0}
        response = self._call("import_history", entries=entries)
        return {
            "imported": response["imported"],
            "sessions_assigned": response["sessions_assigned"],
        }

    # -- folder tab -----------------------------------------------------------------------

    def create_folder(self, path: str, *, at: float = 0.0) -> None:
        """Create a topic folder (``"Music/Classical"`` creates missing
        ancestors too); idempotent for existing folders."""
        self._call("folder_create", path=path, at=at)

    def bookmark(self, url: str, folder_path: str, *, at: float) -> None:
        """Deliberately file the URL into a folder while surfing."""
        if self.archive_mode == ARCHIVE_OFF:
            self.dropped_events += 1
            return
        if self.batch_size > 1:
            self._enqueue({
                "servlet": "bookmark",
                "url": url, "folder_path": folder_path, "at": at,
            })
        else:
            self._call("bookmark", url=url, folder_path=folder_path, at=at)

    def move_bookmark(
        self, url: str, from_folder: str | None, to_folder: str, *, at: float
    ) -> None:
        """Cut/paste correction — reinforces or corrects the classifier."""
        self._call(
            "folder_move", url=url,
            from_folder=from_folder, to_folder=to_folder, at=at,
        )

    def folder_view(self) -> dict[str, Any]:
        """The folder tab's data: folders, items, and '?' guesses."""
        return self._call("folders_get")

    def import_bookmarks(self, folders: dict[str, list[dict]], *, at: float = 0.0) -> int:
        """Push an imported browser bookmark structure to the server.

        *folders* maps folder path -> list of ``{url, title}`` dicts (use
        :mod:`repro.folders.importer` to produce it from real files).
        """
        count = 0
        for path, entries in folders.items():
            self.create_folder(path, at=at)
            for entry in entries:
                self._call(
                    "bookmark", url=entry["url"],
                    folder_path=path, at=entry.get("added_at", at),
                )
                count += 1
        return count

    # -- trail tab --------------------------------------------------------------------------

    def trail_view(
        self, folder_path: str, *, window_days: float = 14.0,
    ) -> dict[str, Any]:
        """Replay the community's recent trail graph for a topic folder."""
        return self._call("trail", folder_path=folder_path, window_days=window_days)

    def context_view(self, folder_path: str) -> dict[str, Any]:
        """'What was I doing last time I surfed about this topic?'"""
        return self._call("context", folder_path=folder_path)

    # -- search tab --------------------------------------------------------------------------

    def search(
        self,
        query: str,
        *,
        k: int = 10,
        scope: str = "all",
        mode: str = "ranked",
        limit: int | None = None,
        offset: int = 0,
    ) -> list[dict[str, Any]]:
        """Full-text search over archived pages.

        ``scope``: all | mine | community.  ``mode``: ranked (BM25) or
        boolean (AND/OR/NOT with parentheses, BM25-ranked matches).
        Each hit carries a query-biased ``snippet`` with [marked] terms.

        ``limit``/``offset`` paginate: ``limit`` defaults to ``k`` (the
        historical page size) and ``offset=0`` keeps old calls unchanged.
        Use :meth:`search_page` for the pagination metadata
        (``total``/``has_more``).
        """
        return self.search_page(
            query, limit=limit if limit is not None else k,
            offset=offset, scope=scope, mode=mode,
        )["hits"]

    def search_page(
        self,
        query: str,
        *,
        limit: int = 10,
        offset: int = 0,
        scope: str = "all",
        mode: str = "ranked",
    ) -> dict[str, Any]:
        """One page of search results plus pagination metadata:
        ``{"hits": [...], "total": N, "has_more": bool, "offset": int}`` —
        million-page archives never ship unbounded result lists."""
        response = self._call(
            "search", query=query, limit=limit, offset=offset,
            scope=scope, mode=mode,
        )
        return {
            "hits": response["hits"],
            "total": response["total"],
            "has_more": response["has_more"],
            "offset": response["offset"],
        }

    def related_pages(self, url: str, *, k: int = 10) -> list[dict[str, Any]]:
        """Pages related to *url* by trail co-visitation and dense textual
        similarity — "people who read this also read"."""
        return self._call("related_pages", url=url, k=k)["related"]

    # -- community views ----------------------------------------------------------------------

    def themes(self) -> list[dict[str, Any]]:
        """Figure 4's community theme taxonomy, as mined by the theme
        daemon (empty until it has run over enough archived pages)."""
        return self._call("themes_get")["themes"]

    def resources(self, query: str, *, k: int = 10, since_days: float | None = None) -> list[dict[str, Any]]:
        """Fresh/authoritative pages for a topic, from the discovery daemon."""
        return self._call(
            "resources", query=query, k=k, since_days=since_days,
        )["resources"]

    def bill(self, *, days: float, monthly_rate: float = 20.0) -> dict[str, Any]:
        """ISP bill decomposition by topic."""
        return self._call("bill", days=days, monthly_rate=monthly_rate)

    def similar_users(self, *, k: int = 5) -> list[dict[str, Any]]:
        """Top-*k* users by theme-profile similarity (people matching)."""
        return self._call("profile_similar", k=k)["users"]

    def interest_mates(
        self, query: str, *, k: int = 5, exclude_query: str | None = None,
    ) -> list[dict[str, Any]]:
        """'Who shares my interest in X (and is not likely a Y)?'"""
        return self._call(
            "interest_mates", query=query, k=k, exclude_query=exclude_query,
        )["users"]

    def recommendations(self, *, k: int = 10) -> list[dict[str, Any]]:
        """Collaborative recommendations: pages surfed by similar users
        that this user has not seen yet."""
        return self._call("recommend", k=k)["pages"]

    # -- reorganization (§2's proposed topic hierarchies) -------------------------------------

    def propose_organization(
        self, folder_path: str, *, min_cluster: int = 3, max_depth: int = 3,
    ) -> dict[str, Any] | None:
        """Ask the server to propose a topic hierarchy over a folder's
        links; returns the proposal payload (or None for empty folders)."""
        return self._call(
            "propose_hierarchy", folder_path=folder_path,
            min_cluster=min_cluster, max_depth=max_depth,
        )["proposal"]

    def apply_organization(
        self, folder_path: str, proposal: dict[str, Any], *, at: float,
    ) -> int:
        """Accept a proposal: subfolders are created, items re-filed."""
        return self._call(
            "apply_hierarchy", folder_path=folder_path,
            proposal=proposal, at=at,
        )["moved"]

    def popular_near_trail(
        self, folder_path: str, *, k: int = 10, window_days: float = 30.0,
    ) -> list[dict[str, Any]]:
        """'Popular pages in or near my community's recent trail graph'
        (HITS authorities on the trail neighborhood)."""
        return self._call(
            "popular_near_trail", folder_path=folder_path,
            k=k, window_days=window_days,
        )["pages"]


def replay_events(
    events: Iterable[SurfEvent],
    connect: Callable[[str], MemexApplet],
    *,
    batch_size: int,
    tick_every: int = 0,
    on_tick: Callable[[], Any] | None = None,
) -> dict[str, int]:
    """Feed simulated surf events through the applets *connect* hands out
    (one per user, reused); returns event counts.

    Archive events (visits, bookmarks) buffer in the applet and ship as
    one framed batch per run of up to *batch_size* consecutive same-user
    events (``batch_size<=1`` sends one frame per event).  Buffers flush
    whenever the active user changes, before any synchronous call, before
    *on_tick* (called every *tick_every* events when non-zero) and at the
    end — so events reach the server in exactly the global order they
    occurred and the final repository state matches per-event replay bit
    for bit.  Applets are handed back in immediate-send mode.
    """
    counts = {"visit": 0, "bookmark": 0, "folder": 0, "move": 0, "mode": 0}
    applets: dict[str, MemexApplet] = {}
    active: MemexApplet | None = None
    for processed, event in enumerate(events, 1):
        applet = applets.get(event.user_id)
        if applet is None:
            applet = applets[event.user_id] = connect(event.user_id)
            applet.batch_size = batch_size
        if active is not None and active is not applet:
            # Preserve global event order across users: only runs of
            # consecutive same-user events share a batch frame.
            active.flush()
        active = applet
        if isinstance(event, VisitEvent):
            applet.record_visit(
                event.url, at=event.at,
                referrer=event.referrer, session_id=event.session_id,
            )
            counts["visit"] += 1
        elif isinstance(event, BookmarkEvent):
            applet.bookmark(event.url, event.folder_path, at=event.at)
            counts["bookmark"] += 1
        elif isinstance(event, FolderCreateEvent):
            applet.create_folder(event.folder_path, at=event.at)
            counts["folder"] += 1
        elif isinstance(event, FolderMoveEvent):
            applet.move_bookmark(
                event.url, event.from_folder, event.to_folder, at=event.at,
            )
            counts["move"] += 1
        elif isinstance(event, ArchiveModeEvent):
            applet.set_archive_mode(event.mode)
            counts["mode"] += 1
        if tick_every and processed % tick_every == 0:
            active.flush()
            on_tick()
    for applet in applets.values():
        applet.flush()
        applet.batch_size = 0
    return counts
