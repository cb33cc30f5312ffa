"""The archiving servlets — accounts, visits, bookmarks and folders: §3's
"guaranteed immediate processing" events, each a few catalog writes under
the server's clock plus a crawl-queue entry for the daemons."""

from __future__ import annotations

from typing import Any

from ..errors import error_payload
from ..storage.schema import (
    ARCHIVE_COMMUNITY,
    ARCHIVE_MODES,
    ARCHIVE_OFF,
    ASSOC_GUESS,
    folder_id,
    folder_path,
)
from .request import (
    Request,
    Response,
    Server,
    User,
    count_field,
    number_field,
    require_user,
    text_field,
)
from .sessions import session_ids


# -- folder ids and paths -------------------------------------------------------

def path_field(request: Request, field: str) -> str:
    """The request's folder path *field*, refused before any write or
    clock move when it names no folder."""
    path = text_field(request, field)
    if not any(path.split("/")):
        raise ValueError(f"{field} must name a folder")
    return path


# -- account management ----------------------------------------------------------

def _checked_mode(field: str, mode: str) -> str:
    """*mode*, checked before the catalog sees it: an unknown archive mode
    is the client's ``bad_request``, not the catalog's schema error."""
    if mode not in ARCHIVE_MODES:
        raise ValueError(f"{field} must be one of {', '.join(ARCHIVE_MODES)}")
    return mode


def serve_register_user(server: Server, user: None, request: Request) -> Response:
    user_id = text_field(request, "user_id")
    with server._server_lock:
        if server.repo.get_user(user_id) is not None:
            return {"created": False}
        if ":" in user_id:
            # A folder id is ``<owner>:<path>``: the first ':' must end
            # the owner, or ``a`` filing into ``b:c`` writes ``a:b``'s
            # folder ``c``.
            raise ValueError("user_id must not contain ':'")
        at = number_field(request, "at", None, signed=True)
        name = text_field(request, "name", None)
        community = text_field(request, "community", None)
        mode = _checked_mode("archive_mode", text_field(
            request, "archive_mode", ARCHIVE_COMMUNITY))
        server.repo.add_user(
            user_id, name=name, community=community, archive_mode=mode,
            now=server.advance(at),
        )
    return {"created": True}


def serve_set_archive_mode(server: Server, user: User, request: Request) -> Response:
    mode = _checked_mode("mode", text_field(request, "mode"))
    server.repo.set_archive_mode(user["user_id"], mode)
    return {"mode": mode}


# -- archiving -----------------------------------------------------------------------

def serve_visit_batch(server: Server, requests: list[Request]) -> list[Response]:
    """The visit servlet: a single ``visit`` is a run of one.  Each item
    is authenticated, skipped when its user archives nothing, clamped to
    the server clock and queued for the crawler; the run is ONE
    repository group commit — one WAL record and one fsync.  Invalid
    items get typed per-item errors; valid neighbours still commit.
    """
    responses: list[dict[str, Any] | None] = [None] * len(requests)
    items: list[dict[str, Any]] = []
    slots: list[int] = []
    for i, request in enumerate(requests):
        try:
            user = require_user(server.repo, request)
            mode = user["archive_mode"]
            if mode == ARCHIVE_OFF:
                responses[i] = {"archived": False}
                continue
            url = text_field(request, "url")
            session_id = count_field(request, "session_id", 0)
            referrer = text_field(request, "referrer", None)
            at = number_field(request, "at", None, signed=True)
            items.append({
                "user_id": user["user_id"],
                "url": url,
                "at": server.advance(at),
                "session_id": session_id,
                "referrer": referrer,
                "archive_mode": mode,
                # Per-item origin: each envelope item carries its own
                # traceparent (already validated by dispatch_batch).
                "origin": request.get("traceparent"),
            })
            slots.append(i)
        except Exception as exc:  # noqa: BLE001 - per-item isolation
            responses[i] = error_payload(exc)
    visit_ids = server.repo.record_visit_batch(items)
    for item in items:
        server.crawler.enqueue(item["url"], origin=item["origin"])
    for slot, visit_id in zip(slots, visit_ids):
        responses[slot] = {"archived": True, "visit_id": visit_id}
    return responses


def serve_visit(server: Server, user: User, request: Request) -> Response:
    """A single ``visit``: its batch leg's run of one item, traced to the
    request's own servlet span."""
    return serve_visit_batch(server, [{**request, "traceparent": server.origin()}])[0]


def serve_import_history(server: Server, user: User, request: Request) -> Response:
    """Bulk-import a raw browser history: timestamped URLs with no
    session structure.  The 30-minute gap rule (core.sessions) numbers
    sessions over the entries and the user's earlier unassigned
    (``session_id = 0``) visits together, after the user's highest
    session id, so the trail/context tabs work on pre-Memex history
    too.  The page upserts, the new visit rows and the earlier rows' ids
    are ONE catalog transaction: no reader, and no co-visit round, sees
    the import without its sessions."""
    mode = user["archive_mode"]
    if mode == ARCHIVE_OFF:
        return {"imported": 0, "sessions_assigned": 0}
    origin = server.origin()
    # Every entry is checked before the first moves the clock.
    entries = [
        (text_field(entry, "url"), number_field(entry, "at", None, signed=True),
         text_field(entry, "referrer", None))
        for entry in request["entries"]
    ]
    owner = user["user_id"]
    # A history keeps its own times, which may lie before the clock; the
    # clock moves once, to the latest, and stamps the entries with none.
    now = server.advance(max(
        (at for _, at, _ in entries if at is not None), default=None))
    items = [
        {
            "user_id": owner,
            "url": url,
            "at": at if at is not None else now,
            "referrer": referrer,
            "archive_mode": mode,
            "origin": origin,
        }
        for url, at, referrer in entries
    ]
    # Read, number and write under the server lock: two imports of one
    # user must not both number from the same highest session id.
    with server._server_lock:
        visits = server.repo.user_visits(owner)
        unassigned = [v for v in visits if v["session_id"] == 0]
        numbered = session_ids(
            unassigned + items,
            first=max((v["session_id"] for v in visits), default=0) + 1)
        for item, session_id in zip(items, numbered[len(unassigned):]):
            item["session_id"] = session_id
        server.repo.record_visit_batch(items, backfill={
            v["visit_id"]: session_id
            for v, session_id in zip(unassigned, numbered)
        })
    for item in items:
        server.crawler.enqueue(item["url"], origin=origin)
    return {"imported": len(items), "sessions_assigned": len(numbered)}


def serve_bookmark(server: Server, user: User, request: Request) -> Response:
    url = text_field(request, "url")
    path = path_field(request, "folder_path")
    at = server.advance(number_field(request, "at", None, signed=True))
    with server.repo.edit(at) as edit:
        folder = edit.folder(user["user_id"], path)
        assoc_id = edit.bookmark(folder, url)
    server.crawler.enqueue(url, origin=server.origin())
    return {"assoc_id": assoc_id, "folder_id": folder}


def serve_folder_create(server: Server, user: User, request: Request) -> Response:
    path = path_field(request, "path")
    at = server.advance(number_field(request, "at", None, signed=True))
    with server.repo.edit(at) as edit:
        folder = edit.folder(user["user_id"], path)
    return {"folder_id": folder}


def serve_folder_move(server: Server, user: User, request: Request) -> Response:
    """Cut/paste correction: strongest supervision for the classifier.
    The unfiling, the correction and the relabelling of this user's
    visits of the page are one edit."""
    url = text_field(request, "url")
    from_folder = text_field(request, "from_folder", "")
    to_folder = path_field(request, "to_folder")
    at = server.advance(number_field(request, "at", None, signed=True))
    owner = user["user_id"]
    with server.repo.edit(at) as edit:
        if from_folder:
            removed = edit.unfile(folder_id(owner, from_folder), url)
        else:
            removed = edit.drop_guesses(owner, url)
        dst = edit.folder(owner, to_folder)
        assoc_id = edit.correct(dst, url)
        for visit in server.repo.db.table("visits").select(
            {"user_id": owner, "url": url}
        ):
            edit.label(visit["visit_id"], dst, 1.0)
    return {"assoc_id": assoc_id, "removed": removed, "folder_id": dst}


def serve_folders_get(server: Server, user: User, request: Request) -> Response:
    folders = []
    for row in sorted(
        server.repo.user_folders(user["user_id"]), key=lambda r: r["folder_id"]
    ):
        items = [
            {
                "url": assoc["url"],
                "source": assoc["source"],
                "confidence": assoc["confidence"],
                "guess": assoc["source"] == ASSOC_GUESS,
            }
            for assoc in sorted(
                server.repo.folder_pages(row["folder_id"]),
                key=lambda a: a["assoc_id"],
            )
        ]
        folders.append({
            "path": folder_path(row["folder_id"]),
            "name": row["name"],
            "items": items,
        })
    return {"folders": folders}
