"""The servlet table: every servlet, declared once (DESIGN.md §18).

:class:`~repro.core.memex.MemexServer` registers the rows' handlers;
:class:`~repro.shard.gather.ShardDispatcher` routes and merges by them
without ever constructing a server; ``scripts/gen_protocol_tables.py``
prints them into docs/PROTOCOL.md.  Adding a servlet is one handler
function, one row here and — if it scatters — one merge function in
:mod:`repro.shard.merge`.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass
from typing import Any

from ..shard import merge
from . import archive, billing, context, organize, recommend, search, status, trails
from .request import BROADCAST, OWNER, SCATTER, Request, Response, checked_k


@dataclass(frozen=True)
class Servlet:
    """One servlet's declaration.

    ``handler(server, user, request)`` answers it; *user* is the asker's
    ``users`` row, or ``None`` when ``auth`` is false.  ``routing`` is
    :data:`OWNER`, :data:`BROADCAST` or :data:`SCATTER`, or a function of
    the request returning one.  A multi-shard scatter sends every shard
    ``rewrite(request)`` (``ValueError`` refuses the request at the
    router) and folds the answers with ``merge(request, oks, failed,
    owner)``; a broadcast folds its all-ok answers with it too (default:
    the owner's answer).
    ``batch(server, requests)`` answers a run of this servlet's items in
    a batch envelope in one call.
    """

    name: str
    handler: Callable[[Any, Any, Request], Response]
    auth: bool = True
    routing: str | Callable[[Request], str] = OWNER
    rewrite: Callable[[Request], Request] | None = None
    merge: Callable[..., Response] | None = None
    batch: Callable[[Any, list[Request]], list[Response]] | None = None

    def route(self, request: Request) -> str:
        return self.routing(request) if callable(self.routing) else self.routing


SERVLETS: dict[str, Servlet] = {row.name: row for row in (
    # -- accounts: every shard authenticates against its own users table
    Servlet("register_user", archive.serve_register_user, auth=False,
            routing=BROADCAST, merge=merge.merge_register_user),
    Servlet("set_archive_mode", archive.serve_set_archive_mode,
            routing=BROADCAST),
    # -- one user's archive: the owner shard alone is authoritative
    Servlet("visit", archive.serve_visit,
            batch=archive.serve_visit_batch),
    Servlet("import_history", archive.serve_import_history),
    Servlet("bookmark", archive.serve_bookmark),
    Servlet("folder_create", archive.serve_folder_create),
    Servlet("folder_move", archive.serve_folder_move),
    Servlet("folders_get", archive.serve_folders_get),
    Servlet("search", search.serve_search, routing=search.search_routing,
            rewrite=search.search_fanout, merge=merge.merge_search),
    Servlet("recall", search.serve_recall),
    Servlet("trail", trails.serve_trail),
    Servlet("context", context.serve_context),
    Servlet("bill", billing.serve_bill),
    Servlet("propose_hierarchy", organize.serve_propose_hierarchy),
    Servlet("apply_hierarchy", organize.serve_apply_hierarchy),
    # -- community mining: evidence lives on every shard
    Servlet("related_pages", search.serve_related_pages, routing=SCATTER,
            rewrite=checked_k, merge=merge.merge_related),
    Servlet("themes_get", recommend.serve_themes_get, routing=SCATTER,
            merge=merge.merge_themes),
    Servlet("resources", recommend.serve_resources, routing=SCATTER,
            rewrite=checked_k, merge=merge.merge_resources),
    Servlet("profile_similar", recommend.serve_profile_similar, routing=SCATTER,
            rewrite=checked_k, merge=merge.merge_profile_similar),
    Servlet("interest_mates", recommend.serve_interest_mates, routing=SCATTER,
            rewrite=checked_k, merge=merge.merge_interest_mates),
    Servlet("recommend", recommend.serve_recommend, routing=SCATTER,
            rewrite=checked_k, merge=merge.merge_pages),
    Servlet("popular_near_trail", trails.serve_popular_near_trail,
            routing=SCATTER, rewrite=checked_k, merge=merge.merge_pages),
    # -- observability: the cluster view is the merge of every shard's
    Servlet("stats", status.serve_stats, routing=SCATTER,
            merge=merge.merge_stats),
    Servlet("health", status.serve_health, auth=False, routing=SCATTER,
            merge=merge.merge_health),
    Servlet("metrics_pull", status.serve_metrics_pull, auth=False,
            routing=SCATTER, merge=merge.merge_metrics),
)}
