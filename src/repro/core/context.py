"""Browsing-context recall: "what was I doing last time I surfed X?"

The second motivating query of §1 — "What was the Web neighborhood I was
surfing the last time I was looking for resources on classical music?" —
is answered by finding the user's most recent *session* containing visits
classified into the chosen topic folders, and replaying that session's
trail plus its hyperlink neighborhood.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..storage.repository import MemexRepository
from .request import Request, Response, Server, User, text_field
from .trails import TrailEdge, TrailGraph, TrailNode, user_folder_ids

#: How many hyperlink steps the neighborhood reaches past the session.
HOPS = 1
#: The neighborhood stops growing at this many pages.
MAX_NODES = 30


@dataclass
class SessionContext:
    """One recalled browsing session."""

    user_id: str
    session_id: int
    started_at: float
    ended_at: float
    trail: list[str] = field(default_factory=list)        # visit order
    on_topic: list[str] = field(default_factory=list)     # topical subset

    def to_payload(self) -> dict:
        return {
            "user_id": self.user_id,
            "session_id": self.session_id,
            "started_at": self.started_at,
            "ended_at": self.ended_at,
            "trail": self.trail,
            "on_topic": self.on_topic,
        }


def recall_session(
    repo: MemexRepository,
    user_id: str,
    folder_ids: list[str],
    *,
    before: float | None = None,
) -> SessionContext | None:
    """The user's most recent session touching the given topic folders."""
    folder_set = set(folder_ids)
    deliberate = {
        row["url"] for fid in folder_ids for row in repo.folder_pages(fid)
    }

    def topical(row: dict) -> bool:
        return row["topic_folder"] in folder_set or row["url"] in deliberate

    visits = repo.user_visits(user_id, until=before)
    topical_visits = [v for v in visits if topical(v)]
    if not topical_visits:
        return None
    target_session = max(topical_visits, key=lambda v: v["at"])["session_id"]
    session_visits = sorted(
        (v for v in visits if v["session_id"] == target_session),
        key=lambda v: v["at"],
    )
    return SessionContext(
        user_id=user_id,
        session_id=target_session,
        started_at=session_visits[0]["at"],
        ended_at=session_visits[-1]["at"],
        trail=[v["url"] for v in session_visits],
        on_topic=[v["url"] for v in session_visits if topical(v)],
    )


def context_neighborhood(
    repo: MemexRepository,
    session: SessionContext,
) -> TrailGraph:
    """The session's pages plus their :data:`HOPS`-step hyperlink
    neighborhood, up to :data:`MAX_NODES` pages — "where you were and
    where you were able to go"."""
    core_urls = list(dict.fromkeys(session.trail))
    frontier = list(core_urls)
    included: dict[str, int] = {url: 0 for url in core_urls}
    for depth in range(1, HOPS + 1):
        next_frontier: list[str] = []
        for url in frontier:
            for dst in repo.out_links(url):
                if dst not in included and len(included) < MAX_NODES:
                    included[dst] = depth
                    next_frontier.append(dst)
        frontier = next_frontier

    graph = TrailGraph(folder_paths=[])
    for url, depth in included.items():
        page = repo.db.table("pages").get(url)
        node = TrailNode(url=url, title=(page or {}).get("title"))
        node.visits = session.trail.count(url)
        node.score = 2.0 - depth + 0.1 * node.visits
        if node.visits:
            node.visitors.add(session.user_id)
        graph.nodes[url] = node
    # Click edges along the recorded trail.
    seen_edges: set[tuple[str, str]] = set()
    for src, dst in zip(session.trail, session.trail[1:]):
        if src == dst or src not in graph.nodes or dst not in graph.nodes:
            continue
        if (src, dst) not in seen_edges:
            seen_edges.add((src, dst))
            graph.edges.append(TrailEdge(src=src, dst=dst, clicks=1))
        else:
            for edge in graph.edges:
                if edge.src == src and edge.dst == dst:
                    edge.clicks += 1
    # Structural edges into the neighborhood.
    for url in included:
        for dst in repo.out_links(url):
            if dst in graph.nodes and (url, dst) not in seen_edges:
                seen_edges.add((url, dst))
                graph.edges.append(TrailEdge(src=url, dst=dst, hyperlink=True))
    return graph


def serve_context(server: Server, user: User, request: Request) -> Response:
    owner = user["user_id"]
    folder_ids = user_folder_ids(
        server.repo, owner, text_field(request, "folder_path"))
    session = recall_session(server.repo, owner, folder_ids)
    if session is None:
        return {"found": False, "session": None, "neighborhood": None}
    graph = context_neighborhood(server.repo, session)
    return {
        "found": True,
        "session": session.to_payload(),
        "neighborhood": graph.to_payload(),
    }
