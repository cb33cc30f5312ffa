"""Trail graphs: the data behind the trail tab (Figure 2).

A *trail graph* is a hypertext graph over recently surfed pages: nodes are
visited URLs, edges come from (a) observed referrer transitions — the
actual click trail — and (b) hyperlinks between visited pages, which fill
in "where you are able to go" around "where you are" (the spatial metaphor
of §2 / reference [9]).  Selecting a folder in the trail tab replays the
subgraph of recent community pages most likely to belong to that topic.
"""

from __future__ import annotations

import math
from collections import defaultdict
from dataclasses import dataclass, field

from ..errors import NotFitted
from ..mining.linkanalysis import popular_near
from ..server.daemons import link_graph
from ..storage.repository import MemexRepository
from ..storage.schema import (
    ARCHIVE_COMMUNITY,
    ASSOC_BOOKMARK,
    ASSOC_CORRECTION,
)
from ..text.vectorize import centroid, cosine
from .archive import folder_id
from .request import (
    DAY,
    Request,
    Response,
    Server,
    User,
    count_field,
    number_field,
    text_field,
    top_k,
)
from .search import hit_payloads

#: Which of a folder's own members sets the similarity floor for community
#: pages joining its trail (see :func:`community_pages_for_folder`).
SIMILARITY_QUANTILE = 0.25
#: A classifier guess puts a visit on its folder's trail from this
#: confidence up: the model has no reject class, so below it a label is
#: mostly a shrug.
MIN_CONFIDENCE = 0.5
#: A trail shows at most this many pages, the best scored.
MAX_NODES = 40
#: A trail page's score halves with each week since its last visit.
HALF_LIFE = 7 * 86400.0


@dataclass
class TrailNode:
    """One page in a trail graph."""

    url: str
    title: str | None = None
    visits: int = 0
    visitors: set[str] = field(default_factory=set)
    last_visit: float = 0.0
    confidence: float = 0.0    # best topic confidence seen
    score: float = 0.0         # recency x popularity rank used for trimming


@dataclass
class TrailEdge:
    src: str
    dst: str
    clicks: int = 0            # observed referrer transitions
    hyperlink: bool = False    # structural link between trail pages


@dataclass
class TrailGraph:
    """The replayable browsing context for a topic."""

    folder_paths: list[str]
    nodes: dict[str, TrailNode] = field(default_factory=dict)
    edges: list[TrailEdge] = field(default_factory=list)

    def to_payload(self) -> dict:
        """JSON-friendly form for the servlet response."""
        return {
            "folders": self.folder_paths,
            "nodes": [
                {
                    "url": n.url,
                    "title": n.title,
                    "visits": n.visits,
                    "visitors": sorted(n.visitors),
                    "last_visit": n.last_visit,
                    "score": n.score,
                }
                for n in sorted(self.nodes.values(), key=lambda n: (-n.score, n.url))
            ],
            "edges": [
                {
                    "src": e.src, "dst": e.dst,
                    "clicks": e.clicks, "hyperlink": e.hyperlink,
                }
                for e in self.edges
            ],
        }


def folder_and_descendants(repo: MemexRepository, root: str) -> list[str]:
    """The folder id plus every descendant folder id."""
    out = [root]
    frontier = [root]
    while frontier:
        parent = frontier.pop()
        for row in repo.db.table("folders").select({"parent": parent}):
            out.append(row["folder_id"])
            frontier.append(row["folder_id"])
    return out


def user_folder_ids(repo: MemexRepository, owner: str, path: str) -> list[str]:
    """*owner*'s folder at *path* and its descendants; none if no such folder."""
    fid = folder_id(owner, path)
    if repo.db.table("folders").get(fid) is None:
        return []
    return folder_and_descendants(repo, fid)


def build_trail_graph(
    repo: MemexRepository,
    folder_ids: list[str],
    *,
    folder_paths: list[str] | None = None,
    since: float | None = None,
    user_id: str | None = None,
    include_urls: set[str] | None = None,
) -> TrailGraph:
    """Assemble the trail graph for a set of topic folders.

    Visits qualify when the classifier filed them into one of
    *folder_ids* with at least :data:`MIN_CONFIDENCE`, a user
    deliberately did, or the URL is in *include_urls* (the caller's own
    judgment of topical membership — MemexServer passes community pages
    "most likely to belong to the selected topic" this way).  Only
    community-archived visits from other users are included — plus all
    of the asking user's own visits, matching the paper's privacy model.
    Node scores decay exponentially with age (:data:`HALF_LIFE`) and grow
    with visit counts, and the graph is trimmed to the
    :data:`MAX_NODES` best nodes.
    """
    folder_set = set(folder_ids)
    extra = include_urls or set()
    # Only deliberate filings count here; classifier guesses already flow
    # in through the visits' topic_folder (confidence-gated below).
    deliberate_urls = {
        row["url"]
        for fid in folder_ids
        for row in repo.folder_pages(
            fid, sources=(ASSOC_BOOKMARK, ASSOC_CORRECTION),
        )
    }

    def qualifies(row: dict) -> bool:
        if row["archive_mode"] != ARCHIVE_COMMUNITY and row["user_id"] != user_id:
            return False
        if since is not None and row["at"] < since:
            return False
        if row["url"] in deliberate_urls or row["url"] in extra:
            return True
        return (
            row["topic_folder"] in folder_set
            and (row["topic_confidence"] or 0.0) >= MIN_CONFIDENCE
        )

    # A visit qualifies only by its url or its topic folder, so the
    # candidates come through those two indexes.
    table = repo.db.table("visits")
    candidates = {
        row["visit_id"]: row
        for where in (
            *({"url": url} for url in deliberate_urls | extra),
            *({"topic_folder": fid} for fid in folder_set),
        )
        for row in table.select(where)
    }
    # Time order, ties in id order (the table's insertion order).
    visits = sorted(
        filter(qualifies, candidates.values()),
        key=lambda row: (row["at"], row["visit_id"]),
    )
    if not visits:
        return TrailGraph(folder_paths=folder_paths or [])

    now = max(v["at"] for v in visits)
    nodes: dict[str, TrailNode] = {}
    clicks: dict[tuple[str, str], int] = defaultdict(int)
    for v in visits:
        node = nodes.get(v["url"])
        if node is None:
            page = repo.db.table("pages").get(v["url"])
            node = TrailNode(url=v["url"], title=(page or {}).get("title"))
            nodes[v["url"]] = node
        node.visits += 1
        node.visitors.add(v["user_id"])
        node.last_visit = max(node.last_visit, v["at"])
        if v["topic_confidence"]:
            node.confidence = max(node.confidence, v["topic_confidence"])
        if v["referrer"]:
            clicks[(v["referrer"], v["url"])] += 1

    for node in nodes.values():
        age = max(0.0, now - node.last_visit)
        recency = math.exp(-age * math.log(2.0) / HALF_LIFE)
        node.score = recency * (1.0 + math.log1p(node.visits)) * (
            1.0 + 0.5 * math.log1p(len(node.visitors))
        )

    keep = {
        n.url
        for n in sorted(nodes.values(), key=lambda n: (-n.score, n.url))[:MAX_NODES]
    }
    nodes = {url: n for url, n in nodes.items() if url in keep}

    edges: list[TrailEdge] = []
    for (src, dst), count in sorted(clicks.items()):
        if src in nodes and dst in nodes:
            edges.append(TrailEdge(src=src, dst=dst, clicks=count))
    # Structural hyperlinks among kept pages (beyond observed clicks).
    clicked = {(e.src, e.dst) for e in edges}
    for url in sorted(nodes):
        for dst in repo.out_links(url):
            if dst in nodes and (url, dst) not in clicked:
                edges.append(TrailEdge(src=url, dst=dst, hyperlink=True))

    return TrailGraph(
        folder_paths=folder_paths or [],
        nodes=nodes,
        edges=edges,
    )


# -- the trail servlets -----------------------------------------------------------

def community_pages_for_folder(
    server: Server,
    owner: str,
    folder_ids: list[str],
    *,
    since: float | None = None,
) -> set[str]:
    """Community-visited pages 'most likely to belong to the selected
    topic': other users' public pages run through MY folder model,
    with a calibrated absolute-similarity floor.

    The classifier alone cannot reject out-of-domain pages (it has no
    reject class, and naive-Bayes posteriors saturate on long
    documents), so a page must ALSO be at least as similar to the
    folder's centroid as the folder's own
    :data:`SIMILARITY_QUANTILE`-worst deliberate member — a per-folder
    calibration with no magic constants.
    """
    repo, vectorizer = server.repo, server.vectorizer
    try:
        model = server.classifier.model_for(owner)
    except NotFitted:
        return set()
    folder_set = set(folder_ids)
    member_vecs = []
    for fid in folder_ids:
        for row in repo.folder_pages(
            fid, sources=(ASSOC_BOOKMARK, ASSOC_CORRECTION),
        ):
            vec = vectorizer.tfidf_vector(row["url"])
            if vec is not None:
                member_vecs.append(vec)
    if not member_vecs:
        return set()
    center = centroid(member_vecs)
    member_sims = sorted(cosine(v, center) for v in member_vecs)
    floor = member_sims[int(SIMILARITY_QUANTILE * (len(member_sims) - 1))]

    out: set[str] = set()
    seen: set[str] = set()
    for visit in repo.community_visits(since=since):
        if visit["user_id"] == owner or visit["url"] in seen:
            continue
        seen.add(visit["url"])
        url = visit["url"]
        vec = vectorizer.vector(url)
        if vec is None:
            continue
        tvec = vectorizer.tfidf_vector(url)
        if tvec is None or cosine(tvec, center) < floor:
            continue
        # Independent per-page prediction: batch relaxation would let
        # confidently-wrong labels cascade through off-topic clusters.
        if model.predict(url, vec)[0] in folder_set:
            out.add(url)
    return out


def trail_graph(
    server: Server, owner: str, path: str, window_days: float,
) -> TrailGraph:
    """The owner's trail over one folder subtree plus the community
    pages their folder model claims for it, over the last
    *window_days* of simulation time."""
    folder_ids = user_folder_ids(server.repo, owner, path)
    since = server.now - window_days * DAY
    include = community_pages_for_folder(server, owner, folder_ids, since=since)
    return build_trail_graph(
        server.repo, folder_ids,
        folder_paths=[path], since=since,
        user_id=owner, include_urls=include,
    )


def trail_extra(server: Server, owner: str) -> tuple:
    """Non-versioned validity stamps for trail-shaped read paths:
    every UI-write counter the replay reads, the owner's classifier
    model version, and the simulation clock (recency windows are
    anchored to *now*, which only moves with incoming events)."""
    stamps = server.repo.stamps
    return (
        stamps.visits, stamps.assocs, stamps.classifications,
        stamps.folders, stamps.pages, stamps.links,
        server.classifier.model_version(owner), server.now,
    )


def serve_trail(server: Server, user: User, request: Request) -> Response:
    """Trail replay for one topic folder (Figure 1's surf-trail view).

    Cached per (owner, folder path, window); validity is the indexer
    and classifier watermarks plus every change stamp the replay
    reads (visits, folder structure, associations, classifications,
    pages, links), the owner's model version, and the simulation
    clock the window anchors to.
    """
    owner = user["user_id"]
    path = text_field(request, "folder_path")
    window_days = number_field(request, "window_days", 14.0)

    def compute() -> Response:
        return {"trail": trail_graph(server, owner, path, window_days).to_payload()}

    return server.cached(
        "trails", ("trail", owner, path, window_days), compute,
        extra=trail_extra(server, owner),
    )


def serve_popular_near_trail(server: Server, user: User, request: Request) -> Response:
    """Abstract's query: 'popular pages in or near my community's
    recent trail graph related to <topic>' — HITS authorities on the
    trail neighborhood."""
    owner = user["user_id"]
    path = text_field(request, "folder_path")
    window_days = number_field(request, "window_days", 30.0)
    k = top_k(request, 10)
    hops = count_field(request, "hops", 1)

    def compute() -> Response:
        seeds = set(trail_graph(server, owner, path, window_days).nodes)
        if not seeds:
            return {"pages": []}
        ranked = popular_near(link_graph(server.repo), seeds, k=k, hops=hops)
        pages = hit_payloads(server.repo, ranked)
        for page in pages:
            page["in_trail"] = page["url"] in seeds
        return {"pages": pages}

    return server.cached(
        "trails", ("popular", owner, path, window_days, k, hops), compute,
        extra=trail_extra(server, owner),
    )
