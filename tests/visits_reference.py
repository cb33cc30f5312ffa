"""The full-scan visit reads the index reads replaced, kept as the
differential oracle.

These are the bodies ``build_trail_graph`` and ``ClassifierDaemon.run_once``
had when a trail filtered a copy of the whole ``visits`` table and a
classifier run copied every unfiled visit, of every user, each time.
They keep no state between calls, so whatever the served code answers or
writes must equal them.  Not a test module: the oracle tests import it.
"""

import math
from collections import defaultdict

from repro.core.trails import TrailEdge, TrailGraph, TrailNode
from repro.server.daemons import deliberate_filings
from repro.storage.schema import (
    ARCHIVE_COMMUNITY,
    ASSOC_BOOKMARK,
    ASSOC_CORRECTION,
)


# -- build_trail_graph: the qualifying rule over the whole table --------------

def _reference_build_trail_graph(
    repo, folder_ids, *, folder_paths=None, since=None, until=None,
    public_only=True, user_id=None, include_urls=None,
    min_confidence=0.5, max_nodes=40, half_life=7 * 86400.0,
):
    folder_set = set(folder_ids)
    extra = include_urls or set()
    deliberate_urls = {
        row["url"]
        for fid in folder_ids
        for row in repo.folder_pages(
            fid, sources=(ASSOC_BOOKMARK, ASSOC_CORRECTION),
        )
    }

    def qualifies(row):
        if public_only and row["archive_mode"] != ARCHIVE_COMMUNITY:
            if user_id is None or row["user_id"] != user_id:
                return False
        if since is not None and row["at"] < since:
            return False
        if until is not None and row["at"] > until:
            return False
        if row["url"] in deliberate_urls or row["url"] in extra:
            return True
        return (
            row["topic_folder"] in folder_set
            and (row["topic_confidence"] or 0.0) >= min_confidence
        )

    visits = [row for row in repo.db.table("visits").scan() if qualifies(row)]
    visits.sort(key=lambda r: r["at"])
    if not visits:
        return TrailGraph(folder_paths=folder_paths or [])

    now = max(v["at"] for v in visits)
    nodes = {}
    clicks = defaultdict(int)
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
        recency = math.exp(-age * math.log(2.0) / half_life)
        node.score = recency * (1.0 + math.log1p(node.visits)) * (
            1.0 + 0.5 * math.log1p(len(node.visitors))
        )

    keep = {
        n.url
        for n in sorted(nodes.values(), key=lambda n: (-n.score, n.url))[:max_nodes]
    }
    nodes = {url: n for url, n in nodes.items() if url in keep}

    edges = []
    for (src, dst), count in sorted(clicks.items()):
        if src in nodes and dst in nodes:
            edges.append(TrailEdge(src=src, dst=dst, clicks=count))
    clicked = {(e.src, e.dst) for e in edges}
    for url in sorted(nodes):
        for dst in repo.out_links(url):
            if dst in nodes and (url, dst) not in clicked:
                edges.append(TrailEdge(src=url, dst=dst, hyperlink=True))

    return TrailGraph(folder_paths=folder_paths or [], nodes=nodes, edges=edges)


# -- ClassifierDaemon.run_once: every unfiled visit, every run ----------------

def _reference_classifier_run(daemon):
    """One classifier run as it was: returns the visits it filed."""
    watermark, _ = daemon.repo.versions.poll(daemon.name)
    filings = deliberate_filings(daemon.repo)
    now = daemon.clock()
    models = {}
    by_user = defaultdict(list)
    room = daemon.BATCH * 4
    unfiled = [
        row for row in daemon.repo.db.table("visits").scan()
        if row["topic_folder"] is None
    ]
    unfiled.sort(key=lambda r: r["visit_id"])
    for visit in unfiled:
        user_id = visit["user_id"]
        if user_id not in models:
            models[user_id] = daemon._maybe_train(user_id, filings)
        if models[user_id] is None:
            continue
        by_user[user_id].append(visit)
        room -= 1
        if not room:
            break
    decisions = []
    for user_id, visits in by_user.items():
        model = models[user_id]
        batch = {}
        visit_for_url = defaultdict(list)
        for visit in visits[: daemon.BATCH]:
            vec = daemon.vectorizer.vector(visit["url"])
            if vec is None:
                continue
            batch[visit["url"]] = vec
            visit_for_url[visit["url"]].append(visit)
        if not batch:
            continue
        for url, (folder_id, confidence) in model.predict_batch(batch).items():
            for visit in visit_for_url[url]:
                decisions.append((visit["visit_id"], folder_id, confidence))
            with daemon.repo.edit(now) as edit:
                edit.guess(folder_id, url, confidence)
    with daemon.repo.edit(now) as edit:
        for visit_id, folder_id, confidence in decisions:
            edit.label(visit_id, folder_id, confidence)
    daemon.repo.versions.ack(daemon.name, watermark)
    daemon.classified_count += len(decisions)
    return len(decisions)
