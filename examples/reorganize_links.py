#!/usr/bin/env python
"""Reorganizing an unruly link pile (§2's clustering feature).

A user dumps 60 bookmarks from four topics into one fat ``Imported``
folder — the state every browser import produces.  Memex helps twice:

1. **Scatter/Gather** (reference [6]): interactively browse the pile by
   clustering, gathering the interesting cluster, and re-scattering —
   constant-interaction-time exploration without typing a query.
2. **Proposed topic hierarchy**: Memex clusters the folder, labels the
   clusters from their distinctive terms, and — once the user accepts —
   creates the subfolders and re-files everything as corrections.

Run:  python examples/reorganize_links.py
"""

import random

from repro.core import MemexSystem, ProposedFolder
from repro.core.render import render_folder_view
from repro.mining.scatter_gather import ScatterGatherSession
from repro.text.vectorize import tfidf
from repro.webgen import generate_corpus, generate_links, master_taxonomy

TOPICS = [
    "Arts/Music/Classical",
    "Computers/Programming/Compilers",
    "Recreation/Cycling",
    "Travel/Europe",
]


def main() -> None:
    rng = random.Random(17)
    root = master_taxonomy()
    corpus = generate_corpus(root, rng, pages_per_leaf=15, front_page_fraction=0.2)
    generate_links(corpus, rng)

    system = MemexSystem.from_corpus(corpus)
    applet = system.register_user("pat")
    t = 0.0
    pile = []
    for topic in TOPICS:
        for page in corpus.by_topic(topic)[:15]:
            t += 30.0
            applet.bookmark(page.url, "Imported", at=t)
            pile.append(page.url)
    system.server.process_background_work()
    print(f"'Imported' holds {len(pile)} unorganized links "
          f"from {len(TOPICS)} real topics\n")

    # --- Scatter/Gather browsing -------------------------------------------
    vectorizer = system.server.vectorizer
    vectors = [tfidf(vectorizer.vocab, vectorizer.vector(u)) for u in pile]
    session = ScatterGatherSession(vectors, seed=1)
    clusters = session.scatter(4)
    print("Scatter into 4 clusters:")
    for ci, cluster in enumerate(clusters):
        from collections import Counter
        kinds = Counter(corpus.topic_of(pile[i]).rsplit("/", 1)[-1]
                        for i in cluster.members)
        print(f"  cluster {ci}: {len(cluster.members)} links — {dict(kinds)}")
    # Gather the cluster richest in cycling pages and drill in.
    best = max(
        range(len(clusters)),
        key=lambda ci: sum(
            1 for i in clusters[ci].members
            if corpus.topic_of(pile[i]) == "Recreation/Cycling"
        ),
    )
    working = session.gather([best])
    sub = session.scatter(2)
    print(f"Gathered cluster {best} ({len(working)} links), re-scattered "
          f"into {len(sub)} sub-clusters\n")

    # --- Proposed hierarchy -------------------------------------------------
    proposal_payload = applet.propose_organization("Imported", min_cluster=4)
    proposal = ProposedFolder.from_payload(proposal_payload)
    print("Memex proposes:")
    print(proposal.render())

    moved = applet.apply_organization("Imported", proposal_payload, at=t + 100)
    print(f"\nAccepted: {moved} links re-filed into labelled subfolders")
    print("\nFolder tab afterwards:")
    print(render_folder_view(applet.folder_view(), max_items=2))

    print("\nDone.")


if __name__ == "__main__":
    main()
