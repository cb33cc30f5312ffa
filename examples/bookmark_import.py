#!/usr/bin/env python
"""Bookmark interchange: Netscape in, Memex mining, Explorer out.

Reproduces §2's workflow: "Existing bookmarks from Netscape or Explorer
can be imported into Memex's editable tree-structured topic view;
conversely Memex can export back to these browsers."

The script writes a realistic Netscape ``bookmarks.html``, imports it into
a Memex account, surfs a little so the classifier daemon starts filing new
pages into the imported folders, corrects one guess (the Figure 1
cut/paste gesture), and finally exports the enriched folder tree both as
``bookmarks.html`` and as an IE Favorites directory.

Run:  python examples/bookmark_import.py
"""

import random
import tempfile
from pathlib import Path

from repro.core import MemexSystem
from repro.folders import (
    BookmarkEntry,
    BookmarkNode,
    export_explorer_favorites,
    export_netscape_file,
    import_netscape_file,
    write_bookmarks,
)
from repro.webgen import generate_corpus, generate_links, master_taxonomy


def fabricate_netscape_file(corpus, path: Path) -> None:
    """Write a plausible 1999-vintage bookmarks.html from corpus pages."""
    root = BookmarkNode(name="")
    picks = {
        ("Music", "Classical"): "Arts/Music/Classical",
        ("Music", "Jazz"): "Arts/Music/Jazz",
        ("Work", "Compilers"): "Computers/Programming/Compilers",
        ("Fun", "Cycling"): "Recreation/Cycling",
    }
    parents: dict[str, BookmarkNode] = {}
    for (parent, name), topic in picks.items():
        if parent not in parents:
            parents[parent] = BookmarkNode(name=parent)
            root.folders.append(parents[parent])
        folder = BookmarkNode(name=name)
        parents[parent].folders.append(folder)
        folder.bookmarks.extend(
            BookmarkEntry(url=page.url, title=page.title, add_date=9.4e8)
            for page in corpus.by_topic(topic)[:4]
        )
    path.write_text(write_bookmarks(root), encoding="utf-8")


def main() -> None:
    rng = random.Random(3)
    root = master_taxonomy()
    corpus = generate_corpus(root, rng, pages_per_leaf=15)
    generate_links(corpus, rng)

    workdir = Path(tempfile.mkdtemp(prefix="memex-bookmarks-"))
    netscape_in = workdir / "bookmarks.html"
    fabricate_netscape_file(corpus, netscape_in)
    print(f"Wrote a Netscape bookmark file: {netscape_in}")

    # Parse it and push it into a fresh Memex account.
    payload = import_netscape_file(netscape_in)
    print(f"Parsed {sum(map(len, payload.values()))} bookmarks in "
          f"{len(payload)} folders")

    system = MemexSystem.from_corpus(corpus)
    applet = system.register_user("alice")
    imported = applet.import_bookmarks(payload, at=0.0)
    print(f"Imported {imported} bookmarks into Memex")

    # Surf a few topical pages the classifier has never seen bookmarked.
    t = 1000.0
    for topic in ["Arts/Music/Classical", "Arts/Music/Jazz",
                  "Computers/Programming/Compilers", "Recreation/Cycling"]:
        for page in corpus.by_topic(topic)[6:10]:
            applet.record_visit(page.url, at=t)
            t += 60.0
    system.server.process_background_work()

    view = applet.folder_view()
    print("\nFolder tab after the classifier daemon ran "
          "('?' marks its guesses):")
    mistakes = []
    for folder in view["folders"]:
        if not folder["items"]:
            continue
        print(f"  [{folder['path']}]")
        for item in folder["items"]:
            marker = "? " if item["guess"] else "  "
            print(f"    {marker}{item['url']}")
            if item["guess"] and corpus.topic_of(item["url"]) not in (
                "Arts/Music/Classical", "Arts/Music/Jazz",
                "Computers/Programming/Compilers", "Recreation/Cycling",
            ):
                mistakes.append((folder["path"], item["url"]))

    # Correct one guess with cut/paste (reinforces the classifier).
    guesses = [
        (f["path"], i["url"])
        for f in view["folders"] for i in f["items"] if i["guess"]
    ]
    if guesses:
        from_path, url = guesses[0]
        applet.move_bookmark(url, None, from_path, at=t)
        print(f"\nConfirmed the guess for {url} into [{from_path}] "
              "(cut/paste correction)")

    # Export the served folder tab both ways.
    served = applet.folder_view()
    netscape_out = workdir / "exported.html"
    export_netscape_file(served, netscape_out)
    favorites_dir = workdir / "Favorites"
    count = export_explorer_favorites(served, favorites_dir)
    print(f"\nExported {count} deliberate bookmarks to {favorites_dir}")
    print(f"Exported Netscape file: {netscape_out}")
    print("Done.")


if __name__ == "__main__":
    main()
