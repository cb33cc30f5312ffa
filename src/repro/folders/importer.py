"""Bookmark files ⇄ the served folder payloads.

Import turns a parsed browser bookmark tree into the ``{path: [{url,
title, added_at}]}`` payload :meth:`MemexApplet.import_bookmarks
<repro.client.applet.MemexApplet.import_bookmarks>` sends; export turns
a ``folders_get`` response — the folder tab the server serves — back
into a bookmark tree for either browser's writer.
"""

from __future__ import annotations

from pathlib import Path
from typing import Any

from .explorer import export_favorites
from .netscape import BookmarkEntry, BookmarkNode, parse_bookmarks, write_bookmarks

#: Where bookmarks outside any browser folder are filed.
LOOSE = "Imported"


def bookmarks_to_payload(root: BookmarkNode) -> dict[str, list[dict[str, Any]]]:
    """Every folder of *root* by path, each with its bookmarks (an empty
    folder with none); top-level loose bookmarks land in ``Imported``."""
    payload: dict[str, list[dict[str, Any]]] = {}

    def visit(node: BookmarkNode, path: str) -> None:
        if path or node.bookmarks:
            payload.setdefault(path or LOOSE, []).extend(
                {"url": entry.url, "title": entry.title, "added_at": entry.add_date}
                for entry in node.bookmarks
            )
        for child in node.folders:
            visit(child, f"{path}/{child.name}" if path else child.name)

    visit(root, "")
    return payload


def folders_to_bookmarks(view: dict[str, Any]) -> BookmarkNode:
    """The bookmark tree of a ``folders_get`` response.  Classifier
    guesses are left out: an export carries deliberate bookmarks only."""
    root = BookmarkNode(name="")
    nodes = {"": root}

    def node_at(path: str) -> BookmarkNode:
        if path not in nodes:
            parent, _, name = path.rpartition("/")
            nodes[path] = BookmarkNode(name=name)
            node_at(parent).folders.append(nodes[path])
        return nodes[path]

    for folder in view["folders"]:
        node_at(folder["path"]).bookmarks.extend(
            BookmarkEntry(url=item["url"])
            for item in folder["items"] if not item["guess"]
        )
    return root


def import_netscape_file(path: str | Path) -> dict[str, list[dict[str, Any]]]:
    """A bookmarks.html file as an ``import_bookmarks`` payload."""
    text = Path(path).read_text(encoding="utf-8", errors="replace")
    return bookmarks_to_payload(parse_bookmarks(text))


def export_netscape_file(view: dict[str, Any], path: str | Path) -> None:
    """Write a ``folders_get`` response as a bookmarks.html file."""
    Path(path).write_text(write_bookmarks(folders_to_bookmarks(view)), encoding="utf-8")


def export_explorer_favorites(view: dict[str, Any], directory: str | Path) -> int:
    """Write a ``folders_get`` response as an IE Favorites directory;
    returns the number of ``.url`` files written."""
    return export_favorites(folders_to_bookmarks(view), directory)
