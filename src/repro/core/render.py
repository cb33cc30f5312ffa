"""Terminal rendering of the Memex tabs.

The paper's screenshots (Figures 1, 2, 4) are GUI panels; this module is
their text-mode equivalent, used by the CLI, the examples, and humans
poking at a live system.  Rendering is pure formatting over the servlet
payloads — no server access — so it is trivially testable.
"""

from __future__ import annotations

from typing import Any


def render_folder_view(view: dict[str, Any], *, max_items: int = 6) -> str:
    """The folder tab: folders, bookmarks, and '?' guesses (Figure 1)."""
    lines: list[str] = []
    for folder in view["folders"]:
        guesses = sum(1 for i in folder["items"] if i["guess"])
        deliberate = len(folder["items"]) - guesses
        lines.append(
            f"[{folder['path']}]  {deliberate} filed, {guesses} guessed"
        )
        for item in folder["items"][:max_items]:
            marker = "? " if item["guess"] else "  "
            conf = (
                f"  ({item['confidence']:.2f})"
                if item["guess"] and item["confidence"] is not None else ""
            )
            lines.append(f"  {marker}{item['url']}{conf}")
        overflow = len(folder["items"]) - max_items
        if overflow > 0:
            lines.append(f"   ... {overflow} more")
    return "\n".join(lines)
