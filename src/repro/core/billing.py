"""ISP-bill decomposition by topic.

Motivating query four (§1): "How is my ISP bill divided into access for
work, travel, news, hobby and entertainment?"  Each archived visit is
costed by the bytes it transferred (we use the stored page text size plus
a fixed HTML/image overhead) and attributed to the *top-level* folder of
its classified topic; the per-topic byte shares are then scaled to the
user's monthly rate.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass

from ..storage.repository import MemexRepository
from .request import DAY, Request, Response, Server, User, number_field

# Average non-text payload (markup, inline images) added to every page, in
# bytes — late-90s pages averaged a few tens of KB.
PAGE_OVERHEAD_BYTES = 12_000
UNCLASSIFIED = "(unclassified)"


@dataclass
class BillLine:
    """One line of the decomposed bill."""

    category: str
    visits: int
    bytes: int
    share: float        # fraction of costed traffic
    amount: float       # share x monthly rate

    def to_payload(self) -> dict:
        return {
            "category": self.category,
            "visits": self.visits,
            "bytes": self.bytes,
            "share": self.share,
            "amount": self.amount,
        }


def _top_level(repo: MemexRepository, folder_id: str) -> str:
    """The root folder name of the folder's path (the bill category)."""
    folder = repo.db.table("folders").get(folder_id)
    if folder is None:
        return UNCLASSIFIED
    seen = {folder_id}
    while folder.get("parent"):
        parent = repo.db.table("folders").get(folder["parent"])
        if parent is None or parent["folder_id"] in seen:
            break
        seen.add(parent["folder_id"])
        folder = parent
    return folder["name"]


def visit_cost_bytes(repo: MemexRepository, url: str) -> int:
    text = repo.page_text(url)
    return (len(text.encode("utf-8")) if text else 0) + PAGE_OVERHEAD_BYTES


def bill_breakdown(
    repo: MemexRepository,
    user_id: str,
    *,
    since: float | None = None,
    until: float | None = None,
    monthly_rate: float = 20.0,
) -> list[BillLine]:
    """Decompose the user's traffic in the window into bill lines,
    sorted by descending amount (unclassified, if any, last)."""
    visits = repo.user_visits(user_id, since=since, until=until)
    by_category: dict[str, list[int]] = defaultdict(list)
    for visit in visits:
        category = (
            _top_level(repo, visit["topic_folder"])
            if visit["topic_folder"] else UNCLASSIFIED
        )
        by_category[category].append(visit_cost_bytes(repo, visit["url"]))
    total_bytes = sum(sum(costs) for costs in by_category.values())
    if total_bytes == 0:
        return []
    lines = [
        BillLine(
            category=category,
            visits=len(costs),
            bytes=sum(costs),
            share=sum(costs) / total_bytes,
            amount=monthly_rate * sum(costs) / total_bytes,
        )
        for category, costs in by_category.items()
    ]
    lines.sort(key=lambda l: (l.category == UNCLASSIFIED, -l.amount, l.category))
    return lines


def serve_bill(server: Server, user: User, request: Request) -> Response:
    days = number_field(request, "days")
    lines = bill_breakdown(
        server.repo, user["user_id"],
        since=server.now - days * DAY,
        monthly_rate=number_field(request, "monthly_rate", 20.0),
    )
    return {"lines": [l.to_payload() for l in lines]}
