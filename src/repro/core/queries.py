"""The six motivating queries of §1, as one typed API.

Each method corresponds, in order, to one bullet of the paper's
introduction.  They run server-side (benchmark E6 drives them directly);
the applet exposes the same operations over the HTTP tunnel.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

from .memex import MemexServer
from .request import DAY


@dataclass
class QueryAnswer:
    """A uniform answer envelope: what was asked, what came back."""

    question: str
    results: list[dict[str, Any]] = field(default_factory=list)
    extra: dict[str, Any] = field(default_factory=dict)

    @property
    def found(self) -> bool:
        return bool(self.results)


class MotivatingQueries:
    """Answer the paper's six introduction queries against a live server."""

    def __init__(self, server: MemexServer) -> None:
        self.server = server

    def _ask(self, user_id: str, servlet: str, **kwargs: Any) -> dict[str, Any]:
        response = self.server.registry.dispatch(
            {"servlet": servlet, "user_id": user_id, **kwargs}
        )
        if response.get("status") != "ok":
            raise RuntimeError(response.get("error", "query failed"))
        return response

    # Q1: "What was the URL I visited about six months back regarding
    #      compiler optimization at Rice University?"
    def url_from_memory(
        self,
        user_id: str,
        query: str,
        *,
        about_days_ago: float,
        tolerance_days: float = 45.0,
        k: int = 5,
    ) -> QueryAnswer:
        response = self._ask(
            user_id, "recall", query=query,
            around_days_ago=about_days_ago, tolerance_days=tolerance_days, k=k,
        )
        return QueryAnswer(
            question=f"URL about {query!r} ~{about_days_ago:.0f} days ago",
            results=response["hits"],
        )

    # Q2: "What was the Web neighborhood I was surfing the last time I was
    #      looking for resources on classical music?"
    def last_neighborhood(self, user_id: str, folder_path: str) -> QueryAnswer:
        response = self._ask(user_id, "context", folder_path=folder_path)
        if not response["found"]:
            return QueryAnswer(question=f"neighborhood for {folder_path!r}")
        return QueryAnswer(
            question=f"neighborhood for {folder_path!r}",
            results=response["neighborhood"]["nodes"],
            extra={"session": response["session"]},
        )

    # Q3: "Are there any popular sites, related to my experience on
    #      classical music, that have appeared in the last six months?"
    def fresh_popular_sites(
        self,
        user_id: str,
        query: str,
        *,
        since_days: float = 180.0,
        k: int = 10,
    ) -> QueryAnswer:
        response = self._ask(
            user_id, "resources", query=query, k=k, since_days=since_days,
        )
        return QueryAnswer(
            question=f"fresh popular sites about {query!r}",
            results=response["resources"],
            extra={"theme": response.get("theme_label")},
        )

    # Q4: "How is my ISP bill divided into access for work, travel, news,
    #      hobby and entertainment?"
    def bill_division(
        self, user_id: str, *, days: float = 30.0, monthly_rate: float = 20.0,
    ) -> QueryAnswer:
        response = self._ask(
            user_id, "bill", days=days, monthly_rate=monthly_rate,
        )
        return QueryAnswer(
            question=f"ISP bill division over {days:.0f} days",
            results=response["lines"],
        )

    # Q5: "What are the major topics relevant to my workplace?  Where and
    #      how do I fit into that map?"
    def community_topic_map(self, user_id: str) -> QueryAnswer:
        themes = self._ask(user_id, "themes_get")["themes"]
        profiles = self.server.current_profiles()
        me = profiles.get(user_id)
        my_weights = me.weights if me is not None else {}

        def annotate(node: dict[str, Any]) -> dict[str, Any]:
            node = dict(node)
            node["my_weight"] = my_weights.get(node["theme_id"], 0.0)
            node["children"] = [annotate(c) for c in node["children"]]
            return node

        return QueryAnswer(
            question="community topic map and my place in it",
            results=[annotate(t) for t in themes],
            extra={"my_top_themes": me.top_themes() if me is not None else []},
        )

    # Q6: "Who are the people who share my interest in recreational cycling
    #      most closely and are not likely to be computer professionals?"
    def interest_mates(
        self,
        user_id: str,
        query: str,
        *,
        exclude_query: str | None = None,
        k: int = 5,
    ) -> QueryAnswer:
        response = self._ask(
            user_id, "interest_mates", query=query,
            exclude_query=exclude_query, k=k,
        )
        return QueryAnswer(
            question=f"who shares my interest in {query!r}"
            + (f" excluding {exclude_query!r} folk" if exclude_query else ""),
            results=response["users"],
            extra={"theme": response.get("theme_label")},
        )

    # Convenience: answer all six for a user (the demo script).
    def answer_all(
        self,
        user_id: str,
        *,
        topical_query: str,
        folder_path: str,
        exclude_query: str | None = None,
        days_ago: float = 14.0,
    ) -> dict[str, QueryAnswer]:
        return {
            "q1_url_recall": self.url_from_memory(
                user_id, topical_query, about_days_ago=days_ago,
            ),
            "q2_neighborhood": self.last_neighborhood(user_id, folder_path),
            "q3_fresh_sites": self.fresh_popular_sites(user_id, topical_query),
            "q4_bill": self.bill_division(user_id),
            "q5_topic_map": self.community_topic_map(user_id),
            "q6_interest_mates": self.interest_mates(
                user_id, topical_query, exclude_query=exclude_query,
            ),
        }


__all__ = ["DAY", "MotivatingQueries", "QueryAnswer"]
