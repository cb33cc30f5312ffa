"""Session inference over raw visit streams.

The applet stamps visits with a client-side session id, but two archive
paths arrive without one: histories imported from browser files, and
clients too old to send it.  Memex then infers sessions the standard way
— a gap threshold over the per-user visit stream (30 minutes was, and
remains, the industry convention) — so context recall (Figure 2) works
on imported history too.
"""

from __future__ import annotations

from dataclasses import dataclass, field

DEFAULT_GAP = 30 * 60.0  # the classic 30-minute session timeout


@dataclass
class InferredSession:
    """A contiguous burst of one user's visits."""

    user_id: str
    started_at: float
    ended_at: float
    urls: list[str] = field(default_factory=list)
    visit_ids: list[int] = field(default_factory=list)


def segment_visits(
    visits: list[dict],
    *,
    gap: float = DEFAULT_GAP,
) -> list[InferredSession]:
    """Split one user's time-ordered visit rows at gaps longer than *gap*.

    Rows must all belong to the same user; they are sorted defensively.
    """
    if not visits:
        return []
    rows = sorted(visits, key=lambda v: v["at"])
    user_id = rows[0]["user_id"]
    sessions: list[InferredSession] = []
    current = InferredSession(
        user_id=user_id, started_at=rows[0]["at"], ended_at=rows[0]["at"],
    )
    for row in rows:
        if row["user_id"] != user_id:
            raise ValueError("segment_visits expects a single user's rows")
        if row["at"] - current.ended_at > gap and current.urls:
            sessions.append(current)
            current = InferredSession(
                user_id=user_id, started_at=row["at"], ended_at=row["at"],
            )
        current.urls.append(row["url"])
        current.visit_ids.append(row["visit_id"])
        current.ended_at = row["at"]
    sessions.append(current)
    return sessions


def session_ids(rows: list[dict], first: int) -> list[int]:
    """The inferred session id of each of one user's *rows* (``url`` and
    ``at`` each), positionally aligned: :func:`segment_visits`' sessions,
    in time order, numbered from *first*."""
    sessions = segment_visits(
        [{**row, "visit_id": i} for i, row in enumerate(rows)])
    out = [0] * len(rows)
    for session_id, session in enumerate(sessions, start=first):
        for i in session.visit_ids:
            out[i] = session_id
    return out
