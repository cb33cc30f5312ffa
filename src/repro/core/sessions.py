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

from ..storage.repository import MemexRepository

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


def assign_session_ids(
    repo: MemexRepository,
    user_id: str,
    *,
    gap: float = DEFAULT_GAP,
    only_missing: bool = True,
) -> int:
    """Write inferred session ids back onto visit rows.

    Visits with ``session_id == 0`` are the unassigned ones (imported
    histories use 0); with ``only_missing`` those are the only rows
    touched.  New ids continue after the user's current maximum so they
    never collide with client-assigned sessions.  One transaction for
    the whole assignment.  Returns #rows updated.
    """
    visits = repo.user_visits(user_id)
    if not visits:
        return 0
    next_id = max(v["session_id"] for v in visits) + 1
    targets = [v for v in visits if not only_missing or v["session_id"] == 0]
    if not targets:
        return 0
    updated = 0
    with repo.db.begin() as txn:
        for session in segment_visits(targets, gap=gap):
            for visit_id in session.visit_ids:
                txn.update("visits", visit_id, {"session_id": next_id})
                updated += 1
            next_id += 1
    return updated
