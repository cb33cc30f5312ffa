"""Community consolidation report (the Figure 4 pipeline, end to end).

"Periodically, the server consolidates all users' public folders and
browse history into a topic directory tailored to the needs of that
specific community" (§2).  This module packages the consolidated view:
the theme taxonomy, how each user's folders map onto it, and how each
user fits the map — the data behind motivating query five.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field

from ..mining.themes import Theme, ThemeTaxonomy
from .memex import MemexServer
from .profiles import UserProfile


@dataclass
class ThemeSummary:
    theme_id: str
    label: str
    depth: int
    num_folders: int
    num_users: int
    weight: float
    member_folders: list[tuple[str, str]] = field(default_factory=list)


@dataclass
class CommunityReport:
    """Everything the community tab shows."""

    themes: list[ThemeSummary]
    folder_to_theme: dict[tuple[str, str], str]   # (user, folder path) -> theme id
    user_fit: dict[str, list[tuple[str, float]]]  # user -> top (theme, weight)
    taxonomy_depth: int

    def shared_themes(self) -> list[ThemeSummary]:
        """Themes capturing 'common factors in people's interests': those
        more than one user's folders fall under."""
        return [t for t in self.themes if t.num_users >= 2]

    def individual_themes(self) -> list[ThemeSummary]:
        """Themes that exist to preserve one user's individuality."""
        return [t for t in self.themes if t.num_users == 1]

    def render(self, *, max_themes: int = 20) -> str:
        lines = [f"Community taxonomy (depth {self.taxonomy_depth}):"]
        for t in self.themes[:max_themes]:
            pad = "  " * t.depth
            lines.append(
                f"{pad}- [{t.theme_id}] {t.label}  "
                f"({t.num_folders} folders / {t.num_users} users, w={t.weight:.0f})"
            )
        return "\n".join(lines)


def consolidate(server: MemexServer) -> CommunityReport | None:
    """Build the report from the server's current taxonomy and profiles.

    Returns None when the theme daemon has not produced a taxonomy yet.
    """
    themes, profiles = server.profiles_and_themes()
    if themes is None:
        return None
    return build_report(themes.taxonomy, profiles)


def build_report(
    taxonomy: ThemeTaxonomy,
    profiles: dict[str, UserProfile],
) -> CommunityReport:
    summaries: list[ThemeSummary] = []
    folder_to_theme: dict[tuple[str, str], str] = {}

    def visit(theme: Theme, depth: int) -> None:
        summaries.append(ThemeSummary(
            theme_id=theme.theme_id,
            label=theme.label,
            depth=depth,
            num_folders=len(theme.folders),
            num_users=theme.num_users,
            weight=theme.weight,
            member_folders=list(theme.folders),
        ))
        if theme.is_leaf:
            for user, path in theme.folders:
                folder_to_theme[(user, path)] = theme.theme_id
        for child in theme.children:
            visit(child, depth + 1)

    for root in taxonomy.roots:
        visit(root, 0)

    user_fit: dict[str, list[tuple[str, float]]] = defaultdict(list)
    for user_id, profile in profiles.items():
        user_fit[user_id] = profile.top_themes(5)

    return CommunityReport(
        themes=summaries,
        folder_to_theme=folder_to_theme,
        user_fit=dict(user_fit),
        taxonomy_depth=taxonomy.depth(),
    )
