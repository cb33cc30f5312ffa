"""The paper's primary contribution: the Memex browsing assistant."""

from .api import MemexSystem, corpus_fetcher
from .community import consolidate
from .memex import MemexServer
from .organize import ProposedFolder
from .profiles import (
    PageThemes,
    UserProfile,
    build_profile,
    profile_similarity,
    similar_users,
    url_overlap_similarity,
)
from .queries import MotivatingQueries
from .recommend import cluster_users, recommend_pages
from .render import render_folder_view
from .trails import TrailEdge, TrailGraph, TrailNode

__all__ = [
    "MemexServer",
    "MemexSystem",
    "MotivatingQueries",
    "PageThemes",
    "ProposedFolder",
    "TrailEdge",
    "TrailGraph",
    "TrailNode",
    "UserProfile",
    "build_profile",
    "cluster_users",
    "consolidate",
    "corpus_fetcher",
    "profile_similarity",
    "recommend_pages",
    "render_folder_view",
    "similar_users",
    "url_overlap_similarity",
]
