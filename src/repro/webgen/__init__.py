"""Synthetic Web and surfer simulation substrate.

Replaces the live 1999 Web and the paper's volunteer surfers (see
DESIGN.md §2 for the substitution argument).
"""

from .corpus import Page, WebCorpus, generate_corpus
from .graph import generate_links, link_topic_locality
from .language import TopicLanguageModel
from .population import (
    DiurnalCurve,
    FlashCrowd,
    ZipfPopulation,
    arrival_times,
)
from .surfer import (
    SimulationResult,
    SurferProfile,
    make_profile,
    simulate_surfers,
)
from .topictree import (
    TopicNode,
    community_interests,
    master_taxonomy,
)
from .workload import (
    Workload,
    bookmark_challenge_workload,
    build_workload,
    labelled_bookmark_dataset,
)

__all__ = [
    "DiurnalCurve",
    "FlashCrowd",
    "Page",
    "SimulationResult",
    "SurferProfile",
    "TopicLanguageModel",
    "TopicNode",
    "WebCorpus",
    "Workload",
    "ZipfPopulation",
    "arrival_times",
    "bookmark_challenge_workload",
    "build_workload",
    "community_interests",
    "generate_corpus",
    "generate_links",
    "labelled_bookmark_dataset",
    "link_topic_locality",
    "make_profile",
    "master_taxonomy",
    "simulate_surfers",
]
