"""Mining algorithms: classification, clustering, theme discovery, metrics."""

from .evaluation import (
    accuracy,
    normalized_mutual_information,
    precision_at_k,
    purity,
)
from .features import project, select_features
from .hac import cluster_vectors, hac
from .hierarchical import HierarchicalClassifier
from .linkanalysis import popular_near
from .linkfolder import EnhancedClassifier, build_coplacement
from .naive_bayes import NaiveBayesClassifier
from .scatter_gather import ScatterGatherSession, buckshot
from .themes import (
    FolderDoc,
    Theme,
    ThemeDiscovery,
    ThemeTaxonomy,
    universal_baseline,
)

__all__ = [
    "EnhancedClassifier",
    "FolderDoc",
    "HierarchicalClassifier",
    "NaiveBayesClassifier",
    "ScatterGatherSession",
    "Theme",
    "ThemeDiscovery",
    "ThemeTaxonomy",
    "accuracy",
    "buckshot",
    "build_coplacement",
    "cluster_vectors",
    "hac",
    "normalized_mutual_information",
    "popular_near",
    "precision_at_k",
    "project",
    "purity",
    "select_features",
    "universal_baseline",
]
