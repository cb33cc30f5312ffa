"""Community theme discovery (Figure 4).

"Memex computes, from the document-folder associations of multiple users,
a topic taxonomy specifically tailored for the interests of that user
population.  The taxonomy consists of themes which capture common factors
in people's interests when they can, while maintaining individuality when
they must" — and §4: "refining topics where needed and coarsening where
possible".

Formulation reproduced here:

* Each (user, folder) pair becomes one **folder document**: the normalized
  centroid of its member pages' TF-IDF vectors.
* Group-average HAC agglomerates all folder documents of the community.
* The dendrogram is cut **adaptively**, top-down: a cluster splits into
  its children while it is *large* (enough folders), *shared* (folders
  from enough distinct users — common factors), and *incohesive* (its
  merge similarity is below a cohesion threshold).  Deep community
  interests therefore get refined into sub-themes; one-user idiosyncratic
  folders survive as their own shallow themes (individuality).
* Every theme keeps its centroid, member folders, and an automatic label
  from its top terms, so downstream code (profiles, recommendation,
  resource discovery) can treat themes as classification targets.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..errors import EmptyCorpus
from ..text.vectorize import (
    SparseVector,
    centroid,
    distinctive_label,
    dot,
    normalize,
)
from ..text.vocabulary import Vocabulary
from .hac import hac


@dataclass(frozen=True)
class FolderDoc:
    """One user's folder, represented as a single document."""

    user_id: str
    folder_path: str
    vector: SparseVector
    num_pages: int = 1


@dataclass
class Theme:
    """A node of the discovered community taxonomy."""

    theme_id: str
    label: str
    center: SparseVector
    folders: list[tuple[str, str]]        # (user_id, folder_path)
    children: list["Theme"] = field(default_factory=list)
    cohesion: float = 1.0                 # avg pairwise sim at this node
    weight: float = 0.0                   # total pages under the theme

    @property
    def is_leaf(self) -> bool:
        return not self.children

    @property
    def num_users(self) -> int:
        return len({u for u, _ in self.folders})

    def walk(self) -> list["Theme"]:
        out = [self]
        for child in self.children:
            out.extend(child.walk())
        return out


@dataclass
class ThemeTaxonomy:
    """The discovered taxonomy plus assignment utilities.

    A taxonomy is built whole and replaced whole (``ThemeDaemon`` swaps
    in a new object; nothing edits the tree afterwards), so the flattened
    tree, the leaf list and each leaf's unit-length centre are computed
    once here instead of once per similarity.
    """

    roots: list[Theme]

    def __post_init__(self) -> None:
        self._themes = [t for root in self.roots for t in root.walk()]
        self._leaves = [t for t in self._themes if t.is_leaf]
        self._unit_centers = [normalize(t.center) for t in self._leaves]

    def all_themes(self) -> list[Theme]:
        return list(self._themes)

    def leaves(self) -> list[Theme]:
        return list(self._leaves)

    def similarities(self, vector: SparseVector) -> list[float]:
        """``cosine(vector, leaf.center)`` for every leaf, in
        :meth:`leaves` order — the same floats, with *vector* normalised
        once and no centre normalised at all."""
        unit = normalize(vector)
        return [
            min(dot(unit, center), 1.0) if unit and center else 0.0
            for center in self._unit_centers
        ]

    def assign(self, vector: SparseVector) -> tuple[Theme, float]:
        """Most similar leaf theme for a document/folder vector (ties go
        to the greater theme id)."""
        if not self._leaves:
            raise EmptyCorpus("taxonomy has no themes")
        sims = self.similarities(vector)
        best = max(
            range(len(sims)), key=lambda i: (sims[i], self._leaves[i].theme_id)
        )
        return self._leaves[best], sims[best]

    def fit(self, folder_docs: list[FolderDoc]) -> float:
        """Mean similarity of folder documents to their best theme —
        the taxonomy-quality metric of E5/E8."""
        if not folder_docs:
            raise EmptyCorpus("no folder documents to score")
        return sum(self.assign(fd.vector)[1] for fd in folder_docs) / len(folder_docs)

    def depth(self) -> int:
        def d(theme: Theme) -> int:
            return 1 + max((d(c) for c in theme.children), default=0)
        return max((d(r) for r in self.roots), default=0)


class ThemeDiscovery:
    """Discover a community theme taxonomy from folder documents.

    Parameters
    ----------
    min_split_folders:
        A cluster must hold at least this many folders to be refined.
    min_split_users:
        ... and folders from at least this many distinct users ("common
        factors"); a single user's private interest is never subdivided.
    cohesion_threshold:
        Clusters whose average pairwise member similarity is already above
        this are cohesive enough — coarsening where possible.
    """

    #: Hard refinement limit.
    MAX_DEPTH = 4

    def __init__(
        self,
        *,
        min_split_folders: int = 4,
        min_split_users: int = 2,
        cohesion_threshold: float = 0.55,
    ) -> None:
        self.min_split_folders = min_split_folders
        self.min_split_users = min_split_users
        self.cohesion_threshold = cohesion_threshold

    def discover(
        self,
        folder_docs: list[FolderDoc],
        vocab: Vocabulary | None = None,
    ) -> ThemeTaxonomy:
        """Run discovery.  *vocab* (when given) supplies term strings for
        human-readable theme labels; otherwise labels use folder names."""
        if not folder_docs:
            raise EmptyCorpus("no folder documents")
        vectors = [normalize(fd.vector) for fd in folder_docs]
        dendro = hac(vectors, linkage="group-average")
        counter = [0]

        def build(node: int, depth: int) -> Theme:
            member_idx = dendro.members(node)
            members = [folder_docs[i] for i in member_idx]
            theme = self._make_theme(counter, members, vectors, member_idx, vocab)
            theme.cohesion = dendro.similarity.get(node, 1.0)
            if node < len(folder_docs):
                return theme
            refine = (
                depth < self.MAX_DEPTH
                and len(members) >= self.min_split_folders
                and theme.num_users >= self.min_split_users
                and theme.cohesion < self.cohesion_threshold
            )
            if refine:
                l, r = dendro.children[node]
                theme.children = [build(l, depth + 1), build(r, depth + 1)]
            return theme

        root_theme = build(dendro.root, 0)
        # The synthetic super-root groups everything; expose its children
        # as top-level themes when it was refined, else itself.
        roots = root_theme.children if root_theme.children else [root_theme]
        return ThemeTaxonomy(roots=roots)

    def _make_theme(
        self,
        counter: list[int],
        members: list[FolderDoc],
        vectors: list[SparseVector],
        member_idx: list[int],
        vocab: Vocabulary | None,
    ) -> Theme:
        theme_id = f"theme-{counter[0]}"
        counter[0] += 1
        center = centroid([vectors[i] for i in member_idx])
        if vocab is not None and center:
            label = distinctive_label(vocab, center, 3)
        else:
            # Majority folder basename.
            names = [fd.folder_path.rsplit("/", 1)[-1].lower() for fd in members]
            label = max(set(names), key=names.count)
        return Theme(
            theme_id=theme_id,
            label=label,
            center=center,
            folders=[(fd.user_id, fd.folder_path) for fd in members],
            weight=float(sum(fd.num_pages for fd in members)),
        )


def universal_baseline(
    topic_vectors: dict[str, SparseVector],
) -> ThemeTaxonomy:
    """A PowerBookmarks-style baseline: one flat theme per node of a fixed
    'universal' directory (e.g. the master taxonomy), ignoring the
    community's own folder structure.  Used by E5/E8 to show the
    community-tailored taxonomy fits better."""
    roots = [
        Theme(
            theme_id=f"uni-{i}",
            label=name,
            center=normalize(vec),
            folders=[],
            weight=0.0,
        )
        for i, (name, vec) in enumerate(sorted(topic_vectors.items()))
    ]
    if not roots:
        raise EmptyCorpus("universal baseline needs topic vectors")
    return ThemeTaxonomy(roots=roots)
