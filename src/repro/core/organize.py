"""Proposing topic hierarchies over unorganized links (§2).

"Memex also uses unsupervised clustering to propose a topic hierarchy
over a set of links that the user may want to reorganize."

Given the URLs piled up in one folder (typically a fat ``Imported`` folder
straight from a browser), :func:`propose_hierarchy` clusters their pages
with HAC, recursively splitting big incoherent clusters, and labels each
proposed subfolder from its distinctive terms.  The user reviews the
proposal in the folder tab; :func:`apply_proposal` then materializes the
accepted structure as real subfolders with the items re-filed.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..errors import EmptyCorpus
from ..mining.hac import hac
from ..server.daemons import PageVectorizer
from ..text.vectorize import SparseVector, centroid, distinctive_label, normalize
from .archive import folder_id
from .request import (
    Request,
    Response,
    Server,
    User,
    count_field,
    number_field,
    text_field,
)
from .trails import user_folder_ids


#: A cluster whose members merged at this similarity or above stays one
#: folder.
COHESION_THRESHOLD = 0.5
#: Terms in a proposed folder's name.
LABEL_TERMS = 2


@dataclass
class ProposedFolder:
    """One node of a proposed reorganization."""

    name: str
    urls: list[str] = field(default_factory=list)      # direct members
    children: list["ProposedFolder"] = field(default_factory=list)
    cohesion: float = 1.0

    def to_payload(self) -> dict:
        return {
            "name": self.name,
            "urls": self.urls,
            "cohesion": self.cohesion,
            "children": [c.to_payload() for c in self.children],
        }

    @classmethod
    def from_payload(cls, payload: dict) -> "ProposedFolder":
        return cls(
            name=payload["name"],
            urls=list(payload["urls"]),
            cohesion=payload.get("cohesion", 1.0),
            children=[cls.from_payload(c) for c in payload["children"]],
        )

    def render(self, depth: int = 0) -> str:
        lines = ["  " * depth + f"[{self.name}]  ({len(self.urls)} links)"]
        for url in self.urls[:3]:
            lines.append("  " * (depth + 1) + url)
        if len(self.urls) > 3:
            lines.append("  " * (depth + 1) + f"... {len(self.urls) - 3} more")
        for child in self.children:
            lines.append(child.render(depth + 1))
        return "\n".join(lines)


def propose_hierarchy(
    vectorizer: PageVectorizer,
    urls: list[str],
    *,
    min_cluster: int = 3,
    max_depth: int = 3,
) -> ProposedFolder:
    """Cluster *urls* into a proposed folder hierarchy.

    URLs without fetched text stay at the root (the proposal never hides
    anything).  Splitting recurses while a cluster is big (>=
    2*min_cluster) and incoherent (merge similarity below
    :data:`COHESION_THRESHOLD`), down to *max_depth*.  Each folder is
    named by its :data:`LABEL_TERMS` most distinctive terms.
    """
    usable: list[str] = []
    stranded: list[str] = []
    vectors: list[SparseVector] = []
    for url in urls:
        vec = vectorizer.tfidf_vector(url)
        if vec:
            usable.append(url)
            vectors.append(normalize(vec))
        else:
            stranded.append(url)
    if not usable:
        raise EmptyCorpus("no fetched pages among the given urls")

    dendro = hac(vectors, linkage="group-average")
    members = dendro.members
    used_names: set[str] = set()

    def label_for(member_idx: list[int]) -> str:
        center = centroid([vectors[i] for i in member_idx])
        base = distinctive_label(vectorizer.vocab, center, LABEL_TERMS) or "misc"
        name = base
        n = 2
        while name in used_names:
            name = f"{base} ({n})"
            n += 1
        used_names.add(name)
        return name

    def build(node: int, depth: int) -> ProposedFolder:
        # Peel outliers: unbalanced dendrograms merge stragglers one at a
        # time near the top; rather than nesting a chain of near-identical
        # folders, absorb each tiny side here and descend into the bulk.
        absorbed: list[int] = []
        while node >= len(usable):
            l, r = dendro.children[node]
            left, right = members(l), members(r)
            if len(left) < min_cluster and len(right) >= min_cluster:
                absorbed.extend(left)
                node = r
            elif len(right) < min_cluster and len(left) >= min_cluster:
                absorbed.extend(right)
                node = l
            else:
                break
        member_idx = absorbed + members(node)
        folder = ProposedFolder(
            name=label_for(member_idx),
            cohesion=dendro.similarity.get(node, 1.0),
        )
        folder.urls = [usable[i] for i in absorbed]
        split = (
            node >= len(usable)
            and depth < max_depth
            and len(member_idx) >= 2 * min_cluster
            and folder.cohesion < COHESION_THRESHOLD
        )
        if split:
            l, r = dendro.children[node]
            folder.children = [build(l, depth + 1), build(r, depth + 1)]
        else:
            folder.urls.extend(usable[i] for i in members(node))
        return folder

    root = build(dendro.root, 0)
    root.name = "Proposed organization"
    root.urls.extend(stranded)
    return root


def apply_proposal(
    server: Server,
    owner: str,
    base_path: str,
    proposal: ProposedFolder,
    *,
    at: float,
) -> int:
    """Materialize an accepted proposal under *base_path*.

    Re-files each URL the base folder files into its proposed home as a
    *correction* (it is a deliberate user gesture, the strongest
    supervision), creating that subfolder, all in one edit; a URL the
    base folder does not file stays where it is, and a subfolder no URL
    moves into is not created.  Returns how many items moved.
    """
    base_id = folder_id(owner, base_path)
    moved = 0

    def place(folder: ProposedFolder, path: str) -> None:
        nonlocal moved
        target_path = f"{base_path}/{path}" if path else base_path
        if folder_id(owner, target_path) != base_id:
            for url in folder.urls:
                # The target is created for the first URL that moves.
                if edit.unfile(base_id, url):
                    edit.correct(edit.folder(owner, target_path), url)
                    moved += 1
        for child in folder.children:
            child_path = f"{path}/{child.name}" if path else child.name
            place(child, child_path)

    with server.repo.edit(at) as edit:
        place(proposal, "")
    return moved


def serve_propose_hierarchy(server: Server, user: User, request: Request) -> Response:
    """§2: propose a topic hierarchy over one folder's links."""
    min_cluster = count_field(request, "min_cluster", 3)
    max_depth = count_field(request, "max_depth", 3)
    folder_ids = user_folder_ids(
        server.repo, user["user_id"], text_field(request, "folder_path"))
    urls = sorted({
        row["url"] for fid in folder_ids for row in server.repo.folder_pages(fid)
    })
    if not urls:
        return {"proposal": None, "reason": "folder is empty"}
    proposal = propose_hierarchy(
        server.vectorizer, urls,
        min_cluster=min_cluster, max_depth=max_depth,
    )
    return {"proposal": proposal.to_payload()}


def serve_apply_hierarchy(server: Server, user: User, request: Request) -> Response:
    """Accept a proposed reorganization: folders created, items moved."""
    proposal = ProposedFolder.from_payload(request["proposal"])
    path = text_field(request, "folder_path")
    at = server.advance(number_field(request, "at", None, signed=True))
    moved = apply_proposal(server, user["user_id"], path, proposal, at=at)
    return {"moved": moved}
