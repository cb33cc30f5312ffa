"""Topic taxonomies for the synthetic Web.

The paper's world has a 'universal' directory (Yahoo!/Open Directory) that
is "too specialized in most topics, and not sufficiently specialized in the
areas in which the community is deeply interested" (§4).  We reproduce that
world with a hand-built master taxonomy — realistic top levels, each leaf
carrying seed terms that drive its language model — plus utilities to
derive per-community ground-truth interest sets from it.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field


@dataclass(eq=False)
class TopicNode:
    """One node of a topic taxonomy.

    Nodes compare and hash by identity (``eq=False``): the parent/children
    cycle makes field-wise equality both meaningless and non-terminating.
    """

    name: str                     # e.g. "Arts/Music/Classical"
    seed_terms: tuple[str, ...] = ()
    children: list["TopicNode"] = field(default_factory=list)
    parent: "TopicNode | None" = None

    @property
    def label(self) -> str:
        """Last path component."""
        return self.name.rsplit("/", 1)[-1]

    @property
    def is_leaf(self) -> bool:
        return not self.children

    def walk(self) -> list["TopicNode"]:
        """This node and all descendants, pre-order."""
        out = [self]
        for child in self.children:
            out.extend(child.walk())
        return out

    def leaves(self) -> list["TopicNode"]:
        return [n for n in self.walk() if n.is_leaf]

    def find(self, name: str) -> "TopicNode | None":
        for node in self.walk():
            if node.name == name:
                return node
        return None

    def ancestors(self) -> list["TopicNode"]:
        """Path from the root (exclusive) down to this node (inclusive)."""
        path: list[TopicNode] = []
        node: TopicNode | None = self
        while node is not None and node.parent is not None:
            path.append(node)
            node = node.parent
        return list(reversed(path))


def _node(name: str, seeds: str = "", *children: TopicNode) -> TopicNode:
    node = TopicNode(name, tuple(seeds.split()))
    for child in children:
        child.parent = node
        # Re-root the child subtree's names under this node.
        for sub in child.walk():
            sub.name = f"{name}/{sub.name}" if name else sub.name
        node.children.append(child)
    return node


def master_taxonomy() -> TopicNode:
    """The 'universal directory' for the simulated Web: 8 top-level areas,
    41 leaf topics, each leaf with the seed terms its pages talk about."""
    return _node(
        "", "",
        _node(
            "Arts", "art culture gallery exhibition creative",
            _node("Music", "music song album artist listen melody",
                  _node("Classical", "classical symphony orchestra concerto bach mozart beethoven composer opera sonata violin conductor philharmonic"),
                  _node("Jazz", "jazz improvisation saxophone trumpet swing bebop coltrane quartet blues standards"),
                  _node("Rock", "rock guitar band drummer concert tour album riff amplifier vocalist")),
            _node("Film", "film movie cinema director actor screenplay festival scene premiere critic review"),
            _node("Literature", "novel poetry author fiction literary chapter prose publisher manuscript anthology"),
        ),
        _node(
            "Computers", "computer software internet technology system digital",
            _node("Programming", "programming code developer library",
                  _node("Compilers", "compiler optimization parser register allocation inlining codegen lexer grammar backend loop intermediate representation"),
                  _node("Databases", "database query transaction index relational schema sql storage recovery concurrency join btree"),
                  _node("Web", "html browser server http javascript applet servlet cgi hyperlink webpage")),
            _node("Hardware", "processor chip memory motherboard silicon circuit cache transistor peripheral"),
            _node("AI", "learning neural classifier clustering bayesian algorithm training model inference datamining"),
            _node("Networking", "network router protocol packet bandwidth tcp ethernet firewall latency switch"),
        ),
        _node(
            "Science", "science research laboratory experiment theory journal",
            _node("Physics", "physics quantum particle relativity energy photon electron momentum wave"),
            _node("Biology", "biology cell gene protein evolution organism dna enzyme species"),
            _node("Astronomy", "astronomy telescope galaxy planet star nebula orbit cosmology supernova"),
            _node("Mathematics", "mathematics theorem proof algebra topology calculus integer geometry conjecture"),
        ),
        _node(
            "Recreation", "recreation hobby leisure outdoor club weekend",
            _node("Cycling", "cycling bicycle ride pedal gear saddle helmet trail tour mountain puncture derailleur"),
            _node("Hiking", "hiking trek trail summit backpack mountain ridge camp boots wilderness"),
            _node("Photography", "photography camera lens aperture exposure shutter portrait darkroom tripod"),
            _node("Cooking", "cooking recipe ingredient oven simmer spice kitchen bake flavor cuisine"),
            _node("Chess", "chess opening endgame gambit knight bishop checkmate tournament grandmaster"),
        ),
        _node(
            "News", "news report headline press daily coverage",
            _node("Politics", "politics election parliament policy minister vote campaign legislation senate"),
            _node("Sports", "sports match tournament league score championship team player season"),
            _node("Weather", "weather forecast temperature rainfall monsoon storm humidity climate"),
        ),
        _node(
            "Business", "business company market industry enterprise",
            _node("Finance", "finance stock investment portfolio dividend bond equity broker trading"),
            _node("Startups", "startup venture funding entrepreneur incubator pitch valuation founder"),
            _node("Jobs", "job career resume salary interview employer hiring vacancy recruiter"),
        ),
        _node(
            "Health", "health medical wellness clinic patient",
            _node("Fitness", "fitness exercise workout gym stretching cardio endurance muscle"),
            _node("Nutrition", "nutrition diet vitamin calorie protein mineral wholesome meal"),
            _node("Medicine", "medicine treatment diagnosis therapy prescription symptom vaccine physician"),
        ),
        _node(
            "Travel", "travel trip destination tourist journey",
            _node("Europe", "europe paris rome castle museum rail alps cathedral itinerary"),
            _node("Asia", "asia temple bazaar himalaya rickshaw monsoon spice delta pagoda"),
            _node("Budget", "budget hostel backpacker discount fare cheap airfare voucher"),
        ),
    )


def community_interests(
    root: TopicNode,
    rng: random.Random,
    *,
    num_core: int = 4,
    num_fringe: int = 4,
    sibling_bias: bool = True,
) -> dict[str, float]:
    """Pick a community's ground-truth interest distribution over leaves.

    A focused community (the paper's deployment unit) has a few *core*
    topics carrying most of the probability mass and a fringe of casual
    topics — this is what makes universal directories a bad fit and theme
    discovery worthwhile.

    With *sibling_bias* (the default), core topics are gathered subtree by
    subtree, so a community deep into e.g. Music holds Classical *and*
    Jazz *and* Rock — mutually confusable folders, the regime in which the
    paper's text-only classifier struggles.
    """
    leaves = root.leaves()
    if num_core + num_fringe > len(leaves):
        raise ValueError("taxonomy too small for requested interest set")
    if sibling_bias:
        # dict.fromkeys keeps encounter order — a set of identity-hashed
        # nodes would make the choice depend on memory addresses.
        parents = list(dict.fromkeys(
            leaf.parent for leaf in leaves if leaf.parent is not None
        ))
        rng.shuffle(parents)
        core: list[TopicNode] = []
        for parent in parents:
            for leaf in parent.children:
                if leaf.is_leaf and len(core) < num_core:
                    core.append(leaf)
            if len(core) >= num_core:
                break
        fringe_pool = [l for l in leaves if l not in core]
        fringe = rng.sample(fringe_pool, num_fringe)
        chosen = core + fringe
    else:
        chosen = rng.sample(leaves, num_core + num_fringe)
    weights: dict[str, float] = {}
    for leaf in chosen[:num_core]:
        weights[leaf.name] = rng.uniform(0.6, 1.0)
    for leaf in chosen[num_core:]:
        weights[leaf.name] = rng.uniform(0.05, 0.2)
    total = sum(weights.values())
    return {name: w / total for name, w in weights.items()}
