"""Boolean query language for the full-text search tab.

Late-90s search front-ends exposed ``AND`` / ``OR`` / ``NOT`` with
parentheses, so the Memex search tab gets the same.  Grammar::

    query   := or
    or      := and ( OR and )*
    and     := unary ( [AND] unary )*        # juxtaposition means AND
    unary   := NOT unary | atom
    atom    := '(' or ')' | term

Terms run through the same tokenizer/stemmer as documents.  The index
keeps no term positions, so there are no phrases: a double quote is a
:class:`QueryParseError`, as is any other malformed query — a
``bad_request`` on the wire.  Evaluation returns the matching doc-id
set; :func:`ranked_boolean_search` then ranks the matches with BM25 over
the query's positive terms.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..errors import CODE_BAD_REQUEST, TextError
from .index import InvertedIndex
from .search import SearchEngine, SearchHit
from .tokenize import tokenize


class QueryParseError(TextError):
    """The boolean query was malformed: the client's fault."""

    code = CODE_BAD_REQUEST


# -- AST ----------------------------------------------------------------------

@dataclass(frozen=True)
class Term:
    term: str  # already stemmed


@dataclass(frozen=True)
class And:
    left: "Node"
    right: "Node"


@dataclass(frozen=True)
class Or:
    left: "Node"
    right: "Node"


@dataclass(frozen=True)
class Not:
    child: "Node"


Node = Term | And | Or | Not


# -- parser ----------------------------------------------------------------------

_KEYWORDS = {"AND", "OR", "NOT"}


def _lex(text: str) -> list[str]:
    tokens: list[str] = []
    word: list[str] = []
    for ch in text:
        if ch == '"':
            raise QueryParseError("phrase queries are not supported")
        if ch in "()":
            if word:
                tokens.append("".join(word))
                word = []
            tokens.append(ch)
        elif ch.isspace():
            if word:
                tokens.append("".join(word))
                word = []
        else:
            word.append(ch)
    if word:
        tokens.append("".join(word))
    return tokens


class _Parser:
    def __init__(self, tokens: list[str]):
        self.tokens = tokens
        self.pos = 0

    def peek(self) -> str | None:
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def take(self) -> str:
        token = self.peek()
        if token is None:
            raise QueryParseError("unexpected end of query")
        self.pos += 1
        return token

    def parse(self) -> Node:
        node = self.parse_or()
        if self.peek() is not None:
            raise QueryParseError(f"trailing input at {self.peek()!r}")
        return node

    def parse_or(self) -> Node:
        node = self.parse_and()
        while self.peek() == "OR":
            self.take()
            node = Or(node, self.parse_and())
        return node

    def parse_and(self) -> Node:
        node = self.parse_unary()
        while True:
            nxt = self.peek()
            if nxt == "AND":
                self.take()
                node = And(node, self.parse_unary())
            elif nxt is not None and nxt not in ("OR", ")"):
                node = And(node, self.parse_unary())
            else:
                return node

    def parse_unary(self) -> Node:
        nxt = self.peek()
        if nxt == "NOT":
            self.take()
            return Not(self.parse_unary())
        return self.parse_atom()

    def parse_atom(self) -> Node:
        token = self.take()
        if token == "(":
            node = self.parse_or()
            if self.take() != ")":
                raise QueryParseError("missing ')'")
            return node
        if token == ")" or token in _KEYWORDS:
            raise QueryParseError(f"unexpected {token!r}")
        stems = tokenize(token)
        if not stems:
            # Stopword or punctuation-only term: matches nothing on its
            # own but must not break the query — treat as neutral.
            raise QueryParseError(f"term {token!r} has no indexable content")
        node: Node = Term(stems[0])
        for stem in stems[1:]:
            node = And(node, Term(stem))
        return node


def parse_query(text: str) -> Node:
    """Parse a boolean query string into an AST."""
    tokens = _lex(text)
    if not tokens:
        raise QueryParseError("empty query")
    return _Parser(tokens).parse()


# -- evaluation ---------------------------------------------------------------------

def evaluate(node: Node, index: InvertedIndex) -> set[str]:
    """Doc ids matching the query.  NOT is evaluated against the full
    document set (safe at Memex's per-community scale)."""
    if isinstance(node, Term):
        return set(index.postings(node.term))
    if isinstance(node, And):
        return evaluate(node.left, index) & evaluate(node.right, index)
    if isinstance(node, Or):
        return evaluate(node.left, index) | evaluate(node.right, index)
    if isinstance(node, Not):
        return set(index.document_ids()) - evaluate(node.child, index)
    raise TypeError(f"unknown node {node!r}")


def positive_terms(node: Node) -> list[str]:
    """Terms contributing positively (outside any NOT) — the ranking terms."""
    if isinstance(node, Term):
        return [node.term]
    if isinstance(node, (And, Or)):
        return positive_terms(node.left) + positive_terms(node.right)
    if isinstance(node, Not):
        return []
    raise TypeError(f"unknown node {node!r}")


def ranked_boolean_search(
    engine: SearchEngine,
    query: str,
    *,
    k: int | None = 10,
) -> list[SearchHit]:
    """Boolean filtering + BM25 ranking over the positive terms
    (``k=None`` returns every boolean match, ranked).

    Queries with no positive term (pure negations) rank by doc id.
    """
    node = parse_query(query)
    # One consistent index view across boolean evaluation and ranking
    # (the index lock is reentrant; engine.search re-pins it).
    with engine.index.lock:
        matches = evaluate(node, engine.index)
        if not matches:
            return []
        terms = positive_terms(node)
        if not terms:
            return [SearchHit(doc_id, 0.0) for doc_id in sorted(matches)][:k]
        hits = engine.search(" ".join(terms), k=len(matches), candidates=matches)
    ranked = {h.doc_id for h in hits}
    # Boolean matches that scored zero (e.g. matched only via OR-branch
    # not in top ranks) still belong in the result set, after ranked ones.
    tail = [SearchHit(d, 0.0) for d in sorted(matches - ranked)]
    return (hits + tail)[:k]
