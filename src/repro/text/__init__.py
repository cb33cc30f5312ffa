"""Text substrate: tokenization, vocabulary, vectors, index, search."""

from .index import InvertedIndex
from .query import (
    QueryParseError,
    evaluate,
    parse_query,
    ranked_boolean_search,
)
from .search import SearchEngine, SearchHit
from .snippets import Snippet, make_snippet
from .tokenize import STOPWORDS, porter_stem, tokenize, words
from .vectorize import (
    SparseVector,
    add,
    centroid,
    cosine,
    count_vector,
    dot,
    normalize,
    text_vector,
    tfidf,
    top_terms,
)
from .vocabulary import Vocabulary

__all__ = [
    "STOPWORDS",
    "InvertedIndex",
    "QueryParseError",
    "SearchEngine",
    "SearchHit",
    "Snippet",
    "SparseVector",
    "Vocabulary",
    "evaluate",
    "make_snippet",
    "parse_query",
    "ranked_boolean_search",
    "add",
    "centroid",
    "cosine",
    "count_vector",
    "dot",
    "normalize",
    "porter_stem",
    "text_vector",
    "tfidf",
    "tokenize",
    "top_terms",
    "words",
]
