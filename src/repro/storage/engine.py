"""The term store's front door: :func:`open_engine`, key-prefix
:class:`Namespace` views, and the prefix-scan bound helper.

The paper's server owns one lightweight Berkeley-DB-style key-value
store beside the RDBMS (PAPER.md §1.3); here that store is
:class:`~repro.storage.kvstore.KVStore` and nothing else.
:func:`open_engine` is its by-name constructor — the name is what
``stats`` reports and what tools outside the package (``bench/``) pass.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator
from pathlib import Path
from typing import TYPE_CHECKING

from ..obs import MetricsRegistry

if TYPE_CHECKING:
    from .kvstore import KVStore


def prefix_successor(prefix: bytes) -> bytes | None:
    """The smallest byte string greater than every key with *prefix*.

    Strips any trailing ``0xFF`` run and increments the last remaining
    byte (``b"a\\xff"`` → ``b"b"``), so a prefix ending in ``0xFF`` still
    yields a finite cursor upper bound.  Returns ``None`` only when no
    successor exists (empty or all-``0xFF`` prefix — every later key is
    a continuation, so the scan must run to the end).
    """
    trimmed = prefix.rstrip(b"\xff")
    if not trimmed:
        return None
    return trimmed[:-1] + bytes([trimmed[-1] + 1])


def open_engine(
    name: str,
    path: str | Path | None = None,
    *,
    sync: bool = False,
    metrics: MetricsRegistry | None = None,
) -> KVStore:
    """Open the term store by *name* (``"btree"``, the only engine).

    *path* is the backing log file, or ``None`` for a purely in-memory
    store; *sync* fsyncs on commit; *metrics* receives the store's
    ``storage.*`` metrics.

    >>> store = open_engine("btree")
    >>> store.engine_name
    'btree'
    >>> store[b"k1"] = b"v1"
    >>> store.put_many([(b"k2", b"v2"), (b"k3", b"v3")])
    2
    >>> store.get(b"k2"), store.get(b"missing", b"?")
    (b'v2', b'?')
    >>> [k for k, _ in store.prefix(b"k")]
    [b'k1', b'k2', b'k3']
    >>> store.close()
    """
    # Imported lazily: kvstore imports this module's prefix helper.
    from .kvstore import KVStore

    if name != KVStore.engine_name:
        raise ValueError(
            f"unknown storage engine {name!r}; the only engine is "
            f"{KVStore.engine_name!r}"
        )
    return KVStore(path, sync=sync, metrics=metrics)


class Namespace:
    """A keyspace slice of a :class:`KVStore`, like a BDB sub-database.

    Keys are transparently prefixed with ``name + 0x00`` so multiple
    logical tables (term stats, postings, document metadata, ...) can share
    one physical store, mirroring how Memex packs several indices into
    Berkeley DB.
    """

    SEPARATOR = b"\x00"

    def __init__(self, store: KVStore, name: str) -> None:
        if Namespace.SEPARATOR.decode("latin-1") in name:
            raise ValueError("namespace name must not contain NUL")
        self.store = store
        self.name = name
        self._prefix = name.encode("utf-8") + Namespace.SEPARATOR

    def wrap(self, key: bytes) -> bytes:
        """The store-level key of *key*: what a caller passes to the
        store's own ``put_many`` to commit several namespaces at once."""
        return self._prefix + key

    def put(self, key: bytes, value: bytes) -> None:
        self.store.put(self.wrap(key), value)

    def put_many(self, items: Iterable[tuple[bytes, bytes]]) -> int:
        return self.store.put_many(
            (self.wrap(key), value) for key, value in items
        )

    def get(self, key: bytes, default: bytes | None = None) -> bytes | None:
        return self.store.get(self.wrap(key), default)

    def delete(self, key: bytes) -> None:
        self.store.delete(self.wrap(key))

    def discard(self, key: bytes) -> bool:
        return self.store.discard(self.wrap(key))

    def __contains__(self, key: bytes) -> bool:
        return self.wrap(key) in self.store

    def __getitem__(self, key: bytes) -> bytes:
        return self.store[self.wrap(key)]

    def __setitem__(self, key: bytes, value: bytes) -> None:
        self.put(key, value)

    def items(self) -> Iterator[tuple[bytes, bytes]]:
        """All pairs in this namespace, unwrapped, in key order."""
        plen = len(self._prefix)
        for key, value in self.store.prefix(self._prefix):
            yield key[plen:], value

    def prefix(self, prefix: bytes) -> Iterator[tuple[bytes, bytes]]:
        plen = len(self._prefix)
        for key, value in self.store.prefix(self._prefix + prefix):
            yield key[plen:], value

    def clear(self) -> int:
        """Delete every key in the namespace; returns how many."""
        doomed = [key for key, _ in self.items()]
        for key in doomed:
            self.delete(key)
        return len(doomed)

    def __len__(self) -> int:
        return sum(1 for _ in self.items())
