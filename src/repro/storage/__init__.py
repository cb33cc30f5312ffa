"""Storage substrate: relational engine, the term store, WAL, versioning.

See DESIGN.md §2-3 and §11.  The paper's server (§3) splits state between
an RDBMS (metadata) and Berkeley DB (term-level statistics), coordinated
by a loosely-consistent versioning layer; each of those has a module
here.  The term store is :class:`KVStore` (a log replayed into an
in-memory sorted index); every stored record is compact JSON
(:mod:`repro.storage.codec`).
"""

from .engine import Namespace, open_engine, prefix_successor
from .kvstore import KVStore
from .relational import Column, Database, Table, TableSchema, Transaction
from .repository import MemexRepository
from .schema import (
    ARCHIVE_COMMUNITY,
    ARCHIVE_MODES,
    ARCHIVE_OFF,
    ARCHIVE_PRIVATE,
    ASSOC_BOOKMARK,
    ASSOC_CORRECTION,
    ASSOC_GUESS,
    create_catalog,
)
from .versioning import VersionCoordinator
from .wal import WriteAheadLog

__all__ = [
    "ARCHIVE_COMMUNITY",
    "ARCHIVE_MODES",
    "ARCHIVE_OFF",
    "ARCHIVE_PRIVATE",
    "ASSOC_BOOKMARK",
    "ASSOC_CORRECTION",
    "ASSOC_GUESS",
    "Column",
    "Database",
    "KVStore",
    "MemexRepository",
    "Namespace",
    "Table",
    "TableSchema",
    "Transaction",
    "VersionCoordinator",
    "WriteAheadLog",
    "create_catalog",
    "open_engine",
    "prefix_successor",
]
