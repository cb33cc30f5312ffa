"""In-process relational engine: the reproduction's Oracle/DB2 stand-in.

The paper keeps "metadata about pages, links, users, and topics" (§3) in an
RDBMS.  This module provides what that workload needs, in pure Python:

* typed schemas with primary keys and nullable columns,
* hash indexes for equality lookups,
* equality and predicate selects with ordering and limits,
* transactions (begin / commit / abort) with WAL-based crash recovery,
* unique-constraint enforcement.

There are no range scans, joins or aggregates: no servlet or daemon asks
for one.

A stored row is never mutated in place: an insert stores a fresh dict, an
update stores a changed copy in the old one's place, and a rollback puts
the old dict back.  So a read snapshots row *references* under the
table's lock and copies only the rows it returns, outside it; a
``select`` or ``count`` predicate sees the stored rows themselves and
must treat them as read-only.

It is intentionally *not* a SQL parser — queries are expressed through a
small fluent API — but the semantics (atomic multi-row transactions,
secondary-index maintenance, recovery to the last committed transaction)
match what Memex's servlets and daemons rely on.
"""

from __future__ import annotations

import threading
from contextlib import ExitStack
from collections.abc import Callable, Iterable, Iterator, Sequence
from dataclasses import dataclass, field
from operator import itemgetter
from pathlib import Path
from typing import Any

from ..errors import (
    DuplicateKey,
    NoSuchColumn,
    NoSuchTable,
    SchemaError,
    TransactionError,
)
from ..obs import MetricsRegistry, current_traceparent, null_registry
from .codec import decode, encode
from .wal import WriteAheadLog

Row = dict[str, Any]

#: Rows per insert record in a checkpoint: keeps any one record far below
#: the log's MAX_RECORD_BYTES however large the table.
_CHECKPOINT_ROWS = 1024

_TYPES: dict[str, tuple[type, ...]] = {
    "int": (int,),
    "float": (int, float),
    "str": (str,),
    "bool": (bool,),
    "json": (dict, list, str, int, float, bool, type(None)),
}


@dataclass(frozen=True)
class Column:
    """One column of a table schema."""

    name: str
    type: str = "str"
    nullable: bool = False

    def __post_init__(self) -> None:
        if self.type not in _TYPES:
            raise SchemaError(f"unknown column type {self.type!r}")

    def check(self, value: Any) -> None:
        if value is None:
            if not self.nullable:
                raise SchemaError(f"column {self.name!r} is not nullable")
            return
        if self.type == "bool" and isinstance(value, int) and not isinstance(value, bool):
            raise SchemaError(f"column {self.name!r} expects bool, got int")
        if not isinstance(value, _TYPES[self.type]):
            raise SchemaError(
                f"column {self.name!r} expects {self.type}, got {type(value).__name__}"
            )


@dataclass
class TableSchema:
    """Schema: ordered columns, a primary key, and named secondary indexes."""

    name: str
    columns: Sequence[Column]
    primary_key: str
    indexes: Sequence[str] = field(default_factory=tuple)
    unique: Sequence[str] = field(default_factory=tuple)

    def __post_init__(self) -> None:
        names = [c.name for c in self.columns]
        if len(set(names)) != len(names):
            raise SchemaError(f"table {self.name!r} has duplicate column names")
        for col in (self.primary_key, *self.indexes, *self.unique):
            if col not in names:
                raise NoSuchColumn(f"{self.name}.{col}")
        self._by_name = {c.name: c for c in self.columns}

    def column(self, name: str) -> Column:
        try:
            return self._by_name[name]
        except KeyError:
            raise NoSuchColumn(f"{self.name}.{name}") from None

    def validate(self, row: Row) -> Row:
        """Check a row against the schema, filling absent nullables with None."""
        unknown = set(row) - set(self._by_name)
        if unknown:
            raise SchemaError(f"unknown columns for {self.name!r}: {sorted(unknown)}")
        out: Row = {}
        for col in self.columns:
            value = row.get(col.name)
            col.check(value)
            out[col.name] = value
        return out


class Table:
    """One heap table with its indexes.  Mutate through :class:`Database`."""

    def __init__(self, schema: TableSchema) -> None:
        self.schema = schema
        # Per-table lock (rank "relational" in repro.locks.LOCK_ORDER).
        # A read holds it for one lookup or a snapshot of row references
        # and filters, sorts and copies outside it, so user predicates
        # never run while it is held; a commit takes the lock of every
        # involved table in sorted-name order (the "table group").
        self._table_lock = threading.Lock()
        self._rows: dict[Any, Row] = {}
        self._hash: dict[str, dict[Any, set[Any]]] = {
            col: {} for col in {*schema.indexes, *schema.unique}
        }

    # -- internal mutation (called by Database under a transaction) ---------

    def _insert(self, row: Row) -> None:
        row = self.schema.validate(row)
        pk = row[self.schema.primary_key]
        if pk is None:
            raise SchemaError(f"{self.schema.name}: primary key may not be NULL")
        if pk in self._rows:
            raise DuplicateKey(f"{self.schema.name}.{self.schema.primary_key}={pk!r}")
        for col in self.schema.unique:
            value = row[col]
            if value is not None and self._hash[col].get(value):
                raise DuplicateKey(f"{self.schema.name}.{col}={value!r}")
        self._rows[pk] = row
        self._index_add(pk, row)

    def _delete(self, pk: Any) -> Row:
        row = self._rows.pop(pk)
        self._index_remove(pk, row)
        return row

    def _update(self, pk: Any, changes: Row) -> Row:
        old = self._rows[pk]
        new = dict(old)
        new.update(changes)
        new = self.schema.validate(new)
        if new[self.schema.primary_key] != pk:
            raise SchemaError(f"{self.schema.name}: primary key is immutable")
        for col in self.schema.unique:
            value = new[col]
            if value is not None and value != old[col]:
                owners = self._hash[col].get(value, set())
                if owners - {pk}:
                    raise DuplicateKey(f"{self.schema.name}.{col}={value!r}")
        self._index_remove(pk, old)
        self._rows[pk] = new
        self._index_add(pk, new)
        return old

    def _add_indexes(self, columns: Sequence[str]) -> None:
        """Also index *columns*, built from the stored rows: a table
        recovered from a log written before they were declared gets them
        on open.  The log keeps its ``create_table`` record; a checkpoint
        writes the schema with them."""
        with self._table_lock:
            missing = [col for col in columns if col not in self._hash]
            if not missing:
                return
            schema = self.schema
            self.schema = TableSchema(
                schema.name, schema.columns, schema.primary_key,
                (*schema.indexes, *missing), schema.unique,
            )
            for col in missing:
                self._hash[col] = {}
            for pk, row in self._rows.items():
                for col in missing:
                    self._hash[col].setdefault(row[col], set()).add(pk)

    def _index_add(self, pk: Any, row: Row) -> None:
        for col, buckets in self._hash.items():
            buckets.setdefault(row[col], set()).add(pk)

    def _index_remove(self, pk: Any, row: Row) -> None:
        for col, buckets in self._hash.items():
            bucket = buckets.get(row[col])
            if bucket is not None:
                bucket.discard(pk)
                if not bucket:
                    del buckets[row[col]]

    # -- reads ----------------------------------------------------------------

    def get(self, pk: Any) -> Row | None:
        """Primary-key point lookup; returns a copy or None."""
        with self._table_lock:
            row = self._rows.get(pk)
            return dict(row) if row is not None else None

    def __len__(self) -> int:
        with self._table_lock:
            return len(self._rows)

    def __contains__(self, pk: Any) -> bool:
        with self._table_lock:
            return pk in self._rows

    def max_key(self, default: Any = None) -> Any:
        """The largest primary key, or *default* when the table is empty."""
        with self._table_lock:
            return max(self._rows, default=default)

    def scan(self) -> Iterator[Row]:
        """Full scan; yields row copies (a snapshot taken at first next())."""
        with self._table_lock:
            snapshot = list(self._rows.values())
        for row in snapshot:
            yield dict(row)

    def select(
        self,
        where: Row | Callable[[Row], bool] | None = None,
        *,
        order_by: str | None = None,
    ) -> list[Row]:
        """Filtered select, ascending by *order_by* (NULLs last) when given.

        *where* is either a dict of equality constraints (index-accelerated
        when a constrained column is indexed) or an arbitrary predicate.
        """
        rows = self._matching(where)
        if order_by is not None:
            self.schema.column(order_by)
            rows.sort(key=lambda r: (r[order_by] is None, r[order_by]))
        return [dict(r) for r in rows]

    def lookup(self, pks: Iterable[Any], column: str) -> list[Any]:
        """*column* of the row under each primary key in *pks*, in order
        (None for a key with no row), under one hold of the table's lock,
        copying no row."""
        self.schema.column(column)
        with self._table_lock:
            rows = self._rows
            return [
                row[column] if (row := rows.get(pk)) is not None else None
                for pk in pks
            ]

    def project(
        self,
        where: Row | Callable[[Row], bool] | None,
        *columns: str,
    ) -> list[Any]:
        """The *columns* of the rows *where* selects, in :meth:`select`'s
        order (unsorted), copying no row: one value per row for one
        column, a tuple per row for several."""
        for col in columns:
            self.schema.column(col)
        return list(map(itemgetter(*columns), self._matching(where)))

    def _matching(self, where: Row | Callable[[Row], bool] | None) -> list[Row]:
        """The stored rows *where* selects, uncopied.  The candidates are
        snapshotted under the table's lock and filtered outside it, so a
        predicate can itself query tables; it sees stored rows, which
        commits replace and never mutate."""
        with self._table_lock:
            rows = self._candidates(where)
        if isinstance(where, dict):
            if len(where) == 1 and (
                    self.schema.primary_key in where or where.keys() & self._hash):
                return rows     # the key's row or bucket is the answer
            return [r for r in rows if all(r.get(k) == v for k, v in where.items())]
        if callable(where):
            return [r for r in rows if where(r)]
        return rows

    def _candidates(self, where: Row | Callable[[Row], bool] | None) -> list[Row]:
        """The rows *where* can select: the primary key's row, else the
        smallest index bucket among the constrained columns, else all."""
        if isinstance(where, dict):
            for col in where:
                self.schema.column(col)
            if self.schema.primary_key in where:
                row = self._rows.get(where[self.schema.primary_key])
                return [row] if row is not None else []
            buckets = [
                self._hash[col].get(value, ()) for col, value in where.items()
                if col in self._hash
            ]
            if buckets:
                return [self._rows[pk] for pk in min(buckets, key=len)]
        return list(self._rows.values())

    def count(self, where: Row | Callable[[Row], bool] | None = None) -> int:
        if where is None:
            return len(self)
        return len(self._matching(where))


class Transaction:
    """Staged mutations applied atomically at :meth:`commit`.

    Reads inside a transaction see the *pre-transaction* state (the engine
    stages writes rather than applying them eagerly); this matches the
    read-committed discipline Memex's servlets use and keeps abort trivial.
    """

    def __init__(self, db: "Database") -> None:
        self._db = db
        self._ops: list[tuple[str, str, Any, Any]] = []  # op, table, pk, payload
        self._state = "active"

    def _check_active(self) -> None:
        if self._state != "active":
            raise TransactionError(f"transaction is {self._state}")

    def insert(self, table: str, row: Row) -> None:
        self._check_active()
        self._db._table(table)  # existence check
        self._ops.append(("insert", table, None, dict(row)))

    def insert_many(self, table: str, rows: Iterable[Row]) -> int:
        """Stage many inserts into one table; returns the count staged.

        The whole transaction still commits as one WAL record, so this is
        the relational leg of the batch-ingest group commit.
        """
        self._check_active()
        self._db._table(table)
        n = 0
        for row in rows:
            self._ops.append(("insert", table, None, dict(row)))
            n += 1
        return n

    def update(self, table: str, pk: Any, changes: Row) -> None:
        self._check_active()
        self._db._table(table)
        self._ops.append(("update", table, pk, dict(changes)))

    def delete(self, table: str, pk: Any) -> None:
        self._check_active()
        self._db._table(table)
        self._ops.append(("delete", table, pk, None))

    def commit(self) -> None:
        self._check_active()
        self._db._commit(self)
        self._state = "committed"

    def abort(self) -> None:
        self._check_active()
        self._ops.clear()
        self._state = "aborted"

    def __enter__(self) -> "Transaction":
        return self

    def __exit__(self, exc_type: type | None, *exc: object) -> None:
        if self._state != "active":
            return
        if exc_type is None:
            self.commit()
        else:
            self.abort()


class Database:
    """A collection of tables with transactions and optional persistence.

    With ``path=None`` the database is purely in-memory.  With a path, every
    committed transaction (and every DDL statement) is logged to a
    write-ahead log; reopening the same path replays the log, recovering all
    committed work and discarding any uncommitted tail.
    """

    def __init__(
        self,
        path: str | Path | None = None,
        *,
        sync: bool = False,
        metrics: MetricsRegistry | None = None,
    ) -> None:
        self._tables: dict[str, Table] = {}
        self._log: WriteAheadLog | None = None
        self._recovering = False
        # Guards the table catalog; same "relational" rank as the
        # per-table _table_lock (never nested with one held).
        self._catalog_lock = threading.RLock()
        m = metrics if metrics is not None else null_registry()
        self._n_commits = 0
        m.counter_func("storage.relational.commits", lambda: self._n_commits)
        if path is not None:
            self._log = WriteAheadLog(path, sync=sync, metrics=m)
            self._recover()

    # -- DDL -------------------------------------------------------------------

    def create_table(
        self,
        name: str,
        columns: Sequence[Column | tuple[str, str] | str],
        primary_key: str,
        *,
        indexes: Sequence[str] = (),
        unique: Sequence[str] = (),
        if_not_exists: bool = False,
    ) -> Table:
        """Create a table.  Columns may be Column objects, (name, type)
        tuples, or bare names (defaulting to type ``str``)."""
        with self._catalog_lock:
            existing = self._tables.get(name)
            if existing is None:
                cols = [self._as_column(c) for c in columns]
                schema = TableSchema(
                    name, cols, primary_key, tuple(indexes), tuple(unique))
                self._tables[name] = Table(schema)
                self._log_ddl("create_table", self._schema_payload(schema))
                return self._tables[name]
            if not if_not_exists:
                raise SchemaError(f"table {name!r} already exists")
        # Outside the catalog lock: it is never held with a table's.
        existing._add_indexes(indexes)
        return existing

    @staticmethod
    def _schema_payload(schema: TableSchema) -> dict[str, Any]:
        return {
            "name": schema.name,
            "columns": [(c.name, c.type, c.nullable) for c in schema.columns],
            "primary_key": schema.primary_key,
            "indexes": list(schema.indexes),
            "unique": list(schema.unique),
        }

    @staticmethod
    def _as_column(spec: Column | tuple[str, str] | str) -> Column:
        if isinstance(spec, Column):
            return spec
        if isinstance(spec, tuple):
            return Column(spec[0], spec[1])
        return Column(spec)

    def table(self, name: str) -> Table:
        """Read handle on a table."""
        return self._table(name)

    def _table(self, name: str) -> Table:
        try:
            return self._tables[name]
        except KeyError:
            raise NoSuchTable(name) from None

    def tables(self) -> list[str]:
        with self._catalog_lock:
            return sorted(self._tables)

    # -- transactions ------------------------------------------------------------

    def begin(self) -> Transaction:
        return Transaction(self)

    def _commit(self, txn: Transaction) -> None:
        # Serialize commits per table-group: take the lock of every
        # involved table in sorted-name order (deadlock-free by global
        # ordering), and hold them over the log append, so no reader sees
        # a row before it is durable.
        involved = sorted({tname for _, tname, _, _ in txn._ops})
        with ExitStack() as stack:
            for tname in involved:
                stack.enter_context(self._table(tname)._table_lock)
            self._apply_ops(txn)

    def _apply_ops(self, txn: Transaction) -> None:
        # Apply with rollback-on-failure so a constraint violation midway,
        # or a log append that raises, leaves the database unchanged
        # (atomicity); a refused append also leaves nothing in the log.
        applied: list[tuple[str, str, Any, Row | None]] = []
        try:
            for op, tname, pk, payload in txn._ops:
                table = self._table(tname)
                if op == "insert":
                    table._insert(payload)
                    applied.append(("insert", tname, payload[table.schema.primary_key], None))
                elif op == "update":
                    old = table._update(pk, payload)
                    applied.append(("update", tname, pk, old))
                else:
                    old = table._delete(pk)
                    applied.append(("delete", tname, pk, old))
            if self._log is not None and not self._recovering and txn._ops:
                record = {"kind": "txn", "ops": [
                    [op, tname, pk, payload]
                    for op, tname, pk, payload in txn._ops
                ]}
                # Stamp the ambient trace context (if a request span is
                # active) so a WAL record is attributable to the request
                # that wrote it.  Recovery ignores unknown keys, so old
                # readers and old WALs are both unaffected.
                trace = current_traceparent()
                if trace is not None:
                    record["trace"] = trace
                self._log.append(encode(record))
        except BaseException:
            for op, tname, pk, old in reversed(applied):
                table = self._table(tname)
                if op == "insert":
                    table._delete(pk)
                elif op == "update":
                    assert old is not None
                    table._index_remove(pk, table._rows[pk])
                    table._rows[pk] = old
                    table._index_add(pk, old)
                else:
                    assert old is not None
                    table._insert(old)
            raise
        if txn._ops:
            self._n_commits += 1

    # -- convenience auto-commit operations ----------------------------------------

    def insert(self, table: str, row: Row) -> None:
        """Insert one row in its own transaction."""
        with self.begin() as txn:
            txn.insert(table, row)

    def insert_many(self, table: str, rows: Iterable[Row]) -> int:
        """Insert many rows atomically; returns the count."""
        n = 0
        with self.begin() as txn:
            for row in rows:
                txn.insert(table, row)
                n += 1
        return n

    def update(self, table: str, pk: Any, changes: Row) -> None:
        with self.begin() as txn:
            txn.update(table, pk, changes)

    def delete(self, table: str, pk: Any) -> None:
        with self.begin() as txn:
            txn.delete(table, pk)

    # -- persistence ---------------------------------------------------------------------

    def _log_ddl(self, kind: str, payload: dict[str, Any]) -> None:
        if self._log is not None and not self._recovering:
            record = {"kind": kind, **payload}
            self._log.append(encode(record))

    def _recover(self) -> None:
        assert self._log is not None
        replayed = 0
        self._recovering = True
        try:
            for raw in self._log.replay():
                replayed += 1
                record = decode(raw)
                kind = record.pop("kind")
                if kind == "create_table":
                    self.create_table(
                        record["name"],
                        [Column(n, t, nul) for n, t, nul in record["columns"]],
                        record["primary_key"],
                        indexes=record["indexes"],
                        unique=record["unique"],
                    )
                elif kind == "txn":
                    with self.begin() as txn:
                        for op, tname, pk, payload in record["ops"]:
                            if op == "insert":
                                txn.insert(tname, payload)
                            elif op == "update":
                                txn.update(tname, pk, payload)
                            else:
                                txn.delete(tname, pk)
        finally:
            self._recovering = False
        # Checkpoint: the log keeps every update and delete ever committed,
        # so once dead records dominate (KVStore._maybe_compact's rule) it
        # is rewritten as the live state — log size and recovery time stay
        # bounded by the catalog, not by its history.
        live = len(self._tables) + sum(len(t) for t in self._tables.values())
        dead = replayed - live
        if dead > 16 and dead / replayed > 0.5:
            self._log.rewrite(self._checkpoint_records())

    def _checkpoint_records(self) -> Iterator[bytes]:
        """The live state as log records: each table's ``create_table``
        followed by its rows, in scan order, as insert transactions."""
        for table in self._tables.values():
            yield encode({"kind": "create_table", **self._schema_payload(table.schema)})
            rows = list(table._rows.values())
            for i in range(0, len(rows), _CHECKPOINT_ROWS):
                yield encode({"kind": "txn", "ops": [
                    ["insert", table.schema.name, None, row]
                    for row in rows[i:i + _CHECKPOINT_ROWS]
                ]})

    def close(self) -> None:
        if self._log is not None:
            self._log.close()

    def __enter__(self) -> "Database":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()
