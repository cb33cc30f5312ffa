"""Loosely-consistent versioning between the RDBMS and the text indices.

Section 3: "maintaining some form of coherence between the metadata in the
RDBMS and several text-related indices in Berkeley DB required us to
implement a loosely-consistent versioning system on top of the RDBMS, with
a single producer (crawler) and several consumers (indexer and statistical
analyzers)".

The protocol reproduced here:

* The **producer** (crawler) opens numbered versions, adds items (page
  URLs it has fetched and stored), and **publishes** each version when its
  contents are fully durable in both stores.
* Each **consumer** (indexer, classifier, theme analyzer, ...) registers by
  name and repeatedly calls :meth:`VersionCoordinator.poll`, which hands it
  every published-but-unacknowledged item along with the version watermark.
  While a consumer holds a poll result, those versions are *pinned*.
* After processing, the consumer **acks** the watermark.  Versions at or
  below the minimum acked watermark of all consumers are reclaimed by the
  ack that raises that minimum, so a running server holds only the
  versions some consumer has yet to process.

Consumers therefore see *consistent prefixes* of the producer's history —
never a half-published version — but may lag arbitrarily, which is exactly
the "loose" coherence the paper describes: UI reads hit the RDBMS
immediately, while mined results catch up asynchronously.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from typing import Any

from ..errors import StaleSnapshot, VersioningError
from ..obs import Logger, MetricsRegistry, null_logger, null_registry


@dataclass
class _Version:
    number: int
    items: list[Any] = field(default_factory=list)
    published: bool = False


class VersionCoordinator:
    """Single-producer / multi-consumer version coordination.

    Items are opaque to the coordinator (Memex uses page URLs).  The
    coordinator tracks, per consumer, the highest version fully processed,
    and exposes staleness metrics the benchmarks report.
    """

    def __init__(
        self,
        *,
        metrics: MetricsRegistry | None = None,
        log: Logger | None = None,
    ) -> None:
        # One lock ("versioning" rank in repro.locks.LOCK_ORDER) over
        # all coordinator state: version maps, watermarks, the open
        # version, and the GC floor move together, so producer publishes,
        # consumer polls/acks, and gc serialize here.  Reentrant because
        # produce() composes the locked primitives.
        self._versions_lock = threading.RLock()
        self._versions: dict[int, _Version] = {}
        self._open: _Version | None = None
        self.log = log if log is not None else null_logger("versioning")
        # Per-item origin traceparents (best-effort trace propagation to
        # consumers); purged with their versions at gc.
        self._origins: dict[Any, str] = {}
        self._next_number = 1
        self._published_high = 0     # highest published version number
        self._gc_floor = 0           # versions <= this have been reclaimed
        self._consumers: dict[str, int] = {}  # name -> highest acked version
        self._metrics = metrics if metrics is not None else null_registry()
        self._metrics.gauge_func(
            "storage.versioning.live_versions", self.live_versions)

    # -- producer side -----------------------------------------------------------

    def open_version(self) -> int:
        """Begin a new version; only one may be open at a time."""
        with self._versions_lock:
            if self._open is not None:
                raise VersioningError(
                    f"version {self._open.number} is still open (single producer)"
                )
            v = _Version(self._next_number)
            self._next_number += 1
            self._versions[v.number] = v
            self._open = v
            return v.number

    def add_item(self, item: Any, *, origin: str | None = None) -> None:
        """Attach an item to the currently open version.

        ``origin`` optionally records the traceparent of the request that
        produced the item; consumers read it back via :meth:`origin` to
        link their spans to the originating trace.
        """
        with self._versions_lock:
            if self._open is None:
                raise VersioningError("no version is open")
            self._open.items.append(item)
            if origin is not None:
                self._origins[item] = origin

    def publish(self) -> int:
        """Publish the open version, making it visible to consumers."""
        with self._versions_lock:
            if self._open is None:
                raise VersioningError("no version is open")
            self._open.published = True
            number = self._open.number
            items = len(self._open.items)
            self._published_high = number
            self._open = None
            self.log.info("version_published", version=number, items=items)
            return number

    def abort_version(self) -> None:
        """Discard the open version (producer crash / error path)."""
        with self._versions_lock:
            if self._open is None:
                raise VersioningError("no version is open")
            for item in self._open.items:
                self._origins.pop(item, None)
            number = self._open.number
            del self._versions[self._open.number]
            self._open = None
            self.log.warn("version_aborted", version=number)

    def origin(self, item: Any) -> str | None:
        """The origin traceparent stamped on *item*, if still retained."""
        with self._versions_lock:
            return self._origins.get(item)

    # -- consumer side ---------------------------------------------------------------

    def register_consumer(self, name: str) -> None:
        """Register a consumer; it starts at the current GC floor.

        Registering an existing consumer is a no-op, so daemons can call
        this idempotently on startup.
        """
        with self._versions_lock:
            if name not in self._consumers:
                self._consumers[name] = self._gc_floor
                # The headline number for the paper's "loose coherence":
                # how many published versions this consumer is behind.
                self._metrics.gauge_func(
                    "storage.versioning.lag",
                    lambda: self._published_high - self._consumers[name],
                    consumer=name,
                )

    def poll(self, name: str) -> tuple[int, list[Any]]:
        """Return ``(watermark, items)`` newly published since the
        consumer's last ack.

        The watermark is the highest published version included; acking it
        marks everything up to it processed.  An empty poll returns the
        consumer's current watermark and no items.
        """
        with self._versions_lock:
            if name not in self._consumers:
                raise VersioningError(f"unknown consumer {name!r}")
            acked = self._consumers[name]
            if acked < self._gc_floor:
                raise StaleSnapshot(
                    f"consumer {name!r} acked {acked} but GC floor is {self._gc_floor}"
                )
            items: list[Any] = []
            for number in range(acked + 1, self._published_high + 1):
                v = self._versions.get(number)
                if v is not None and v.published:
                    items.extend(v.items)
            return self._published_high, items

    def ack(self, name: str, watermark: int) -> None:
        """Acknowledge processing of everything up to *watermark*, and
        reclaim the versions every consumer has now acked."""
        with self._versions_lock:
            if name not in self._consumers:
                raise VersioningError(f"unknown consumer {name!r}")
            if watermark > self._published_high:
                raise VersioningError(
                    f"cannot ack {watermark}: only {self._published_high} published"
                )
            if watermark < self._consumers[name]:
                raise VersioningError("watermark may not move backwards")
            self._consumers[name] = watermark
            self.gc()

    # -- reclamation --------------------------------------------------------------------

    def gc(self) -> int:
        """Reclaim versions every consumer has acked; returns #reclaimed.
        :meth:`ack` already does, so this finds nothing to reclaim unless
        a consumer's watermark was set some other way."""
        with self._versions_lock:
            if not self._consumers:
                return 0
            floor = min(self._consumers.values())
            reclaimed = 0
            for number in range(self._gc_floor + 1, floor + 1):
                v = self._versions.get(number)
                if v is not None and v.published:
                    for item in v.items:
                        self._origins.pop(item, None)
                    del self._versions[number]
                    reclaimed += 1
            self._gc_floor = max(self._gc_floor, floor)
            return reclaimed

    # -- introspection ---------------------------------------------------------------------

    @property
    def published_version(self) -> int:
        """Highest published version number (0 before the first publish)."""
        return self._published_high

    def watermark(self, name: str) -> int:
        """Highest version *name* has acked.

        This is the consumer's consistent-snapshot position: everything it
        has processed is at or below this version.  The read-path caches
        fold watched consumers' watermarks into their validity tokens so a
        cached result is dropped the moment the consumer that feeds it
        (indexer, classifier) catches up past the entry's snapshot.

        Raises
        ------
        VersioningError
            If *name* was never registered.
        """
        with self._versions_lock:
            if name not in self._consumers:
                raise VersioningError(f"unknown consumer {name!r}")
            return self._consumers[name]

    def staleness(self, name: str) -> int:
        """How many published versions the consumer is behind."""
        with self._versions_lock:
            if name not in self._consumers:
                raise VersioningError(f"unknown consumer {name!r}")
            return self._published_high - self._consumers[name]

    def consumers(self) -> dict[str, int]:
        with self._versions_lock:
            return dict(self._consumers)

    def lags(self) -> dict[str, int]:
        """Per-consumer staleness: published versions not yet acked."""
        with self._versions_lock:
            return {
                name: self._published_high - acked
                for name, acked in self._consumers.items()
            }

    def live_versions(self) -> int:
        return len(self._versions)
