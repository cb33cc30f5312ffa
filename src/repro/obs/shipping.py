"""Log shipping: per-worker JSONL files and cross-shard reconstruction.

Worker processes trap their logs and finished spans in per-process ring
buffers; nothing survives the process, and the operator cannot follow a
trace that hops router → shard.  This module is the durable half of the
cluster observability plane:

* :class:`LogShipper` — a sink that appends every log record *and* every
  finished span to one JSONL file per worker, bounded by size-based
  rotation, flushed per line so a crash loses at most the torn tail.
* :func:`read_shipped_records` — merges the per-shard streams under a
  cluster data directory into one timeline ordered by wall-clock time.
* :func:`build_span_tree` / :func:`render_span_tree` — reassemble and
  pretty-print the cross-shard span tree for one ``trace_id`` (what
  ``repro trace <id>`` shows).

File layout (one directory per process, mirroring the shard layout the
supervisor already uses)::

    <data_dir>/shard-00/logs/worker.jsonl       current file
    <data_dir>/shard-00/logs/worker.jsonl.1     previous rotation
    <data_dir>/router/logs/router.jsonl         the router process

Records carry ``wall_ts`` (``time.time``) stamped at write time: the
in-process hubs timestamp with the registry clock (``perf_counter``),
which is not comparable across processes; wall clock is what lets the
reader merge shard streams.  A ``shard`` field (router records use
``"router"``) attributes every line.
"""

from __future__ import annotations

import json
import os
import threading
import time
from pathlib import Path
from typing import Any, Iterable

#: Rotation bound: one current file plus one predecessor per worker.
MAX_BYTES = 8 * 1024 * 1024


class LogShipper:
    """Appends log records and finished spans to a bounded JSONL file.

    Wire it to both hubs::

        shipper = LogShipper(root / "logs" / "worker.jsonl", shard="3")
        log_hub.attach(shipper.log_sink)
        tracer.attach(shipper.span_sink)

    Every line is a self-contained JSON object with ``kind`` (``log`` or
    ``span``), ``wall_ts``, and ``shard``.  Writes flush per line; when
    the file passes :data:`MAX_BYTES` it rotates to ``<name>.1``,
    replacing the previous rotation — total footprint is bounded at about
    twice ``MAX_BYTES`` per worker.
    """

    def __init__(
        self, path: str | os.PathLike[str], *, shard: str = "",
    ) -> None:
        self.path = Path(path)
        self.shard = shard
        self.written = 0          # records written over the shipper's life
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self._file = open(self.path, "a", encoding="utf-8")  # noqa: SIM115
        self._size = self._file.tell()
        self._obs_lock = threading.Lock()
        self._closed = False

    # -- sinks ---------------------------------------------------------------

    def log_sink(self, record: dict[str, Any]) -> None:
        """``LogHub.attach`` target: ship one structured log record."""
        self._write({**record, "kind": "log"})

    def span_sink(self, span: Any) -> None:
        """``Tracer.attach`` target: ship one finished span."""
        self._write({**span.to_payload(), "kind": "span"})

    # -- mechanics -----------------------------------------------------------

    def _write(self, obj: dict[str, Any]) -> None:
        obj["wall_ts"] = time.time()
        obj["shard"] = self.shard
        line = json.dumps(obj, sort_keys=True, default=str) + "\n"
        with self._obs_lock:
            if self._closed:
                return
            if self._size >= MAX_BYTES:
                self._rotate()
            self._file.write(line)
            self._file.flush()
            self._size += len(line)
            self.written += 1

    def _rotate(self) -> None:
        self._file.close()
        try:
            os.replace(self.path, self.path.with_name(self.path.name + ".1"))
        except OSError:
            pass  # keep appending to the oversized file rather than drop logs
        self._file = open(self.path, "a", encoding="utf-8")  # noqa: SIM115
        self._size = self._file.tell()

    def close(self) -> None:
        with self._obs_lock:
            if not self._closed:
                self._closed = True
                self._file.close()


# -- readers ---------------------------------------------------------------


def shard_log_paths(data_dir: str | os.PathLike[str]) -> list[Path]:
    """Every shipped JSONL file under *data_dir*, rotations first.

    Matches the ``<proc>/logs/*.jsonl[.1]`` layout for both shard
    workers and the router process.
    """
    base = Path(data_dir)
    current = sorted(base.glob("*/logs/*.jsonl"))
    rotated = sorted(base.glob("*/logs/*.jsonl.1"))
    return rotated + current


def _iter_jsonl(path: Path) -> Iterable[dict[str, Any]]:
    try:
        with open(path, encoding="utf-8") as fh:
            for line in fh:
                line = line.strip()
                if not line:
                    continue
                try:
                    obj = json.loads(line)
                except json.JSONDecodeError:
                    continue  # torn tail from a crashed writer
                if isinstance(obj, dict):
                    yield obj
    except OSError:
        return


def read_shipped_records(
    data_dir: str | os.PathLike[str],
    *,
    kind: str | None = None,
    trace_id: str | None = None,
    level: str | None = None,
) -> list[dict[str, Any]]:
    """Merge every worker's shipped stream into one wall-clock timeline.

    ``kind`` filters ``log``/``span`` records; ``trace_id`` keeps only
    records belonging to that trace; ``level`` keeps log records at or
    above the given severity (spans pass untouched).
    """
    from .logging import LEVELS  # local import: avoid a cycle at package init

    floor = LEVELS.get(level, 0) if level else 0
    out: list[dict[str, Any]] = []
    for path in shard_log_paths(data_dir):
        for record in _iter_jsonl(path):
            if kind is not None and record.get("kind") != kind:
                continue
            if trace_id is not None and record.get("trace_id") != trace_id:
                continue
            if floor and record.get("kind") == "log":
                if LEVELS.get(record.get("level", ""), 0) < floor:
                    continue
            out.append(record)
    out.sort(key=lambda r: float(r.get("wall_ts", 0.0)))
    return out


def build_span_tree(
    records: Iterable[dict[str, Any]], trace_id: str,
) -> list[dict[str, Any]]:
    """Reassemble the span tree for *trace_id* from shipped records.

    Returns root nodes ``{"span": record, "children": [nodes...]}``.
    A span whose parent was never shipped (the client process does not
    ship) becomes a root, so the reconstruction still shows the full
    server-side tree when the trace originated outside the cluster.
    Children sort by per-process start time under their own parent,
    which is safe because a child always runs in its parent's process.
    """
    spans = [
        r for r in records
        if r.get("kind") == "span" and r.get("trace_id") == trace_id
    ]
    by_id = {s["span_id"]: s for s in spans if s.get("span_id")}
    nodes = {sid: {"span": s, "children": []} for sid, s in by_id.items()}
    roots: list[dict[str, Any]] = []
    for sid, node in nodes.items():
        parent = by_id[sid].get("parent_id")
        if parent is not None and parent in nodes:
            nodes[parent]["children"].append(node)
        else:
            roots.append(node)

    def _sort(children: list[dict[str, Any]]) -> None:
        children.sort(key=lambda n: float(n["span"].get("start") or 0.0))
        for child in children:
            _sort(child["children"])

    roots.sort(key=lambda n: float(n["span"].get("wall_ts") or 0.0))
    for root in roots:
        _sort(root["children"])
    return roots


def render_span_tree(roots: list[dict[str, Any]]) -> str:
    """Indented text form of :func:`build_span_tree` output."""
    lines: list[str] = []

    def _walk(node: dict[str, Any], depth: int) -> None:
        span = node["span"]
        duration = float(span.get("duration") or 0.0)
        shard = span.get("shard", "")
        where = f" [shard {shard}]" if shard != "" else ""
        error = f"  ERROR {span['error']}" if span.get("error") else ""
        lines.append(
            f"{'  ' * depth}{span.get('name', '?')}{where}  "
            f"{duration * 1e3:.3f}ms  span={span.get('span_id', '')}{error}"
        )
        for child in node["children"]:
            _walk(child, depth + 1)

    for root in roots:
        _walk(root, 0)
    return "\n".join(lines)
