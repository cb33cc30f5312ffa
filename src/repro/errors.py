"""Exception hierarchy for the Memex reproduction.

Every error raised by this package derives from :class:`MemexError`, so
applications can catch one base class at the API boundary.  Subsystems get
their own subtree (storage, mining, protocol, ...) mirroring the package
layout.

Errors that cross the wire also carry a stable machine-readable
``error_code`` and a ``retryable`` hint, so clients dispatch on codes
instead of substring-matching free-text messages.  The code registry and
the exception→code mapping live here — one place — and
:func:`error_payload` renders any exception into the wire fields every
error response carries.
"""

from __future__ import annotations

from typing import Any

# ---------------------------------------------------------------------------
# Wire error codes (the stable client-facing registry)
# ---------------------------------------------------------------------------

CODE_UNKNOWN_SERVLET = "unknown_servlet"
CODE_UNKNOWN_USER = "unknown_user"
CODE_BAD_REQUEST = "bad_request"
CODE_UNSUPPORTED_VERSION = "unsupported_version"
CODE_TIMEOUT = "timeout"
CODE_UNAVAILABLE = "unavailable"
CODE_INTERNAL = "internal"

#: The canonical registry: code -> (retryable, client-facing description).
#: ``scripts/gen_protocol_tables.py`` renders this into the table in
#: ``docs/PROTOCOL.md``; CI fails when the two drift apart.
CODE_REGISTRY: dict[str, tuple[bool, str]] = {
    CODE_BAD_REQUEST: (
        False,
        "The request is malformed: missing or mistyped fields (a string "
        "field sent as a number, `null`, a list or an object; a time, day "
        "count or rate sent as a boolean, `Infinity` or `NaN`), an illegal "
        "parameter value (an unknown archive mode, a negative day count or "
        "rate, a `:` in a new user id, a boolean query that does not "
        "parse), or a framing/payload violation. Fix the request before "
        "resending. A refused request moves no clock.",
    ),
    CODE_UNSUPPORTED_VERSION: (
        False,
        "The frame's protocol version bits name a version this server "
        "does not speak. Negotiate down (or upgrade the server).",
    ),
    CODE_UNKNOWN_SERVLET: (
        False,
        "The request's `servlet` field names no registered handler.",
    ),
    CODE_UNKNOWN_USER: (
        False,
        "The authenticated `user_id` has no account on this server. "
        "Register the user first.",
    ),
    CODE_TIMEOUT: (
        True,
        "The peer took too long: the server gave up waiting for the rest "
        "of a frame (read timeout), or the client gave up waiting for a "
        "response. The request may be retried on a fresh connection.",
    ),
    CODE_UNAVAILABLE: (
        True,
        "The shard that owns this request is down or restarting (or the "
        "client is backing off from a dead backend). The request may be "
        "retried after a short delay; the supervisor restarts dead "
        "shards automatically.",
    ),
    CODE_INTERNAL: (
        True,
        "The server failed while handling a well-formed request (bug or "
        "resource exhaustion). The request may be retried unchanged.",
    ),
}

#: Which codes a well-behaved client may retry without changing the request.
RETRYABLE_CODES = frozenset(
    code for code, (retryable, _) in CODE_REGISTRY.items() if retryable
)

ERROR_CODES = frozenset(CODE_REGISTRY)


class MemexError(Exception):
    """Base class for all errors raised by the ``repro`` package."""

    #: Default wire code for this exception class; subclasses override.
    code: str = CODE_INTERNAL


# ---------------------------------------------------------------------------
# Storage subsystem
# ---------------------------------------------------------------------------

class StorageError(MemexError):
    """Base class for storage-layer failures."""


class KVStoreError(StorageError):
    """A key-value store operation failed."""


class KeyNotFound(KVStoreError):
    """Lookup of a key that is not present in the store."""


class StoreClosed(KVStoreError):
    """Operation attempted on a store after :meth:`close`."""


class CorruptLog(StorageError):
    """The write-ahead log or data log failed a checksum or framing check."""


class RelationalError(StorageError):
    """Base class for errors from the in-process relational engine."""


class NoSuchTable(RelationalError):
    """Query referenced a table that does not exist."""


class NoSuchColumn(RelationalError):
    """Query referenced a column that does not exist in the table."""


class DuplicateKey(RelationalError):
    """Insert violated a primary-key or unique-index constraint."""


class SchemaError(RelationalError):
    """Row shape or types do not match the table schema."""


class TransactionError(RelationalError):
    """Illegal transaction state transition (e.g. commit after abort)."""


class VersioningError(StorageError):
    """Violation of the loosely-consistent versioning protocol."""


class StaleSnapshot(VersioningError):
    """A consumer tried to read from a snapshot that has been reclaimed."""


# ---------------------------------------------------------------------------
# Text / indexing subsystem
# ---------------------------------------------------------------------------

class TextError(MemexError):
    """Base class for tokenizer / vocabulary / index errors."""


class IndexError_(TextError):
    """Inverted-index failure (named with a trailing underscore to avoid
    shadowing the builtin :class:`IndexError`)."""


# ---------------------------------------------------------------------------
# Mining subsystem
# ---------------------------------------------------------------------------

class MiningError(MemexError):
    """Base class for classifier / clustering / theme-discovery errors."""


class NotFitted(MiningError):
    """Model used before :meth:`fit` (or with no training data)."""


class EmptyCorpus(MiningError):
    """An algorithm was handed zero documents."""


# ---------------------------------------------------------------------------
# Client / server subsystem
# ---------------------------------------------------------------------------

class ProtocolError(MemexError):
    """Malformed message or illegal request at the client-server boundary.

    ``code`` defaults to ``bad_request``; framing-level failures that need
    a more specific code (e.g. ``unsupported_version``) pass it explicitly.
    """

    code = CODE_BAD_REQUEST

    def __init__(self, message: str, *, code: str | None = None) -> None:
        super().__init__(message)
        if code is not None:
            if code not in ERROR_CODES:
                raise ValueError(f"unknown error code {code!r}")
            self.code = code


class AuthError(ProtocolError):
    """Unknown user or bad credentials."""

    code = CODE_UNKNOWN_USER


class ServletError(MemexError):
    """A servlet failed while handling a request."""

    code = CODE_BAD_REQUEST


class DaemonError(MemexError):
    """A background daemon failed irrecoverably."""


# ---------------------------------------------------------------------------
# Folder / bookmark subsystem
# ---------------------------------------------------------------------------

class FolderError(MemexError):
    """Base class for bookmark-file errors."""


class BookmarkFormatError(FolderError):
    """A Netscape/Explorer bookmark file could not be parsed."""


# ---------------------------------------------------------------------------
# Exception → wire fields
# ---------------------------------------------------------------------------

def error_code_for(exc: BaseException) -> str:
    """The stable wire code for *exc* — the single mapping point."""
    if isinstance(exc, MemexError):
        return exc.code
    # Shape errors from handlers poking at request dicts (missing keys,
    # wrong types) are the caller's fault, not a server fault.
    if isinstance(exc, (KeyError, TypeError, ValueError)):
        return CODE_BAD_REQUEST
    return CODE_INTERNAL


def error_payload(exc: BaseException) -> dict[str, Any]:
    """Render *exc* into the fields every error response carries."""
    code = error_code_for(exc)
    return {
        "status": "error",
        "error": f"{type(exc).__name__}: {exc}",
        "error_code": code,
        "retryable": code in RETRYABLE_CODES,
    }
