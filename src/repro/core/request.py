"""What servlet handlers, mergers and the dispatcher agree on about a
request: who is asking, how many rows they want, and the names of the
three ways a request is routed across shards."""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, Any

from ..errors import AuthError
from ..storage.repository import MemexRepository

if TYPE_CHECKING:
    from .memex import MemexServer as Server  # noqa: F401 - handlers annotate with it
else:
    #: No handler module may import ``core.memex`` (the servlet table
    #: imports them, and ``memex`` the table), so they name its type here.
    Server = Any

DAY = 86_400.0

#: Routing classes (see :mod:`repro.shard.gather`): to the shard that owns
#: the user; to every shard, owner first, all-or-error; to every shard
#: concurrently, merged, degrading to ``partial`` when one is down.
OWNER, BROADCAST, SCATTER = "owner", "broadcast", "scatter"

Request = dict[str, Any]
Response = dict[str, Any]
#: A ``users`` row: what a handler is handed when its servlet authenticates.
User = dict[str, Any]


def require_user(repo: MemexRepository, request: Request) -> User:
    """The ``users`` row of the request's ``user_id``, or :class:`AuthError`."""
    user_id = request.get("user_id")
    user = repo.get_user(user_id) if isinstance(user_id, str) else None
    if user is None:
        raise AuthError(f"unknown user {user_id!r}")
    return user


def count_field(request: Request, field: str, default: int) -> int:
    """The request's *field* as a non-negative integer (*default* when
    absent).  A negative value, a boolean, a non-integral number or
    anything else ``int()`` cannot parse raises ``ValueError`` — a typed
    ``bad_request`` — instead of being truncated to an integer."""
    value = request.get(field, default)
    try:
        if isinstance(value, bool) or (
            isinstance(value, float) and not value.is_integer()
        ):
            raise ValueError
        count = int(value)
    except (TypeError, ValueError):
        raise ValueError(f"{field} must be an integer, not {value!r}") from None
    if count < 0:
        raise ValueError(f"{field} must be non-negative")
    return count


#: ``text_field``'s default for a field the request must carry.
_REQUIRED: Any = object()


def text_field(request: Request, field: str, default: Any = _REQUIRED) -> Any:
    """The request's *field*, which must be a string.  An absent field is
    *default*; one with no default is ``KeyError``, as indexing the
    request was, and one with a default may also be ``null``.  Any other
    value that is not a string raises ``ValueError`` — a typed
    ``bad_request`` — instead of reaching the tokenizer, a folder path
    or the catalog and failing there as a retryable server fault."""
    if default is _REQUIRED:
        value = request[field]
    else:
        value = request.get(field)
        if value is None:
            return default
    if not isinstance(value, str):
        raise ValueError(f"{field} must be a string, not {value!r}")
    return value


def number_field(
    request: Request, field: str, default: Any = _REQUIRED, *, signed: bool = False,
) -> Any:
    """The request's *field* as a finite ``float``, absent or ``null``
    read as :func:`text_field` reads them.  A boolean, ``NaN``, an
    infinity, anything ``float()`` cannot parse and — unless *signed* — a
    negative day count or rate raise ``ValueError``, a typed
    ``bad_request``: an ``at`` of ``Infinity`` would move every user's
    clock to the end of time, and ``true`` read as ``1.0``."""
    if default is _REQUIRED:
        value = request[field]
    else:
        value = request.get(field)
        if value is None:
            return default
    try:
        if isinstance(value, bool):
            raise ValueError
        number = float(value)
    except (TypeError, ValueError, OverflowError):
        raise ValueError(f"{field} must be a number, not {value!r}") from None
    if not math.isfinite(number):
        raise ValueError(f"{field} must be finite, not {value!r}")
    if number < 0 and not signed:
        raise ValueError(f"{field} must be non-negative")
    return number


def top_k(request: Request, default: int) -> int:
    """The request's ``k`` (see :func:`count_field`), parsed alike in the
    handler and in the merger."""
    return count_field(request, "k", default)


def checked_k(request: Request) -> Request:
    """Scatter sub-request of a servlet that takes ``k``: the request
    itself, refused at the router when its ``k`` is bad — N identical
    ``bad_request`` replies would merge into "no shard answered"."""
    top_k(request, 0)
    return request
