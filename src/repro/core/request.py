"""What servlet handlers, mergers and the dispatcher agree on about a
request: who is asking, how many rows they want, and the names of the
three ways a request is routed across shards."""

from __future__ import annotations

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


def top_k(request: Request, default: int) -> int:
    """The request's ``k``; negative or non-integer raises ``ValueError``
    (a typed ``bad_request``) in the handler and in the merger alike."""
    k = int(request.get("k", default))
    if k < 0:
        raise ValueError("k must be non-negative")
    return k


def checked_k(request: Request) -> Request:
    """Scatter sub-request of a servlet that takes ``k``: the request
    itself, refused at the router when its ``k`` is bad — N identical
    ``bad_request`` replies would merge into "no shard answered"."""
    top_k(request, 0)
    return request
