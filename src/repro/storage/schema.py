"""The Memex catalog: relational schema for pages, links, users, and topics.

Section 3 of the paper: "a relational database (RDBMS) such as Oracle or
DB2 for managing metadata about pages, links, users, and topics".  This
module creates that catalog on our in-process engine and documents each
table's role.

Tables
------
``users``
    One row per registered surfer, with community membership and the
    default archive mode.
``pages``
    One row per distinct URL the community has touched: fetch status,
    title, content hash, and the version (epoch) at which the crawler
    last produced it.
``links``
    The hyperlink graph among known pages (directed edges).
``visits``
    The surf-trail fact table: one row per page visit event, carrying
    user, timestamp, session, referrer, archive mode and (once the
    classifier daemon has run) the inferred topic folder.
``folders``
    Every folder node of every user's personal topic tree.
``folder_pages``
    Document-folder associations: deliberate bookmarks (``source =
    'bookmark'``), classifier guesses (``'guess'``), and user
    corrections (``'correction'``).
``covisits``
    The co-visitation associative index: one row per unordered page
    pair seen together inside a surf session (community-archived visits
    only), carrying the exponentially-decayed co-occurrence count and
    the time it was last reinforced (DESIGN.md §13).
``cursors``
    How far a mining daemon that walks a table by id has folded it in:
    the co-visit miner's last visit id and its round count, committed
    with the counts they produced, so a restarted miner resumes where
    the stored matrix stops (DESIGN.md §11).
"""

from __future__ import annotations

from .relational import Column, Database

# Archive modes from Figure 1: the user may surf without archiving,
# archive privately, or archive for community use.
ARCHIVE_OFF = "off"
ARCHIVE_PRIVATE = "private"
ARCHIVE_COMMUNITY = "community"
ARCHIVE_MODES = (ARCHIVE_OFF, ARCHIVE_PRIVATE, ARCHIVE_COMMUNITY)

# Provenance of a document-folder association.
ASSOC_BOOKMARK = "bookmark"      # deliberate user bookmark
ASSOC_GUESS = "guess"            # classifier daemon guess (shown as '?')
ASSOC_CORRECTION = "correction"  # user corrected/reinforced the classifier


# A served folder's id is ``<owner>:<path>``, its path from the owner's
# root with empty segments dropped: the id alone names the folder and
# where it sits, with no walk over ``parent`` rows.
def folder_id(owner: str, path: str) -> str:
    canonical = "/".join(p for p in path.split("/") if p)
    return f"{owner}:{canonical}"


def folder_path(folder: str) -> str:
    return folder.split(":", 1)[1] if ":" in folder else folder


def create_catalog(db: Database) -> None:
    """Create all Memex catalog tables (idempotent)."""
    db.create_table(
        "users",
        [
            Column("user_id"),
            Column("name"),
            Column("community", nullable=True),
            Column("archive_mode"),
            Column("created_at", "float"),
        ],
        primary_key="user_id",
        indexes=("community",),
        if_not_exists=True,
    )
    db.create_table(
        "pages",
        [
            Column("url"),
            Column("title", nullable=True),
            Column("fetched", "bool"),
            Column("content_hash", nullable=True),
            Column("first_seen", "float"),
            Column("last_seen", "float"),
            Column("produced_version", "int", nullable=True),
            Column("front_page", "bool"),
        ],
        primary_key="url",
        indexes=("last_seen",),
        if_not_exists=True,
    )
    db.create_table(
        "links",
        [
            Column("link_id", "int"),
            Column("src"),
            Column("dst"),
            Column("discovered_at", "float"),
        ],
        primary_key="link_id",
        indexes=("src", "dst"),
        if_not_exists=True,
    )
    db.create_table(
        "visits",
        [
            Column("visit_id", "int"),
            Column("user_id"),
            Column("url"),
            Column("at", "float"),
            Column("session_id", "int"),
            Column("referrer", nullable=True),
            Column("archive_mode"),
            Column("topic_folder", nullable=True),
            Column("topic_confidence", "float", nullable=True),
        ],
        primary_key="visit_id",
        indexes=("user_id", "url", "at", "session_id", "topic_folder"),
        if_not_exists=True,
    )
    db.create_table(
        "folders",
        [
            Column("folder_id"),
            Column("owner"),
            Column("name"),
            Column("parent", nullable=True),
            Column("created_at", "float"),
        ],
        primary_key="folder_id",
        indexes=("owner", "parent"),
        if_not_exists=True,
    )
    db.create_table(
        "folder_pages",
        [
            Column("assoc_id", "int"),
            Column("folder_id"),
            Column("url"),
            Column("source"),
            Column("confidence", "float", nullable=True),
            Column("at", "float"),
        ],
        primary_key="assoc_id",
        indexes=("folder_id", "url", "source"),
        if_not_exists=True,
    )
    db.create_table(
        "covisits",
        [
            Column("pair_id"),
            Column("url_a"),
            Column("url_b"),
            Column("count", "float"),
            Column("last_at", "float"),
        ],
        primary_key="pair_id",
        indexes=("url_a", "url_b"),
        if_not_exists=True,
    )
    db.create_table(
        "cursors",
        [
            Column("daemon"),
            Column("visit_id", "int"),
            Column("rounds", "int"),
        ],
        primary_key="daemon",
        if_not_exists=True,
    )


#: The column of each catalog table that stamps a row with the server
#: clock at its write; the latest of them is where a restart resumes.
STAMPED_AT = {
    "users": "created_at",
    "pages": "last_seen",
    "links": "discovered_at",
    "visits": "at",
    "folders": "created_at",
    "folder_pages": "at",
    "covisits": "last_at",
}
