"""Browser bookmark interchange for the served folder tab: Netscape
``bookmarks.html`` and IE Favorites, in and out."""

from .importer import (
    export_explorer_favorites,
    export_netscape_file,
    import_netscape_file,
)
from .netscape import BookmarkEntry, BookmarkNode, write_bookmarks

__all__ = [
    "BookmarkEntry",
    "BookmarkNode",
    "export_explorer_favorites",
    "export_netscape_file",
    "import_netscape_file",
    "write_bookmarks",
]
