"""Client substrate: simulated browser and the Memex applet."""

from .applet import (
    ARCHIVE_COMMUNITY,
    ARCHIVE_OFF,
    ARCHIVE_PRIVATE,
    MemexApplet,
)
from .browser import Browser

__all__ = [
    "ARCHIVE_COMMUNITY",
    "ARCHIVE_OFF",
    "ARCHIVE_PRIVATE",
    "Browser",
    "MemexApplet",
]
