"""Deterministic request schedules for load against the Memex server.

A Zipfian population scaled toward 10^6 sparse-activity users
(``repro.webgen.population``) is compiled into a byte-stable request
schedule (``schedule``): the same seed gives the same requests in every
process.  ``bench/`` replays these schedules closed-loop (its ``mixed``
workload); DESIGN.md §12 says why there is no open-loop runner.
"""

from .schedule import (
    DEFAULT_MIX,
    KINDS,
    LoadSchedule,
    ScheduledRequest,
    build_schedule,
    merge_schedules,
)

__all__ = [
    "DEFAULT_MIX",
    "KINDS",
    "LoadSchedule",
    "ScheduledRequest",
    "build_schedule",
    "merge_schedules",
]
