#!/usr/bin/env python3
"""Generate the tables in docs/PROTOCOL.md that are declared in code.

Two tables, each rendered between its own BEGIN/END markers so the spec
can never drift from the code:

* the error-code registry, from ``repro.errors.CODE_REGISTRY``;
* the servlet table, from ``repro.core.servlet_table.SERVLETS``.

Usage::

    python scripts/gen_protocol_tables.py          # rewrite the tables in place
    python scripts/gen_protocol_tables.py --check  # exit 1 if the doc is stale

CI runs ``--check``.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
DOC_PATH = REPO_ROOT / "docs" / "PROTOCOL.md"

sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.core.servlet_table import SERVLETS  # noqa: E402
from repro.errors import CODE_REGISTRY  # noqa: E402


def render_error_table() -> str:
    lines = ["| code | retryable | meaning |", "|---|---|---|"]
    for code, (retryable, description) in CODE_REGISTRY.items():
        lines.append(
            f"| `{code}` | {'yes' if retryable else 'no'} | {description} |"
        )
    return "\n".join(lines)


def _named(fn: object) -> str:
    return "—" if fn is None else f"`{fn.__name__}`"


def render_servlet_table() -> str:
    lines = [
        "| servlet | auth | routing | sub-request | merged by | batch |",
        "|---|---|---|---|---|---|",
    ]
    for row in SERVLETS.values():
        routing = _named(row.routing) if callable(row.routing) else row.routing
        lines.append(
            f"| `{row.name}` | {'user' if row.auth else 'none'} | {routing} "
            f"| {_named(row.rewrite)} | {_named(row.merge)} | {_named(row.batch)} |"
        )
    return "\n".join(lines)


#: marker name -> renderer; the markers are
#: ``<!-- BEGIN <name> (generated by ...) -->`` / ``<!-- END <name> -->``.
TABLES = {
    "ERROR CODE TABLE": render_error_table,
    "SERVLET TABLE": render_servlet_table,
}


def splice(text: str) -> str:
    for name, render in TABLES.items():
        begin = (f"<!-- BEGIN {name} (generated by "
                 "scripts/gen_protocol_tables.py; do not edit by hand) -->")
        end = f"<!-- END {name} -->"
        try:
            head, rest = text.split(begin, 1)
            _stale, tail = rest.split(end, 1)
        except ValueError:
            raise SystemExit(
                f"{DOC_PATH}: BEGIN/END {name} markers missing or mangled"
            )
        text = f"{head}{begin}\n{render()}\n{end}{tail}"
    return text


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--check", action="store_true",
        help="verify the doc matches the code instead of rewriting it",
    )
    args = parser.parse_args(argv)
    current = DOC_PATH.read_text(encoding="utf-8")
    fresh = splice(current)
    if args.check:
        if fresh != current:
            print(
                f"{DOC_PATH} is stale: run python scripts/gen_protocol_tables.py",
                file=sys.stderr,
            )
            return 1
        print(f"{DOC_PATH}: generated tables are in sync")
        return 0
    if fresh != current:
        DOC_PATH.write_text(fresh, encoding="utf-8")
        print(f"{DOC_PATH}: generated tables rewritten")
    else:
        print(f"{DOC_PATH}: generated tables already in sync")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
