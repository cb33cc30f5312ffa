#!/usr/bin/env python
"""Check that local links in the repo's Markdown files resolve.

Walks every ``*.md`` under the repo root (skipping dot-directories),
extracts inline links and images (``[text](target)``), and verifies that
relative targets exist on disk.  External links (``http(s)://``,
``mailto:``) and pure in-page anchors (``#section``) are skipped — CI
must not depend on the network.  Inline code spans and fenced blocks
are not scanned.  Fragments on local links are stripped
before the existence check (``DESIGN.md#substitutions`` checks
``DESIGN.md``).

Exit status 0 when every local link resolves, 1 otherwise (one line per
broken link on stderr).
"""

from __future__ import annotations

import re
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent

# Inline links/images: [text](target) — stops at the first unescaped ')'.
# Reference definitions ([id]: target) are rare here and intentionally
# out of scope; everything in this repo uses inline style.
LINK_RE = re.compile(r"!?\[[^\]]*\]\(([^)\s]+)(?:\s+\"[^\"]*\")?\)")
# Inline code spans are examples, not references: `TABLE["key"](arg)`.
CODE_SPAN_RE = re.compile(r"`[^`]*`")
SKIP_PREFIXES = ("http://", "https://", "mailto:", "#")


def iter_markdown(root: Path):
    for path in sorted(root.rglob("*.md")):
        if any(part.startswith(".") for part in path.relative_to(root).parts):
            continue
        yield path


def check_file(path: Path) -> list[str]:
    """Broken-link messages for one file (empty = all good)."""
    problems = []
    text = path.read_text(encoding="utf-8")
    in_fence = False
    for lineno, line in enumerate(text.splitlines(), start=1):
        # Links inside fenced code blocks are examples, not references.
        if line.lstrip().startswith("```"):
            in_fence = not in_fence
            continue
        if in_fence:
            continue
        for match in LINK_RE.finditer(CODE_SPAN_RE.sub("", line)):
            target = match.group(1)
            if target.startswith(SKIP_PREFIXES):
                continue
            local = target.split("#", 1)[0]
            if not local:
                continue
            resolved = (path.parent / local).resolve()
            if not resolved.exists():
                problems.append(
                    f"{path.relative_to(REPO_ROOT)}:{lineno}: "
                    f"broken link {target!r}"
                )
    return problems


def main() -> int:
    problems = []
    n_files = 0
    for path in iter_markdown(REPO_ROOT):
        n_files += 1
        problems.extend(check_file(path))
    if problems:
        print("\n".join(problems), file=sys.stderr)
        print(f"{len(problems)} broken link(s) in {n_files} files",
              file=sys.stderr)
        return 1
    print(f"ok: all local links resolve across {n_files} markdown files")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
