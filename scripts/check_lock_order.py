#!/usr/bin/env python
"""Lint nested lock acquisitions against the process-wide lock order.

``repro.locks.LOCK_ORDER`` documents the one order in which the server's
layer locks may nest (outermost first).  This AST lint walks every
``*.py`` under ``src/repro`` and, within each function body, tracks the
stack of ``with`` blocks whose context expression acquires a *ranked*
lock.  Acquiring a lock whose rank is **shallower** (smaller index in
LOCK_ORDER) than one already held is an inversion and fails the build.

Recognised acquisition forms (the only ones used in the tree):

* ``with self._kv_lock:`` — any attribute named in
  ``repro.locks.LOCK_ATTRIBUTES``;
* ``with self.index.lock:`` / ``with engine.index.lock:`` — the
  ``.lock`` property; ranked by its base name (``index`` → "index").

Unranked locks (``_pool_lock``, ``_queue_lock``, ``conn.lock``, …) are
leaf locks private to one object; the lint ignores them.  Equal-rank
nesting is allowed: the index lock is reentrant by design, and a commit
takes the ``_table_lock`` of each of its tables in alphabetical order —
both are conventions this syntactic check cannot model.

**Limitation (by design):** the check is intra-procedural.  A lock held
in a caller while a callee acquires a shallower one is invisible here —
rule 2 in ``repro.locks`` ("never hold a lock across user code") is what
keeps that safe, and the race-stress harness is what tests it.

**Shard-layer coverage:** the router and supervisor sit *outside* every
server-core lock ("router" and "supervisor" are the outermost
LOCK_ORDER levels), so an unranked lock there is a hole in the order,
not a leaf.  Inside ``src/repro/shard`` every
``self.<name> = threading.Lock()/RLock()`` whose attribute is not in
``LOCK_ATTRIBUTES`` (or the explicit leaf allowlist below) fails the
lint.

Exit status 0 when clean, 1 otherwise (one ``file:line`` per inversion).
"""

from __future__ import annotations

import ast
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
SRC_ROOT = REPO_ROOT / "src" / "repro"

sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.locks import LOCK_ORDER, LOCK_ATTRIBUTES  # noqa: E402

#: ``.lock`` property bases -> level (see module docstring).
LOCK_PROPERTY_BASES = {"index": "index"}

#: Package whose lock attributes must all be ranked (no silent leaves).
SHARD_ROOT = SRC_ROOT / "shard"

#: Shard-package locks allowed to stay unranked (genuinely private to
#: one object and never nested around ranked locks).  Empty on purpose:
#: grow it only with a comment justifying each entry.
SHARD_LEAF_LOCKS: frozenset[str] = frozenset()


def _base_name(node: ast.expr) -> str | None:
    """Trailing identifier of the expression a lock attribute hangs off."""
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    return None


def classify(expr: ast.expr) -> tuple[str, str] | None:
    """``(display_name, level)`` if *expr* acquires a ranked lock."""
    if isinstance(expr, ast.Attribute):
        # self._kv_lock and friends
        level = LOCK_ATTRIBUTES.get(expr.attr)
        if level is not None:
            return (expr.attr, level)
        # self.index.lock
        if expr.attr == "lock":
            base = _base_name(expr.value)
            level = LOCK_PROPERTY_BASES.get(base or "")
            if level is not None:
                return (f"{base}.lock", level)
    return None


class _FunctionLint(ast.NodeVisitor):
    """Walks one function body with a stack of held ranked locks."""

    def __init__(self, path: Path, problems: list[str]) -> None:
        self.path = path
        self.problems = problems
        self.held: list[tuple[str, str]] = []  # (display_name, level)

    # Nested defs run on a different stack frame (often a different
    # thread), not under our locks; ``lint_file`` visits them separately.
    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        return

    visit_AsyncFunctionDef = visit_FunctionDef  # type: ignore[assignment]

    def visit_With(self, node: ast.With) -> None:
        acquired = []
        for item in node.items:
            found = classify(item.context_expr)
            if found is None:
                continue
            name, level = found
            rank = LOCK_ORDER.index(level)
            for held_name, held_level in self.held:
                if rank < LOCK_ORDER.index(held_level):
                    rel = self.path.relative_to(REPO_ROOT)
                    self.problems.append(
                        f"{rel}:{node.lineno}: acquires {name!r} "
                        f"(level {level!r}) while holding {held_name!r} "
                        f"(level {held_level!r}) — violates LOCK_ORDER"
                    )
            acquired.append((name, level))
        self.held.extend(acquired)
        for child in node.body:
            self.visit(child)
        if acquired:
            del self.held[-len(acquired):]

    visit_AsyncWith = visit_With  # type: ignore[assignment]


def lint_function(
    node: ast.AST, path: Path, problems: list[str]
) -> None:
    linter = _FunctionLint(path, problems)
    for child in ast.iter_child_nodes(node):
        linter.visit(child)


def _is_lock_constructor(value: ast.expr) -> bool:
    """True for ``threading.Lock()`` / ``threading.RLock()`` (and any
    ``<module>.Lock()/RLock()`` spelling)."""
    return (
        isinstance(value, ast.Call)
        and isinstance(value.func, ast.Attribute)
        and value.func.attr in ("Lock", "RLock")
    )


def lint_shard_lock_coverage(
    tree: ast.AST, path: Path, problems: list[str]
) -> None:
    """Every lock the shard package creates must have a ranked name."""
    for node in ast.walk(tree):
        if not isinstance(node, ast.Assign):
            continue
        if not _is_lock_constructor(node.value):
            continue
        for target in node.targets:
            if not isinstance(target, ast.Attribute):
                continue
            attr = target.attr
            if attr in LOCK_ATTRIBUTES or attr in SHARD_LEAF_LOCKS:
                continue
            rel = path.relative_to(REPO_ROOT)
            problems.append(
                f"{rel}:{node.lineno}: shard-layer lock {attr!r} is not "
                "in repro.locks.LOCK_ATTRIBUTES — rank it (or allowlist "
                "it in SHARD_LEAF_LOCKS with a justification)"
            )


def lint_file(path: Path, problems: list[str]) -> None:
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            lint_function(node, path, problems)
    if SHARD_ROOT in path.parents:
        lint_shard_lock_coverage(tree, path, problems)


def main() -> int:
    problems: list[str] = []
    files = sorted(SRC_ROOT.rglob("*.py"))
    for path in files:
        lint_file(path, problems)
    if problems:
        for line in problems:
            print(line, file=sys.stderr)
        print(f"\n{len(problems)} lock-order violation(s).", file=sys.stderr)
        return 1
    print(f"check_lock_order: {len(files)} files clean.")
    return 0


if __name__ == "__main__":
    sys.exit(main())
