"""The lock-order lint: it passes on the tree, every lock it ranks exists,
and it reports an inversion planted in a file."""

import ast
import importlib.util
import subprocess
import sys
from pathlib import Path

from repro.locks import LOCK_ATTRIBUTES, LOCK_ORDER

ROOT = Path(__file__).resolve().parent.parent
LINT = ROOT / "scripts" / "check_lock_order.py"


def _lint_module():
    spec = importlib.util.spec_from_file_location("check_lock_order", LINT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_the_tree_passes_the_lint():
    done = subprocess.run(
        [sys.executable, str(LINT)], capture_output=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr.decode()


def test_every_ranked_lock_attribute_is_assigned_in_src():
    assigned = set()
    for path in (ROOT / "src" / "repro").rglob("*.py"):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in ast.walk(tree):
            if isinstance(node, ast.Assign):
                targets = node.targets
            elif isinstance(node, ast.AnnAssign):
                targets = [node.target]
            else:
                continue
            assigned |= {t.attr for t in targets if isinstance(t, ast.Attribute)}
    assert sorted(set(LOCK_ATTRIBUTES) - assigned) == []
    assert set(LOCK_ATTRIBUTES.values()) <= set(LOCK_ORDER)


def test_a_planted_inversion_is_reported(tmp_path, monkeypatch):
    lint = _lint_module()
    monkeypatch.setattr(lint, "REPO_ROOT", tmp_path)
    planted = tmp_path / "planted.py"
    planted.write_text(
        "def evict_and_record(self):\n"
        "    with self._cache_lock:\n"
        "        with self._repo_lock:\n"
        "            pass\n"
        "\n"
        "def scan_then_record(self):\n"
        "    with self._table_lock:\n"
        "        with self._repo_lock:\n"
        "            pass\n"
    )
    problems = []
    lint.lint_file(planted, problems)
    assert len(problems) == 2
    assert problems[0].startswith("planted.py:3: acquires '_repo_lock'")
    assert "while holding '_cache_lock'" in problems[0]
    assert problems[1].startswith("planted.py:8: acquires '_repo_lock'")
    assert "while holding '_table_lock'" in problems[1]
