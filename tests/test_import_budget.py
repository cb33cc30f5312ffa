"""The memory budget is a test: ``repro`` imports nothing but the
standard library.

Every module under ``repro`` is imported in a fresh interpreter, and
the top-level names that adds to ``sys.modules`` must all be standard
library ones.  Two third-party imports were measured and refused:

* ``numpy`` for the dense scan: one ``matrix @ vector`` per
  query read x1.33 on ``search_cold`` throughput, but the import alone
  adds 13.4 MiB of peak resident memory to every server process
  (``search_cold`` ``peak_rss_mb`` 66.8 -> 80.0, +20 % against
  BENCHMARK.json's 10 % bound; three processes on ``mixed``) and
  0.1-0.3 s to every start-up, where the stdlib ``math.dist`` kernel
  reads x1.4 for no memory at all;
* ``networkx`` for the link graph: 324 more modules and 13.0 MiB of
  ``VmHWM`` per server process (36.6 -> 23.6 MiB after importing
  ``repro.core.memex``, ``repro.shard`` and ``repro.server.netserver``)
  for about ten calls that read a page's in- and out-links, which
  ``mining.linkanalysis.LinkGraph`` does with two dicts.

DESIGN.md section 13 has both.  Reach for a third-party package only
with a number that beats those.
"""

import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

PROBE = """
import importlib, pkgutil, sys
before = set(sys.modules)
import repro
for info in pkgutil.walk_packages(repro.__path__, "repro."):
    importlib.import_module(info.name)
added = {m.split(".")[0] for m in set(sys.modules) - before}
print(sorted(
    name for name in added
    if name not in sys.stdlib_module_names and name != "repro"
    and not (name.startswith("__") and name.endswith("__"))
))
"""


def test_repro_imports_only_the_standard_library():
    done = subprocess.run(
        [sys.executable, "-c", PROBE], capture_output=True, text=True,
        timeout=120, env={**os.environ, "PYTHONPATH": str(SRC)},
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[]"
