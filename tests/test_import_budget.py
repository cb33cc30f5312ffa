"""The memory budget is a test: serving imports no array library.

``numpy`` is a declared dependency that nothing under ``src/`` imports
(``networkx`` loads it lazily, and the code paths served here never make
it).  It was measured for the dense scan (ISSUE 24): one ``matrix @
vector`` per query read x1.33 on ``search_cold`` throughput, but the
import alone adds 13.4 MiB of peak resident memory to every server
process (``search_cold`` ``peak_rss_mb`` 66.8 -> 80.0, +20 % against
BENCHMARK.json's 10 % bound; three processes on ``mixed``; re-measured
while writing this test: ``VmHWM`` after the three imports below 37.1 ->
49.7 MiB with ``import numpy`` first) and 0.1-0.3 s to every start-up,
where the stdlib ``math.dist`` kernel reads x1.4 for no memory at all
(DESIGN.md section 13).  Reach for an array only with a number that
beats that one.
"""

import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"


def test_serving_imports_neither_numpy_nor_scipy():
    probe = (
        "import sys\n"
        "import repro.core.memex, repro.shard, repro.server.netserver\n"
        "print(sorted({m.split('.')[0] for m in sys.modules}"
        " & {'numpy', 'scipy'}))\n"
    )
    done = subprocess.run(
        [sys.executable, "-c", probe], capture_output=True, text=True,
        timeout=120, env={**os.environ, "PYTHONPATH": str(SRC)},
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[]"
