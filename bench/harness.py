"""Process control, load loops and statistics for ``bench/run.py``.

Everything here is generic: a :class:`Child` (one ``serve_child.py``
process in its own process group, always reaped), the closed-loop driver
(one thread per client, at most 2 requests in flight, raw latency samples
kept in memory), the :class:`SpeedClock` every timing is taken on,
``/proc`` readers for CPU time, and the small statistics the reports use
(nearest-rank percentiles, quartile spread).  The workload definitions live in ``workloads.py``.
"""

from __future__ import annotations

import bisect
import json
import os
import queue
import re
import signal
import socket
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Iterator

BENCH_DIR = Path(__file__).resolve().parent
REPO_ROOT = BENCH_DIR.parent
if str(REPO_ROOT / "src") not in sys.path:
    sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.errors import ProtocolError  # noqa: E402
OUT_DIR = BENCH_DIR / "out"
CHILD_SCRIPT = BENCH_DIR / "serve_child.py"

_CLK_TCK = os.sysconf("SC_CLK_TCK")
_HAVE_SCHEDSTAT = os.path.exists("/proc/self/schedstat")


# ----------------------------------------------------------------- statistics


def percentile(samples: list[float], q: float) -> float:
    """Nearest-rank percentile (``q`` in 0..100) of raw samples."""
    if not samples:
        return 0.0
    ordered = sorted(samples)
    rank = max(1, -(-len(ordered) * q // 100))  # ceil without floats
    return ordered[min(len(ordered), int(rank)) - 1]


def quartile_spread(values: list[float]) -> float:
    """(Q3 - Q1) / median, the contract's run-to-run spread."""
    if len(values) < 2:
        return 0.0
    q1, _q2, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return (q3 - q1) / med if med else 0.0


# ---------------------------------------------------------------------- /proc


def cpu_seconds(pids: list[int]) -> float:
    """CPU time consumed so far by *pids*, summed over their threads.

    Reads the scheduler's nanosecond run time per task
    (``/proc/<pid>/task/<tid>/schedstat``); ``utime + stime`` only tick
    at 100 Hz, which quantises a short window's CPU per request.  Falls
    back to those ticks where schedstat is not compiled in.  Processes
    that are gone count 0.
    """
    if not _HAVE_SCHEDSTAT:
        return _cpu_ticks(pids)
    total_ns = 0
    for pid in pids:
        try:
            tids = os.listdir(f"/proc/{pid}/task")
        except OSError:
            continue
        for tid in tids:
            try:
                with open(f"/proc/{pid}/task/{tid}/schedstat", encoding="ascii") as fh:
                    total_ns += int(fh.read().split()[0])
            except (OSError, ValueError, IndexError):
                continue        # the thread exited between listdir and open
    return total_ns / 1e9


def _cpu_ticks(pids: list[int]) -> float:
    total = 0
    for pid in pids:
        try:
            with open(f"/proc/{pid}/stat", encoding="ascii") as fh:
                fields = fh.read().rsplit(")", 1)[1].split()
        except OSError:
            continue
        total += int(fields[11]) + int(fields[12])
    return total / _CLK_TCK


class CpuWindow:
    """The server's CPU time over a ``with`` block: ``start`` and ``end``
    are ``(perf_counter, cpu_seconds)`` readings at entry and exit."""

    def __init__(self, pids: list[int]) -> None:
        self.pids = pids
        self.start = self.end = (0.0, 0.0)

    def _read(self) -> tuple[float, float]:
        return time.perf_counter(), cpu_seconds(self.pids)

    def __enter__(self) -> "CpuWindow":
        self.start = self.end = self._read()
        return self

    def __exit__(self, *exc: object) -> None:
        self.end = self._read()

    @property
    def cpu_s(self) -> float:
        return self.end[1] - self.start[1]


# ----------------------------------------------------------- the speed clock


def pin_to_one_cpu() -> None:
    """Pin this process — and through inheritance every thread and child
    it starts — to one CPU: the last it is allowed to run on (the first
    takes the VM's interrupts).  A platform that cannot pin floats."""
    try:
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    except (AttributeError, OSError):
        pass


_REF_DOC = {
    "status": "ok", "total": 123, "hits": [{
        "url": f"http://site{i}.example/page/{i * 7}",
        "title": f"Title words {i} here", "score": 1.0 / (i + 1),
        "snippet": "lorem ipsum dolor sit amet " * 6,
    } for i in range(10)],
}
_REF_TEXT = " ".join(
    f"word{i % 37} Alpha beta, gamma-delta; epsilon." for i in range(60))
_REF_FRAME = b"x" * 4096


class SpeedClock:
    """A clock that ticks in units of reference work, not of wall time.

    The machine this runs on is a couple of vCPUs of a shared host, and
    the speed of a vCPU wanders by a third from second to second and from
    one ten-minute stretch to the next (neighbours on the host), so the
    same request stream completes in 10 s now and 14 s a minute later.
    While the benchmark runs — everything pinned to ONE CPU — a thread of
    this class does a fixed piece of stdlib-only work every 25 ms (JSON
    round trips, tokenising and counting words, socketpair ping-pong:
    what the program under test spends its time on, but none of its code)
    and records the CPU time it took.  ``speed`` of a one-second slice is
    ``REFERENCE_S`` over that slice's median cost: 1.0 on the machine and
    the hour the constant was taken, 0.75 when the CPU is a quarter
    slower.  ``elapsed(t0, t1)`` integrates it: the seconds the interval
    would have lasted at reference speed.  Every timing the benchmark
    reports is taken on this clock; raw wall-clock values are kept next to
    them (``bench.*`` per-layer metrics) so the correction is visible.
    """

    PERIOD_S = 0.025
    SLICE_S = 1.0
    #: CPU cost of one ``_work()`` on the reference machine (a quiet
    #: minute on the 2-vCPU Firecracker VM the benchmark was written on).
    REFERENCE_S = 0.00050

    def __init__(self) -> None:
        self.series: list[tuple[float, float]] = []
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True)
        self._pair = socket.socketpair()
        self._edges: list[float] = []      # slice start instants
        self._speed: list[float] = []      # per slice
        self._ticks: list[float] = []      # reference seconds before each slice

    def _work(self) -> None:
        a, b = self._pair
        for _ in range(6):
            json.loads(json.dumps(_REF_DOC))
        for _ in range(2):
            counts: dict[str, int] = {}
            for word in re.findall(r"[a-z0-9]+", _REF_TEXT.lower()):
                counts[word] = counts.get(word, 0) + 1
            sorted(counts.items(), key=lambda kv: (-kv[1], kv[0]))
        for _ in range(30):
            a.sendall(_REF_FRAME)
            b.recv(8192)
            b.sendall(_REF_FRAME[:90])
            a.recv(4096)

    def _run(self) -> None:
        while not self._stop.wait(self.PERIOD_S):
            c0 = time.thread_time()
            self._work()
            self.series.append((time.perf_counter(), time.thread_time() - c0))

    def __enter__(self) -> "SpeedClock":
        self._thread.start()
        return self

    def __exit__(self, *exc: object) -> None:
        self._stop.set()
        self._thread.join()
        for sock in self._pair:
            sock.close()
        self._build()

    def _build(self) -> None:
        if not self.series:
            return
        t0 = self.series[0][0]
        slices: dict[int, list[float]] = {}
        for t, cost in self.series:
            slices.setdefault(int((t - t0) / self.SLICE_S), []).append(cost)
        last = max(slices)
        speed: list[float | None] = [
            self.REFERENCE_S / statistics.median(slices[k])
            if len(slices.get(k, ())) >= 5 else None
            for k in range(last + 1)
        ]
        # A slice the calibrator hardly ran in (a stall) takes the speed
        # of the nearest slice that has one.
        known = [k for k, v in enumerate(speed) if v is not None]
        if not known:
            return
        self._speed = [
            speed[min(known, key=lambda j: abs(j - k))] for k in range(last + 1)
        ]
        self._edges = [t0 + k * self.SLICE_S for k in range(last + 1)]
        total = 0.0
        for v in self._speed:
            self._ticks.append(total)
            total += v * self.SLICE_S

    def _slice(self, t: float) -> int:
        return min(len(self._edges) - 1, max(0, bisect.bisect_right(self._edges, t) - 1))

    def speed(self, t: float) -> float:
        """Machine speed at instant *t* relative to the reference (1.0)."""
        return self._speed[self._slice(t)] if self._speed else 1.0

    def _tick(self, t: float) -> float:
        if not self._speed:
            return t
        k = self._slice(t)
        return self._ticks[k] + (t - self._edges[k]) * self._speed[k]

    def elapsed(self, t0: float, t1: float) -> float:
        """Seconds from *t0* to *t1* at reference speed."""
        return self._tick(t1) - self._tick(t0)


def other_children_alive() -> list[int]:
    """Pids of ``serve_child.py`` processes this runner did not start.

    A leaked ticking server costs 5-10 % of a core and wrecks
    repeatability, so the suite refuses to start next to one.
    """
    mine = os.getpid()
    found = []
    for name in os.listdir("/proc"):
        if not name.isdigit() or int(name) == mine:
            continue
        try:
            with open(f"/proc/{name}/cmdline", "rb") as fh:
                cmdline = fh.read()
        except OSError:
            continue
        if b"serve_child.py" in cmdline:
            found.append(int(name))
    return found


def dir_bytes(path: str | os.PathLike[str]) -> int:
    total = 0
    for root, _dirs, files in os.walk(path):
        for name in files:
            try:
                total += os.path.getsize(os.path.join(root, name))
            except OSError:
                pass
    return total


# ---------------------------------------------------------------------- child


class ChildError(RuntimeError):
    """The server child failed to start, answer or stop."""


class Child:
    """One server under test: ``serve_child.py`` in its own process group.

    ``setup_span`` is spawn -> ``ready`` line.  Always use as a context
    manager: on any exit path stdin is closed (the child's stop signal),
    the ``done`` line is awaited, and whatever is left of the process
    group is killed (the child's own drain is not waited for).
    """

    def __init__(self, spec: dict[str, Any], *, ready_timeout: float = 150.0) -> None:
        self.spec = spec
        self.ready_timeout = ready_timeout
        self.proc: subprocess.Popen | None = None
        self.address: tuple[str, int] = ("", 0)
        self.pids: list[int] = []
        self.setup_span = (0.0, 0.0)     # perf_counter: spawn, ``ready``
        self.peak_rss_kb: dict[str, int] = {}
        self._lines: queue.Queue[str | None] = queue.Queue()

    def __enter__(self) -> "Child":
        started = time.perf_counter()
        self.proc = subprocess.Popen(
            [sys.executable, str(CHILD_SCRIPT)],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE,
            text=True, cwd=str(REPO_ROOT), start_new_session=True,
        )
        threading.Thread(target=self._pump, daemon=True).start()
        try:
            assert self.proc.stdin is not None
            self.proc.stdin.write(json.dumps(self.spec) + "\n")
            self.proc.stdin.flush()
            tag, rest = self._expect("ready", self.ready_timeout)
            self.setup_span = (started, time.perf_counter())
            host, port, info = rest.split(" ", 2)
            self.address = (host, int(port))
            self.pids = list(json.loads(info)["pids"])
        except BaseException:
            self._kill()
            raise
        return self

    def __exit__(self, *exc: object) -> None:
        self.stop()

    def _pump(self) -> None:
        assert self.proc is not None and self.proc.stdout is not None
        for line in self.proc.stdout:
            self._lines.put(line.rstrip("\n"))
        self._lines.put(None)

    def _expect(self, tag: str, timeout: float) -> tuple[str, str]:
        deadline = time.monotonic() + timeout
        while True:
            try:
                line = self._lines.get(timeout=max(0.0, deadline - time.monotonic()))
            except queue.Empty:
                raise ChildError(f"child sent no {tag!r} within {timeout}s") from None
            if line is None:
                raise ChildError(f"child exited before {tag!r}")
            if line.startswith(tag + " "):
                return tag, line[len(tag) + 1:]

    def stop(self) -> None:
        """Close stdin (drain + exit), collect ``done``, reap the group."""
        proc = self.proc
        if proc is None:
            return
        self.proc = None
        try:
            if proc.stdin is not None:
                proc.stdin.close()
            if proc.poll() is None or not self._lines.empty():
                try:
                    _tag, rest = self._expect("done", 60.0)
                    self.peak_rss_kb = json.loads(rest)["vm_hwm_kb"]
                except ChildError:
                    pass
        finally:
            self._kill(proc)

    def abort(self) -> None:
        """Kill the process group without draining (spare set-ups)."""
        self._kill()

    def _kill(self, proc: subprocess.Popen | None = None) -> None:
        proc = proc if proc is not None else self.proc
        self.proc = None
        if proc is None:
            return
        try:
            os.killpg(proc.pid, signal.SIGKILL)   # pgid == pid (new session)
        except (ProcessLookupError, PermissionError):
            pass
        try:
            proc.wait(timeout=10.0)
        except subprocess.TimeoutExpired:
            pass
        for stream in (proc.stdin, proc.stdout):
            try:
                if stream is not None:
                    stream.close()
            except OSError:
                pass

    @property
    def peak_rss_mb(self) -> float:
        return sum(self.peak_rss_kb.values()) / 1024.0


# ------------------------------------------------------------------- requests


@dataclass(frozen=True)
class Request:
    """One generated request: *payload* is a servlet payload dict, or a
    list of visit payloads shipped as one batch envelope."""

    kind: str
    user: str
    payload: Any
    tag: Any = None      # workload-private (session index, cache key, ...)


@dataclass
class Sample:
    kind: str
    start: float         # perf_counter at send
    latency: float       # seconds
    ok: bool
    acked: int = 0       # visits acknowledged ``archived: true``


@dataclass
class LoadResult:
    samples: list[Sample] = field(default_factory=list)
    started: float = 0.0
    ended: float = 0.0
    client_cpu_s: float = 0.0


Checker = Callable[[Request, Any], bool]


def _issue(transport: Any, req: Request, check: Checker) -> tuple[bool, int, float]:
    """Send *req*; returns (ok, acked visits, completion instant).

    ``ok`` is false for a typed error response, a transport failure, a
    timeout, or a response the workload's checker rejects.
    """
    acked = 0
    batch = isinstance(req.payload, list)
    send = transport.request_batch if batch else transport.request
    try:
        try:
            response: Any = send(req.user, req.payload)
        except ProtocolError as exc:
            # The server closes a connection idle for 30 s and the
            # transport only notices on its next use; like the applet,
            # reconnect and ask again (once).
            if "closed connection" not in str(exc):
                raise
            response = send(req.user, req.payload)
    except Exception:  # noqa: BLE001 - any failure is a failed request
        return False, 0, time.perf_counter()
    done = time.perf_counter()
    if batch:
        ok = all(r.get("status") == "ok" for r in response)
        acked = sum(1 for r in response if r.get("archived"))
    else:
        ok = response.get("status") == "ok"
    if ok:
        ok = check(req, response)
    return ok, acked, done


def closed_loop(
    transport: Any,
    clients: list[Iterator[Request]],
    check: Checker,
    *,
    seconds: float | None = None,
    think_s: float = 0.0,
) -> LoadResult:
    """One thread per client; each sends its next request only after the
    previous one completed (plus *think_s* of client think time).  Runs
    for *seconds*, or — with ``None`` — until every client's generator is
    exhausted (fixed work)."""
    result = LoadResult()
    per_thread: list[list[Sample]] = [[] for _ in clients]
    barrier = threading.Barrier(len(clients) + 1)
    deadline = [0.0]

    def run(i: int) -> None:
        out = per_thread[i]
        barrier.wait()
        for req in clients[i]:
            start = time.perf_counter()
            if seconds is not None and start >= deadline[0]:
                break
            ok, acked, done = _issue(transport, req, check)
            out.append(Sample(req.kind, start, done - start, ok, acked))
            if think_s:
                time.sleep(think_s)

    threads = [
        threading.Thread(target=run, args=(i,), daemon=True)
        for i in range(len(clients))
    ]
    for t in threads:
        t.start()
    cpu0 = time.process_time()
    result.started = time.perf_counter()
    deadline[0] = result.started + (seconds or 0.0)
    barrier.wait()
    for t in threads:
        t.join()
    result.ended = time.perf_counter()
    result.client_cpu_s = time.process_time() - cpu0
    result.samples = sorted(
        (s for chunk in per_thread for s in chunk), key=lambda s: s.start,
    )
    return result
