"""Shared pieces of the benchmark: paths, the host probe, statistics,
child processes, output checks, spans and the result line.

Nothing here imports the program under test; the workload modules do
that after :func:`use_source_tree` has put ``src/`` on the path.
"""

from __future__ import annotations

import contextlib
import contextvars
import hashlib
import json
import math
import os
import shutil
import signal
import socket
import statistics
import subprocess
import sys
import time
from pathlib import Path

#: Root of the checkout the benchmark runs in.
ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = Path(__file__).resolve().parent
SRC = ROOT / "src"
#: Everything a run writes (caches, ledgers, span dumps) lives here.
WORK = ROOT / ".perfbench-work"
DIGESTS_PATH = BENCH_DIR / "digests.json"

NO_REFERENCE_NOTE = (
    "note: the timing model has no hardware reference, so no accuracy "
    "error is reported; outputs are checked against pinned SimStats "
    "digests cross-checked once against simulate(mode='reference')"
)


def use_source_tree() -> None:
    """Put the checkout's ``src/`` first on ``sys.path``.

    Raises:
        SystemExit: when the checkout holds no ``src/repro`` package.
    """
    if not (SRC / "repro" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no program to measure at {SRC}/repro")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def child_env(ledger_dir: Path) -> dict:
    """Environment for program processes the benchmark starts."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env["PYTHONUNBUFFERED"] = "1"
    env["REPRO_LEDGER_DIR"] = str(ledger_dir)
    return env


# ----------------------------------------------------------------------
# host-speed probe (diagnostic only; never rescales a metric)
# ----------------------------------------------------------------------


def _probe_once() -> float:
    start = time.perf_counter()
    total = 0
    for i in range(200_000):
        total += i * i % 7
    if total != 399_999:
        raise RuntimeError("host probe loop computed a wrong sum")
    return (time.perf_counter() - start) * 1e3


def host_probe(repeats: int = 5) -> float:
    """Median milliseconds of a fixed loop owned by the benchmark."""
    return statistics.median(_probe_once() for _ in range(repeats))


# ----------------------------------------------------------------------
# statistics
# ----------------------------------------------------------------------


def percentile(values: list[float], q: float) -> float:
    """Linear-interpolated ``q`` quantile (0 <= q <= 1) of ``values``."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of no samples")
    pos = q * (len(ordered) - 1)
    low = math.floor(pos)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (pos - low)


def tail_percentile(values: list[float], q: float) -> float:
    """``percentile`` that refuses a tail with fewer than ten samples
    beyond it.

    Raises:
        ValueError: when fewer than ten samples lie beyond ``q``.
    """
    beyond = len(values) * (1.0 - q)
    if beyond < 10:
        raise ValueError(
            f"p{q * 100:g} needs ten samples beyond it; have {len(values)} "
            "samples in all")
    return percentile(values, q)


def rate(count: float, seconds: float) -> float:
    return count / seconds if seconds > 0 else 0.0


# ----------------------------------------------------------------------
# output checking
# ----------------------------------------------------------------------


def digest(payload: object) -> str:
    """Stable short digest of a JSON-ready value."""
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:24]


def cell_label(machine: str, workload: str, budget: int) -> str:
    return f"{machine}/{workload}/{budget}"


def load_digests(plant_wrong_digest: bool = False) -> dict:
    """The pinned output digests (``pin.py`` writes them).

    With ``plant_wrong_digest`` one cell digest of every budget is
    replaced by a wrong value, so the self-test can prove a mismatch
    is counted as a failed operation.
    """
    pinned = json.loads(DIGESTS_PATH.read_text(encoding="utf-8"))
    if plant_wrong_digest:
        cells = pinned["cells"]
        for label in sorted(cells)[::25]:
            cells[label] = "0" * 24
    return pinned


class OpCounter:
    """Attempted and failed operations, with the first few failures."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []

    def ok(self) -> None:
        self.attempted += 1

    def fail(self, why: str) -> None:
        self.attempted += 1
        self.failed += 1
        if len(self.failures) < 5:
            self.failures.append(why)

    def check(self, passed: bool, why: str) -> bool:
        if passed:
            self.ok()
        else:
            self.fail(why)
        return passed

    @property
    def error_rate(self) -> float:
        return rate(self.failed, self.attempted)


# ----------------------------------------------------------------------
# child processes
# ----------------------------------------------------------------------


def fresh_dir(name: str) -> Path:
    """An empty directory under :data:`WORK` (emptied if it exists)."""
    path = WORK / name
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


def free_port() -> int:
    with socket.socket() as sock:
        sock.bind(("127.0.0.1", 0))
        return sock.getsockname()[1]


def peak_rss_mb(pid: int) -> float:
    """VmHWM of a live process, in MiB."""
    for line in Path(f"/proc/{pid}/status").read_text().splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for pid {pid}")


def _group_alive(pgid: int) -> bool:
    """True while a live (non-zombie) process remains in ``pgid``."""
    for stat in Path("/proc").glob("[0-9]*/stat"):
        try:
            fields = stat.read_text().rsplit(")", 1)[1].split()
        except (OSError, IndexError):
            continue
        if fields[0] != "Z" and int(fields[2]) == pgid:
            return True
    return False


class Child:
    """A program process in its own process group, always reaped.

    Its standard error goes to ``log`` so a chatty process can never
    block on a full pipe; standard output is a pipe the caller reads,
    or goes to the log too.
    """

    def __init__(self, argv: list[str], env: dict, log: Path,
                 pipe_stdout: bool = True) -> None:
        log.parent.mkdir(parents=True, exist_ok=True)
        self.log = log
        self.started = time.perf_counter()
        with open(log, "w", encoding="utf-8") as err:
            self.proc = subprocess.Popen(
                argv, cwd=ROOT, env=env, text=True,
                stdin=subprocess.DEVNULL,
                stdout=subprocess.PIPE if pipe_stdout else err,
                stderr=err, start_new_session=True,
            )

    @property
    def pid(self) -> int:
        return self.proc.pid

    def stop(self, timeout: float = 10.0) -> None:
        """Interrupt, wait, then kill whatever is left of the group."""
        if self.proc.poll() is None:
            with contextlib.suppress(ProcessLookupError):
                self.proc.send_signal(signal.SIGINT)
            try:
                self.proc.wait(timeout)
            except subprocess.TimeoutExpired:
                pass
        with contextlib.suppress(ProcessLookupError, PermissionError):
            os.killpg(self.proc.pid, signal.SIGKILL)
        self.proc.wait(timeout)
        if self.proc.stdout is not None:
            with contextlib.suppress(OSError, ValueError):
                self.proc.stdout.close()
        deadline = time.monotonic() + 5.0
        while _group_alive(self.proc.pid) and time.monotonic() < deadline:
            time.sleep(0.02)

    def stderr_tail(self) -> str:
        try:
            return self.log.read_text(encoding="utf-8")[-2000:]
        except OSError:
            return ""


# ----------------------------------------------------------------------
# spans
# ----------------------------------------------------------------------

_CURRENT = contextvars.ContextVar("perfbench_span", default=None)


class Tracer:
    """In-memory spans: ``(id, name, start, end, parent)``.

    The current parent travels in a context variable, so concurrent
    asyncio tasks each nest under the span that created them.
    """

    def __init__(self) -> None:
        self.spans: list[dict] = []

    @contextlib.contextmanager
    def span(self, name: str):
        parent = _CURRENT.get()
        record = {"id": len(self.spans), "name": name, "parent": parent,
                  "start": time.perf_counter(), "end": None}
        self.spans.append(record)
        token = _CURRENT.set(record["id"])
        try:
            yield record
        finally:
            record["end"] = time.perf_counter()
            _CURRENT.reset(token)

    def add(self, name: str, start: float, end: float,
            parent: int | None) -> int:
        """Record a finished span (one timed in another process)."""
        record = {"id": len(self.spans), "name": name, "parent": parent,
                  "start": start, "end": end}
        self.spans.append(record)
        return record["id"]

    def current(self) -> int | None:
        return _CURRENT.get()

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(self.spans), encoding="utf-8")


def attribute(spans: list[dict], root: int) -> tuple[dict, float, list[str]]:
    """Split the root span's wall time over layers.

    Every instant goes to the deepest span open at that instant (the
    earliest-started one when concurrent requests overlap), so the
    per-layer self times plus the root's own, unattributed, time add
    up to the root's duration.  Returns ``(self_seconds_by_name,
    unattributed_seconds, problems)``; ``problems`` lists spans that
    end before they start or leave their parent's interval.
    """
    by_id = {s["id"]: s for s in spans}
    problems = []
    depth: dict[int, int] = {}
    inside = {root}
    for s in spans:
        if s["parent"] in inside:
            inside.add(s["id"])
    spans = [s for s in spans if s["id"] in inside]

    def depth_of(span_id: int) -> int:
        if span_id not in depth:
            parent = by_id[span_id]["parent"]
            depth[span_id] = 0 if parent is None else depth_of(parent) + 1
        return depth[span_id]

    tol = 1e-4
    for s in spans:
        if s["end"] is None or s["end"] < s["start"]:
            problems.append(f"span {s['name']} has no valid end")
            continue
        parent = by_id.get(s["parent"]) if s["parent"] is not None else None
        if parent is not None and (s["start"] < parent["start"] - tol
                                   or s["end"] > parent["end"] + tol):
            problems.append(f"span {s['name']} leaves parent "
                            f"{parent['name']}")
    events = []
    for s in spans:
        if s["end"] is not None and s["end"] >= s["start"]:
            events.append((s["start"], 1, s["id"]))
            events.append((s["end"], 0, s["id"]))
    events.sort()
    active: set[int] = set()
    selfs: dict[str, float] = {}
    last = None
    for when, kind, span_id in events:
        if last is not None and active and when > last:
            owner = max(active, key=lambda i: (depth_of(i),
                                               -by_id[i]["start"], -i))
            name = by_id[owner]["name"]
            selfs[name] = selfs.get(name, 0.0) + (when - last)
        last = when
        if kind == 1:
            active.add(span_id)
        else:
            active.discard(span_id)
    root_name = by_id[root]["name"]
    unattributed = selfs.pop(root_name, 0.0)
    return selfs, unattributed, problems


# ----------------------------------------------------------------------
# the result line
# ----------------------------------------------------------------------


def emit(metrics: dict[str, tuple[float, str]], ops: OpCounter,
         notes: list[str]) -> None:
    """Print named metrics, notes, and the final JSON result line."""
    for note in notes:
        print(note)
    for name, (value, unit) in metrics.items():
        print(f"metric {name} = {value!r} {unit}")
    print(f"metric error_rate = {ops.error_rate!r} 1 "
          f"({ops.failed} failed of {ops.attempted} attempted)")
    for failure in ops.failures:
        print(f"failure: {failure}")
    print(json.dumps({
        "correct": ops.failed == 0,
        "attempted": ops.attempted,
        "failed": ops.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
