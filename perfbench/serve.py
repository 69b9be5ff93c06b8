"""The ``serve_warm`` and ``serve_cold`` workloads.

Untraced runs start ``python3 -m repro serve`` the way an operator
does, wait for ``/v1/healthz``, and drive it from this process with
two keep-alive connections in a closed loop.  Traced runs add an
in-process ``DesignSpaceService`` driven through ``handle_http`` with
the same URLs, spans around its cache and pool calls, and single-call
timings of what a request does.
"""

from __future__ import annotations

import asyncio
import concurrent.futures
import json
import random
import re
import socket
import statistics
import sys
import time
from pathlib import Path

from common import (
    Child,
    OpCounter,
    Tracer,
    cell_label,
    child_env,
    digest,
    free_port,
    fresh_dir,
    peak_rss_mb,
    percentile,
    rate,
    tail_percentile,
)

from repro.core.campaign import CampaignCell, ResultCache
from repro.core.machines import MACHINE_REGISTRY, machine_registry
from repro.obs.ledger import Ledger
from repro.workloads import WORKLOAD_NAMES, workload_names

#: Per-cell instruction budget of the warmed grid (normal, tiny).
WARM_BUDGET = {False: 1500, True: 300}
#: Budgets of the cold grid (normal, tiny).
COLD_BUDGETS = {False: (1000, 2500), True: (200, 300)}
COLD_MACHINES = ("baseline", "ports_limited")
#: Requests in one pass of the warm mix; frontier and delay counts
#: per pass are fixed, the seed picks everything else.
WARM_MIX = {"requests": 1000, "frontier": 5, "delay": 20}
PLANTED_404 = "/v1/cell?machine=no_such_machine&workload=gcc"
HEALTH_TIMEOUT = 120.0
REQUEST_TIMEOUT = 60.0
#: What a failed request can raise; each counts as a failed operation.
REQUEST_ERRORS = (OSError, EOFError, ValueError, IndexError, TimeoutError)


def cold_workloads() -> tuple[str, ...]:
    """The 16 registered workloads outside the paper suite."""
    return tuple(w for w in workload_names() if w not in WORKLOAD_NAMES)


# ----------------------------------------------------------------------
# seeded inputs
# ----------------------------------------------------------------------


def warm_urls(seed: int, budget: int) -> tuple[list[str], list[tuple]]:
    """One seeded pass of the warm mix: URLs and what each must return."""
    rng = random.Random(f"serve_warm:{seed}")
    machines = list(MACHINE_REGISTRY)
    cells = [(m, w) for m in machines for w in WORKLOAD_NAMES]
    rng.shuffle(cells)
    tech_share = 0.22 + 0.06 * rng.random()
    items = [("frontier",)] * WARM_MIX["frontier"]
    items += [("delay", rng.choice(machines))
              for _ in range(WARM_MIX["delay"])]
    count = WARM_MIX["requests"] - len(items)
    items += [("cell", *cells[i % len(cells)], rng.random() < tech_share)
              for i in range(count)]
    rng.shuffle(items)
    urls = []
    for item in items:
        if item[0] == "frontier":
            urls.append("/v1/frontier?tech=all")
        elif item[0] == "delay":
            urls.append(f"/v1/delay/{item[1]}")
        else:
            tech = "&tech=all" if item[3] else ""
            urls.append(f"/v1/cell?machine={item[1]}&workload={item[2]}"
                        f"{tech}")
    return urls, items


def cold_cells(seed: int, tiny: bool) -> list[tuple[str, str, int]]:
    rng = random.Random(f"serve_cold:{seed}")
    cells = [(m, w, n) for m in COLD_MACHINES for w in cold_workloads()
             for n in COLD_BUDGETS[tiny]]
    rng.shuffle(cells)
    return cells


def cell_url(machine: str, workload: str, budget: int) -> str:
    return f"/v1/cell?machine={machine}&workload={workload}&n={budget}"


# ----------------------------------------------------------------------
# output checks
# ----------------------------------------------------------------------


class Checker:
    """Checks response bodies against the pinned digests.

    A body already checked for the same expectation is not parsed
    again, so checking stays cheap next to the request it checks.
    """

    def __init__(self, pinned: dict, budget: int, ops: OpCounter) -> None:
        self.pinned = pinned
        self.budget = budget
        self.ops = ops
        self._seen: dict[tuple, str | None] = {}

    def check(self, item: tuple, status: int, body: bytes) -> None:
        key = (item, status, body)
        if key not in self._seen:
            self._seen[key] = self._verify(item, status, body)
        problem = self._seen[key]
        if problem is None:
            self.ops.ok()
        else:
            self.ops.fail(f"{item}: {problem}")

    def _verify(self, item: tuple, status: int, body: bytes) -> str | None:
        if status != 200:
            return f"status {status}"
        try:
            data = json.loads(body)
        except ValueError:
            return "body is not JSON"
        cells = self.pinned["cells"]
        if item[0] == "cell":
            _, machine, workload, tech = item[:4]
            budget = item[4] if len(item) > 4 else self.budget
            label = cell_label(machine, workload, budget)
            if digest(data.get("stats")) != cells.get(label):
                return "stats digest differs from the pinned one"
            if tech and (digest(data.get("clocked"))
                         != self.pinned["clocked"].get(label)):
                return "clocked digest differs from the pinned one"
        elif item[0] == "frontier":
            if (digest(data.get("points"))
                    != self.pinned["frontier"].get(str(self.budget))):
                return "frontier points differ from the pinned ones"
        elif item[0] == "delay":
            if digest(data.get("techs")) != self.pinned["delay"].get(item[1]):
                return "delay breakdown differs from the pinned one"
        return None


# ----------------------------------------------------------------------
# HTTP client and server processes
# ----------------------------------------------------------------------


class Connection:
    """One keep-alive HTTP/1.1 connection."""

    def __init__(self, port: int, reader, writer) -> None:
        self.port = port
        self.reader = reader
        self.writer = writer

    @classmethod
    async def open(cls, port: int) -> "Connection":
        return cls(port, *await asyncio.open_connection("127.0.0.1", port))

    async def reopen(self) -> None:
        """A fresh socket after a failed request left this one unusable."""
        await self.close()
        self.reader, self.writer = await asyncio.open_connection(
            "127.0.0.1", self.port)

    async def get(self, path: str) -> tuple[int, bytes]:
        self.writer.write(f"GET {path} HTTP/1.1\r\nHost: perfbench\r\n"
                          "Connection: keep-alive\r\n\r\n".encode("latin-1"))
        await self.writer.drain()
        status = int((await self.reader.readline()).split()[1])
        length = 0
        while True:
            line = await self.reader.readline()
            if line in (b"\r\n", b"\n", b""):
                break
            name, _, value = line.partition(b":")
            if name.strip().lower() == b"content-length":
                length = int(value)
        return status, await self.reader.readexactly(length)

    async def close(self) -> None:
        self.writer.close()
        try:
            await self.writer.wait_closed()
        except OSError:
            pass


def _healthz(port: int) -> bool:
    try:
        with socket.create_connection(("127.0.0.1", port), timeout=2) as s:
            s.sendall(b"GET /v1/healthz HTTP/1.1\r\nHost: perfbench\r\n"
                      b"Connection: close\r\n\r\n")
            return s.recv(64).startswith(b"HTTP/1.1 200")
    except OSError:
        return False


class Server:
    """``python3 -m repro serve`` in its own process group."""

    def __init__(self, workdir: Path, budget: int, warm: bool) -> None:
        self.port = free_port()
        argv = [sys.executable, "-m", "repro", "serve",
                "--host", "127.0.0.1", "--port", str(self.port),
                "--cache-dir", str(workdir / "cache"),
                "-n", str(budget), "--jobs", "1"]
        if warm:
            argv += ["--warm", "registry"]
        self.child = Child(argv, child_env(workdir / "ledger"),
                           workdir / "server.log", pipe_stdout=False)
        deadline = time.perf_counter() + HEALTH_TIMEOUT
        while not _healthz(self.port):
            if self.child.proc.poll() is not None or \
                    time.perf_counter() > deadline:
                self.stop()
                raise RuntimeError("server never became healthy: "
                                   + self.child.stderr_tail())
            time.sleep(0.005)
        self.setup_s = time.perf_counter() - self.child.started

    def metrics(self) -> dict[str, float]:
        """Counters from ``/v1/metrics`` summed over their labels."""
        with socket.create_connection(("127.0.0.1", self.port), 10) as s:
            s.sendall(b"GET /v1/metrics HTTP/1.1\r\nHost: perfbench\r\n"
                      b"Connection: close\r\n\r\n")
            chunks = []
            while chunk := s.recv(65536):
                chunks.append(chunk)
        text = b"".join(chunks).decode("utf-8").split("\r\n\r\n", 1)[1]
        totals: dict[str, float] = {}
        for line in text.splitlines():
            match = re.match(r"^(service_\w+?)(\{([^}]*)\})? (\S+)$", line)
            if match:
                name, labels = match.group(1), match.group(3) or ""
                tier = re.search(r'tier="(\w+)"', labels)
                if tier:
                    name += "." + tier.group(1)
                totals[name] = totals.get(name, 0.0) + float(match.group(4))
        return totals

    def rss_mb(self) -> float:
        return peak_rss_mb(self.child.pid)

    def stop(self) -> None:
        self.child.stop()


# ----------------------------------------------------------------------
# load phases
# ----------------------------------------------------------------------


async def warm_loop(port: int, urls: list[str], items: list[tuple],
                    checker: Checker, seconds: float | None,
                    start_index: int, connections: int = 2,
                    ) -> tuple[list[tuple[int, float]], float, int]:
    """Closed loop over ``urls`` on ``connections`` connections.

    Runs for ``seconds`` (or one pass when None); returns
    ``([(position in urls, latency)], wall_seconds, next_index)``.
    """
    conns = [await Connection.open(port) for _ in range(connections)]
    samples: list[tuple[int, float]] = []
    state = {"next": start_index}
    limit = start_index + len(urls)
    started = time.perf_counter()
    deadline = started + seconds if seconds is not None else None

    async def worker(conn: Connection) -> None:
        while True:
            if deadline is not None:
                if time.perf_counter() >= deadline:
                    return
            elif state["next"] >= limit:
                return
            index = state["next"]
            state["next"] += 1
            url = urls[index % len(urls)]
            sent = time.perf_counter()
            try:
                async with asyncio.timeout(REQUEST_TIMEOUT):
                    status, body = await conn.get(url)
            except REQUEST_ERRORS as error:
                checker.ops.fail(f"{url}: {type(error).__name__} {error}")
                await conn.reopen()
                continue
            samples.append((index % len(urls), time.perf_counter() - sent))
            checker.check(items[index % len(urls)], status, body)

    try:
        await asyncio.gather(*(worker(c) for c in conns))
    finally:
        for conn in conns:
            await conn.close()
    return samples, time.perf_counter() - started, state["next"]


async def cold_loop(port: int, cells: list[tuple[str, str, int]],
                    checker: Checker) -> tuple[list[float], float]:
    """Ask for each cell on both connections at once, cell by cell."""
    conns = [await Connection.open(port) for _ in range(2)]
    latencies: list[float] = []

    async def one(conn: Connection, url: str, item: tuple) -> None:
        sent = time.perf_counter()
        try:
            async with asyncio.timeout(REQUEST_TIMEOUT):
                status, body = await conn.get(url)
        except REQUEST_ERRORS as error:
            checker.ops.fail(f"{url}: {type(error).__name__} {error}")
            await conn.reopen()
            return
        latencies.append(time.perf_counter() - sent)
        checker.check(item, status, body)

    started = time.perf_counter()
    try:
        for machine, workload, budget in cells:
            item = ("cell", machine, workload, False, budget)
            url = cell_url(machine, workload, budget)
            await asyncio.gather(*(one(c, url, item) for c in conns))
    finally:
        for conn in conns:
            await conn.close()
    return latencies, time.perf_counter() - started


# ----------------------------------------------------------------------
# untraced runs
# ----------------------------------------------------------------------

WARM_ROUNDS = 3


def run_warm(seed: int, seconds: float, tiny: bool, pinned: dict,
             ops: OpCounter, plant_404: bool) -> dict:
    budget = WARM_BUDGET[tiny]
    urls, items = warm_urls(seed, budget)
    if plant_404:
        urls.insert(0, PLANTED_404)
        items.insert(0, ("cell", "no_such_machine", "gcc", False))
    checker = Checker(pinned, budget, ops)
    served = [pinned["committed"].get(cell_label(item[1], item[2], budget), 0)
              if item[0] == "cell" else 0 for item in items]
    started = time.perf_counter()
    setups, rss, latencies = [], [], []
    wall = 0.0
    committed = 0
    index = 0
    for round_no in range(WARM_ROUNDS):
        server = Server(fresh_dir(f"serve_warm/{round_no}"), budget, True)
        try:
            setups.append(server.setup_s)
            left = seconds - (time.perf_counter() - started)
            window = max(1.0, left / (WARM_ROUNDS - round_no))
            samples, spent, index = asyncio.run(warm_loop(
                server.port, urls, items, checker, window, index))
            wall += spent
            committed += sum(served[position] for position, _ in samples)
            latencies += [latency for _, latency in samples]
            rss.append(server.rss_mb())
        finally:
            server.stop()
    return {
        "setup_s": statistics.median(setups),
        "sim_inst_per_s": rate(committed, wall),
        "_requests_per_s": rate(len(latencies), wall),
        "request_p50_ms": percentile(latencies, 0.5) * 1e3,
        "request_p90_ms": tail_percentile(latencies, 0.9) * 1e3,
        "peak_rss_mb": statistics.median(rss),
        "_p99": tail_percentile(latencies, 0.99) * 1e3,
        "_samples": len(latencies),
    }


def check_ledger(root: Path, cells: list, ops: OpCounter) -> None:
    """Each distinct cell was simulated, and ledgered, exactly once."""
    entries = Ledger(root).entries(kind="service")
    ops.check(len(entries) == len(cells),
              f"ledger holds {len(entries)} service runs for {len(cells)} "
              "distinct cells")


def cold_round(round_dir: Path, cells: list, pinned: dict,
               ops: OpCounter, tiny: bool) -> dict:
    """One fresh server over the cold grid; checks the ledger too."""
    checker = Checker(pinned, 0, ops)
    server = Server(round_dir, COLD_BUDGETS[tiny][0], False)
    try:
        latencies, wall = asyncio.run(cold_loop(server.port, cells, checker))
        rss = server.rss_mb()
    finally:
        server.stop()
    check_ledger(round_dir / "ledger", cells, ops)
    committed = sum(pinned["committed"][cell_label(*cell)] for cell in cells)
    return {"setup": server.setup_s, "latencies": latencies, "wall": wall,
            "rss": rss, "committed": committed}


def run_cold(seed: int, seconds: float, tiny: bool, pinned: dict,
             ops: OpCounter) -> dict:
    cells = cold_cells(seed, tiny)
    started = time.perf_counter()
    rounds: list[dict] = []
    while True:
        elapsed = time.perf_counter() - started
        last = elapsed / len(rounds) if rounds else 0.0
        if len(rounds) >= 3 and elapsed + last > seconds:
            break
        rounds.append(cold_round(fresh_dir(f"serve_cold/{len(rounds)}"),
                                 cells, pinned, ops, tiny))
    latencies = [x for r in rounds for x in r["latencies"]]
    wall = sum(r["wall"] for r in rounds)
    return {
        "setup_s": statistics.median(r["setup"] for r in rounds),
        "sim_inst_per_s": rate(sum(r["committed"] for r in rounds), wall),
        "request_p50_ms": percentile(latencies, 0.5) * 1e3,
        "request_p90_ms": tail_percentile(latencies, 0.9) * 1e3,
        "peak_rss_mb": statistics.median(r["rss"] for r in rounds),
        "_samples": len(latencies),
        "_rounds": len(rounds),
    }


# ----------------------------------------------------------------------
# traced runs
# ----------------------------------------------------------------------


def _route(url: str) -> str:
    path = url.split("?", 1)[0]
    if path.startswith("/v1/delay/"):
        return "delay"
    return path.rsplit("/", 1)[-1]


async def _in_process(service, urls: list[str], items: list[tuple],
                      checker: Checker, tracer: Tracer | None,
                      pairs: bool) -> tuple[list[tuple[str, float]], float]:
    """Drive ``handle_http`` with ``urls``; ``pairs`` sends each URL
    twice at once, as the cold load does."""
    samples: list[tuple[str, float]] = []

    async def one(url: str, item: tuple) -> None:
        start = time.perf_counter()
        if tracer is None:
            status, _, body = await service.handle_http("GET", url)
        else:
            with tracer.span(f"service.handle_{_route(url)}"):
                status, _, body = await service.handle_http("GET", url)
        samples.append((url, time.perf_counter() - start))
        checker.check(item, status, body)

    started = time.perf_counter()
    for url, item in zip(urls, items):
        if pairs:
            if tracer is None:
                await asyncio.gather(one(url, item), one(url, item))
            else:
                with tracer.span("service.pair"):
                    await asyncio.gather(one(url, item), one(url, item))
        else:
            await one(url, item)
    return samples, time.perf_counter() - started


def _medians_by_route(samples: list[tuple[str, float]]) -> dict[str, float]:
    by_route: dict[str, list[float]] = {}
    for url, seconds in samples:
        by_route.setdefault(_route(url), []).append(seconds)
    return {route: statistics.median(v) for route, v in by_route.items()}


def traced_warm(seed: int, tiny: bool, pinned: dict, ops: OpCounter,
                tracer: Tracer) -> tuple[dict, list[int], dict | None]:
    """The first pass of the warm mix over the socket, in-process
    untraced and in-process traced, after an untraced warm fill."""
    from repro.core.campaign import run_campaign
    from repro.service.app import DesignSpaceService

    from layers import TracedCache, micro_timings

    budget = WARM_BUDGET[tiny]
    urls, items = warm_urls(seed, budget)
    urls, items = urls[:400] if tiny else urls, items[:400] if tiny else items
    checker = Checker(pinned, budget, ops)
    work = fresh_dir("serve_warm/traced")
    registry = machine_registry()
    cells = [CampaignCell(m, registry[m], w, budget)
             for m in MACHINE_REGISTRY for w in WORKLOAD_NAMES]
    cache = ResultCache(work / "cache")
    filled, _ = run_campaign(registry, WORKLOAD_NAMES, budget, cache=cache)
    stats = [filled.stats[c.machine][c.workload] for c in cells]
    for cell, s in zip(cells, stats):
        ops.check(digest(s.to_dict()) == pinned["cells"].get(
            cell_label(cell.machine, cell.workload, budget)),
            f"{cell.label}: fill digest differs from the pinned one")

    server = Server(work, budget, True)
    try:
        # One connection, so a request never waits behind another one
        # and the client time minus handle_http is the socket layer.
        socket_samples, _, _ = asyncio.run(
            warm_loop(server.port, urls, items, checker, None, 0, 1))
        socket_samples = [(urls[i], t) for i, t in socket_samples]
        counters = server.metrics()
    finally:
        server.stop()

    def service(cache_obj):
        return DesignSpaceService(cache=cache_obj, jobs=1,
                                  instructions=budget,
                                  ledger_root=str(work / "ledger"))

    plain, untraced_wall = asyncio.run(_in_process(
        service(ResultCache(work / "cache")), urls, items, checker,
        None, False))
    with tracer.span("serve") as root:
        _, traced_wall = asyncio.run(_in_process(
            service(TracedCache(work / "cache", tracer)), urls, items,
            checker, tracer, False))
    micro = micro_timings(cells, stats, cache, work)

    in_proc = _medians_by_route(plain)
    over_socket = _medians_by_route(socket_samples)
    lookups = sum(counters.get(f"service_cache_hits_total.{t}", 0.0)
                  for t in ("memory", "disk"))
    lookups += counters.get("service_cache_misses_total", 0.0)
    out = dict(micro)
    out.update({
        "service.handle_cell_us": in_proc["cell"] * 1e6,
        "service.handle_frontier_ms": in_proc.get("frontier", 0.0) * 1e3,
        "service.handle_delay_us": in_proc.get("delay", 0.0) * 1e6,
        "service.socket_us": (over_socket["cell"] - in_proc["cell"]) * 1e6,
        "service.memo_ratio": rate(
            counters.get("service_cache_hits_total.memory", 0.0), lookups),
        "service.disk_ratio": rate(
            counters.get("service_cache_hits_total.disk", 0.0), lookups),
        "share.cache_key_memo_hit": rate(
            2 * micro["campaign.cache_key_us"],
            in_proc["cell"] * 1e6),
        "_traced_wall": traced_wall,
        "_untraced_wall": untraced_wall,
    })
    return out, [root["id"]], None


def traced_cold(seed: int, tiny: bool, pinned: dict, ops: OpCounter,
                tracer: Tracer) -> tuple[dict, list[int], dict]:
    """The cold cells in-process, untraced and then traced; the traced
    pass has a traced runner in its pool."""
    from repro.service.app import DesignSpaceService

    from layers import TimedExecutor, TracedCache, pool_runner

    cells = cold_cells(seed, tiny)
    work = fresh_dir("serve_cold/traced")
    checker = Checker(pinned, 0, ops)
    urls = [cell_url(*cell) for cell in cells]
    items = [("cell", m, w, False, n) for m, w, n in cells]
    budget = COLD_BUDGETS[tiny][0]

    plain_pool = concurrent.futures.ProcessPoolExecutor(max_workers=1)
    plain = DesignSpaceService(cache=ResultCache(work / "plain"), jobs=1,
                               instructions=budget, executor=plain_pool,
                               ledger_root=str(work / "plain-ledger"))
    try:
        _, untraced_wall = asyncio.run(_in_process(
            plain, urls, items, checker, None, True))
    finally:
        plain_pool.shutdown(wait=True)
    check_ledger(work / "plain-ledger", cells, ops)

    pool = TimedExecutor(
        concurrent.futures.ProcessPoolExecutor(max_workers=1), tracer)
    try:
        with tracer.span("run") as root:
            _, traced_wall = asyncio.run(_in_process(
                DesignSpaceService(
                    cache=TracedCache(work / "traced", tracer), jobs=1,
                    instructions=budget, executor=pool, runner=pool_runner,
                    ledger_root=str(work / "traced-ledger")),
                urls, items, checker, tracer, True))
    finally:
        pool.shutdown(wait=True)
    payloads = pool.graft()
    ops.check(len(payloads) == len(cells),
              f"{len(payloads)} pool round trips for {len(cells)} cells")

    out = {
        "service.pool_roundtrip_ms": statistics.median(
            p["roundtrip"] - p["seconds"] for p in payloads) * 1e3,
        "service.coalesced_ratio": rate(
            plain.registry.value("service_coalesced_total"),
            plain.registry.value("service_cache_misses_total")),
        "_traced_wall": traced_wall,
        "_untraced_wall": untraced_wall,
    }
    return out, [root["id"]], payloads[-1]["compile"]
