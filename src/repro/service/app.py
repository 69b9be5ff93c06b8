"""The design-space service: asyncio HTTP/JSON over the campaign cache.

One long-running :class:`DesignSpaceService` turns the repo's
design-space queries -- frontier, per-cell SimStats, per-machine
critical paths -- into HTTP endpoints.  The serving story:

* **Hot path**: a request whose cell is in the in-memory memo or the
  on-disk campaign cache is answered directly on the event loop --
  no worker, no queue, sub-millisecond.
* **Miss path**: uncached cells are simulated on the shared
  :class:`~repro.core.pool.WorkerPool` (the campaign's picklable
  :func:`~repro.core.campaign.simulate_cell` worker).  A worker that
  dies breaks the pool; it is rebuilt and the cell retried once, and
  a second loss answers ``503`` + ``Retry-After``.  Concurrent
  requests for the *same* cell coalesce onto one simulation
  (:mod:`repro.service.coalescer`); requests for *distinct* cells
  are admitted only while the number of in-flight simulations is
  under ``queue_depth`` -- beyond it the service sheds load with
  ``503`` + ``Retry-After`` instead of building an unbounded queue.
* **Timeouts**: a waiter that outlives ``request_timeout`` gets
  ``504``; the underlying simulation keeps running and still
  populates the cache for the next request.

Every request is measured into a
:class:`~repro.obs.metrics.MetricsRegistry` (served at
``/v1/metrics`` in Prometheus text form) and every *executed
simulation* appends one ``service`` entry to the run ledger
(:mod:`repro.obs.ledger`) -- cache hits are deliberately not
ledgered per-request, so the hot path stays hot; the coalescing test
pins "N identical concurrent misses, one ledger entry".

The response contract (envelope, error bodies, routes) lives in
:mod:`repro.service.schema` and is documented in ``docs/service.md``.
"""

from __future__ import annotations

import asyncio
import concurrent.futures
import json
import time
from collections import OrderedDict
from concurrent.futures.process import BrokenProcessPool
from typing import Callable
from urllib.parse import parse_qs, urlsplit

from repro.analysis.traces import characterize
from repro.core.campaign import (
    CampaignCell,
    ResultCache,
    cache_key,
    model_fingerprint,
    simulate_cell,
)
from repro.core.experiments import DEFAULT_INSTRUCTIONS
from repro.core.frontier import FrontierPoint, frontier_point
from repro.core.machines import machine_registry
from repro.core.pool import DEFAULT_RETRIES, WorkerPool
from repro.delay.critical_path import critical_path
from repro.obs.metrics import MetricsRegistry, MetricsSnapshot
from repro.service.coalescer import Coalescer
from repro.service.schema import ROUTES, envelope, error_body
from repro.technology import TECHNOLOGIES, technology_by_feature_size
from repro.uarch.config import MachineConfig
from repro.uarch.stats import SimStats
from repro.workloads import WORKLOAD_NAMES
from repro.workloads.registry import (
    WORKLOAD_KINDS,
    WORKLOAD_REGISTRY,
    workload_names,
)

#: Default bound on concurrently in-flight simulations (distinct
#: uncached cells); further misses are rejected with 503.
DEFAULT_QUEUE_DEPTH = 8

#: Largest instruction budget (``n``) a request or the server default
#: may ask for: five times the campaign default.  Every budget is
#: simulated or traced in full, so an unbounded ``n`` could wedge the
#: server.  What stays cached is bounded separately: each process's
#: trace cache holds at most ``TRACE_CACHE_INSTRUCTIONS``
#: (:mod:`repro.workloads.registry`), least recently used out first.
MAX_INSTRUCTIONS = 5 * DEFAULT_INSTRUCTIONS

#: Default per-waiter seconds before a miss request gives up with 504.
DEFAULT_REQUEST_TIMEOUT = 120.0

#: Entries kept in the in-memory hot memo (cache-key -> SimStats).
MEMO_CAPACITY = 4096

#: Latency buckets for the request histogram: sub-millisecond memo
#: hits through multi-minute cold simulations.
REQUEST_SECONDS_BUCKETS = (0.0005, 0.002, 0.01, 0.05, 0.25, 1.0, 5.0,
                           30.0, 120.0)

#: Registry metric names the service maintains.  docs/service.md is
#: pinned to this closed list by the docs-sync suite.
SERVICE_METRIC_NAMES = (
    "service_requests_total",
    "service_request_seconds",
    "service_cache_hits_total",
    "service_cache_misses_total",
    "service_coalesced_total",
    "service_simulations_total",
    "service_rejected_total",
    "service_timeouts_total",
    "service_inflight_requests",
    "service_pending_simulations",
)

_STATUS_PHRASES = {
    200: "OK",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    500: "Internal Server Error",
    503: "Service Unavailable",
    504: "Gateway Timeout",
}


class ServiceError(Exception):
    """A client-visible failure, rendered as a structured error body."""

    def __init__(self, status: int, message: str,
                 detail: dict | None = None,
                 retry_after: float | None = None,
                 headers: dict | None = None) -> None:
        super().__init__(message)
        self.status = status
        self.message = message
        self.detail = detail
        self.headers = dict(headers or {})
        if retry_after is not None:
            self.headers["Retry-After"] = str(max(1, round(retry_after)))


#: The keys of a :func:`point_json` that one cell's ``clocked``
#: entries keep: a single workload has no label or mean of its own.
_CLOCKED_KEYS = ("tech", "clock_ps", "frequency_ghz", "bips", "bounded_by")


def point_json(point: FrontierPoint) -> dict:
    """A frontier point as every service answer renders it, rounded."""
    return {
        "label": point.label,
        "tech": point.tech,
        "window_size": point.window_size,
        "mean_ipc": round(point.mean_ipc, 4),
        "clock_ps": round(point.clock_ps, 3),
        "frequency_ghz": round(point.frequency_ghz, 4),
        "bips": round(point.bips, 4),
        "bounded_by": point.bounded_by,
    }


class DesignSpaceService:
    """The serving tier over the campaign cache.

    Args:
        machines: name -> config grid served (default: the full
            :data:`~repro.core.machines.MACHINE_REGISTRY`).
        cache: campaign :class:`ResultCache` (or ``cache_dir`` to
            build one; ``cache=None`` with ``cache_dir=None`` serves
            memo-only, for tests).
        jobs: worker processes in the simulation pool.
        queue_depth: max concurrently in-flight simulations before
            misses are shed with 503.
        request_timeout: per-waiter seconds before a miss answers 504.
        instructions: default per-cell instruction budget (at most
            :data:`MAX_INSTRUCTIONS`).
        registry: metrics registry (default: a private one).
        ledger_root: run-ledger directory override (None = resolve
            ``REPRO_LEDGER_DIR`` / default, as everywhere else).
        runner: cell executor override (tests inject slow/failing
            cells); defaults to the campaign's ``simulate_cell``.
        executor: pre-built executor override (tests pass a thread
            pool so non-picklable runners work; it is never rebuilt);
            defaults to a :class:`~repro.core.pool.WorkerPool` of
            ``jobs`` processes, built on the first miss.
    """

    def __init__(
        self,
        machines: dict[str, MachineConfig] | None = None,
        cache: ResultCache | None = None,
        cache_dir: str | None = ".repro-cache",
        jobs: int = 1,
        queue_depth: int = DEFAULT_QUEUE_DEPTH,
        request_timeout: float = DEFAULT_REQUEST_TIMEOUT,
        instructions: int = DEFAULT_INSTRUCTIONS,
        registry: MetricsRegistry | None = None,
        ledger_root: str | None = None,
        runner: Callable[[CampaignCell], dict] | None = None,
        executor: concurrent.futures.Executor | None = None,
    ) -> None:
        if jobs < 1:
            raise ValueError(f"jobs must be >= 1, got {jobs}")
        if queue_depth < 1:
            raise ValueError(f"queue_depth must be >= 1, got {queue_depth}")
        if not 0 < instructions <= MAX_INSTRUCTIONS:
            raise ValueError(f"instructions must be in 1..{MAX_INSTRUCTIONS}, "
                             f"got {instructions}")
        self.machines = dict(machines if machines is not None
                             else machine_registry())
        if cache is None and cache_dir is not None:
            cache = ResultCache(cache_dir)
        self.cache = cache
        self.jobs = jobs
        self.queue_depth = queue_depth
        self.request_timeout = request_timeout
        self.default_instructions = instructions
        self.registry = registry if registry is not None else MetricsRegistry()
        self.ledger_root = ledger_root
        self.runner = runner or simulate_cell
        self.pool = WorkerPool(jobs, self.registry, executor)
        self.coalescer = Coalescer()
        self._memo: OrderedDict[str, SimStats] = OrderedDict()
        self._started = time.time()
        self._sim_seconds_total = 0.0
        self._server: asyncio.AbstractServer | None = None

    # -- lifecycle -------------------------------------------------------

    def close(self) -> None:
        """Stop the worker pool's processes (idempotent)."""
        self.pool.close()

    async def start(self, host: str = "127.0.0.1",
                    port: int = 0) -> asyncio.AbstractServer:
        """Bind and return the listening server (port 0 = ephemeral)."""
        self._server = await asyncio.start_server(
            self._handle_connection, host, port
        )
        return self._server

    async def serve(self, host: str = "127.0.0.1", port: int = 8787) -> None:
        """Bind and serve until cancelled (the ``repro serve`` loop)."""
        server = await self.start(host, port)
        async with server:
            await server.serve_forever()

    # -- metrics helpers -------------------------------------------------

    def _count_request(self, route: str, status: int,
                       seconds: float) -> None:
        self.registry.counter(
            "service_requests_total", "HTTP requests answered"
        ).inc(1, {"route": route, "status": str(status)})
        self.registry.histogram(
            "service_request_seconds", "Request latency",
            buckets=REQUEST_SECONDS_BUCKETS,
        ).observe(seconds, {"route": route})

    def _retry_after_hint(self) -> float:
        """Seconds a shed client should back off: the mean observed
        simulation time (1s floor) -- honest, not magic."""
        sims = self.registry.value("service_simulations_total")
        if sims <= 0:
            return 1.0
        return max(1.0, self._sim_seconds_total / sims)

    # -- cell resolution (memo -> cache -> coalesced simulation) ---------

    def _memo_get(self, key: str) -> SimStats | None:
        stats = self._memo.get(key)
        if stats is not None:
            self._memo.move_to_end(key)
        return stats

    def _memo_put(self, key: str, stats: SimStats) -> None:
        self._memo[key] = stats
        self._memo.move_to_end(key)
        while len(self._memo) > MEMO_CAPACITY:
            self._memo.popitem(last=False)

    async def cell_stats(self, machine: str, workload: str,
                         max_instructions: int
                         ) -> tuple[SimStats, str, str]:
        """Resolve one cell; returns ``(stats, source, cache_key)``.

        ``source`` is ``"memory"``, ``"cache"``, or ``"simulated"``
        (coalesced joiners also report ``"simulated"``).

        Raises:
            ServiceError: 503 when the cell is uncached and the
                simulation queue is full, or when its simulation lost
                its worker on the retry too; 504 when this waiter's
                ``request_timeout`` elapses first.
        """
        config = self.machines[machine]
        key = cache_key(config, workload, max_instructions)
        stats = self._memo_get(key)
        if stats is not None:
            self.registry.counter(
                "service_cache_hits_total", "Cells served from cache"
            ).inc(1, {"tier": "memory"})
            return stats, "memory", key
        if self.cache is not None:
            stats = self.cache.load(key)
            if stats is not None:
                self._memo_put(key, stats)
                self.registry.counter(
                    "service_cache_hits_total", "Cells served from cache"
                ).inc(1, {"tier": "disk"})
                return stats, "cache", key
        self.registry.counter(
            "service_cache_misses_total", "Cells that required simulation"
        ).inc()
        # Admission control: joining an in-flight simulation is free;
        # *new* work is bounded by queue_depth.
        if (not self.coalescer.is_inflight(key)
                and self.coalescer.inflight >= self.queue_depth):
            self.registry.counter(
                "service_rejected_total", "Misses shed with 503"
            ).inc()
            raise ServiceError(
                503,
                f"simulation queue full ({self.coalescer.inflight} "
                f"in flight, depth {self.queue_depth}); retry later",
                detail={"pending": self.coalescer.inflight,
                        "queue_depth": self.queue_depth},
                retry_after=self._retry_after_hint(),
            )
        cell = CampaignCell(machine, config, workload, max_instructions)
        try:
            stats, leader = await self.coalescer.join(
                key,
                lambda: self._simulate(cell, key),
                timeout=self.request_timeout,
            )
        except asyncio.TimeoutError:
            self.registry.counter(
                "service_timeouts_total", "Waiters that hit 504"
            ).inc()
            raise ServiceError(
                504,
                f"simulation exceeded the {self.request_timeout:g}s "
                "request timeout (it continues in the background and "
                "will be cached)",
                detail={"machine": machine, "workload": workload,
                        "instructions": max_instructions},
            ) from None
        if not leader:
            self.registry.counter(
                "service_coalesced_total",
                "Requests that joined an in-flight simulation",
            ).inc()
        return stats, "simulated", key

    async def _simulate(self, cell: CampaignCell, key: str) -> SimStats:
        """Leader path: run one cell on the pool, cache and ledger it."""
        self.registry.gauge(
            "service_pending_simulations", "In-flight simulations"
        ).set(self.coalescer.inflight)
        try:
            payload = await self.pool.run(self.runner, cell,
                                          DEFAULT_RETRIES)
        except BrokenProcessPool:
            raise ServiceError(
                503,
                "the simulation lost its worker process on every "
                f"attempt ({DEFAULT_RETRIES + 1}); retry later",
                detail={"machine": cell.machine, "workload": cell.workload,
                        "instructions": cell.max_instructions},
                retry_after=self._retry_after_hint(),
            ) from None
        stats = SimStats.from_dict(payload["stats"])
        seconds = float(payload.get("seconds", 0.0))
        self._sim_seconds_total += seconds
        if self.cache is not None:
            self.cache.store(key, stats)
        self._memo_put(key, stats)
        self.registry.counter(
            "service_simulations_total", "Simulations executed"
        ).inc()
        snapshot = payload.get("metrics")
        if snapshot:
            try:
                self.registry.merge_snapshot(
                    MetricsSnapshot.from_dict(snapshot))
            except ValueError:
                pass  # foreign worker payloads are not load-bearing
        self._ledger_simulation(cell, key, stats, seconds)
        return stats

    def _ledger_simulation(self, cell: CampaignCell, key: str,
                           stats: SimStats, seconds: float) -> None:
        """One ledger entry per *executed* simulation (never per hit)."""
        from repro.obs.ledger import record_run

        try:
            record_run(
                "service",
                wall_seconds=seconds,
                instructions_per_second=(stats.committed / seconds
                                         if seconds > 0 else 0.0),
                simulated_cells=1,
                cell_count=1,
                config_hash=key,
                extra={"machine": cell.machine, "workload": cell.workload,
                       "instructions": cell.max_instructions},
                root=self.ledger_root,
            )
        except Exception:  # pragma: no cover - environment-specific
            pass  # the ledger is advisory, never availability-bearing

    # -- parameter validation --------------------------------------------

    def _require_machine(self, name: str) -> MachineConfig:
        config = self.machines.get(name)
        if config is None:
            raise ServiceError(
                404, f"unknown machine {name!r}",
                detail={"known": sorted(self.machines)},
            )
        return config

    @staticmethod
    def _require_workload(name: str) -> str:
        if name not in WORKLOAD_REGISTRY:
            raise ServiceError(
                404, f"unknown workload {name!r}",
                detail={"known": list(workload_names())},
            )
        return name

    @staticmethod
    def _techs_param(value: str):
        if value == "all":
            return list(TECHNOLOGIES)
        try:
            feature = float(value)
        except ValueError:
            raise ServiceError(
                400, f"tech must be a feature size or 'all', got {value!r}"
            ) from None
        try:
            return [technology_by_feature_size(feature)]
        except (KeyError, ValueError):
            raise ServiceError(
                404, f"unknown technology node {value!r}",
                detail={"known": [t.feature_size_um for t in TECHNOLOGIES]},
            ) from None

    @staticmethod
    def _budget_param(params: dict, default: int) -> int:
        """The ``n`` instruction budget: an integer in
        ``1..MAX_INSTRUCTIONS``."""
        raw = params.get("n")
        if raw is None:
            return default
        try:
            value = int(raw)
        except ValueError:
            raise ServiceError(
                400, f"n must be an integer, got {raw!r}"
            ) from None
        if value <= 0:
            raise ServiceError(400, f"n must be positive, got {value}")
        if value > MAX_INSTRUCTIONS:
            raise ServiceError(
                400, f"n must be at most {MAX_INSTRUCTIONS}, got {value}",
                detail={"max": MAX_INSTRUCTIONS},
            )
        return value

    @staticmethod
    def _parse_query(query: str, allowed: tuple[str, ...]) -> dict[str, str]:
        """Single-valued query params; unknown or repeated keys are 400."""
        parsed = parse_qs(query, keep_blank_values=True,
                          strict_parsing=False)
        params: dict[str, str] = {}
        for key, values in parsed.items():
            if key not in allowed:
                raise ServiceError(
                    400, f"unknown query parameter {key!r}",
                    detail={"allowed": list(allowed)},
                )
            if len(values) != 1:
                raise ServiceError(400, f"repeated query parameter {key!r}")
            params[key] = values[0]
        return params

    # -- endpoint handlers -----------------------------------------------

    async def _route_healthz(self, params: dict) -> dict:
        return envelope({
            "status": "ok",
            "uptime_seconds": round(time.time() - self._started, 3),
            "machines": len(self.machines),
            "workloads": list(WORKLOAD_NAMES),
            "registered_workloads": len(WORKLOAD_REGISTRY),
            "jobs": self.jobs,
            "queue_depth": self.queue_depth,
            "pending_simulations": self.coalescer.inflight,
            "default_instructions": self.default_instructions,
            "cache_dir": str(self.cache.root) if self.cache else None,
        })

    async def _route_machines(self, params: dict) -> dict:
        entries = []
        for name in sorted(self.machines):
            config = self.machines[name]
            entries.append({
                "name": name,
                "machine": config.name,
                "clusters": len(config.clusters),
                "total_capacity": config.total_capacity,
                "steering": config.steering.value,
                "strategy": (f"sched:{config.scheduler}"
                             f"+regfile:{config.regfile}"),
            })
        return envelope({
            "machines": entries,
            "workloads": list(WORKLOAD_NAMES),
            "default_instructions": self.default_instructions,
        })

    async def _route_workloads(self, params: dict) -> dict:
        """The workload registry: listing, identity, characterization.

        ``?kind=`` filters by workload kind; ``?workload=<name>``
        additionally runs (and returns) that one workload's trace
        characterization at ``?n=`` instructions (bounded separately
        from the simulation budget -- profiling is trace generation
        plus analysis, not simulation).
        """
        kind = params.get("kind")
        if kind is not None and kind not in WORKLOAD_KINDS:
            raise ServiceError(
                400, f"unknown workload kind {kind!r}",
                detail={"known": list(WORKLOAD_KINDS)},
            )
        entries = []
        for name in workload_names(kind):
            workload = WORKLOAD_REGISTRY[name]
            entries.append({
                "name": name,
                "kind": workload.kind,
                "description": workload.description,
                "fingerprint": workload.fingerprint(),
            })
        data = {
            "workloads": entries,
            "count": len(entries),
            "model_fingerprint": model_fingerprint(),
        }
        if "workload" in params:
            name = self._require_workload(params["workload"])
            budget = self._budget_param(params, 5_000)
            data["profile"] = characterize(name, budget)
        return envelope(data)

    async def _route_cell(self, params: dict) -> dict:
        for required in ("machine", "workload"):
            if required not in params:
                raise ServiceError(
                    400, f"missing required query parameter {required!r}"
                )
        config = self._require_machine(params["machine"])
        workload = self._require_workload(params["workload"])
        budget = self._budget_param(params, self.default_instructions)
        stats, source, key = await self.cell_stats(
            params["machine"], workload, budget
        )
        data = {
            "machine": params["machine"],
            "workload": workload,
            "instructions": budget,
            "source": source,
            "cache_key": key,
        }
        if "tech" in params:
            clocked = []
            for tech in self._techs_param(params["tech"]):
                point = point_json(frontier_point(
                    f"{params['machine']}@{tech.name}", config, tech,
                    {workload: stats}))
                clocked.append({key: point[key] for key in _CLOCKED_KEYS})
            data["clocked"] = clocked
        data["stats"] = stats.to_dict()
        return envelope(data)

    async def _route_frontier(self, params: dict) -> dict:
        techs = self._techs_param(params.get("tech", "0.18"))
        budget = self._budget_param(params, self.default_instructions)
        if "machines" in params:
            names = [n for n in params["machines"].split(",") if n]
            if not names:
                raise ServiceError(400, "machines must name at least one "
                                        "registered shape")
            for name in names:
                self._require_machine(name)
        else:
            names = sorted(self.machines)
        # Resolve every (machine, workload) cell concurrently, but pace
        # this request's own misses under the queue depth -- one cold
        # frontier must not overload-reject itself; 503 is reserved for
        # pressure from *other* concurrent traffic.
        cells = [(name, workload) for name in names
                 for workload in WORKLOAD_NAMES]
        limit = asyncio.Semaphore(max(1, min(self.jobs, self.queue_depth)))

        async def resolve(name: str, workload: str):
            async with limit:
                return await self.cell_stats(name, workload, budget)

        resolved = await asyncio.gather(*[
            resolve(name, workload) for name, workload in cells
        ])
        per_machine: dict[str, dict[str, SimStats]] = {}
        sources: dict[str, int] = {}
        for (name, workload), (stats, source, _) in zip(cells, resolved):
            per_machine.setdefault(name, {})[workload] = stats
            sources[source] = sources.get(source, 0) + 1
        points = [
            {"machine": name, **point_json(frontier_point(
                f"{name}@{tech.name}", self.machines[name], tech,
                per_machine[name]))}
            for tech in techs
            for name in names
        ]
        return envelope({
            "instructions": budget,
            "workloads": list(WORKLOAD_NAMES),
            "points": points,
            "sources": dict(sorted(sources.items())),
        })

    async def _route_delay(self, machine: str, params: dict) -> dict:
        config = self._require_machine(machine)
        techs = self._techs_param(params.get("tech", "all"))
        breakdowns = []
        for tech in techs:
            path = critical_path(config, tech)
            breakdowns.append({
                "tech": tech.name,
                "clock_ps": round(path.clock_ps, 3),
                "frequency_ghz": round(path.frequency_ghz, 4),
                "bounded_by": path.bounding_structure.label,
                "structures": [
                    {"label": label, "delay_ps": round(delay, 3),
                     "flags": flags}
                    for label, delay, flags in path.rows()
                ],
            })
        return envelope({
            "machine": machine,
            "config": config.name,
            "techs": breakdowns,
        })

    # -- HTTP dispatch ---------------------------------------------------

    async def handle_http(
        self, method: str, target: str
    ) -> tuple[int, dict[str, str], bytes]:
        """One request -> ``(status, headers, body)``.

        This is the full service behaviour minus the socket layer;
        the tests drive it directly and the connection handler wraps
        it, so both see identical semantics.
        """
        started = time.perf_counter()
        inflight = self.registry.gauge(
            "service_inflight_requests", "Requests currently being handled"
        )
        inflight.set(inflight.value() + 1)
        split = urlsplit(target)
        route = self._route_label(split.path)
        try:
            status, headers, body = await self._dispatch(
                method, split.path, split.query
            )
        except ServiceError as error:
            status = error.status
            headers = dict(error.headers)
            headers["Content-Type"] = "application/json; charset=utf-8"
            body = _json_bytes(error_body(error.status, error.message,
                                          error.detail))
        except Exception as error:  # noqa: BLE001 - the server must answer
            status = 500
            headers = {"Content-Type": "application/json; charset=utf-8"}
            body = _json_bytes(error_body(
                500, f"{type(error).__name__}: {error}"
            ))
        finally:
            inflight.set(max(0.0, inflight.value() - 1))
        self._count_request(route, status, time.perf_counter() - started)
        if method == "HEAD":
            body = b""
        return status, headers, body

    def _route_label(self, path: str) -> str:
        """The matched route pattern (bounded metric cardinality)."""
        if path.startswith("/v1/delay/"):
            return "/v1/delay/<machine>"
        if path in ("/v1/healthz", "/v1/machines", "/v1/workloads",
                    "/v1/frontier", "/v1/cell", "/v1/metrics"):
            return path
        return "<unknown>"

    async def _dispatch(
        self, method: str, path: str, query: str
    ) -> tuple[int, dict[str, str], bytes]:
        if method not in ("GET", "HEAD"):
            raise ServiceError(
                405, f"method {method} not allowed (read-only service)",
                headers={"Allow": "GET, HEAD"},
            )
        if path == "/v1/metrics":
            from repro.obs.export import prometheus_text

            text = prometheus_text(self.registry.snapshot())
            return 200, {
                "Content-Type": "text/plain; version=0.0.4; charset=utf-8"
            }, text.encode("utf-8")
        json_headers = {"Content-Type": "application/json; charset=utf-8"}
        if path == "/v1/healthz":
            params = self._parse_query(query, ())
            return 200, json_headers, _json_bytes(
                await self._route_healthz(params))
        if path == "/v1/machines":
            params = self._parse_query(query, ())
            return 200, json_headers, _json_bytes(
                await self._route_machines(params))
        if path == "/v1/workloads":
            params = self._parse_query(query, ("kind", "workload", "n"))
            return 200, json_headers, _json_bytes(
                await self._route_workloads(params))
        if path == "/v1/cell":
            params = self._parse_query(
                query, ("machine", "workload", "n", "tech"))
            return 200, json_headers, _json_bytes(
                await self._route_cell(params))
        if path == "/v1/frontier":
            params = self._parse_query(query, ("tech", "n", "machines"))
            return 200, json_headers, _json_bytes(
                await self._route_frontier(params))
        if path.startswith("/v1/delay/"):
            params = self._parse_query(query, ("tech",))
            machine = path[len("/v1/delay/"):]
            return 200, json_headers, _json_bytes(
                await self._route_delay(machine, params))
        raise ServiceError(
            404, f"no route for {path!r}",
            detail={"routes": list(ROUTES)},
        )

    # -- the socket layer ------------------------------------------------

    async def _handle_connection(self, reader: asyncio.StreamReader,
                                 writer: asyncio.StreamWriter) -> None:
        """Minimal HTTP/1.1 with keep-alive; one request at a time."""
        try:
            while True:
                request_line = await reader.readline()
                if not request_line or request_line in (b"\r\n", b"\n"):
                    break
                try:
                    method, target, version = (
                        request_line.decode("latin-1").split()
                    )
                except ValueError:
                    writer.write(_render(400, {
                        "Content-Type": "application/json; charset=utf-8",
                    }, _json_bytes(error_body(400, "malformed request line")),
                        keep_alive=False))
                    await writer.drain()
                    break
                keep_alive = version != "HTTP/1.0"
                content_length = 0
                bad_headers = False
                while True:
                    line = await reader.readline()
                    if line in (b"\r\n", b"\n", b""):
                        break
                    name, sep, value = line.decode("latin-1").partition(":")
                    if not sep:
                        bad_headers = True
                        continue
                    name = name.strip().lower()
                    value = value.strip()
                    if name == "connection":
                        keep_alive = value.lower() != "close"
                    elif name == "content-length":
                        try:
                            content_length = int(value)
                        except ValueError:
                            bad_headers = True
                if bad_headers:
                    writer.write(_render(400, {
                        "Content-Type": "application/json; charset=utf-8",
                    }, _json_bytes(error_body(400, "malformed header")),
                        keep_alive=False))
                    await writer.drain()
                    break
                if content_length:
                    await reader.readexactly(content_length)
                status, headers, body = await self.handle_http(method, target)
                writer.write(_render(status, headers, body,
                                     keep_alive=keep_alive))
                await writer.drain()
                if not keep_alive:
                    break
        except (ConnectionResetError, asyncio.IncompleteReadError):
            pass  # client went away; nothing to answer
        except asyncio.CancelledError:
            # Server shutdown while this connection idled in readline();
            # exit quietly (stdlib streams would otherwise log the
            # retrieved CancelledError from its connection_made hook).
            pass
        finally:
            writer.close()


def _json_bytes(payload: dict) -> bytes:
    """Deterministic response serialisation (sorted keys)."""
    return json.dumps(payload, sort_keys=True,
                      ensure_ascii=False).encode("utf-8")


def _render(status: int, headers: dict[str, str], body: bytes,
            keep_alive: bool) -> bytes:
    """Assemble one HTTP/1.1 response."""
    phrase = _STATUS_PHRASES.get(status, "Unknown")
    lines = [f"HTTP/1.1 {status} {phrase}"]
    out = dict(headers)
    out.setdefault("Content-Type", "application/json; charset=utf-8")
    out["Content-Length"] = str(len(body))
    out["Connection"] = "keep-alive" if keep_alive else "close"
    for name, value in out.items():
        lines.append(f"{name}: {value}")
    head = ("\r\n".join(lines) + "\r\n\r\n").encode("latin-1")
    return head + body
