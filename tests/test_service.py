"""The design-space service: contract, failure modes, coalescing.

Most tests drive :meth:`DesignSpaceService.handle_http` directly --
it is the whole service minus the socket layer, so routing, errors,
coalescing, overload, and timeouts are all exercised without binding
a port.  One socket-layer class at the end proves the HTTP framing
and the shared load-generation client against a real listener.

Simulations are stubbed with an injected ``runner`` on a thread pool
(the production default is a process pool over the campaign's
``simulate_cell``; the payload contract is identical), so the suite
is fast and can block/fail/count simulations deterministically.
"""

from __future__ import annotations

import asyncio
import concurrent.futures
import json
import threading

import pytest

from repro.core import results_io
from repro.core.campaign import cache_key, simulate_cell
from repro.core.frontier import design_space_frontier, frontier_point
from repro.obs.ledger import Ledger
from repro.service import (
    ERROR_CODES,
    ROUTES,
    SERVICE_SCHEMA,
    DesignSpaceService,
    envelope,
    error_body,
)
from repro.service.app import MAX_INSTRUCTIONS
from repro.service.coalescer import Coalescer
from repro.service.loadgen import get_json, run_burst
from repro.technology import TECHNOLOGIES
from repro.uarch.stats import SimStats
from repro.workloads import WORKLOAD_NAMES


def run(coro):
    return asyncio.run(coro)


class CountingRunner:
    """A fake ``simulate_cell`` that counts invocations (thread-safe)
    and can block on an event or raise on demand."""

    def __init__(self, delay: float = 0.0,
                 gate: threading.Event | None = None,
                 fail: bool = False) -> None:
        self.calls = 0
        self.delay = delay
        self.gate = gate
        self.fail = fail
        self._lock = threading.Lock()

    def __call__(self, cell) -> dict:
        with self._lock:
            self.calls += 1
        if self.gate is not None:
            assert self.gate.wait(10.0), "test gate never opened"
        if self.delay:
            import time

            time.sleep(self.delay)
        if self.fail:
            raise RuntimeError("injected simulation failure")
        stats = SimStats(machine=cell.machine, workload=cell.workload,
                         committed=cell.max_instructions,
                         cycles=max(1, cell.max_instructions // 2))
        return {"stats": stats.to_dict(), "seconds": 0.01, "metrics": None}


def make_service(tmp_path=None, **kwargs) -> DesignSpaceService:
    """A service with a thread-pool executor and a fake runner."""
    kwargs.setdefault("runner", CountingRunner())
    kwargs.setdefault(
        "executor", concurrent.futures.ThreadPoolExecutor(max_workers=4))
    kwargs.setdefault("cache_dir",
                      str(tmp_path / "cache") if tmp_path else None)
    kwargs.setdefault("instructions", 500)
    return DesignSpaceService(**kwargs)


async def get(service, target, method="GET"):
    status, headers, body = await service.handle_http(method, target)
    payload = json.loads(body) if body else {}
    return status, headers, payload


# ----------------------------------------------------------------------
# contract: envelope and error bodies
# ----------------------------------------------------------------------


class TestSchema:
    def test_envelope_carries_versions(self):
        payload = envelope({"x": 1})
        assert payload["schema"] == SERVICE_SCHEMA
        assert payload["stats_format"] == results_io.FORMAT_VERSION
        assert payload["x"] == 1

    def test_envelope_reads_format_version_at_call_time(self, monkeypatch):
        before = envelope({})["stats_format"]
        monkeypatch.setattr(results_io, "FORMAT_VERSION",
                            results_io.FORMAT_VERSION + 1)
        assert envelope({})["stats_format"] == before + 1

    def test_error_body_structure(self):
        body = error_body(404, "nope", detail={"known": []})
        assert body["schema"] == SERVICE_SCHEMA
        error = body["error"]
        assert error["status"] == 404
        assert error["code"] == "not_found"
        assert error["message"] == "nope"
        assert error["detail"] == {"known": []}

    def test_every_error_code_is_stable(self):
        assert ERROR_CODES == {400: "bad_request", 404: "not_found",
                               405: "method_not_allowed",
                               500: "internal_error", 503: "overloaded",
                               504: "simulation_timeout"}


# ----------------------------------------------------------------------
# the coalescer in isolation
# ----------------------------------------------------------------------


class TestCoalescer:
    def test_single_flight_per_key(self):
        async def scenario():
            coalescer = Coalescer()
            calls = 0

            async def work():
                nonlocal calls
                calls += 1
                await asyncio.sleep(0.01)
                return "result"

            results = await asyncio.gather(*[
                coalescer.join("k", work) for _ in range(16)
            ])
            assert calls == 1
            assert all(value == "result" for value, _ in results)
            assert sum(1 for _, leader in results if leader) == 1
            assert coalescer.inflight == 0

        run(scenario())

    def test_waiter_timeout_does_not_cancel_the_work(self):
        async def scenario():
            coalescer = Coalescer()
            finished = asyncio.Event()

            async def work():
                await asyncio.sleep(0.05)
                finished.set()
                return 42

            with pytest.raises(asyncio.TimeoutError):
                await coalescer.join("k", work, timeout=0.005)
            # The shared task survives the impatient waiter.
            value, leader = await coalescer.join("k", work, timeout=5.0)
            assert value == 42 and not leader
            assert finished.is_set()

        run(scenario())

    def test_failure_propagates_and_clears_the_key(self):
        async def scenario():
            coalescer = Coalescer()

            async def explode():
                raise RuntimeError("boom")

            with pytest.raises(RuntimeError):
                await coalescer.join("k", explode)
            assert not coalescer.is_inflight("k")

        run(scenario())


# ----------------------------------------------------------------------
# routing and failure modes
# ----------------------------------------------------------------------


class TestRouting:
    def test_healthz(self, tmp_path):
        service = make_service(tmp_path)
        status, _, payload = run(get(service, "/v1/healthz"))
        assert status == 200
        assert payload["status"] == "ok"
        assert payload["workloads"] == list(WORKLOAD_NAMES)
        assert payload["schema"] == SERVICE_SCHEMA

    def test_machines_lists_the_registry(self, tmp_path):
        service = make_service(tmp_path)
        status, _, payload = run(get(service, "/v1/machines"))
        assert status == 200
        names = [m["name"] for m in payload["machines"]]
        assert "baseline" in names and names == sorted(names)
        strategies = {m["name"]: m["strategy"] for m in payload["machines"]}
        assert strategies["baseline"] == "sched:conventional+regfile:unlimited"
        assert strategies["ports_limited"] == (
            "sched:conventional+regfile:ports_limited")

    def test_workloads_lists_the_registry(self, tmp_path):
        from repro.core.campaign import model_fingerprint
        from repro.workloads.registry import workload_names

        service = make_service(tmp_path)
        status, _, payload = run(get(service, "/v1/workloads"))
        assert status == 200
        names = [w["name"] for w in payload["workloads"]]
        assert tuple(names) == workload_names()  # registration order
        assert names[: len(WORKLOAD_NAMES)] == list(WORKLOAD_NAMES)
        assert payload["count"] == len(names)
        assert payload["model_fingerprint"] == model_fingerprint()
        assert "workload_version" not in payload
        for entry in payload["workloads"]:
            assert entry["kind"] in ("kernel", "synthetic", "external")
            assert entry["description"]
            assert len(entry["fingerprint"]) == 64

    def test_workloads_kind_filter(self, tmp_path):
        service = make_service(tmp_path)
        status, _, payload = run(
            get(service, "/v1/workloads?kind=synthetic"))
        assert status == 200
        assert payload["workloads"]
        assert all(w["name"].startswith("zoo_")
                   for w in payload["workloads"])

    def test_workloads_bad_kind_is_400(self, tmp_path):
        service = make_service(tmp_path)
        status, _, payload = run(get(service, "/v1/workloads?kind=jpeg"))
        assert status == 400
        assert payload["error"]["code"] == "bad_request"
        assert "kernel" in payload["error"]["detail"]["known"]

    def test_workloads_profile(self, tmp_path):
        service = make_service(tmp_path)
        status, _, payload = run(
            get(service, "/v1/workloads?workload=zoo_br_coin&n=600"))
        assert status == 200
        profile = payload["profile"]
        assert profile["name"] == "zoo_br_coin"
        assert profile["kind"] == "synthetic"
        assert 0 < profile["instructions"] <= 600
        assert 0.0 < profile["branch_fraction"] < 1.0

    def test_workloads_unknown_profile_is_404(self, tmp_path):
        service = make_service(tmp_path)
        status, _, payload = run(
            get(service, "/v1/workloads?workload=nope"))
        assert status == 404
        assert "li" in payload["error"]["detail"]["known"]

    def test_delay_breakdown(self, tmp_path):
        service = make_service(tmp_path)
        status, _, payload = run(get(service, "/v1/delay/baseline?tech=0.18"))
        assert status == 200
        (tech,) = payload["techs"]
        assert tech["tech"] == "0.18um"
        assert tech["clock_ps"] > 0
        assert any(s["delay_ps"] > 0 for s in tech["structures"])

    def test_unknown_route_is_404(self, tmp_path):
        service = make_service(tmp_path)
        status, _, payload = run(get(service, "/v1/nope"))
        assert status == 404
        assert payload["error"]["code"] == "not_found"
        assert set(payload["error"]["detail"]["routes"]) == set(ROUTES)

    def test_non_get_is_405_with_allow_header(self, tmp_path):
        service = make_service(tmp_path)
        status, headers, payload = run(get(service, "/v1/cell",
                                           method="POST"))
        assert status == 405
        assert headers["Allow"] == "GET, HEAD"
        assert payload["error"]["code"] == "method_not_allowed"

    def test_head_gets_headers_without_body(self, tmp_path):
        service = make_service(tmp_path)

        async def scenario():
            status, _, body = await service.handle_http(
                "HEAD", "/v1/healthz")
            assert status == 200 and body == b""

        run(scenario())

    def test_metrics_endpoint_is_prometheus_text(self, tmp_path):
        service = make_service(tmp_path)

        async def scenario():
            await service.handle_http("GET", "/v1/healthz")
            status, headers, body = await service.handle_http(
                "GET", "/v1/metrics")
            assert status == 200
            assert headers["Content-Type"].startswith("text/plain")
            assert b"service_requests_total" in body

        run(scenario())


class TestFailureModes:
    """Satellite: every client-visible failure is structured."""

    @pytest.mark.parametrize("target,fragment", [
        ("/v1/cell?workload=gcc", "machine"),
        ("/v1/cell?machine=baseline", "workload"),
        ("/v1/cell?machine=baseline&workload=gcc&n=frog", "integer"),
        ("/v1/cell?machine=baseline&workload=gcc&n=-3", "positive"),
        ("/v1/cell?machine=baseline&workload=gcc&bogus=1", "bogus"),
        ("/v1/frontier?tech=fast", "tech"),
        ("/v1/frontier?machines=", "at least one"),
    ])
    def test_malformed_params_are_400(self, tmp_path, target, fragment):
        service = make_service(tmp_path)
        status, _, payload = run(get(service, target))
        assert status == 400
        assert payload["error"]["code"] == "bad_request"
        assert fragment in payload["error"]["message"]

    @pytest.mark.parametrize("target", [
        "/v1/cell?machine=baseline&workload=gcc&n={n}",
        "/v1/frontier?n={n}",
        "/v1/workloads?workload=gcc&n={n}",
    ])
    def test_budget_above_the_bound_is_400(self, tmp_path, target):
        runner = CountingRunner()
        service = make_service(tmp_path, runner=runner)
        status, _, payload = run(get(
            service, target.format(n=MAX_INSTRUCTIONS + 1)))
        assert status == 400
        assert payload["error"]["detail"] == {"max": MAX_INSTRUCTIONS}
        assert runner.calls == 0
        status, _, _ = run(get(
            service, "/v1/cell?machine=baseline&workload=gcc"
                     f"&n={MAX_INSTRUCTIONS}"))
        assert status == 200

    @pytest.mark.parametrize("instructions", [0, MAX_INSTRUCTIONS + 1])
    def test_default_budget_outside_the_bound_is_refused(self, instructions):
        with pytest.raises(ValueError, match="instructions"):
            DesignSpaceService(cache_dir=None, instructions=instructions)

    @pytest.mark.parametrize("target", [
        "/v1/cell?machine=quantum&workload=gcc",
        "/v1/cell?machine=baseline&workload=linpack",
        "/v1/cell?machine=baseline&workload=gcc&tech=0.5",
        "/v1/delay/quantum",
    ])
    def test_unknown_names_are_404(self, tmp_path, target):
        service = make_service(tmp_path)
        status, _, payload = run(get(service, target))
        assert status == 404
        assert payload["error"]["code"] == "not_found"
        assert "known" in payload["error"]["detail"]

    def test_overload_is_503_with_retry_after(self, tmp_path):
        gate = threading.Event()
        service = make_service(tmp_path, runner=CountingRunner(gate=gate),
                               queue_depth=1)

        async def scenario():
            first = asyncio.ensure_future(
                get(service, "/v1/cell?machine=baseline&workload=gcc"))
            while service.coalescer.inflight < 1:
                await asyncio.sleep(0.001)
            # Distinct cell while the only queue slot is taken -> shed.
            status, headers, payload = await get(
                service, "/v1/cell?machine=baseline&workload=compress")
            assert status == 503
            assert payload["error"]["code"] == "overloaded"
            assert int(headers["Retry-After"]) >= 1
            # Same cell as the in-flight one still joins (coalesced,
            # never shed).
            joined = asyncio.ensure_future(
                get(service, "/v1/cell?machine=baseline&workload=gcc"))
            gate.set()
            status, _, payload = await first
            assert status == 200 and payload["source"] == "simulated"
            status, _, _ = await joined
            assert status == 200

        run(scenario())

    def test_simulation_timeout_is_504_and_still_caches(self, tmp_path):
        runner = CountingRunner(delay=0.2)
        service = make_service(tmp_path, runner=runner,
                               request_timeout=0.02)

        async def scenario():
            status, _, payload = await get(
                service, "/v1/cell?machine=baseline&workload=gcc")
            assert status == 504
            assert payload["error"]["code"] == "simulation_timeout"
            # The shielded simulation finishes and lands in the cache.
            while service.coalescer.inflight:
                await asyncio.sleep(0.01)
            status, _, payload = await get(
                service, "/v1/cell?machine=baseline&workload=gcc")
            assert status == 200
            assert payload["source"] in ("memory", "cache")
            assert runner.calls == 1

        run(scenario())

    def test_worker_failure_is_500_and_retried_next_time(self, tmp_path):
        service = make_service(tmp_path, runner=CountingRunner(fail=True))

        async def scenario():
            status, _, payload = await get(
                service, "/v1/cell?machine=baseline&workload=gcc")
            assert status == 500
            assert payload["error"]["code"] == "internal_error"
            # A failed simulation is never memoised; the key is free.
            assert not service.coalescer.is_inflight(
                cache_key(service.machines["baseline"], "gcc",
                          service.default_instructions))

        run(scenario())


# ----------------------------------------------------------------------
# coalescing: N identical concurrent misses, one simulation
# ----------------------------------------------------------------------


class TestCoalescedServing:
    def test_n_concurrent_misses_one_simulation_one_ledger_entry(
            self, tmp_path):
        runner = CountingRunner(delay=0.05)
        service = make_service(tmp_path, runner=runner)
        target = "/v1/cell?machine=baseline&workload=gcc"

        async def scenario():
            results = await asyncio.gather(*[
                get(service, target) for _ in range(12)
            ])
            assert [status for status, _, _ in results] == [200] * 12
            assert all(p["source"] == "simulated" for _, _, p in results)

        run(scenario())
        assert runner.calls == 1
        assert service.registry.value("service_simulations_total") == 1
        assert service.registry.value("service_coalesced_total") == 11
        # Exactly one ledger-recorded simulation (the autouse fixture
        # points the ledger at an isolated tmp dir).
        entries = Ledger().entries(kind="service")
        assert len(entries) == 1
        assert entries[0].extra["machine"] == "baseline"
        assert entries[0].extra["workload"] == "gcc"

    def test_cell_is_served_from_memory_after_first_miss(self, tmp_path):
        runner = CountingRunner()
        service = make_service(tmp_path, runner=runner)
        target = "/v1/cell?machine=baseline&workload=gcc"

        async def scenario():
            _, _, first = await get(service, target)
            _, _, second = await get(service, target)
            assert first["source"] == "simulated"
            assert second["source"] == "memory"

        run(scenario())
        assert runner.calls == 1

    def test_disk_cache_survives_service_restart(self, tmp_path):
        runner = CountingRunner()
        first = make_service(tmp_path, runner=runner)
        run(get(first, "/v1/cell?machine=baseline&workload=gcc"))
        second = make_service(tmp_path, runner=runner)
        _, _, payload = run(
            get(second, "/v1/cell?machine=baseline&workload=gcc"))
        assert payload["source"] == "cache"
        assert runner.calls == 1

    def test_frontier_coalesces_across_cells(self, tmp_path):
        runner = CountingRunner()
        service = make_service(tmp_path, runner=runner, jobs=4)
        target = "/v1/frontier?tech=all&machines=baseline,dependence"

        async def scenario():
            status, _, payload = await get(service, target)
            assert status == 200
            # 2 machines x 3 techs; IPC cells simulate once per
            # machine x workload regardless of tech count.
            assert len(payload["points"]) == 6
            assert {p["tech"] for p in payload["points"]} == {
                "0.8um", "0.35um", "0.18um"}

        run(scenario())
        assert runner.calls == 2 * len(WORKLOAD_NAMES)


def rounded(point) -> dict:
    """A frontier point rounded the way the service renders it."""
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


class TestClockedAnswersAgree:
    """/v1/frontier and /v1/cell?tech= answer what the core computes."""

    N = 400

    def test_frontier_equals_the_core_sweep(self, tmp_path):
        service = make_service(tmp_path, runner=simulate_cell)
        status, _, payload = run(get(
            service, "/v1/frontier?tech=all&machines=baseline,dependence"
                     f"&n={self.N}"))
        assert status == 200
        machines = {name: service.machines[name]
                    for name in ("baseline", "dependence")}
        expected, _ = design_space_frontier(
            techs=TECHNOLOGIES, machines=machines, max_instructions=self.N)
        assert payload["points"] == [
            {"machine": point.label.split("@")[0], **rounded(point)}
            for point in expected
        ]

    def test_clocked_block_equals_frontier_point_over_the_cell(
            self, tmp_path):
        service = make_service(tmp_path, runner=simulate_cell)
        status, _, payload = run(get(
            service, "/v1/cell?machine=clustered&workload=li&tech=all"
                     f"&n={self.N}"))
        assert status == 200
        stats = SimStats.from_dict(payload["stats"])
        config = service.machines["clustered"]
        expected = []
        for tech in TECHNOLOGIES:
            point = frontier_point("clustered", config, tech, {"li": stats})
            # The mean IPC of one workload is exactly its own IPC.
            assert point.mean_ipc == stats.ipc
            row = rounded(point)
            expected.append({key: row[key] for key in (
                "tech", "clock_ps", "frequency_ghz", "bips", "bounded_by")})
        assert payload["clocked"] == expected


# ----------------------------------------------------------------------
# schema-version sensitivity (satellite 6)
# ----------------------------------------------------------------------


class TestSchemaSensitivity:
    def test_format_bump_changes_cache_key_and_envelope(
            self, tmp_path, monkeypatch):
        runner = CountingRunner()
        service = make_service(tmp_path, runner=runner)
        target = "/v1/cell?machine=baseline&workload=gcc"
        _, _, before = run(get(service, target))
        assert before["stats_format"] == results_io.FORMAT_VERSION
        assert runner.calls == 1
        key_before = cache_key(service.machines["baseline"], "gcc",
                               service.default_instructions)
        monkeypatch.setattr(results_io, "FORMAT_VERSION",
                            results_io.FORMAT_VERSION + 1)
        key_after = cache_key(service.machines["baseline"], "gcc",
                              service.default_instructions)
        assert key_after != key_before
        # A bumped server re-simulates rather than serving the cell
        # cached under the previous stats format.
        _, _, after = run(get(service, target))
        assert after["stats_format"] == before["stats_format"] + 1
        assert after["source"] == "simulated"
        assert after["cache_key"] == key_after
        assert runner.calls == 2


# ----------------------------------------------------------------------
# the socket layer and the shared load client
# ----------------------------------------------------------------------


class TestSocketLayer:
    def test_http_end_to_end_with_keepalive_burst(self, tmp_path):
        service = make_service(tmp_path)

        async def scenario():
            server = await service.start("127.0.0.1", 0)
            port = server.sockets[0].getsockname()[1]
            try:
                status, payload = await get_json(
                    "127.0.0.1", port, "/v1/healthz")
                assert status == 200 and payload["status"] == "ok"
                status, payload = await get_json(
                    "127.0.0.1", port,
                    "/v1/cell?machine=baseline&workload=gcc&tech=0.18")
                assert status == 200
                assert payload["clocked"][0]["bips"] > 0
                result = await run_burst(
                    "127.0.0.1", port,
                    ["/v1/cell?machine=baseline&workload=gcc"],
                    requests=64, concurrency=4)
                assert result.all_ok
                assert result.qps > 0
            finally:
                server.close()
                await server.wait_closed()

        run(scenario())

    def test_malformed_request_line_is_400(self, tmp_path):
        service = make_service(tmp_path)

        async def scenario():
            server = await service.start("127.0.0.1", 0)
            port = server.sockets[0].getsockname()[1]
            try:
                reader, writer = await asyncio.open_connection(
                    "127.0.0.1", port)
                writer.write(b"NONSENSE\r\n\r\n")
                await writer.drain()
                line = await reader.readline()
                assert b"400" in line
                writer.close()
            finally:
                server.close()
                await server.wait_closed()

        run(scenario())
