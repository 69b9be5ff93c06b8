"""Fault injection on the shared worker pool (:mod:`repro.core.pool`).

Each failure path -- a worker killed mid-cell, a worker that always
dies, a runner that raises, a client that drops mid-request, a cache
writer killed mid-``store``, a ``repro serve`` stopped by SIGTERM --
runs in a fresh interpreter under a wall-clock timeout, so a pool that
hangs fails its test instead of wedging the suite.  Most scenarios are
the ``scenario_*`` functions below; each prints one JSON line the test
asserts on.
"""

from __future__ import annotations

import asyncio
import contextlib
import functools
import json
import multiprocessing
import os
import signal
import socket
import struct
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro.core.campaign import ResultCache, run_campaign, simulate_cell
from repro.core.machines import baseline_8way, dependence_based_8way
from repro.core.results_io import result_to_dict
from repro.service import DesignSpaceService
from repro.service.loadgen import get_json
from repro.uarch.pipeline import simulate
from repro.workloads import get_trace

ROOT = Path(__file__).resolve().parent.parent

#: Seconds a scenario may take before it counts as hung.
SCENARIO_TIMEOUT = 90

N = 500


# ----------------------------------------------------------------------
# injected runners (module-level: they must pickle)
# ----------------------------------------------------------------------


def _in_worker() -> bool:
    """True inside a pool worker, never in the scenario process."""
    return multiprocessing.parent_process() is not None


def _kill_once(marker: str, cell):
    """SIGKILL the first worker to run a cell; simulate otherwise."""
    if _in_worker():
        try:
            os.close(os.open(marker, os.O_CREAT | os.O_EXCL))
        except FileExistsError:
            pass
        else:
            os.kill(os.getpid(), signal.SIGKILL)
    return simulate_cell(cell)


def _always_die(cell):
    if _in_worker():
        os.kill(os.getpid(), signal.SIGKILL)
    return simulate_cell(cell)


def _raise_on_li(cell):
    if cell.workload == "li":
        raise RuntimeError("injected runner failure")
    return simulate_cell(cell)


def _slow(cell):
    time.sleep(0.5)
    return simulate_cell(cell)


# ----------------------------------------------------------------------
# scenarios (run in a subprocess by the tests)
# ----------------------------------------------------------------------


def _service(workdir: Path, runner) -> DesignSpaceService:
    return DesignSpaceService(
        {"baseline": baseline_8way()}, cache_dir=str(workdir / "cache"),
        jobs=1, instructions=N, runner=runner,
        ledger_root=str(workdir / "ledger"))


async def _answer(service: DesignSpaceService, workload: str) -> dict:
    status, headers, body = await service.handle_http(
        "GET", f"/v1/cell?machine=baseline&workload={workload}")
    return {"status": status, "headers": headers,
            "body": json.loads(body)}


def _ask(service: DesignSpaceService, workload: str) -> dict:
    return asyncio.run(_answer(service, workload))


def _pool_metrics(service: DesignSpaceService) -> dict:
    status, _, body = asyncio.run(service.handle_http("GET", "/v1/metrics"))
    assert status == 200
    text = body.decode("utf-8")
    return {name: service.registry.value(name)
            for name in ("pool_restarts_total", "pool_retries_total")
            if f"\n{name} " in text}


def scenario_campaign_worker_killed(workdir: Path) -> dict:
    configs = {"baseline": baseline_8way(),
               "dependence": dependence_based_8way()}
    workloads = ("li", "gcc", "compress")
    serial, _ = run_campaign(configs, workloads, N, jobs=1)
    marker = workdir / "killed"
    pooled, profile = run_campaign(
        configs, workloads, N, jobs=2, timeout=None,
        runner=functools.partial(_kill_once, str(marker)))
    return {
        "killed": marker.exists(),
        "identical": (json.dumps(result_to_dict(serial), sort_keys=True)
                      == json.dumps(result_to_dict(pooled), sort_keys=True)),
        "restarts": profile.registry.value("pool_restarts_total"),
    }


def scenario_service_worker_killed(workdir: Path) -> dict:
    marker = workdir / "killed"
    service = _service(workdir, functools.partial(_kill_once, str(marker)))

    async def together() -> list[dict]:
        return await asyncio.gather(*(
            _answer(service, workload) for workload in ("li", "gcc", "go")))

    try:
        # The dead worker breaks all three in-flight cells; the pool is
        # rebuilt once and each cell is retried on the new one.
        answers = asyncio.run(together()) + [_ask(service, "compress")]
        return {"killed": marker.exists(),
                "statuses": [answer["status"] for answer in answers],
                "committed": [answer["body"].get("stats", {}).get("committed")
                              for answer in answers],
                "metrics": _pool_metrics(service)}
    finally:
        service.close()


def scenario_service_worker_always_dies(workdir: Path) -> dict:
    service = _service(workdir, _always_die)
    try:
        answer = _ask(service, "li")
        return {"status": answer["status"],
                "retry_after": answer["headers"].get("Retry-After"),
                "code": answer["body"]["error"]["code"],
                "metrics": _pool_metrics(service)}
    finally:
        service.close()


def scenario_service_runner_raises(workdir: Path) -> dict:
    service = _service(workdir, _raise_on_li)
    try:
        failed = _ask(service, "li")
        served = _ask(service, "gcc")
        return {"statuses": [failed["status"], served["status"]],
                "error": failed["body"]["error"],
                "restarts": service.registry.value("pool_restarts_total")}
    finally:
        service.close()


def scenario_client_drops_mid_request(workdir: Path) -> dict:
    service = _service(workdir, _slow)

    async def drive() -> dict:
        server = await service.start("127.0.0.1", 0)
        port = server.sockets[0].getsockname()[1]
        try:
            _, writer = await asyncio.open_connection("127.0.0.1", port)
            writer.write(b"GET /v1/cell?machine=baseline&workload=li "
                         b"HTTP/1.1\r\nHost: test\r\n\r\n")
            await writer.drain()
            await asyncio.sleep(0.1)
            # Close with a reset, so the answer meets a dead socket.
            writer.get_extra_info("socket").setsockopt(
                socket.SOL_SOCKET, socket.SO_LINGER, struct.pack("ii", 1, 0))
            writer.close()
            while service.coalescer.inflight:
                await asyncio.sleep(0.05)
            cached = await get_json("127.0.0.1", port,
                                    "/v1/cell?machine=baseline&workload=li")
            cold = await get_json("127.0.0.1", port,
                                  "/v1/cell?machine=baseline&workload=gcc")
            return {"statuses": [cached[0], cold[0]],
                    "sources": [cached[1]["source"], cold[1]["source"]]}
        finally:
            server.close()
            await server.wait_closed()

    try:
        return asyncio.run(drive())
    finally:
        service.close()


def scenario_cache_writer_killed(workdir: Path, stage: str) -> None:
    """Store a full entry, then die by SIGKILL partway through
    overwriting it: with half the new entry in its temp file
    (``"write"``), or the whole of it not yet renamed (``"rename"``)."""
    cache = ResultCache(workdir / "cache")
    config = baseline_8way()
    cache.store("cell", simulate(config, get_trace("li", N)))
    newer = simulate(config, get_trace("li", 2 * N))

    def write_text(path, data, encoding):
        with open(path, "w", encoding=encoding) as handle:
            handle.write(data if stage == "rename" else data[:len(data) // 2])
        if stage == "write":
            os.kill(os.getpid(), signal.SIGKILL)

    def replace(path, target):
        os.kill(os.getpid(), signal.SIGKILL)

    Path.write_text, Path.replace = write_text, replace
    cache.store("cell", newer)


def _scenario(name: str, tmp_path: Path,
              *args: str) -> subprocess.CompletedProcess:
    """``name(tmp_path, *args)`` in a fresh interpreter, its result
    printed as one JSON line."""
    env = dict(os.environ,
               PYTHONPATH=os.pathsep.join([str(ROOT / "src"), str(ROOT)]))
    code = ("import json, sys\nfrom pathlib import Path\n"
            f"from tests.test_pool import {name}\n"
            f"print(json.dumps({name}(Path(sys.argv[1]), *sys.argv[2:])))\n")
    return subprocess.run(
        [sys.executable, "-c", code, str(tmp_path), *args], cwd=ROOT,
        env=env, capture_output=True, text=True, timeout=SCENARIO_TIMEOUT,
        check=False)


def _run_scenario(name: str, tmp_path: Path) -> dict:
    done = _scenario(name, tmp_path)
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.splitlines()[-1])


# ----------------------------------------------------------------------
# the tests
# ----------------------------------------------------------------------


def test_campaign_survives_a_killed_worker(tmp_path):
    outcome = _run_scenario("scenario_campaign_worker_killed", tmp_path)
    assert outcome["killed"]
    assert outcome["identical"]
    assert outcome["restarts"] >= 1


def test_service_rebuilds_the_pool_after_a_killed_worker(tmp_path):
    outcome = _run_scenario("scenario_service_worker_killed", tmp_path)
    assert outcome["killed"]
    assert outcome["statuses"] == [200] * 4
    assert outcome["committed"] == [N] * 4
    assert outcome["metrics"] == {"pool_restarts_total": 1.0,
                                  "pool_retries_total": 3.0}


def test_service_answers_503_when_every_attempt_loses_its_worker(tmp_path):
    outcome = _run_scenario("scenario_service_worker_always_dies", tmp_path)
    assert outcome["status"] == 503
    assert int(outcome["retry_after"]) >= 1
    assert outcome["code"] == "overloaded"
    assert outcome["metrics"] == {"pool_restarts_total": 2.0,
                                  "pool_retries_total": 1.0}


def test_service_runner_error_is_500_and_the_pool_serves_on(tmp_path):
    outcome = _run_scenario("scenario_service_runner_raises", tmp_path)
    assert outcome["statuses"] == [500, 200]
    assert outcome["error"]["code"] == "internal_error"
    assert "injected runner failure" in outcome["error"]["message"]
    assert outcome["restarts"] == 0


def test_server_keeps_serving_after_a_client_drops(tmp_path):
    outcome = _run_scenario("scenario_client_drops_mid_request", tmp_path)
    assert outcome["statuses"] == [200, 200]
    assert outcome["sources"] == ["memory", "simulated"]


@pytest.mark.parametrize("stage", ["write", "rename"])
def test_a_killed_cache_writer_leaves_the_previous_entry(tmp_path, stage):
    done = _scenario("scenario_cache_writer_killed", tmp_path, stage)
    assert done.returncode == -signal.SIGKILL, done.stderr
    cache = ResultCache(tmp_path / "cache")
    # Never a torn entry: the rename that publishes a store replaces
    # the previous full entry whole, so until then that entry stays.
    loaded = cache.load("cell")
    assert loaded is not None
    assert loaded.to_dict() == simulate(
        baseline_8way(), get_trace("li", N)).to_dict()
    assert len(list(cache.root.glob("*.tmp"))) == 1  # the killed write


def _free_port() -> int:
    with socket.socket() as probe:
        probe.bind(("127.0.0.1", 0))
        return probe.getsockname()[1]


def _group_alive(pgid: int) -> bool:
    try:
        os.killpg(pgid, 0)
    except ProcessLookupError:
        return False
    return True


def test_sigterm_stops_serve_and_its_workers(tmp_path):
    port = _free_port()
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"),
               REPRO_LEDGER_DIR=str(tmp_path / "ledger"))
    server = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve", "--jobs", "2", "--port",
         str(port), "--cache-dir", str(tmp_path / "cache")],
        cwd=tmp_path, env=env, stdout=subprocess.DEVNULL,
        start_new_session=True)
    try:
        deadline = time.monotonic() + SCENARIO_TIMEOUT
        while True:  # one cold miss, once the server listens
            try:
                status, payload = asyncio.run(get_json(
                    "127.0.0.1", port,
                    f"/v1/cell?machine=baseline&workload=li&n={N}"))
                break
            except OSError:
                assert time.monotonic() < deadline, "serve never listened"
                time.sleep(0.2)
        assert (status, payload["source"]) == (200, "simulated")
        server.send_signal(signal.SIGTERM)
        server.wait(SCENARIO_TIMEOUT)
        deadline = time.monotonic() + 10
        while _group_alive(server.pid) and time.monotonic() < deadline:
            time.sleep(0.05)
        assert not _group_alive(server.pid), "workers outlived the server"
    finally:
        with contextlib.suppress(ProcessLookupError):
            os.killpg(server.pid, signal.SIGKILL)
        server.wait(SCENARIO_TIMEOUT)
