"""Calls into the program's layers, each under a span.

:class:`Replay` walks one campaign cell through the steps
``repro.core.campaign.simulate_cell`` and ``run_campaign`` take --
``get_trace``, ``preanalyze``, ``compiled_runner`` when the shape
compiles, ``simulate(mode="compiled")``, ``SimStats.to_dict``,
``cache_key``, ``ResultCache.store`` -- so the traced runs time every
layer from the outside with the same calls an untraced run makes.

:class:`TracedCache` and :class:`TimedExecutor` are handed to
``DesignSpaceService`` through its constructor, so an in-process
service run gets spans around its disk reads and writes and around
each pool round trip without any change to the service.

:func:`micro_timings` times single calls a request makes, one at a
time, outside any traced pass.
"""

from __future__ import annotations

import concurrent.futures
import statistics
import tempfile
import time
from pathlib import Path

from common import Tracer

from repro.core.campaign import CampaignCell, ResultCache, cache_key
from repro.delay.critical_path import critical_path
from repro.obs.ledger import record_run
from repro.obs.metrics import MetricsRegistry
from repro.obs.profiling import record_simulation_metrics
from repro.technology import TECHNOLOGIES
from repro.uarch.compile import compile_cache_stats, compiled_runner, supports_compile
from repro.uarch.pipeline import simulate
from repro.uarch.preanalysis import preanalyze
from repro.uarch.stats import SimStats
from repro.workloads import EXTRA_WORKLOAD_NAMES, WORKLOAD_NAMES, get_trace, get_workload


def workload_class(name: str) -> str:
    """``kernel`` (paper), ``mini`` (Mini-compiled) or ``synthetic``."""
    if name in EXTRA_WORKLOAD_NAMES:
        return "mini"
    if name in WORKLOAD_NAMES:
        return "kernel"
    return get_workload(name).kind


class Replay:
    """One process's traced walk over campaign cells."""

    def __init__(self, tracer: Tracer) -> None:
        self.tracer = tracer
        self._traced: set[tuple[str, int]] = set()
        self._analysed: set[tuple[str, int]] = set()

    def simulate_cell(self, cell: CampaignCell) -> dict:
        """``simulate_cell``'s steps and its payload, spans around each."""
        span = self.tracer.span
        ident = (cell.workload, cell.max_instructions)
        start = time.perf_counter()
        with span("campaign.simulate_cell"):
            with span("workloads.trace") as rec:
                trace = get_trace(cell.workload, cell.max_instructions)
                if ident not in self._traced:
                    self._traced.add(ident)
                    rec["insts"] = len(trace)
                    rec["class"] = workload_class(cell.workload)
            with span("preanalysis") as rec:
                preanalyze(trace)
                if ident not in self._analysed:
                    self._analysed.add(ident)
                    rec["insts"] = len(trace)
            compiled = supports_compile(cell.config)
            if compiled:
                with span("compile"):
                    compiled_runner(cell.config)
            name = "pipeline.compiled" if compiled else "pipeline.interp"
            with span(name) as rec:
                stats = simulate(cell.config, trace, mode="compiled")
                rec["insts"] = stats.committed
            seconds = time.perf_counter() - start
            with span("obs.metrics"):
                registry = MetricsRegistry()
                record_simulation_metrics(registry, stats, seconds,
                                          machine=cell.machine,
                                          workload=cell.workload)
                snapshot = registry.snapshot().to_dict()
            with span("results_io.encode"):
                payload = stats.to_dict()
        return {"stats": payload, "seconds": seconds, "metrics": snapshot}

    def campaign(self, cells: list[CampaignCell],
                 cache: ResultCache) -> list[SimStats]:
        """``run_campaign``'s order at ``jobs=1`` over an empty cache:
        probe every key, simulate every miss, then decode and store."""
        span = self.tracer.span
        keys = []
        for cell in cells:
            with span("campaign.cache_key"):
                key = cache_key(cell.config, cell.workload,
                                cell.max_instructions)
            with span("campaign.cache_load"):
                if cache.load(key) is not None:
                    raise RuntimeError(f"{cell.label}: cache not cold")
            keys.append(key)
        payloads = [self.simulate_cell(cell) for cell in cells]
        results = []
        for key, payload in zip(keys, payloads):
            with span("results_io.decode"):
                stats = SimStats.from_dict(payload["stats"])
            with span("campaign.cache_store"):
                cache.store(key, stats)
            results.append(stats)
        return results


_WORKER_REPLAY: Replay | None = None


def pool_runner(cell: CampaignCell) -> dict:
    """A traced ``simulate_cell`` for the service's worker pool.

    Returns ``simulate_cell``'s payload plus the worker's spans; span
    times are ``perf_counter`` readings, one clock for every process
    on the host, so the parent can nest them under its pool span.
    """
    global _WORKER_REPLAY
    if _WORKER_REPLAY is None:
        _WORKER_REPLAY = Replay(Tracer())
    tracer = _WORKER_REPLAY.tracer
    tracer.spans = []
    payload = _WORKER_REPLAY.simulate_cell(cell)
    payload["spans"] = tracer.spans
    payload["compile"] = compile_cache_stats()
    return payload


class TracedCache(ResultCache):
    """A ``ResultCache`` whose loads and stores are spans."""

    def __init__(self, root: str | Path, tracer: Tracer) -> None:
        super().__init__(root)
        self.tracer = tracer

    def load(self, key: str) -> SimStats | None:
        with self.tracer.span("campaign.cache_load") as rec:
            stats = super().load(key)
            rec["hit"] = stats is not None
        return stats

    def store(self, key: str, stats: SimStats) -> None:
        with self.tracer.span("campaign.cache_store"):
            super().store(key, stats)


class TimedExecutor(concurrent.futures.Executor):
    """Wraps the service's pool and records each round trip."""

    def __init__(self, inner: concurrent.futures.Executor,
                 tracer: Tracer) -> None:
        self.inner = inner
        self.tracer = tracer
        self.calls: list[tuple] = []

    def submit(self, fn, /, *args, **kwargs):
        parent = self.tracer.current()
        start = time.perf_counter()
        future = self.inner.submit(fn, *args, **kwargs)

        def done(finished: concurrent.futures.Future) -> None:
            self.calls.append((parent, start, time.perf_counter(), finished))

        future.add_done_callback(done)
        return future

    def shutdown(self, wait: bool = True, *, cancel_futures: bool = False):
        self.inner.shutdown(wait=wait, cancel_futures=cancel_futures)

    def graft(self) -> list[dict]:
        """Add each round trip, and the worker spans inside it, to the
        tracer; returns the payloads in completion order."""
        payloads = []
        for parent, start, end, future in self.calls:
            payload = future.result()
            pool_id = self.tracer.add("service.pool", start, end, parent)
            ids = {}
            for span in payload.get("spans", ()):
                ids[span["id"]] = self.tracer.add(
                    span["name"], span["start"], span["end"],
                    ids.get(span["parent"], pool_id))
                for extra in ("insts", "class"):
                    if extra in span:
                        self.tracer.spans[-1][extra] = span[extra]
            payload["roundtrip"] = end - start
            payloads.append(payload)
        return payloads


def _median_us(fn, args_list: list[tuple], repeats: int = 3) -> float:
    samples = []
    for _ in range(repeats):
        for args in args_list:
            start = time.perf_counter()
            fn(*args)
            samples.append(time.perf_counter() - start)
    return statistics.median(samples) * 1e6


def micro_timings(cells: list[CampaignCell], stats: list[SimStats],
                  cache: ResultCache, work: Path) -> dict[str, float]:
    """Median cost of single calls a request or a cell makes; ``cache``
    holds ``stats`` for ``cells``."""
    keys = [cache_key(c.config, c.workload, c.max_instructions)
            for c in cells]
    kernel = [(get_workload(w),) for w in WORKLOAD_NAMES]
    zoo = [(get_workload(w),) for w in
           ("zoo_ilp_serial", "zoo_br_coin", "zoo_mem_cold", "zoo_big_body")]
    configs = {cell.machine: cell.config for cell in cells}
    payloads = [(s.to_dict(),) for s in stats]
    out = {
        "campaign.cache_key_us": _median_us(
            lambda c: cache_key(c.config, c.workload, c.max_instructions),
            [(c,) for c in cells]),
        "workloads.kernel_fingerprint_us": _median_us(
            lambda w: w.fingerprint(), kernel),
        "workloads.synthetic_fingerprint_us": _median_us(
            lambda w: w.fingerprint(), zoo),
        "delay.critical_path_us": _median_us(
            critical_path,
            [(config, tech) for config in configs.values()
             for tech in TECHNOLOGIES]),
        "results_io.encode_us": _median_us(lambda s: s.to_dict(),
                                           [(s,) for s in stats]),
        "results_io.decode_us": _median_us(SimStats.from_dict, payloads),
        "campaign.cache_load_us": _median_us(cache.load,
                                             [(k,) for k in keys]),
    }
    with tempfile.TemporaryDirectory(dir=work) as ledger:
        cell = cells[0]
        out["ledger.append_ms"] = _median_us(
            lambda: record_run(
                "service", wall_seconds=0.01,
                instructions_per_second=1.0, simulated_cells=1,
                cell_count=1, config_hash=keys[0],
                extra={"machine": cell.machine, "workload": cell.workload,
                       "instructions": cell.max_instructions},
                root=ledger),
            [()] * 10, repeats=1) / 1e3
    return out
