"""The worker pool every grid runner shares.

Campaign and frontier sweeps, the differential fuzzer and the
design-space service all run their cells on :class:`WorkerPool`: a
:class:`concurrent.futures.ProcessPoolExecutor` that is replaced when
it fails.  The failure policy lives here once:

* a dead worker (the OOM killer, a signal) breaks the executor, and
  every future it held raises ``BrokenProcessPool``.  The pool is
  rebuilt; the cell whose wait saw the break is retried within its
  ``retries`` bound, and the other cells the broken pool lost run
  again on the new one without being charged a retry;
* a cell that outlives its ``timeout`` has its pool replaced too.
  The old workers are killed, not awaited, so abandoned work ends
  with its pool;
* a cell out of retries runs in this process (:func:`run_cells`),
  which cannot time out and surfaces a real error directly.

Each retry, timeout, serial fallback and restart is counted in the
caller's :class:`~repro.obs.metrics.MetricsRegistry` under the
``pool_*`` series (:data:`~repro.obs.profiling.POOL_METRIC_HELP`).

Workers start with the executor's default method, which forks on
Linux: a worker inherits the model its parent has already imported,
so a cold miss does not pay a fresh interpreter start.
"""

from __future__ import annotations

import concurrent.futures
import contextlib
from concurrent.futures.process import BrokenProcessPool
from typing import Any, Callable, Iterator, Sequence

from repro.obs.metrics import MetricsRegistry
from repro.obs.profiling import POOL_METRIC_HELP

#: Default bounded retry count for failed or timed-out cells.
DEFAULT_RETRIES = 1


def _count(registry: MetricsRegistry, name: str) -> None:
    """Add one event to the ``pool_*`` counter ``name``."""
    registry.counter(name, POOL_METRIC_HELP[name]).inc()


class WorkerPool:
    """``jobs`` worker processes, rebuilt whenever they are lost.

    The executor is built on the first :meth:`submit` and again after
    each :meth:`restart`.  Every submission is tagged with the
    *generation* of the executor it went to, so a restart requested by
    several cells that saw the same break happens once.

    Args:
        jobs: Worker processes.
        registry: Where pool events are counted.
        executor: A caller-built executor (tests pass a thread pool so
            unpicklable runners work).  It is used as given: never
            restarted, never shut down.
    """

    def __init__(self, jobs: int, registry: MetricsRegistry,
                 executor: concurrent.futures.Executor | None = None
                 ) -> None:
        self.jobs = jobs
        self.registry = registry
        for name, help_text in POOL_METRIC_HELP.items():
            registry.counter(name, help_text)  # listed before any event
        self.generation = 0
        self._executor = executor
        self._owned = executor is None

    def submit(self, fn: Callable[[Any], Any],
               arg: Any) -> tuple[concurrent.futures.Future, int]:
        """Queue ``fn(arg)``; returns its future and pool generation.

        A pool that broke before the submission yields a future
        holding the ``BrokenProcessPool``, so callers handle a break
        in one place: where they read results.

        Raises:
            OSError, ValueError: when no process pool can be built on
                this host (e.g. no semaphore support, no fork).
        """
        if self._executor is None:
            self._executor = concurrent.futures.ProcessPoolExecutor(
                max_workers=self.jobs)
        try:
            future = self._executor.submit(fn, arg)
        except BrokenProcessPool as error:
            future = concurrent.futures.Future()
            future.set_exception(error)
        return future, self.generation

    def restart(self, generation: int) -> None:
        """Replace the executor of ``generation`` if it is current.

        Its workers are killed, queued work is cancelled, and the next
        :meth:`submit` builds a fresh executor.  A caller-built
        executor is left alone.
        """
        if generation != self.generation or not self._owned:
            return
        self.generation += 1
        _count(self.registry, "pool_restarts_total")
        self.close()

    def close(self) -> None:
        """Kill the workers and release the executor (idempotent)."""
        executor = self._executor
        if executor is None or not self._owned:
            return
        self._executor = None
        # Python before 3.14 has no public way to stop a busy worker;
        # the executor's process table is the only handle on them.
        processes = getattr(executor, "_processes", None) or {}
        for process in list(processes.values()):
            process.kill()
        executor.shutdown(wait=True, cancel_futures=True)

    async def run(self, fn: Callable[[Any], Any], arg: Any,
                  retries: int) -> Any:
        """Await ``fn(arg)`` on a worker, rebuilding a broken pool.

        Raises:
            BrokenProcessPool: when the first attempt and all
                ``retries`` resubmissions lost their worker.
            Exception: whatever ``fn`` raised, unchanged.
        """
        # Imported here: only the service awaits cells, and a campaign
        # process should not carry asyncio's memory for nothing.
        import asyncio

        for attempt in range(retries + 1):
            future, generation = self.submit(fn, arg)
            try:
                return await asyncio.wrap_future(future)
            except BrokenProcessPool:
                self.restart(generation)
                if attempt == retries:
                    raise
                _count(self.registry, "pool_retries_total")
        raise AssertionError("unreachable")


@contextlib.contextmanager
def worker_pool(jobs: int,
                registry: MetricsRegistry) -> Iterator[WorkerPool | None]:
    """A :class:`WorkerPool` of ``jobs`` workers, closed on exit.

    Yields None for ``jobs=1``: :func:`run_cells` then runs every cell
    in this process and no pool is ever built.
    """
    if jobs == 1:
        yield None
    else:
        with contextlib.closing(WorkerPool(jobs, registry)) as pool:
            yield pool


def _lost(future: concurrent.futures.Future) -> bool:
    """True when a replaced pool dropped ``future`` without running it
    to an answer (its runner's own exceptions are answers)."""
    return (not future.done() or future.cancelled()
            or isinstance(future.exception(), BrokenProcessPool))


def _run_here(cell: Any, runner: Callable[[Any], dict], retries: int,
              registry: MetricsRegistry) -> dict:
    """``runner(cell)`` in this process, retrying on failure."""
    for attempt in range(retries + 1):
        try:
            return runner(cell)
        except Exception:
            if attempt == retries:
                raise
            _count(registry, "pool_retries_total")
    raise AssertionError("unreachable")


def run_cells(
    cells: Sequence[Any],
    runner: Callable[[Any], dict],
    pool: WorkerPool | None,
    timeout: float | None,
    retries: int,
    registry: MetricsRegistry,
    progress: Callable[[str], None] | None = None,
    on_done: Callable[[Any, dict], None] | None = None,
) -> list[dict]:
    """``runner(cell)`` for every cell; payloads in cell order.

    With no pool every cell runs in this process.  Otherwise the cells
    fan out over the caller's :class:`WorkerPool` (one pool can serve
    many calls, see :func:`worker_pool`) and are awaited in cell order,
    each for at most ``timeout`` seconds (None waits forever).  A cell
    that fails, times out or loses its worker is resubmitted up to
    ``retries`` times, then run in this process.
    A host that cannot build a pool runs every cell in this process.

    Args:
        cells: Picklable work items with a ``label``.
        runner: Picklable ``runner(cell) -> payload``; a payload
            carries the cell's wall-clock under ``"seconds"``.
        pool: The open pool to run on, or None to run in this process.
        timeout: Per-cell seconds before a pooled attempt is
            abandoned; an in-process run never times out.
        retries: Bounded resubmissions per cell.
        registry: Where pool events are counted.
        progress: Optional human-readable line per cell event.
        on_done: ``on_done(cell, payload)`` once per finished cell.
    """
    payloads: dict[int, dict] = {}

    def finish(index: int, payload: dict) -> None:
        payloads[index] = payload
        if progress:
            progress(f"{cells[index].label}: simulated "
                     f"({payload['seconds']:.2f}s)")
        if on_done:
            on_done(cells[index], payload)

    def run_all_here() -> list[dict]:
        for index, cell in enumerate(cells):
            finish(index, _run_here(cell, runner, retries, registry))
        return [payloads[index] for index in range(len(cells))]

    if pool is None:
        return run_all_here()
    try:
        pending = {index: pool.submit(runner, cell)
                   for index, cell in enumerate(cells)}
    except (OSError, ValueError):
        # No usable worker pool on this host: run everything here.
        for _ in cells:
            _count(registry, "pool_serial_fallbacks_total")
        return run_all_here()
    attempts = dict.fromkeys(pending, 1)
    while pending:
        index = min(pending)
        future, generation = pending.pop(index)
        cell = cells[index]
        try:
            finish(index, future.result(timeout))
            continue
        except concurrent.futures.TimeoutError:
            _count(registry, "pool_timeouts_total")
            pool.restart(generation)
            failure = f"timed out after {timeout}s"
        except BrokenProcessPool:
            pool.restart(generation)
            failure = "lost its worker"
        except Exception as error:
            failure = f"failed: {error}"
        for other, (held, held_generation) in pending.items():
            if held_generation != pool.generation and _lost(held):
                pending[other] = pool.submit(runner, cells[other])
        if attempts[index] <= retries:
            attempts[index] += 1
            _count(registry, "pool_retries_total")
            if progress:
                progress(f"{cell.label}: {failure}; retrying "
                         f"({attempts[index] - 1}/{retries})")
            pending[index] = pool.submit(runner, cell)
        else:
            _count(registry, "pool_serial_fallbacks_total")
            if progress:
                progress(f"{cell.label}: {failure}; falling back to "
                         "serial execution")
            finish(index, runner(cell))
    return [payloads[index] for index in range(len(cells))]
