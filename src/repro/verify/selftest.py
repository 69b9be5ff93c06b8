"""Planted-bug self-tests: prove the fuzzer can actually catch bugs.

A verification harness that has never caught anything is an untested
claim.  This module *plants* three realistic bugs into the compiled
pipeline through the pipeline compiler's ``_PLANTED_BUG`` knob, one
per layer the fuzz oracle guards:

* a **steering bug** -- ``"blind_steer"`` drops the paper's
  behind-the-producer rule from the generated FIFO dispatch
  heuristic, so every instruction is sent to a new empty FIFO
  regardless of where its producers sit (the "steer blindly" failure
  mode Section 5.1's heuristic exists to avoid).  The reference
  pipeline, the only caller of
  :class:`repro.uarch.steering.FifoDispatchSteering`, keeps the
  correct logic.  Caught by compiled/reference stats divergence.
* a **port-arbiter bug** -- ``"port_leak"`` hoists the per-cycle
  read-port grant of the ``ports_limited`` register file out of the
  cycle loop, so claimed ports are never replenished and issue
  starves.  The compiled runner's no-forward-progress guard turns the
  deadlock into a failure string.
* a **compiler constant-folding bug** -- ``"load_hit_fold"`` folds the
  load-miss latency branch down to the hit latency, the classic
  dropped-branch miscompilation.  Caught by compiled/reference stats
  divergence.

Each bug must be (a) detected and (b) shrunk to a small reproducer.
The knob is process-local, so the self-tests always run with
``jobs=1`` -- worker processes would compile clean runners and see no
bug.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

from repro.uarch import compile as compile_mod
from repro.verify.fuzzer import FuzzReport, run_fuzz


@dataclass
class SelfTestResult:
    """Outcome of one planted-bug run."""

    report: FuzzReport
    detected: bool
    minimized_instructions: int | None
    reproducer: Path | None


def _result(report: FuzzReport) -> SelfTestResult:
    """Summarize a planted-bug fuzz report."""
    minimized = [f for f in report.failures if f.reproducer is not None]
    return SelfTestResult(
        report=report,
        detected=bool(report.failures),
        minimized_instructions=(
            minimized[0].minimized_instructions if minimized else None
        ),
        reproducer=minimized[0].reproducer if minimized else None,
    )


def run_selftest(
    cases: int = 40,
    seed: int = 1,
    repro_dir: str | Path = "repros-selftest",
    max_minimized: int = 1,
) -> SelfTestResult:
    """Plant the steering bug, fuzz FIFO machines, restore, report.

    :data:`repro.uarch.compile._PLANTED_BUG` is ``"blind_steer"`` for
    the duration, and sampling is restricted to the FIFO-steered
    shapes (``fifo_only``) so every case runs the sabotaged heuristic.

    Args:
        cases: Fuzz cases to run against the sabotaged simulator.
        seed: Campaign seed (any seed works; the bug is gross).
        repro_dir: Where the minimized reproducer is written -- point
            this at a temp directory, not ``tests/repros``.
        max_minimized: Failures to shrink (1 keeps the test fast).

    Returns:
        A :class:`SelfTestResult`; ``detected`` must be True and the
        minimized reproducer small for the harness to be trusted.
    """
    return _run_planted_compile(
        "blind_steer", cases, seed, repro_dir, max_minimized,
        fifo_only=True,
    )


def _run_planted_compile(
    planted: str, cases: int, seed: int, repro_dir: str | Path,
    max_minimized: int, shapes: tuple[str, ...] | None = None,
    fifo_only: bool = False,
) -> SelfTestResult:
    """Fuzz with the compiler knob set to ``planted``.

    Sampling is restricted to ``shapes``, or with ``fifo_only`` to the
    FIFO-steered shapes.  The knob is part of the compile-cache key and the cache is cleared
    on both sides of the patch, so sabotaged runners can never leak
    into (or survive from) clean runs.
    """
    compile_mod.clear_compile_cache()
    original = compile_mod._PLANTED_BUG
    compile_mod._PLANTED_BUG = planted
    try:
        report = run_fuzz(
            cases=cases,
            seed=seed,
            jobs=1,  # the patch is process-local
            repro_dir=repro_dir,
            fifo_only=fifo_only,
            only_shapes=shapes,
            minimize=True,
            max_minimized=max_minimized,
        )
    finally:
        compile_mod._PLANTED_BUG = original
        compile_mod.clear_compile_cache()
    return _result(report)


def run_compile_selftest(
    cases: int = 20,
    seed: int = 1,
    repro_dir: str | Path = "repros-selftest",
    max_minimized: int = 1,
) -> SelfTestResult:
    """Plant the constant-folding bug, fuzz the baseline, report.

    :data:`repro.uarch.compile._PLANTED_BUG` is ``"load_hit_fold"``
    for the duration: every runner generated while it is set folds the
    load-miss latency to the hit latency.  The bug must surface as a
    compiled/reference SimStats divergence.
    """
    return _run_planted_compile(
        "load_hit_fold", cases, seed, repro_dir, max_minimized,
        shapes=("baseline",),
    )


def run_port_selftest(
    cases: int = 20,
    seed: int = 1,
    repro_dir: str | Path = "repros-selftest",
    max_minimized: int = 1,
) -> SelfTestResult:
    """Plant the port-arbiter bug, fuzz ports_limited machines, report.

    :data:`repro.uarch.compile._PLANTED_BUG` is ``"port_leak"`` for
    the duration, and sampling is restricted to the ``ports_limited``
    registry shape so every case exercises the sabotaged arbiter.
    """
    return _run_planted_compile(
        "port_leak", cases, seed, repro_dir, max_minimized,
        shapes=("ports_limited",),
    )
