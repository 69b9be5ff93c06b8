"""The differential fuzzing engine (``repro fuzz``).

Each *case* is derived from a single integer seed: sample a machine
config (:mod:`repro.verify.sampler`), sample a workload -- an
assembled program (architectural checks possible) or a synthetic
trace (timing-only) -- and run the full check stack from
:mod:`repro.verify.oracle`:

1. emulator vs shadow-interpreter architectural equality,
2. compiled vs reference ``SimStats`` byte equality,
3. timing invariants on the compiled simulator.

Cases fan out over the shared worker pool
(:func:`repro.core.pool.run_cells`); a case is fully
described by picklable integers, and workers rebuild everything
deterministically from the seed.  Failures are shrunk by the
delta-debugging minimizer and emitted as standalone reproducers under
``tests/repros/``.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

from repro.core.pool import run_cells, worker_pool
from repro.isa.assembler import AssemblerError, assemble
from repro.isa.emulator import EmulationError, Emulator
from repro.obs.profiling import FuzzProfile
from repro.obs.progress import Heartbeat
from repro.uarch.config import MachineConfig
from repro.uarch.pipeline_reference import ReferencePipelineSimulator
from repro.verify import minimize as minimize_mod
from repro.verify.generator import generate_source
from repro.verify.oracle import (
    check_timing_invariants,
    compare_architectural,
    compare_stats,
)
from repro.verify.sampler import (
    sample_machine,
    sample_program,
    sample_synthetic,
    sample_zoo,
)
from repro.workloads import synthetic_trace

#: Default dynamic-instruction cap per case: large enough for every
#: generated program to halt naturally, small enough that a 200-case
#: run (4 executions per case) finishes in seconds.
DEFAULT_CASE_INSTRUCTIONS = 2_000

#: Fraction of cases that use generated programs (the rest replay
#: synthetic traces, which cover op-class mixes no program reaches).
_PROGRAM_FRACTION = 0.7

#: Fraction of the *non-program* cases drawn from the registered
#: ``zoo_*`` scenarios instead of free-form synthetic configs.
_ZOO_FRACTION = 0.5

#: Directory reproducers land in by default.
DEFAULT_REPRO_DIR = Path("tests") / "repros"


def derive_case_seed(seed: int, case_id: int) -> int:
    """Per-case seed: decorrelated but reproducible from (seed, id)."""
    return (seed * 1_000_003 + case_id * 7_919 + 1) & 0x7FFF_FFFF


@dataclass(frozen=True)
class FuzzCase:
    """One unit of fuzzing work -- picklable integers only.

    Workers rebuild the machine config and workload deterministically
    from ``case_seed``, so the case travels to a worker process (or a
    reproduction session) as four scalars.
    """

    case_id: int
    case_seed: int
    max_instructions: int = DEFAULT_CASE_INSTRUCTIONS
    fifo_only: bool = False
    only_shapes: tuple[str, ...] | None = None

    @property
    def label(self) -> str:
        """Progress label (the campaign pool prints it)."""
        return f"case {self.case_id} (seed {self.case_seed})"


def _simulate_both(config: MachineConfig, trace) -> tuple:
    """Run both simulator models; returns (compiled_sim, failures).

    Every case runs the compiled pipeline and compares it byte-for-byte
    against the frozen reference (which covers every shape), so a
    miscompilation (wrong constant fold, dropped branch, stale cache
    entry) or a broken strategy hook is a first-class fuzz finding.
    """
    # Imported late so the planted-bug self-tests' monkeypatches of
    # the pipeline/compile modules are honoured even inside this
    # module.
    from repro.uarch.pipeline import PipelineSimulator

    compiled = PipelineSimulator(config, trace)
    try:
        compiled_stats = compiled.run()
    except RuntimeError as error:
        # A deadlock (or cycle-bound overrun) is a first-class finding
        # -- reported as a failure string so the minimizer can shrink
        # the triggering program like any other check failure.
        return compiled, [f"compiled simulator failed to complete: {error}"]
    reference_stats = ReferencePipelineSimulator(config, trace).run()
    failures = compare_stats(
        compiled_stats.to_dict(), reference_stats.to_dict()
    )
    failures.extend(check_timing_invariants(compiled, config, trace))
    return compiled, failures


def check_program_trace(program, config: MachineConfig,
                        max_instructions: int) -> list[str]:
    """All three check families for one (program, machine) pair."""
    emulator = Emulator(program)
    trace = emulator.run(max_instructions)
    trace.name = "fuzz"
    failures = compare_architectural(emulator, trace, max_instructions)
    if len(trace):
        failures.extend(_simulate_both(config, trace)[1])
    return failures


def check_source_on_config(
    source: str,
    config: MachineConfig,
    max_instructions: int = DEFAULT_CASE_INSTRUCTIONS,
) -> list[str]:
    """Assemble ``source`` and run the full check stack.

    This is the entry point minimized reproducers call; failures come
    back as human-readable strings (empty list = case passes).
    """
    return check_program_trace(assemble(source), config, max_instructions)


def build_case_inputs(case: FuzzCase):
    """Deterministically rebuild a case's sampled inputs.

    Returns:
        ``(shape, config, kind, workload_config)`` where ``kind`` is
        ``"program"``, ``"synthetic"``, or ``"zoo"`` and
        ``workload_config`` is the matching generator config (for
        ``"zoo"`` it is the drawn scenario's
        :class:`~repro.workloads.synthetic.SyntheticConfig`).
    """
    rng = random.Random(case.case_seed)
    shape, config = sample_machine(
        rng, fifo_only=case.fifo_only, only_shapes=case.only_shapes
    )
    # Self-test runs (shape-restricted) always use programs so the
    # minimizer has a source to shrink.
    use_program = (
        case.fifo_only
        or bool(case.only_shapes)
        or rng.random() < _PROGRAM_FRACTION
    )
    if use_program:
        return shape, config, "program", sample_program(rng)
    length = min(case.max_instructions, 600)
    if rng.random() < _ZOO_FRACTION:
        _zoo_name, zoo_cfg = sample_zoo(rng, length)
        return shape, config, "zoo", zoo_cfg
    return shape, config, "synthetic", sample_synthetic(rng, length)


def run_fuzz_case(case: FuzzCase) -> dict:
    """Execute one case; the picklable worker entry point.

    Returns transport primitives (the same shape the campaign pool
    moves): seconds, sampled identifiers, and failure strings.
    """
    start = time.perf_counter()
    shape, config, kind, workload = build_case_inputs(case)
    if kind == "program":
        failures = check_program_trace(
            assemble(generate_source(workload)), config, case.max_instructions
        )
        instructions = None  # reported only for failures, below
    else:
        trace = synthetic_trace(workload)
        failures = _simulate_both(config, trace)[1]
        instructions = len(trace)
    return {
        "case_id": case.case_id,
        "case_seed": case.case_seed,
        "shape": shape,
        "machine": config.name,
        "kind": kind,
        "instructions": instructions,
        "failures": failures,
        "seconds": time.perf_counter() - start,
    }


@dataclass
class FuzzFailure:
    """One failing case, optionally with its minimized reproducer."""

    case_id: int
    case_seed: int
    shape: str
    kind: str
    failures: list[str]
    reproducer: Path | None = None
    minimized_instructions: int | None = None


@dataclass
class FuzzReport:
    """Outcome of one ``run_fuzz`` campaign."""

    profile: FuzzProfile
    failures: list[FuzzFailure] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        """True when every executed case passed every check."""
        return not self.failures


def _minimize_failure(
    case: FuzzCase, payload: dict, repro_dir: str | Path
) -> FuzzFailure:
    """Shrink one failing case and emit its reproducer file."""
    failure = FuzzFailure(
        case_id=payload["case_id"],
        case_seed=payload["case_seed"],
        shape=payload["shape"],
        kind=payload["kind"],
        failures=payload["failures"],
    )
    if payload["kind"] != "program":
        return failure  # synthetic traces have no source to shrink

    _, config, _, gen_config = build_case_inputs(case)
    source = generate_source(gen_config)

    def still_fails(text: str, candidate: MachineConfig) -> bool:
        try:
            return bool(
                check_source_on_config(text, candidate, case.max_instructions)
            )
        except (AssemblerError, EmulationError, ValueError, IndexError):
            return False

    small_source, small_config = minimize_mod.minimize_case(
        source, config, still_fails
    )
    failure.minimized_instructions = minimize_mod.instruction_count(
        small_source
    )
    failure.reproducer = minimize_mod.write_reproducer(
        repro_dir,
        case_id=payload["case_id"],
        seed=payload["case_seed"],
        summary=payload["failures"][0][:120],
        source=small_source,
        config=small_config,
        fifo_only=case.fifo_only,
    )
    return failure


def run_fuzz(
    cases: int = 200,
    seed: int = 0,
    jobs: int = 1,
    time_budget: float | None = None,
    max_instructions: int = DEFAULT_CASE_INSTRUCTIONS,
    repro_dir: str | Path = DEFAULT_REPRO_DIR,
    fifo_only: bool = False,
    only_shapes: tuple[str, ...] | None = None,
    minimize: bool = True,
    max_minimized: int = 5,
    first_case: int = 0,
    case_seed: int | None = None,
    progress: Callable[[str], None] | None = None,
    heartbeat: Callable[[Heartbeat], None] | None = None,
) -> FuzzReport:
    """Run a differential-fuzzing campaign.

    Args:
        cases: Number of cases to attempt.
        seed: Campaign seed; together with a case id it fully
            determines the case (see :func:`derive_case_seed`).
        jobs: Worker processes; >1 runs cases on the shared pool.
        time_budget: Optional wall-clock cap in seconds, checked
            between batches; remaining cases are counted as skipped.
        max_instructions: Dynamic-instruction cap per case.
        repro_dir: Where minimized reproducers are written.
        fifo_only: Restrict machine sampling to FIFO-steered shapes
            (used by the planted steering-bug self-test).
        only_shapes: Restrict machine sampling to these registry
            shapes (used by the planted port-arbiter self-test).
        minimize: Shrink failures and emit reproducers.
        max_minimized: At most this many failures are minimized (the
            rest are reported unshrunk -- minimization is the
            expensive step).
        first_case: Offset of the first case id (lets a reproducer
            name one exact case).
        case_seed: Replay mode -- run exactly one case with this
            *derived* seed (the value a reproducer's header records),
            ignoring ``cases``/``seed``/``first_case``.
        progress: Optional line-oriented progress callback.
        heartbeat: Optional live-telemetry callback receiving one
            :class:`~repro.obs.progress.Heartbeat` per executed case
            in completion order (source ``"case"``, or ``"fail"`` for
            cases with failing checks).

    Returns:
        A :class:`FuzzReport` with the profile and any failures.
    """
    if cases < 1:
        raise ValueError(f"cases must be >= 1, got {cases}")
    if jobs < 1:
        raise ValueError(f"jobs must be >= 1, got {jobs}")
    profile = FuzzProfile(jobs=jobs, seed=seed)
    started = time.perf_counter()
    if case_seed is not None:
        queue = [FuzzCase(case_id=0, case_seed=case_seed,
                          max_instructions=max_instructions,
                          fifo_only=fifo_only, only_shapes=only_shapes)]
    else:
        queue = [
            FuzzCase(
                case_id=case_id,
                case_seed=derive_case_seed(seed, case_id),
                max_instructions=max_instructions,
                fifo_only=fifo_only,
                only_shapes=only_shapes,
            )
            for case_id in range(first_case, first_case + cases)
        ]
    failures: list[FuzzFailure] = []

    def beat(case, payload: dict) -> None:
        if heartbeat:
            heartbeat(Heartbeat(
                label=case.label,
                source="fail" if payload["failures"] else "case",
                seconds=payload.get("seconds", 0.0),
                instructions=payload.get("instructions") or 0,
            ))

    batch_size = max(16, jobs * 4) if jobs > 1 else 1
    position = 0
    # One pool serves every batch; jobs=1 runs each case in this process.
    with worker_pool(jobs, profile.registry) as pool:
        while position < len(queue):
            if (time_budget is not None
                    and time.perf_counter() - started >= time_budget):
                profile.skipped = len(queue) - position
                if progress:
                    progress(f"time budget reached; skipping "
                             f"{profile.skipped} remaining cases")
                break
            batch = queue[position:position + batch_size]
            position += len(batch)
            ordered = run_cells(batch, run_fuzz_case, pool, None, 0,
                                profile.registry, progress, on_done=beat)
            for case, payload in zip(batch, ordered):
                profile.note_case(
                    payload["shape"], payload["kind"], payload["seconds"],
                    failed=bool(payload["failures"]),
                )
                if payload["failures"]:
                    if minimize and sum(
                        1 for f in failures if f.reproducer is not None
                    ) < max_minimized:
                        failures.append(
                            _minimize_failure(case, payload, repro_dir)
                        )
                    else:
                        failures.append(FuzzFailure(
                            case_id=payload["case_id"],
                            case_seed=payload["case_seed"],
                            shape=payload["shape"],
                            kind=payload["kind"],
                            failures=payload["failures"],
                        ))
                    if progress:
                        progress(f"case {payload['case_id']}: FAIL "
                                 f"({payload['failures'][0][:80]})")
                elif progress and payload["case_id"] % 50 == 0:
                    progress(f"case {payload['case_id']}: ok "
                             f"({payload['shape']}/{payload['kind']})")
    profile.wall_seconds = time.perf_counter() - started
    return FuzzReport(profile=profile, failures=failures)
