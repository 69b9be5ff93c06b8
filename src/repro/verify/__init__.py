"""Differential fuzzing and architectural-oracle verification.

The repo carries three independent implementations of the same
machine -- the ISA emulator, the optimized timing pipeline, and the
frozen reference pipeline.  This package cross-checks them on
*sampled* (machine config, program) pairs instead of a fixed grid:

* :mod:`repro.verify.generator` -- constrained-random assembly
  programs (counted loops, aliasing stores, mispredicting branches).
* :mod:`repro.verify.sampler` -- machine-config and workload sampling
  over the canonical shape registry.
* :mod:`repro.verify.oracle` -- the shadow-interpreter architectural
  oracle, stats comparison, and timing-invariant checks.
* :mod:`repro.verify.fuzzer` -- the seeded campaign driver
  (``repro fuzz``), reusing the parallel campaign pool.
* :mod:`repro.verify.minimize` -- delta-debugging shrinker and
  reproducer emission.
* :mod:`repro.verify.selftest` -- the planted-bug proof that the
  harness detects and minimizes real divergences.
"""

from repro.verify.fuzzer import (
    DEFAULT_CASE_INSTRUCTIONS,
    FuzzCase,
    FuzzFailure,
    FuzzReport,
    check_source_on_config,
    derive_case_seed,
    run_fuzz,
    run_fuzz_case,
)
from repro.verify.generator import ProgramGenConfig, generate_source
from repro.verify.minimize import ddmin_lines, minimize_case, write_reproducer
from repro.verify.oracle import (
    check_timing_invariants,
    compare_architectural,
    compare_stats,
    shadow_run,
)
from repro.verify.sampler import sample_machine, sample_program, sample_synthetic
from repro.verify.selftest import SelfTestResult, run_selftest

__all__ = [
    "DEFAULT_CASE_INSTRUCTIONS",
    "FuzzCase",
    "FuzzFailure",
    "FuzzReport",
    "ProgramGenConfig",
    "SelfTestResult",
    "check_source_on_config",
    "check_timing_invariants",
    "compare_architectural",
    "compare_stats",
    "ddmin_lines",
    "derive_case_seed",
    "generate_source",
    "minimize_case",
    "run_fuzz",
    "run_fuzz_case",
    "run_selftest",
    "sample_machine",
    "sample_program",
    "sample_synthetic",
    "shadow_run",
    "write_reproducer",
]
