"""Differential fuzzer throughput.

Not a paper figure -- this times the *reproduction's* verification
machinery (`repro.verify`): serial and parallel fuzz campaigns, and
the program-generation + oracle stack on its own.  The numbers keep
the CI fuzz-smoke budget honest: a 200-case run must fit comfortably
inside its wall-clock cap.
"""

import random

import pytest

from repro.isa.assembler import assemble
from repro.isa.emulator import Emulator
from repro.verify.fuzzer import run_fuzz
from repro.verify.generator import generate_source
from repro.verify.oracle import compare_architectural
from repro.verify.sampler import sample_program

CASES = 60


def test_fuzz_serial(benchmark, tmp_path, bench_report):
    report = benchmark.pedantic(
        lambda: run_fuzz(cases=CASES, seed=0, jobs=1, repro_dir=tmp_path),
        rounds=1, iterations=1,
    )
    assert report.ok
    profile = report.profile
    bench_report(
        "Differential fuzzer: serial campaign",
        f"{profile.cases} cases, {profile.cases_per_second:.1f} cases/s, "
        f"{len(profile.shape_counts)} machine shapes",
    )


def test_fuzz_parallel(benchmark, tmp_path):
    report = benchmark.pedantic(
        lambda: run_fuzz(cases=CASES, seed=0, jobs=2, repro_dir=tmp_path),
        rounds=1, iterations=1,
    )
    assert report.ok
    assert report.profile.jobs == 2


@pytest.mark.benchmark(group="fuzz-oracle")
def test_generate_and_oracle_check(benchmark):
    """Program generation + emulation + shadow-oracle comparison only
    (no timing simulation): the fixed per-case overhead."""

    def one_case():
        config = sample_program(random.Random(42))
        program = assemble(generate_source(config))
        emulator = Emulator(program)
        trace = emulator.run(2_000)
        return compare_architectural(emulator, trace, 2_000)

    failures = benchmark(one_case)
    assert failures == []
