"""Workload kernels modeled on the paper's SPEC'95 integer benchmarks.

The paper evaluated seven SPEC'95 integer benchmarks (compress, gcc,
go, li, m88ksim, perl, vortex) on their training inputs.  The binaries
and inputs are proprietary, so each module here provides a hand-written
assembly kernel with the documented character of its namesake:

========== ==========================================================
compress    LZW-style compression: hashing, table probing,
            data-dependent branches.
gcc         token scanning and a state machine: many irregular
            branches, jump tables.
go          board evaluation: nested loops over a 19x19 array,
            branchy neighbour/liberty checks.
li          cons-cell list interpreter: pointer chasing, long serial
            dependence chains (lowest ILP of the set).
m88ksim     instruction-set simulator: fetch/decode/dispatch loop,
            bitfield extraction chains, indirect jumps.
perl        string hashing and associative lookups: byte loops,
            bucket-chain walks.
vortex      object database: record traversal, field updates,
            call-heavy control flow.
========== ==========================================================

All kernels are deterministic: their input data is generated by a
fixed linear-congruential generator at assembly time.

Use :func:`get_trace` to obtain (and cache) the committed dynamic
trace of a workload, which is what the timing simulator consumes.

Beyond the paper suite, every workload -- these kernels, the
Mini-compiled extras, the synthetic ``zoo_*`` scenarios, and any
registered external traces -- lives in the first-class
:data:`~repro.workloads.registry.WORKLOAD_REGISTRY`, which carries
each workload's kind, content fingerprint, and versioned cache-key
identity (see :mod:`repro.workloads.registry`).
"""

from __future__ import annotations

from repro.isa import Program, Trace
from repro.workloads import (
    compress,
    gcc,
    go,
    li,
    m88ksim,
    perl,
    vortex,
)
from repro.workloads.synthetic import SyntheticConfig, synthetic_trace
from repro.workloads.extra import (
    EXTRA_WORKLOAD_NAMES,
    build_extra_program,
    get_extra_trace,
)
from repro.workloads.registry import (
    WORKLOAD_REGISTRY,
    Workload,
    build_source,
    get_workload,
    register_external_trace,
    register_workload,
    workload_identity,
    workload_names,
)
from repro.workloads import zoo as _zoo  # registers the zoo_* scenarios
from repro.workloads.zoo import ZOO_NAMES

#: Benchmark names in the paper's Figure 13/15/17 order.
WORKLOAD_NAMES: tuple[str, ...] = (
    "compress",
    "gcc",
    "go",
    "li",
    "m88ksim",
    "perl",
    "vortex",
)

_SOURCES = {
    "compress": compress.source,
    "gcc": gcc.source,
    "go": go.source,
    "li": li.source,
    "m88ksim": m88ksim.source,
    "perl": perl.source,
    "vortex": vortex.source,
}


def build_program(name: str) -> Program:
    """Assemble (once per source text) a paper workload kernel by name.

    Raises:
        KeyError: for an unknown workload name.
    """
    if name not in _SOURCES:
        known = ", ".join(WORKLOAD_NAMES)
        raise KeyError(f"unknown workload {name!r} (known: {known})")
    return build_source(_SOURCES[name]())


def get_trace(name: str, max_instructions: int = 30_000) -> Trace:
    """Execute (and cache) a registered workload to its dynamic trace.

    Routes through the :data:`WORKLOAD_REGISTRY`, so any registered
    name works -- the paper kernels, ``dct``/``qsort``, the ``zoo_*``
    scenarios, and external traces alike.

    Args:
        name: Any name in :func:`workload_names`.
        max_instructions: Cap on committed instructions (the kernels
            loop long enough to fill any realistic cap).

    Raises:
        KeyError: for an unknown workload name.
    """
    return get_workload(name).trace(max_instructions)


def all_traces(max_instructions: int = 30_000) -> dict[str, Trace]:
    """Traces for every benchmark, keyed by name, in paper order."""
    return {name: get_trace(name, max_instructions) for name in WORKLOAD_NAMES}


__all__ = [
    "WORKLOAD_NAMES",
    "build_program",
    "get_trace",
    "all_traces",
    "SyntheticConfig",
    "synthetic_trace",
    "EXTRA_WORKLOAD_NAMES",
    "build_extra_program",
    "get_extra_trace",
    "WORKLOAD_REGISTRY",
    "Workload",
    "ZOO_NAMES",
    "get_workload",
    "register_external_trace",
    "register_workload",
    "workload_identity",
    "workload_names",
]
