"""One-pass trace pre-analysis for the timing simulator's hot path.

The cycle loop in :mod:`repro.uarch.pipeline` touches every dynamic
instruction many times (fetch, dispatch, wakeup, select, commit).  The
seed revision re-derived the same per-instruction facts on each touch:
operand producers, op-class membership tests (``op_class in (LOAD,
STORE)``), the renamer to use and the class-local destination index,
and the word address a store occupies.  All of those are pure
functions of the trace, so this module computes them **once per
trace** into flat parallel arrays indexed by dynamic sequence number
-- turning per-cycle attribute lookups and enum comparisons into
C-speed ``list``/``bytearray`` indexing.

The result is cached on the trace object (like
:func:`repro.uarch.depend.dependence_info`) so a campaign sweeping
many machines over one workload pays the pass once.  This module's
source is part of :func:`repro.core.campaign.model_fingerprint`, so a
change to what the pre-analysis feeds the simulator invalidates
cached cells rather than silently mixing with them.
"""

from __future__ import annotations

from repro.isa.emulator import Trace
from repro.isa.instructions import FP_REG_BASE, OpClass
from repro.uarch.depend import NO_PRODUCER, dependence_info

#: ``dest_kind`` codes: no destination / integer dest / floating dest.
DEST_NONE = 0
DEST_INT = 1
DEST_FP = 2

#: Attribute used to cache the analysis on a trace object.
_CACHE_ATTR = "_preanalysis_cache"


class TracePreAnalysis:
    """Machine-independent per-instruction facts, as flat arrays.

    Every attribute is a sequence of length ``len(trace)`` indexed by
    dynamic sequence number.

    Attributes:
        producers: Per-operand producer seqs (from
            :func:`~repro.uarch.depend.dependence_info`; duplicates
            kept, one wakeup per operand).
        real_producers: ``producers`` with :data:`NO_PRODUCER` entries
            removed -- the hot loops iterate these without the
            per-operand sentinel test.
        is_load / is_store / is_mem / is_branch: Op-class membership
            as ``bytearray`` flags (``is_mem`` = load or store).
        mem_addr: Byte address touched by the instruction, or ``None``.
        mem_word: Word address (``mem_addr >> 2``) for memory ops with
            a resolved address, else ``-1``.
        dest_kind: :data:`DEST_NONE` / :data:`DEST_INT` /
            :data:`DEST_FP` -- which renamer (if any) the destination
            needs.
        dest: Flat logical destination index, or ``None`` (kept for
            trace-event details that print the architectural name).
        logical_dest: Class-local destination index (flat index minus
            :data:`~repro.isa.instructions.FP_REG_BASE` for FP), or
            ``-1`` without a destination.
        pc / taken: Fetch-stage facts for the branch predictor.
    """

    __slots__ = (
        "producers", "real_producers", "is_load", "is_store", "is_mem",
        "is_branch", "mem_addr", "mem_word", "dest_kind", "dest",
        "logical_dest", "pc", "taken",
    )

    def __init__(self, trace: Trace):
        insts = trace.insts
        n = len(insts)
        self.producers = dependence_info(trace)
        self.real_producers = [
            tuple(p for p in producers if p != NO_PRODUCER)
            for producers in self.producers
        ]
        self.is_load = bytearray(n)
        self.is_store = bytearray(n)
        self.is_mem = bytearray(n)
        self.is_branch = bytearray(n)
        self.mem_addr: list[int | None] = [None] * n
        self.mem_word = [-1] * n
        self.dest_kind = bytearray(n)
        self.dest: list[int | None] = [None] * n
        self.logical_dest = [-1] * n
        self.pc = [0] * n
        self.taken = [False] * n
        for seq, inst in enumerate(insts):
            op_class = inst.op_class
            if op_class is OpClass.LOAD:
                self.is_load[seq] = 1
                self.is_mem[seq] = 1
            elif op_class is OpClass.STORE:
                self.is_store[seq] = 1
                self.is_mem[seq] = 1
            if inst.mem_addr is not None:
                self.mem_addr[seq] = inst.mem_addr
                self.mem_word[seq] = inst.mem_addr >> 2
            if inst.is_branch:
                self.is_branch[seq] = 1
            dest = inst.dest
            if dest is not None:
                self.dest[seq] = dest
                if dest < FP_REG_BASE:
                    self.dest_kind[seq] = DEST_INT
                    self.logical_dest[seq] = dest
                else:
                    self.dest_kind[seq] = DEST_FP
                    self.logical_dest[seq] = dest - FP_REG_BASE
            self.pc[seq] = inst.pc
            self.taken[seq] = inst.taken


def preanalyze(trace: Trace) -> TracePreAnalysis:
    """Compute (and cache on the trace) its pre-analysis arrays."""
    cached = getattr(trace, _CACHE_ATTR, None)
    if cached is not None:
        return cached
    analysis = TracePreAnalysis(trace)
    try:
        setattr(trace, _CACHE_ATTR, analysis)
    except AttributeError:
        pass  # slotted/frozen trace stand-ins simply skip the cache
    return analysis
