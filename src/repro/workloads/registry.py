"""First-class workloads: the registry every consumer draws from.

Machines got a real registry in :mod:`repro.core.machines`; this is
the workload-side mirror.  A :class:`Workload` bundles a *name*, a
*kind* (kernel / synthetic / external trace), a human description, a
trace loader, and -- critically -- a **content fingerprint**.  The
kind plus fingerprint form the workload's *identity*, which the
campaign cache key, the grid fingerprint, and the service cell keys
all hash (see :func:`repro.core.campaign.cache_key`).  That closes the
latent staleness hole where editing a kernel's source silently reused
cached ``SimStats`` keyed only by its name.  Changes to how traces are
generated are covered by the same keys' model fingerprint
(:func:`repro.core.campaign.model_fingerprint`), which hashes this
package's source.

Fingerprints are computed **at call time** from the workload's
current content (a kernel's source text read through its module
attribute, a synthetic scenario's canonical config, an external trace
file's bytes), so an edit -- or a test monkeypatching a kernel's
``source`` -- changes every derived cache key, and the trace cache's
key, immediately.  Each paper kernel's ``source()`` is memoized per
process, so a fingerprint costs one sha256 of its text; a
monkeypatched ``source`` is a new function and is seen at once.

Registration order is presentation order: the seven paper kernels
first (Figure 13/15/17 order), then the Mini-compiled extras, then
the ``zoo_*`` synthetic scenarios (:mod:`repro.workloads.zoo`), then
any external traces registered at runtime.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from pathlib import Path
from typing import Callable

from repro.isa import Program, Trace, assemble, run_to_trace

#: The closed set of workload kinds.
KIND_KERNEL = "kernel"
KIND_SYNTHETIC = "synthetic"
KIND_EXTERNAL = "external"
WORKLOAD_KINDS = (KIND_KERNEL, KIND_SYNTHETIC, KIND_EXTERNAL)

#: Most instructions the trace cache holds at once.  A cached trace
#: costs about 350-430 bytes per instruction with its preanalysis, so
#: this bounds the cache near 0.4 GB, yet holds every registered
#: workload at the default budget (23 x 20,000) without eviction.
TRACE_CACHE_INSTRUCTIONS = 1_000_000

#: Traces, per (workload name, content fingerprint, budget), least
#: recently used first: an edited (or monkeypatched, or re-registered)
#: workload builds afresh, never serving its predecessor's stream.
_TRACE_CACHE: dict[tuple[str, str, int], Trace] = {}

#: Built programs, keyed by (language, source text): each kernel is
#: assembled or compiled once per process whatever the budget, and an
#: edited (or monkeypatched) source builds afresh.
_PROGRAM_CACHE: dict[tuple[str, str], Program] = {}


def build_source(source: str, language: str = "asm") -> Program:
    """The program for ``source``, built once per process.

    Args:
        source: Program text.
        language: ``"asm"`` (the :mod:`repro.isa` assembler) or
            ``"mini"`` (the :mod:`repro.lang` compiler).
    """
    key = (language, source)
    program = _PROGRAM_CACHE.get(key)
    if program is None:
        if language == "mini":
            from repro.lang import compile_source

            program = compile_source(source)
        elif language == "asm":
            program = assemble(source)
        else:
            raise ValueError(f"unknown program language {language!r}")
        _PROGRAM_CACHE[key] = program
    return program


class Workload:
    """One registered workload: identity plus a trace loader.

    Args:
        name: Registry key (unique).
        kind: One of :data:`WORKLOAD_KINDS`.
        description: One-line human description (the ``repro
            workloads`` listing and ``/v1/workloads`` serve this).
        loader: ``loader(max_instructions) -> Trace``.
        content: Zero-argument callable returning the bytes that
            *define* this workload (source text, canonical config,
            trace-file bytes).  Called fresh on every
            :meth:`fingerprint` so edits are seen immediately.
    """

    def __init__(self, name: str, kind: str, description: str,
                 loader: Callable[[int], Trace],
                 content: Callable[[], bytes]) -> None:
        if kind not in WORKLOAD_KINDS:
            raise ValueError(
                f"kind must be one of {WORKLOAD_KINDS}, got {kind!r}")
        self.name = name
        self.kind = kind
        self.description = description
        self._loader = loader
        self._content = content

    def fingerprint(self) -> str:
        """sha256 hex digest of the workload's current content."""
        return hashlib.sha256(self._content()).hexdigest()

    def identity(self) -> dict:
        """The identity dict hashed into campaign/service cache keys."""
        return {"kind": self.kind, "fingerprint": self.fingerprint()}

    def trace(self, max_instructions: int = 30_000) -> Trace:
        """The workload's dynamic trace, cached per (name, content
        fingerprint, budget) up to :data:`TRACE_CACHE_INSTRUCTIONS`."""
        key = (self.name, self.fingerprint(), max_instructions)
        trace = _TRACE_CACHE.pop(key, None)
        if trace is None:
            trace = self._loader(max_instructions)
        # Keep it as the newest entry and evict the least recently
        # used down to the cap; a trace longer than the cap is not kept.
        if len(trace) <= TRACE_CACHE_INSTRUCTIONS:
            _TRACE_CACHE[key] = trace
            cached = sum(map(len, _TRACE_CACHE.values()))
            while cached > TRACE_CACHE_INSTRUCTIONS:
                cached -= len(_TRACE_CACHE.pop(next(iter(_TRACE_CACHE))))
        return trace

    def __repr__(self) -> str:
        return f"Workload({self.name!r}, kind={self.kind!r})"


#: The registry: name -> Workload, in presentation order.
WORKLOAD_REGISTRY: dict[str, Workload] = {}


def register_workload(workload: Workload, replace: bool = False) -> Workload:
    """Add a workload to the registry (its name must be unique)."""
    name = workload.name
    if not replace and name in WORKLOAD_REGISTRY:
        raise ValueError(f"workload {name!r} already registered")
    WORKLOAD_REGISTRY[name] = workload
    return workload


def get_workload(name: str) -> Workload:
    """Look a workload up by name.

    Raises:
        KeyError: for an unknown workload name.
    """
    try:
        return WORKLOAD_REGISTRY[name]
    except KeyError:
        known = ", ".join(WORKLOAD_REGISTRY)
        raise KeyError(
            f"unknown workload {name!r} (known: {known})") from None


def workload_names(kind: str | None = None) -> tuple[str, ...]:
    """Registered names in registration order, optionally by kind."""
    if kind is None:
        return tuple(WORKLOAD_REGISTRY)
    return tuple(name for name, w in WORKLOAD_REGISTRY.items()
                 if w.kind == kind)


def workload_identity(name: str) -> dict:
    """The cache-key identity of ``name`` -- total, never raising.

    Unregistered names (tests inject fake workloads with stub
    runners) fall back to a name-only identity.
    """
    workload = WORKLOAD_REGISTRY.get(name)
    if workload is None:
        return {"kind": "unregistered", "fingerprint": name}
    return workload.identity()


# ----------------------------------------------------------------------
# built-in registrations
# ----------------------------------------------------------------------


def _register_kernel(name: str, module, description: str) -> None:
    """Register one hand-written assembly kernel.

    The content callable reads ``module.source`` through the module
    attribute *at call time*, so editing (or monkeypatching) a
    kernel's source changes its fingerprint -- and with it every
    campaign cache key -- immediately.
    """
    def loader(max_instructions: int) -> Trace:
        return run_to_trace(build_source(module.source()),
                            max_instructions=max_instructions, name=name)

    register_workload(Workload(
        name, KIND_KERNEL, description, loader,
        content=lambda: module.source().encode("utf-8"),
    ))


def _register_mini_kernel(name: str, description: str) -> None:
    """Register one Mini-compiled extra kernel (dct / qsort)."""
    from repro.workloads import extra

    def loader(max_instructions: int) -> Trace:
        return run_to_trace(build_source(extra._SOURCES[name], "mini"),
                            max_instructions=max_instructions, name=name)

    register_workload(Workload(
        name, KIND_KERNEL, description, loader,
        content=lambda: extra._SOURCES[name].encode("utf-8"),
    ))


def canonical_synthetic_content(config) -> bytes:
    """Canonical bytes of a synthetic scenario's generator config.

    ``length`` is excluded: the instruction budget is hashed into the
    cache key separately, exactly as it is for kernels.
    """
    fields = dataclasses.asdict(config)
    fields.pop("length", None)
    return json.dumps(fields, sort_keys=True,
                      separators=(",", ":")).encode("utf-8")


def register_external_trace(path: str | Path,
                            name: str | None = None,
                            replace: bool = False) -> Workload:
    """Register an external trace file as a first-class workload.

    The file must be in the versioned JSON-lines format defined by
    :mod:`repro.workloads.trace_format`; it is validated eagerly so a
    malformed file fails here, not mid-campaign.  The fingerprint is
    the sha256 of the file bytes captured at registration.

    Args:
        path: Trace file in ``repro-trace`` JSONL format.
        name: Registry name (default ``trace:<file stem>``).
        replace: Allow re-registering an existing name.
    """
    from repro.workloads.trace_format import load_trace

    path = Path(path)
    full = load_trace(path)
    digest = hashlib.sha256(path.read_bytes()).digest()
    name = name or f"trace:{path.stem}"

    def loader(max_instructions: int) -> Trace:
        return Trace(insts=full.insts[:max_instructions],
                     halted=full.halted and max_instructions >= len(full),
                     name=name)

    return register_workload(Workload(
        name, KIND_EXTERNAL,
        f"external trace ({len(full)} insts from {path.name})",
        loader, content=lambda: digest,
    ), replace=replace)


def _register_paper_kernels() -> None:
    from repro.workloads import (
        compress, gcc, go, li, m88ksim, perl, vortex,
    )

    for name, module, description in (
        ("compress", compress,
         "LZW-style compression: hashing, table probing"),
        ("gcc", gcc, "token scanner / state machine: irregular branches"),
        ("go", go, "board evaluation: nested loops, branchy checks"),
        ("li", li, "cons-cell interpreter: pointer chasing, low ILP"),
        ("m88ksim", m88ksim,
         "ISA simulator: fetch/decode loop, indirect jumps"),
        ("perl", perl, "string hashing, bucket-chain walks"),
        ("vortex", vortex, "object database: call-heavy traversal"),
    ):
        _register_kernel(name, module, description)
    _register_mini_kernel(
        "dct", "Mini-compiled 8x8 integer DCT sweep: high ILP")
    _register_mini_kernel(
        "qsort", "Mini-compiled quicksort: recursion, data-dependent "
                 "branches")


_register_paper_kernels()
