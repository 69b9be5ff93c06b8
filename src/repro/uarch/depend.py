"""Register dependence precomputation over a dynamic trace.

The trace is the committed instruction stream, so each source
operand's producer is simply the most recent earlier instruction that
wrote the register.  The producer links are machine independent; they
are computed once per trace and cached on it.
"""

from __future__ import annotations

from repro.isa.emulator import Trace

#: Producer seq meaning "value was available before the trace began".
NO_PRODUCER = -1


def dependence_info(trace: Trace) -> list[tuple[int, ...]]:
    """Compute (and cache on the trace) each instruction's producers.

    For instruction ``i``, a tuple of producer seq numbers, one per
    source operand (:data:`NO_PRODUCER` when the value predates the
    trace).  Duplicate producers are kept -- an instruction reading
    the same register twice still has one wakeup event per operand.
    """
    cached = getattr(trace, "_dependence_info", None)
    if cached is not None:
        return cached
    last_writer: dict[int, int] = {}
    writer = last_writer.get
    producers: list[tuple[int, ...]] = []
    append = producers.append
    for inst in trace.insts:
        srcs = inst.srcs
        count = len(srcs)  # ISA instructions read at most two registers
        if count == 2:
            append((writer(srcs[0], NO_PRODUCER), writer(srcs[1], NO_PRODUCER)))
        elif count == 1:
            append((writer(srcs[0], NO_PRODUCER),))
        elif count == 0:
            append(())
        else:
            append(tuple(writer(src, NO_PRODUCER) for src in srcs))
        dest = inst.dest
        if dest is not None:
            last_writer[dest] = inst.seq
    trace._dependence_info = producers  # cache for reuse across machines
    return producers
