"""Register dependence precomputation over a dynamic trace.

The trace is the committed instruction stream, so each source
operand's producer is simply the most recent earlier instruction that
wrote the register.  Producers and consumer lists are machine
independent; they are computed once per trace and cached on it
(consumer lists only when first read).
"""

from __future__ import annotations

from repro.isa.emulator import Trace

#: Producer seq meaning "value was available before the trace began".
NO_PRODUCER = -1


class DependenceInfo:
    """Per-instruction dependence structure of a trace.

    Attributes:
        producers: For instruction ``i``, a tuple of producer seq
            numbers, one per source operand (:data:`NO_PRODUCER` when
            the value predates the trace).  Duplicate producers are
            kept -- an instruction reading the same register twice
            still has one wakeup event per operand.
        consumers: For instruction ``i``, the seqs of later
            instructions with ``i`` as a producer (each consumer
            listed once per dependent operand).  Built on first
            access: the simulators never read it.
    """

    def __init__(self, insts: list, producers: list[tuple[int, ...]]):
        self.producers = producers
        self._insts = insts
        self._consumers: list[list[int]] | None = None

    @property
    def consumers(self) -> list[list[int]]:
        if self._consumers is None:
            consumers: list[list[int]] = [[] for _ in self.producers]
            for inst, inst_producers in zip(self._insts, self.producers):
                for producer in inst_producers:
                    if producer != NO_PRODUCER:
                        consumers[producer].append(inst.seq)
            self._consumers = consumers
        return self._consumers


def dependence_info(trace: Trace) -> DependenceInfo:
    """Compute (and cache on the trace) its dependence structure."""
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
    info = DependenceInfo(trace.insts, producers)
    trace._dependence_info = info  # cache for reuse across machines
    return info
