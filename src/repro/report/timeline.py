"""Pipeline timeline rendering (textbook pipe diagrams).

Renders a traced simulation's per-instruction lifecycle as the classic
instruction/cycle grid::

    seq opcode        0123456789
      0 li r1, 0      F.DI*C
      1 addu r1, ...  F.D.I*C

Stage letters: ``F`` fetch, ``D`` dispatch (rename/steer), ``I``
issue, ``*`` execution occupancy after issue, ``C`` commit.  This is
the fastest way to *see* timing effects -- e.g. the Figure 10 bubble
between dependent instructions when wakeup/select is pipelined.

The grid is built **only** from :class:`~repro.obs.events.TraceEvent`
records emitted by the pipeline itself, so the timeline can never
disagree with the simulator: attach an
:class:`~repro.obs.events.EventTracer` when constructing the
simulator and render after ``run()``::

    tracer = EventTracer()
    simulator = PipelineSimulator(config, trace, tracer=tracer)
    simulator.run()
    print(render_timeline(simulator, 0, 16))
"""

from __future__ import annotations

from repro.obs.events import EventKind, TraceEvent

class _Row:
    """Stage cycles of one instruction, accumulated from events."""

    __slots__ = ("fetch", "dispatch", "issue", "complete", "commit")

    def __init__(self):
        self.fetch = None
        self.dispatch = None
        self.issue = None
        self.complete = None
        self.commit = None

    @property
    def missing(self) -> list[str]:
        return [
            name for name in self.__slots__ if getattr(self, name) is None
        ]


def rows_from_events(
    events: list[TraceEvent], first: int, last: int
) -> dict[int, _Row]:
    """Fold lifecycle events into per-instruction stage cycles.

    Only instructions with ``first <= seq < last`` are kept.  Events
    outside the lifecycle kinds used by the grid are ignored.
    """
    rows: dict[int, _Row] = {}

    def row(seq: int) -> _Row:
        if seq not in rows:
            rows[seq] = _Row()
        return rows[seq]

    for event in events:
        if not first <= event.seq < last:
            continue
        kind = event.kind
        if kind is EventKind.FETCH:
            row(event.seq).fetch = event.cycle
        elif kind is EventKind.DISPATCH:
            row(event.seq).dispatch = event.cycle
        elif kind is EventKind.ISSUE:
            row(event.seq).issue = event.cycle
        elif kind is EventKind.EXECUTE:
            row(event.seq).complete = event.cycle + event.dur
        elif kind is EventKind.COMMIT:
            row(event.seq).commit = event.cycle
    return rows


def render_timeline(
    simulator,
    first: int = 0,
    count: int = 16,
    max_width: int = 100,
) -> str:
    """Render the pipeline timeline of a committed instruction range.

    Args:
        simulator: A :class:`~repro.uarch.pipeline.PipelineSimulator`
            constructed with a tracer, whose :meth:`run` has
            completed.
        first: First dynamic sequence number to show.
        count: Number of instructions.
        max_width: Clip the cycle axis to this many columns.

    Raises:
        ValueError: for an empty or out-of-range instruction range,
            a simulator without a tracer, or a tracer whose ring
            buffer no longer holds the requested instructions.
    """
    n = len(simulator.insts)
    if count < 1:
        raise ValueError(f"count must be >= 1, got {count}")
    if not 0 <= first < n:
        raise ValueError(f"first={first} outside trace of {n} instructions")
    tracer = getattr(simulator, "tracer", None)
    if tracer is None:
        raise ValueError(
            "timeline rendering consumes tracer events: construct the "
            "simulator with PipelineSimulator(config, trace, "
            "tracer=EventTracer())"
        )
    last = min(n, first + count)
    rows = rows_from_events(tracer.events, first, last)
    for seq in range(first, last):
        missing = rows[seq].missing if seq in rows else ["all events"]
        if missing:
            raise ValueError(
                f"instruction {seq} is missing {', '.join(missing)} "
                f"events ({tracer.dropped} events were evicted; run the "
                f"simulation, or raise the tracer capacity)"
            )

    base_cycle = min(rows[seq].fetch for seq in rows)
    end_cycle = max(rows[seq].commit for seq in rows)
    width = min(max_width, end_cycle - base_cycle + 1)

    def label(seq: int) -> str:
        inst = simulator.insts[seq]
        return f"{inst.opcode} (pc {inst.pc})"

    label_width = min(28, max(len(label(seq)) for seq in rows))
    lines = [
        f"{'seq':>5s} {'instruction'.ljust(label_width)} "
        f"cycles {base_cycle}..{base_cycle + width - 1}"
    ]
    for seq in sorted(rows):
        cells = ["."] * width
        row = rows[seq]

        def put(cycle, glyph):
            offset = cycle - base_cycle
            if 0 <= offset < width:
                cells[offset] = glyph

        put(row.fetch, "F")
        put(row.dispatch, "D")
        put(row.issue, "I")
        for cycle in range(row.issue + 1, row.complete):
            put(cycle, "*")
        put(row.commit, "C")
        text = label(seq)[:label_width]
        lines.append(f"{seq:5d} {text.ljust(label_width)} {''.join(cells)}")
    return "\n".join(lines)
