"""Issue FIFOs and FIFO pools (Section 5).

The dependence-based microarchitecture replaces the issue window with
a small set of FIFOs constrained to issue in order; dependent
instructions are steered to the same FIFO.  A FIFO is acquired from a
free pool when an instruction is steered to a new (empty) FIFO and
returns to the pool when its last instruction issues.

The same structures double as the *conceptual* FIFOs of the
two-window dispatch-steered machine (Section 5.6.2): there the
assignment heuristic runs over FIFOs of depth four, but instructions
may issue from any slot, so :meth:`IssueFifo.remove` supports removal
from the middle.
"""

from __future__ import annotations


class IssueFifo:
    """One in-order issue buffer."""

    __slots__ = ("depth", "_entries")

    def __init__(self, depth: int):
        if depth < 1:
            raise ValueError(f"depth must be >= 1, got {depth}")
        self.depth = depth
        self._entries: list[int] = []

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, seq: int) -> bool:
        return seq in self._entries

    @property
    def is_empty(self) -> bool:
        return not self._entries

    @property
    def is_full(self) -> bool:
        return len(self._entries) >= self.depth

    @property
    def head(self) -> int:
        """Oldest entry (the only one eligible to issue in FIFO mode).

        Raises:
            IndexError: if the FIFO is empty.
        """
        return self._entries[0]

    @property
    def tail(self) -> int:
        """Youngest entry (steering may append behind it).

        Raises:
            IndexError: if the FIFO is empty.
        """
        return self._entries[-1]

    def push(self, seq: int) -> None:
        """Append at the tail.

        Raises:
            OverflowError: if the FIFO is full.
        """
        if self.is_full:
            raise OverflowError("push to a full FIFO")
        self._entries.append(seq)

    def pop_head(self) -> int:
        """Remove and return the head (FIFO-mode issue)."""
        return self._entries.pop(0)

    def remove(self, seq: int) -> None:
        """Remove an entry from anywhere (conceptual-FIFO mode).

        Raises:
            ValueError: if the entry is not present.
        """
        self._entries.remove(seq)


class FifoSet:
    """The FIFOs of one cluster, with free-pool bookkeeping."""

    __slots__ = ("fifos",)

    def __init__(self, count: int, depth: int):
        if count < 1:
            raise ValueError(f"count must be >= 1, got {count}")
        self.fifos = [IssueFifo(depth) for _ in range(count)]

    def __len__(self) -> int:
        return len(self.fifos)

    @property
    def occupancy(self) -> int:
        """Instructions currently buffered across all FIFOs."""
        return sum(len(f) for f in self.fifos)

    def empty_fifo_index(self) -> int | None:
        """Index of a free (empty) FIFO, or None if none is free."""
        for index, fifo in enumerate(self.fifos):
            if not fifo._entries:
                return index
        return None

    def heads(self):
        """Yield (fifo_index, head_seq) for each non-empty FIFO."""
        for index, fifo in enumerate(self.fifos):
            if not fifo.is_empty:
                yield index, fifo.head
