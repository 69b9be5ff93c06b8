"""Register rename stage (the functional side of Section 4.1).

The delay models in :mod:`repro.delay.rename` answer "how slow is
renaming"; this module implements what the logic *does*: a map table
from logical to physical registers, a free list, and the dependence
check that renames a whole group per cycle -- a logical source written
by an earlier instruction *in the same group* must receive that
instruction's newly allocated physical register, not the stale map
entry (the paper's "dependence check logic (SLICE)" and output muxes).

Physical registers are recycled with the standard discipline: an
instruction frees the register *previously* mapped to its destination
when it commits (at that point no consumer can still name it).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.isa.instructions import NUM_LOGICAL_REGS


@dataclass(frozen=True)
class RenamedInstruction:
    """The rename stage's output for one instruction.

    Attributes:
        phys_srcs: Physical registers holding the source operands.
        phys_dest: Newly allocated physical destination, or None.
        prev_dest: Physical register previously mapped to the logical
            destination; freed when this instruction commits.
        group_bypassed: Per-source flags: True when the mapping came
            from the dependence-check logic (an earlier instruction in
            the same rename group) instead of the map table.
    """

    phys_srcs: tuple[int, ...]
    phys_dest: int | None
    prev_dest: int | None
    group_bypassed: tuple[bool, ...]


class OutOfPhysicalRegisters(RuntimeError):
    """Raised when allocation is attempted with an empty free list."""


@dataclass
class RegisterRenamer:
    """Map table + free list for one register class (or a flat space).

    Example:
        >>> renamer = RegisterRenamer(physical_registers=70)
        >>> group = renamer.rename_group([((1, 2), 3)])  # r3 = f(r1, r2)
        >>> group[0].phys_srcs  # initial identity mapping
        (1, 2)
        >>> second = renamer.rename_group([((3,), 4)])   # r4 = f(r3)
        >>> second[0].phys_srcs[0] == group[0].phys_dest
        True
    """

    physical_registers: int = 120
    logical_registers: int = NUM_LOGICAL_REGS
    _map: list[int] = field(default_factory=list, repr=False)
    _free: list[int] = field(default_factory=list, repr=False)

    def __post_init__(self) -> None:
        if self.physical_registers <= self.logical_registers:
            raise ValueError(
                f"need more physical ({self.physical_registers}) than logical "
                f"({self.logical_registers}) registers"
            )
        # Power-on state: logical register i lives in physical i.
        self._map = list(range(self.logical_registers))
        self._free = list(range(self.logical_registers, self.physical_registers))
        # Membership shadow of _free for O(1) double-release detection
        # (the list stays the allocation-order source of truth).
        self._free_set = set(self._free)

    @property
    def free_count(self) -> int:
        """Physical registers currently available for allocation."""
        return len(self._free)

    def lookup(self, logical: int) -> int:
        """Current mapping of one logical register (map-table read)."""
        self._check_logical(logical)
        return self._map[logical]

    def _check_logical(self, logical: int) -> None:
        if not 0 <= logical < self.logical_registers:
            raise ValueError(f"logical register {logical} out of range")

    def rename_group(
        self, group: list[tuple[tuple[int, ...], int | None]]
    ) -> list[RenamedInstruction]:
        """Rename one dispatch group atomically.

        Args:
            group: Per instruction, ``(logical_sources, logical_dest)``
                with ``logical_dest`` None for non-writing instructions.

        Returns:
            One :class:`RenamedInstruction` per input, with
            intra-group dependences resolved through the dependence
            check logic (latest earlier writer wins).

        Raises:
            OutOfPhysicalRegisters: if the free list cannot cover the
                group's destinations; the map table is left unchanged
                (the machine would stall the whole group).
        """
        destinations = sum(1 for _srcs, dest in group if dest is not None)
        if destinations > len(self._free):
            raise OutOfPhysicalRegisters(
                f"group needs {destinations} registers, {len(self._free)} free"
            )
        results: list[RenamedInstruction] = []
        # Intra-group writers seen so far: logical -> physical.
        group_writers: dict[int, int] = {}
        for logical_srcs, logical_dest in group:
            phys_srcs = []
            bypassed = []
            for logical in logical_srcs:
                self._check_logical(logical)
                if logical in group_writers:
                    phys_srcs.append(group_writers[logical])
                    bypassed.append(True)
                else:
                    phys_srcs.append(self._map[logical])
                    bypassed.append(False)
            phys_dest = None
            prev_dest = None
            if logical_dest is not None:
                self._check_logical(logical_dest)
                phys_dest = self._free.pop()
                self._free_set.discard(phys_dest)
                # The register this destination will eventually free is
                # whatever held the logical register before this
                # instruction -- including an earlier group member.
                prev_dest = group_writers.get(logical_dest, self._map[logical_dest])
                group_writers[logical_dest] = phys_dest
            results.append(
                RenamedInstruction(
                    phys_srcs=tuple(phys_srcs),
                    phys_dest=phys_dest,
                    prev_dest=prev_dest,
                    group_bypassed=tuple(bypassed),
                )
            )
        # Commit the group's new mappings to the map table.
        for logical, physical in group_writers.items():
            self._map[logical] = physical
        return results

    def release(self, physical: int) -> None:
        """Return a physical register to the free list (at commit).

        Raises:
            ValueError: if the register is out of range or already
                free (double release is always a machine bug).
        """
        if not 0 <= physical < self.physical_registers:
            raise ValueError(f"physical register {physical} out of range")
        if physical in self._free_set:
            raise ValueError(f"double release of physical register {physical}")
        self._free.append(physical)
        self._free_set.add(physical)

    def live_mappings(self) -> dict[int, int]:
        """Snapshot of the current logical -> physical map."""
        return {logical: phys for logical, phys in enumerate(self._map)}
