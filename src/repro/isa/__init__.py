"""A MIPS-like RISC instruction set, assembler, and functional emulator.

The paper's simulator was a modified SimpleScalar running SPEC'95
binaries compiled for the (MIPS-derived) PISA instruction set.  Neither
the binaries nor the toolchain is available, so this package provides
the full substrate from scratch:

* :mod:`repro.isa.instructions` -- the instruction set: 32 integer and
  32 floating-point registers, the usual MIPS-style ALU, memory, and
  control operations;
* :mod:`repro.isa.assembler` -- a two-pass text assembler with labels
  and data directives, used to write the workload kernels;
* :mod:`repro.isa.emulator` -- a functional emulator that executes
  programs and emits the dynamic instruction trace consumed by the
  timing simulator in :mod:`repro.uarch`;
* :mod:`repro.isa.trace` -- that trace: per-instruction columns
  (producer links included) with a lazy :class:`DynInst` record view.
"""

from repro.isa.instructions import (
    FP_REG_BASE,
    NUM_LOGICAL_REGS,
    Instruction,
    OpClass,
    OPCODES,
    OpcodeInfo,
    reg_name,
)
from repro.isa.assembler import AssemblerError, Program, assemble
from repro.isa.emulator import EmulationError, Emulator, run_to_trace
from repro.isa.trace import DynInst, Trace

__all__ = [
    "FP_REG_BASE",
    "NUM_LOGICAL_REGS",
    "Instruction",
    "OpClass",
    "OPCODES",
    "OpcodeInfo",
    "reg_name",
    "AssemblerError",
    "Program",
    "assemble",
    "DynInst",
    "EmulationError",
    "Emulator",
    "Trace",
    "run_to_trace",
]
