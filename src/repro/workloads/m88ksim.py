"""``m88ksim`` kernel: an instruction-set simulator's dispatch loop.

SPEC'95 124.m88ksim simulates a Motorola 88100: fetch a guest
instruction word, crack its bitfields, dispatch on the opcode, and
execute against guest architectural state.  This kernel does exactly
that for a small synthetic guest ISA: 8 guest opcodes over a 16-entry
guest register file held in memory, with guest branches that redirect
the guest PC.

Character: a serial fetch-decode dependence chain every iteration,
indirect dispatch (jr) with data-dependent targets, guest register
loads/stores with good locality.
"""

from __future__ import annotations

import functools

from repro.workloads._datagen import Lcg, words_directive

#: Number of guest instructions.
GUEST_PROGRAM = 192
#: Guest opcodes 0..7: add, sub, and, or, xor, shift, load-imm, branch.
GUEST_OPCODES = 8


def _guest_program() -> list[int]:
    """Encoded guest instructions: op<<24 | rd<<16 | rs<<8 | imm."""
    rng = Lcg(0x88100)
    words = []
    for index in range(GUEST_PROGRAM):
        op = rng.next_below(GUEST_OPCODES)
        rd = rng.next_below(16)
        rs = rng.next_below(16)
        imm = rng.next_below(256)
        if op == 7:
            # Guest branch: displacement in imm (biased backwards but
            # bounded so the guest program keeps moving forward).
            imm = rng.next_below(16)
        words.append((op << 24) | (rd << 16) | (rs << 8) | imm)
    return words


@functools.cache
def source() -> str:
    """Assembly source text for the m88ksim kernel."""
    program_words = _guest_program()
    return f"""
# m88ksim: guest-ISA fetch/decode/dispatch/execute loop
        .data
gprog:
{words_directive(program_words)}
gregs:  .space 64               # 16 guest registers
handlers: .space {4 * GUEST_OPCODES}

        .text
main:
        la   r8, gprog
        la   r9, gregs
        la   r10, handlers
        li   r11, 0             # guest pc
        li   r12, {GUEST_PROGRAM}
        # install the guest opcode handlers
        li   r2, g_add
        sw   r2, 0(r10)
        li   r2, g_sub
        sw   r2, 4(r10)
        li   r2, g_and
        sw   r2, 8(r10)
        li   r2, g_or
        sw   r2, 12(r10)
        li   r2, g_xor
        sw   r2, 16(r10)
        li   r2, g_shift
        sw   r2, 20(r10)
        li   r2, g_li
        sw   r2, 24(r10)
        li   r2, g_branch
        sw   r2, 28(r10)

fetch:
        blt  r11, r12, decode   # wrap the guest pc
        li   r11, 0
decode:
        sll  r13, r11, 2        # fetch guest word (serial chain)
        addu r13, r13, r8
        lw   r14, 0(r13)
        srl  r15, r14, 24       # op
        srl  r16, r14, 16       # rd
        andi r16, r16, 15
        srl  r17, r14, 8        # rs
        andi r17, r17, 15
        andi r18, r14, 255      # imm
        sll  r19, r15, 2        # handler dispatch
        addu r19, r19, r10
        lw   r20, 0(r19)
        addiu r11, r11, 1       # default: guest pc advances
        # guest register operand addresses
        sll  r21, r16, 2
        addu r21, r21, r9       # &gregs[rd]
        sll  r22, r17, 2
        addu r22, r22, r9       # &gregs[rs]
        jr   r20

g_add:
        lw   r23, 0(r21)
        lw   r24, 0(r22)
        addu r23, r23, r24
        sw   r23, 0(r21)
        b    fetch
g_sub:
        lw   r23, 0(r21)
        lw   r24, 0(r22)
        subu r23, r23, r24
        sw   r23, 0(r21)
        b    fetch
g_and:
        lw   r23, 0(r21)
        lw   r24, 0(r22)
        and  r23, r23, r24
        sw   r23, 0(r21)
        b    fetch
g_or:
        lw   r23, 0(r21)
        lw   r24, 0(r22)
        or   r23, r23, r24
        sw   r23, 0(r21)
        b    fetch
g_xor:
        lw   r23, 0(r21)
        lw   r24, 0(r22)
        xor  r23, r23, r24
        sw   r23, 0(r21)
        b    fetch
g_shift:
        lw   r23, 0(r22)
        andi r24, r18, 7
        sllv r23, r23, r24
        andi r23, r23, 65535    # keep guest values bounded
        sw   r23, 0(r21)
        b    fetch
g_li:
        sw   r18, 0(r21)
        b    fetch
g_branch:                       # guest conditional: taken if reg != 0
        lw   r23, 0(r22)
        beq  r23, r0, fetch     # not taken: fall through
        subu r11, r11, r18      # jump backwards by imm
        bgez r11, fetch
        li   r11, 0
        b    fetch
"""
