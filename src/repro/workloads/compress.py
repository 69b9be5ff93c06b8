"""``compress`` kernel: LZW-style compression.

SPEC'95 129.compress spends its time hashing (prefix, byte) pairs and
probing a code table.  This kernel reproduces that inner loop: it reads
a compressible byte stream, hashes each (prefix, symbol) pair, probes
an open-addressed code table, extends the prefix on a hit, and emits a
code plus a table insert on a miss.  When the code table fills past
half, it is flushed -- exactly as compress resets its dictionary.

Character: data-dependent branches (hit/miss/probe), a serial hash
dependence chain, and loads whose addresses depend on recent
computation.
"""

from __future__ import annotations

import functools

from repro.workloads._datagen import skewed_bytes, words_directive

#: Number of input symbols (the kernel loops over them indefinitely).
INPUT_SYMBOLS = 256
#: Code-table slots (power of two for masking).
TABLE_SIZE = 1024


@functools.cache
def source() -> str:
    """Assembly source text for the compress kernel."""
    symbols = skewed_bytes(INPUT_SYMBOLS, seed=0xC0DE, alphabet=48)
    table_mask = TABLE_SIZE - 1
    flush_limit = 256 + TABLE_SIZE // 2
    return f"""
# compress: LZW-style hash/probe compression loop
        .data
input:
{words_directive(symbols)}
keys:   .space {4 * TABLE_SIZE}
codes:  .space {4 * TABLE_SIZE}
output: .space 1024

        .text
main:
        la   r8, input          # input base
        li   r9, {INPUT_SYMBOLS} # input length
        li   r10, 0             # input index
        li   r11, 0             # current prefix code
        la   r12, keys
        la   r13, codes
        la   r14, output
        li   r15, 256           # next free code
        li   r16, 0             # output index

outer:
        blt  r10, r9, body      # wrap the input when exhausted
        li   r10, 0
        li   r11, 0
body:
        sll  r17, r10, 2
        addu r17, r17, r8
        lw   r18, 0(r17)        # c = input[i]
        sll  r19, r11, 5        # hash = ((prefix << 5) ^ c) & mask
        xor  r19, r19, r18
        andi r19, r19, {table_mask}
        sll  r20, r11, 8        # key = (prefix << 8) | c
        or   r20, r20, r18

probe:
        sll  r21, r19, 2
        addu r22, r21, r12
        lw   r23, 0(r22)        # key stored at slot
        beq  r23, r20, hit
        beq  r23, r0, miss
        addiu r19, r19, 1       # linear probe to next slot
        andi r19, r19, {table_mask}
        b    probe

hit:
        addu r24, r21, r13
        lw   r11, 0(r24)        # prefix = code[slot]
        addiu r10, r10, 1
        b    outer

miss:
        sw   r20, 0(r22)        # insert key
        addu r24, r21, r13
        sw   r15, 0(r24)        # assign next code
        addiu r15, r15, 1
        sll  r25, r16, 2        # emit current prefix
        addu r25, r25, r14
        sw   r11, 0(r25)
        addiu r16, r16, 1
        andi r16, r16, 255
        move r11, r18           # restart prefix at the symbol
        addiu r10, r10, 1
        li   r5, {flush_limit}  # dictionary full? flush it
        blt  r15, r5, outer

flush:                          # clear the key table, reset codes
        li   r6, 0
        move r7, r12
clear:
        sw   r0, 0(r7)
        addiu r7, r7, 4
        addiu r6, r6, 1
        li   r5, {TABLE_SIZE}
        blt  r6, r5, clear
        li   r15, 256
        li   r11, 0
        b    outer
"""
