"""``vortex`` kernel: object-database record manipulation.

SPEC'95 147.vortex is an object-oriented database: it spends its time
looking records up through indices, validating their fields, and
updating them -- across many small procedure calls.  This kernel keeps
a table of 8-word records and a permuted primary index; its main loop
picks an id, calls ``lookup`` (index load), calls ``validate`` (branchy
field checks), and calls ``update`` or ``repair`` on the record.

Character: call-heavy control flow (jal/jr), records touched through
an index indirection, mixed predictable/unpredictable branches,
store-heavy updates.
"""

from __future__ import annotations

import functools

from repro.workloads._datagen import Lcg, words_directive

#: Number of records (power of two so ids can be masked).
RECORDS = 128
#: Words per record: [id, kind, balance, flags, a, b, checksum, pad].
RECORD_WORDS = 8


def _records_and_index() -> tuple[list[int], list[int]]:
    rng = Lcg(0x0DB)
    words: list[int] = []
    for record_id in range(RECORDS):
        kind = rng.next_below(4)
        balance = rng.next_below(1000)
        flags = rng.next_below(8)
        a = rng.next_below(500)
        b = rng.next_below(500)
        checksum = (record_id + kind + balance) & 0xFFFF
        words.extend([record_id, kind, balance, flags, a, b, checksum, 0])
    index = list(range(RECORDS))
    for i in range(len(index) - 1, 0, -1):
        j = rng.next_below(i + 1)
        index[i], index[j] = index[j], index[i]
    return words, index


@functools.cache
def source() -> str:
    """Assembly source text for the vortex kernel."""
    record_words, index = _records_and_index()
    return f"""
# vortex: object-database lookup/validate/update transaction loop
        .data
records:
{words_directive(record_words)}
index:
{words_directive(index)}
stats:   .space 32

        .text
main:
        la   r8, records
        la   r9, index
        la   r10, stats
        li   r11, 1             # transaction id seed

txn_loop:
        # next id: lcg step, masked into range
        li   r2, 75
        mult r11, r11, r2
        addiu r11, r11, 74
        andi r11, r11, 16383
        andi r12, r11, {RECORDS - 1}   # record id

        move r4, r12            # argument: id
        jal  lookup             # r2 = record address
        move r13, r2

        move r4, r13            # argument: record address
        jal  validate           # r2 = 0 ok, 1 bad checksum, 2 frozen
        beq  r2, r0, do_update
        li   r3, 1
        beq  r2, r3, do_repair
        lw   r5, 8(r10)         # frozen: count and skip
        addiu r5, r5, 1
        sw   r5, 8(r10)
        b    txn_loop

do_update:
        move r4, r13
        jal  update
        lw   r5, 0(r10)
        addiu r5, r5, 1
        sw   r5, 0(r10)
        b    txn_loop

do_repair:
        move r4, r13
        jal  repair
        lw   r5, 4(r10)
        addiu r5, r5, 1
        sw   r5, 4(r10)
        b    txn_loop

# ---- lookup(id in r4) -> record address in r2 -------------------------
lookup:
        sll  r2, r4, 2
        addu r2, r2, r9
        lw   r2, 0(r2)          # physical record number via index
        sll  r2, r2, 5          # * RECORD_WORDS * 4
        addu r2, r2, r8
        jr   $ra

# ---- validate(addr in r4) -> status in r2 -----------------------------
validate:
        lw   r5, 12(r4)         # flags
        andi r6, r5, 4          # frozen bit
        beq  r6, r0, check_sum
        li   r2, 2
        jr   $ra
check_sum:
        lw   r5, 0(r4)          # id
        lw   r6, 4(r4)          # kind
        lw   r7, 8(r4)          # balance
        addu r5, r5, r6
        addu r5, r5, r7
        andi r5, r5, 65535
        lw   r6, 24(r4)         # stored checksum
        beq  r5, r6, sum_ok
        li   r2, 1
        jr   $ra
sum_ok:
        li   r2, 0
        jr   $ra

# ---- update(addr in r4): post a transaction to the record -------------
update:
        lw   r5, 8(r4)          # balance
        lw   r6, 16(r4)         # a
        lw   r7, 20(r4)         # b
        addu r5, r5, r6
        subu r5, r5, r7
        bgez r5, bal_ok
        li   r5, 0              # clamp at zero
bal_ok:
        andi r5, r5, 65535
        sw   r5, 8(r4)
        # rotate a and b
        addiu r6, r6, 7
        andi r6, r6, 511
        sw   r6, 16(r4)
        addiu r7, r7, 3
        andi r7, r7, 511
        sw   r7, 20(r4)
        # refresh the checksum
        lw   r6, 0(r4)
        lw   r7, 4(r4)
        addu r6, r6, r7
        addu r6, r6, r5
        andi r6, r6, 65535
        sw   r6, 24(r4)
        jr   $ra

# ---- repair(addr in r4): rebuild the checksum -------------------------
repair:
        lw   r5, 0(r4)
        lw   r6, 4(r4)
        lw   r7, 8(r4)
        addu r5, r5, r6
        addu r5, r5, r7
        andi r5, r5, 65535
        sw   r5, 24(r4)
        jr   $ra
"""
