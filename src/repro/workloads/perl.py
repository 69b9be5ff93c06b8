"""``perl`` kernel: string hashing and associative-array operations.

SPEC'95 134.perl interprets scripts dominated by hash (associative
array) operations: hashing strings byte by byte and walking bucket
chains.  This kernel interns a table of words into a chained hash
table: for each word it computes the classic ``h = h*31 + c`` hash over
the bytes, walks the bucket chain comparing keys, and either bumps the
value on a hit or links a new node on a miss.

Character: serial byte-hash chains (each step needs the previous
hash), pointer chasing through bucket chains, string compare loops
with data-dependent exits.
"""

from __future__ import annotations

import functools

from repro.workloads._datagen import Lcg

#: Number of distinct words interned.
WORD_COUNT = 48
#: Hash buckets (power of two).
BUCKETS = 32
#: Maximum nodes in the chain pool.
POOL = 256


def _words() -> list[str]:
    """Deterministic pseudo-words, 3-10 lowercase letters."""
    rng = Lcg(0x9E71)
    words = []
    seen = set()
    while len(words) < WORD_COUNT:
        length = 3 + rng.next_below(8)
        word = "".join(chr(ord("a") + rng.next_below(26)) for _ in range(length))
        if word not in seen:
            seen.add(word)
            words.append(word)
    return words


@functools.cache
def source() -> str:
    """Assembly source text for the perl kernel."""
    words = _words()
    string_directives = []
    offsets = []
    cursor = 0
    for word in words:
        offsets.append(cursor)
        string_directives.append(f'    .asciiz "{word}"')
        cursor += len(word) + 1
    strings_block = "\n".join(string_directives)
    offsets_block = "\n".join(
        f"    .word {offset}" for offset in offsets
    )
    bucket_mask = BUCKETS - 1
    return f"""
# perl: string hashing + chained associative array
        .data
strtab:
{strings_block}
        .align 2
offsets:
{offsets_block}
buckets: .space {4 * BUCKETS}
# node pool: each node is 16 bytes [key_ptr, value, next, pad]
pool:    .space {16 * POOL}

        .text
main:
        la   r8, strtab
        la   r9, offsets
        la   r10, buckets
        la   r11, pool
        li   r12, 0             # next free node index
        li   r13, 0             # word cursor

lookup_loop:
        li   r2, {WORD_COUNT}
        blt  r13, r2, pick
        li   r13, 0
pick:
        sll  r14, r13, 2
        addu r14, r14, r9
        lw   r15, 0(r14)        # string offset
        addu r15, r15, r8       # string address
        addiu r13, r13, 3       # stride through the table (coprime)

        # ---- hash the string: h = h*31 + c (serial chain) ----------
        li   r16, 0             # h
        move r17, r15           # byte cursor
hash_loop:
        lb   r18, 0(r17)
        beq  r18, r0, hash_done
        sll  r19, r16, 5
        subu r19, r19, r16      # h*31
        addu r16, r19, r18
        addiu r17, r17, 1
        b    hash_loop
hash_done:
        andi r20, r16, {bucket_mask}
        sll  r20, r20, 2
        addu r20, r20, r10      # &buckets[h]

        # ---- walk the chain ------------------------------------------
        lw   r21, 0(r20)        # node address (0 = empty)
chain_loop:
        beq  r21, r0, insert
        lw   r22, 0(r21)        # node key pointer
        # string compare key vs probe
        move r23, r22
        move r24, r15
cmp_loop:
        lb   r25, 0(r23)
        lb   r4, 0(r24)
        bne  r25, r4, cmp_fail
        beq  r25, r0, found     # both NUL: equal
        addiu r23, r23, 1
        addiu r24, r24, 1
        b    cmp_loop
cmp_fail:
        lw   r21, 8(r21)        # next node
        b    chain_loop

found:
        lw   r5, 4(r21)         # bump the value
        addiu r5, r5, 1
        sw   r5, 4(r21)
        b    lookup_loop

insert:                          # link a new node at the bucket head
        li   r2, {POOL}
        blt  r12, r2, have_node
        li   r12, 0             # pool exhausted: recycle from start
have_node:
        sll  r5, r12, 4
        addu r5, r5, r11        # node address
        addiu r12, r12, 1
        sw   r15, 0(r5)         # key pointer
        li   r6, 1
        sw   r6, 4(r5)          # value = 1
        lw   r6, 0(r20)
        sw   r6, 8(r5)          # next = old head
        sw   r5, 0(r20)         # head = node
        b    lookup_loop
"""
