"""``gcc`` kernel: token scanning with a dispatch-table state machine.

SPEC'95 126.gcc is dominated by irregular control flow: scanning
tokens, switching on their kinds, and updating many small data
structures.  This kernel scans a pseudo token stream and dispatches
each token kind through a jump table to a handler; handlers do small,
kind-specific work (operator-precedence checks, identifier interning
into a counter table, literal accumulation, nested comment skipping).

Character: high branch density, poorly predictable indirect dispatch,
short dependence chains with moderate ILP.
"""

from __future__ import annotations

import functools

from repro.workloads._datagen import Lcg, words_directive

#: Token stream length.
TOKEN_COUNT = 384
#: Number of token kinds (size of the dispatch table).
KIND_COUNT = 8
#: Kind code that opens a comment (skipped by an inner scan loop).
COMMENT_KIND = 6
#: Kind code that closes a comment.
COMMENT_END_KIND = 7


def _token_stream() -> list[int]:
    """(kind, value) pairs packed as kind*256 + value, biased toward
    identifiers/operators like real source text, with occasional
    comments that always eventually close."""
    rng = Lcg(0x6CC)
    tokens: list[int] = []
    weights = [22, 20, 16, 12, 10, 8, 6, 6]  # kinds 0..7
    total = sum(weights)
    pending_comment = False
    while len(tokens) < TOKEN_COUNT:
        pick = rng.next_below(total)
        kind = 0
        for k, weight in enumerate(weights):
            if pick < weight:
                kind = k
                break
            pick -= weight
        if pending_comment:
            # Inside a comment: close soon so scans stay bounded.
            kind = COMMENT_END_KIND if rng.next_below(3) == 0 else 0
        if kind == COMMENT_KIND:
            pending_comment = True
        if kind == COMMENT_END_KIND:
            pending_comment = False
        tokens.append(kind * 256 + rng.next_below(64))
    # Force-close any trailing comment.
    tokens[-1] = COMMENT_END_KIND * 256
    return tokens


@functools.cache
def source() -> str:
    """Assembly source text for the gcc kernel."""
    tokens = _token_stream()
    return f"""
# gcc: token scanner with jump-table dispatch
        .data
tokens:
{words_directive(tokens)}
dispatch: .space {4 * KIND_COUNT}
idents:  .space 256            # identifier counter table (64 slots)
stats:   .space 64

        .text
main:
        la   r8, tokens
        li   r9, {TOKEN_COUNT}
        li   r10, 0             # token index
        la   r11, dispatch
        la   r12, idents
        la   r13, stats
        li   r14, 0             # paren depth
        li   r15, 0             # literal accumulator
        # fill the dispatch table with handler addresses
        li   r2, h_ident
        sw   r2, 0(r11)
        li   r2, h_number
        sw   r2, 4(r11)
        li   r2, h_operator
        sw   r2, 8(r11)
        li   r2, h_lparen
        sw   r2, 12(r11)
        li   r2, h_rparen
        sw   r2, 16(r11)
        li   r2, h_keyword
        sw   r2, 20(r11)
        li   r2, h_comment
        sw   r2, 24(r11)
        li   r2, h_commentend
        sw   r2, 28(r11)

scan:
        blt  r10, r9, fetch     # wrap the stream when exhausted
        li   r10, 0
fetch:
        sll  r16, r10, 2
        addu r16, r16, r8
        lw   r17, 0(r16)        # token = kind*256 + value
        srl  r18, r17, 8        # kind
        andi r19, r17, 255      # value
        sll  r20, r18, 2
        addu r20, r20, r11
        lw   r21, 0(r20)        # handler address
        addiu r10, r10, 1
        jr   r21

h_ident:                        # intern: bump a counter keyed by value
        andi r22, r19, 63
        sll  r22, r22, 2
        addu r22, r22, r12
        lw   r23, 0(r22)
        addiu r23, r23, 1
        sw   r23, 0(r22)
        b    scan

h_number:                       # accumulate literal value
        addu r15, r15, r19
        slti r22, r15, 4096
        bne  r22, r0, scan
        sra  r15, r15, 1        # keep the accumulator bounded
        b    scan

h_operator:                     # precedence check: branchy compare tree
        slti r22, r19, 16
        beq  r22, r0, op_high
        addu r15, r15, r19
        b    scan
op_high:
        slti r22, r19, 40
        beq  r22, r0, op_max
        subu r15, r15, r19
        b    scan
op_max:
        sll  r15, r15, 1
        andi r15, r15, 8191
        b    scan

h_lparen:
        addiu r14, r14, 1
        b    scan

h_rparen:
        blez r14, scan          # unmatched close: ignore
        addiu r14, r14, -1
        b    scan

h_keyword:                      # tally keyword kinds
        andi r22, r19, 15
        sll  r22, r22, 2
        addu r22, r22, r13
        lw   r23, 0(r22)
        addiu r23, r23, 1
        sw   r23, 0(r22)
        b    scan

h_comment:                      # skip tokens until the comment closes
skip:
        blt  r10, r9, skip_fetch
        li   r10, 0
skip_fetch:
        sll  r16, r10, 2
        addu r16, r16, r8
        lw   r17, 0(r16)
        srl  r18, r17, 8
        addiu r10, r10, 1
        li   r22, {COMMENT_END_KIND}
        bne  r18, r22, skip
        b    scan

h_commentend:                   # stray close: count it
        lw   r23, 60(r13)
        addiu r23, r23, 1
        sw   r23, 60(r13)
        b    scan
"""
