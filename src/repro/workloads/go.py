"""``go`` kernel: board evaluation over a 19x19 position.

SPEC'95 099.go evaluates Go positions: nested loops over the board,
neighbour inspection with bounds checks, and pattern scoring -- lots of
short branchy computations with good spatial locality.  This kernel
sweeps a 19x19 board, counts each stone's liberties (empty neighbours)
with explicit edge tests, scores groups by colour, and mutates a stone
each sweep so successive evaluations differ.

Character: predictable loop branches mixed with data-dependent
neighbour tests, 2D index arithmetic, dense loads.
"""

from __future__ import annotations

import functools

from repro.workloads._datagen import Lcg, words_directive

#: Board edge length (standard Go board).
BOARD = 19
#: Cells total.
CELLS = BOARD * BOARD


def _board() -> list[int]:
    """A plausible mid-game position: ~55% empty, rest alternating."""
    rng = Lcg(0x60B0A2D)
    cells = []
    for _index in range(CELLS):
        roll = rng.next_below(100)
        if roll < 55:
            cells.append(0)  # empty
        elif roll < 78:
            cells.append(1)  # black
        else:
            cells.append(2)  # white
    return cells


@functools.cache
def source() -> str:
    """Assembly source text for the go kernel."""
    cells = _board()
    return f"""
# go: 19x19 board sweep with liberty counting
        .data
board:
{words_directive(cells)}
libmap: .space {4 * CELLS}      # per-cell liberty scores
scores: .space 16               # per-colour scores and best-cell data

        .text
main:
        la   r8, board
        la   r9, scores
        la   r7, libmap
        li   r25, 0             # sweep counter

sweep:
        li   r10, 0             # row
        li   r11, 0             # black score accumulator
        li   r12, 0             # white score accumulator
row_loop:
        li   r13, 0             # col
col_loop:
        # cell index = row*19 + col
        sll  r14, r10, 4        # row*16
        sll  r15, r10, 1        # row*2
        addu r14, r14, r15
        addu r14, r14, r10      # row*19
        addu r14, r14, r13
        sll  r15, r14, 2
        addu r15, r15, r8
        lw   r16, 0(r15)        # stone colour
        beq  r16, r0, next_cell # empty: nothing to score

        li   r17, 0             # liberties of this stone
        # north neighbour (row-1)
        blez r10, south
        lw   r18, {-4 * BOARD}(r15)
        bne  r18, r0, south
        addiu r17, r17, 1
south:
        li   r19, {BOARD - 1}
        bge  r10, r19, west
        lw   r18, {4 * BOARD}(r15)
        bne  r18, r0, west
        addiu r17, r17, 1
west:
        blez r13, east
        lw   r18, -4(r15)
        bne  r18, r0, east
        addiu r17, r17, 1
east:
        bge  r13, r19, tally
        lw   r18, 4(r15)
        bne  r18, r0, tally
        addiu r17, r17, 1
tally:
        # record this stone's liberty count in the liberty map
        sll  r18, r14, 2
        addu r18, r18, r7
        sw   r17, 0(r18)
        # weight: stones in atari (1 liberty) count double negative
        li   r19, 1
        bgt  r17, r19, healthy
        subu r17, r17, r19      # 0 or -? -> penalise
healthy:
        li   r19, 1
        bne  r16, r19, white_stone
        addu r11, r11, r17
        b    next_cell
white_stone:
        addu r12, r12, r17

next_cell:
        addiu r13, r13, 1
        li   r19, {BOARD}
        blt  r13, r19, col_loop
        addiu r10, r10, 1
        blt  r10, r19, row_loop

        # store sweep result and mutate one cell so sweeps differ
        sw   r11, 0(r9)
        sw   r12, 4(r9)
        subu r20, r11, r12
        sw   r20, 8(r9)
        # pseudo-random cell: lcg on the sweep counter
        li   r21, 1103515245
        mult r22, r25, r21
        addiu r22, r22, 12345
        srl  r22, r22, 8
        li   r23, {CELLS}
        rem  r22, r22, r23
        sll  r22, r22, 2
        addu r22, r22, r8
        lw   r24, 0(r22)
        addiu r24, r24, 1       # rotate colour 0 -> 1 -> 2 -> 0
        li   r23, 3
        rem  r24, r24, r23
        sw   r24, 0(r22)
        addiu r25, r25, 1
        b    sweep
"""
