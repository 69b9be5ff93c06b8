"""``li`` kernel: cons-cell list interpreter.

SPEC'95 130.li is a Lisp interpreter: its time goes to walking cons
cells (car/cdr pointer chasing) and mutating them.  This kernel builds
a heap of cons cells whose allocation order is shuffled (so successive
cdr links jump around memory), then repeatedly interprets a work list
per list: sum the cars, measure the length, increment each car, and
destructively reverse the list.

Character: long serial load-load dependence chains (each cdr load
feeds the next address), little ILP -- the workload the paper found
most sensitive to FIFO steering (8% degradation in Figure 13).
"""

from __future__ import annotations

import functools

from repro.workloads._datagen import Lcg, words_directive

#: Number of cons cells in the heap (cell 0 is reserved as nil).
HEAP_CELLS = 512
#: Number of lists threaded through the heap.
LIST_COUNT = 12


def _heap_and_heads() -> tuple[list[int], list[int]]:
    """Build the shuffled cons heap.

    Returns:
        (heap words [car0, cdr0, car1, cdr1, ...], head cell indices).
    """
    rng = Lcg(0x11)
    # Shuffle cell indices 1..HEAP_CELLS-1 (Fisher-Yates with the LCG).
    cells = list(range(1, HEAP_CELLS))
    for i in range(len(cells) - 1, 0, -1):
        j = rng.next_below(i + 1)
        cells[i], cells[j] = cells[j], cells[i]
    heap = [0] * (2 * HEAP_CELLS)  # cell 0 = nil
    heads = []
    cursor = 0
    for _list_index in range(LIST_COUNT):
        length = 8 + rng.next_below(24)
        length = min(length, len(cells) - cursor)
        if length <= 0:
            break
        chain = cells[cursor : cursor + length]
        cursor += length
        heads.append(chain[0])
        for position, cell in enumerate(chain):
            heap[2 * cell] = rng.next_below(100)  # car: small value
            next_cell = chain[position + 1] if position + 1 < length else 0
            heap[2 * cell + 1] = next_cell  # cdr: cell index (0 = nil)
    return heap, heads


@functools.cache
def source() -> str:
    """Assembly source text for the li kernel."""
    heap, heads = _heap_and_heads()
    return f"""
# li: cons-cell walking and mutation (pointer chasing)
        .data
heap:
{words_directive(heap)}
heads:
{words_directive(heads)}
results: .space {4 * len(heads)}

        .text
main:
        la   r8, heap
        la   r9, heads
        li   r10, {len(heads)}  # list count
        la   r11, results

interp:
        li   r12, 0             # list index
list_loop:
        sll  r13, r12, 2
        addu r13, r13, r9
        lw   r14, 0(r13)        # head cell index

        # --- pass 1: sum cars and count length (serial chase) -------
        li   r15, 0             # sum
        li   r16, 0             # length
        move r17, r14
sum_loop:
        beq  r17, r0, sum_done
        sll  r18, r17, 3        # cell address = heap + 8*cell
        addu r18, r18, r8
        lw   r19, 0(r18)        # car
        addu r15, r15, r19
        addiu r16, r16, 1
        lw   r17, 4(r18)        # cdr -> next cell (serial dependence)
        b    sum_loop
sum_done:
        sll  r20, r12, 2
        addu r20, r20, r11
        sw   r15, 0(r20)        # record the sum

        # --- pass 2: increment each car (chase + store) --------------
        move r17, r14
inc_loop:
        beq  r17, r0, inc_done
        sll  r18, r17, 3
        addu r18, r18, r8
        lw   r19, 0(r18)
        addiu r19, r19, 1
        slti r21, r19, 1000     # keep cars bounded
        bne  r21, r0, inc_store
        li   r19, 0
inc_store:
        sw   r19, 0(r18)
        lw   r17, 4(r18)
        b    inc_loop
inc_done:

        # --- pass 3: destructive reverse ------------------------------
        li   r22, 0             # prev = nil
        move r17, r14           # cursor = head
rev_loop:
        beq  r17, r0, rev_done
        sll  r18, r17, 3
        addu r18, r18, r8
        lw   r23, 4(r18)        # next = cdr
        sw   r22, 4(r18)        # cdr = prev
        move r22, r17           # prev = cursor
        move r17, r23           # cursor = next
        b    rev_loop
rev_done:
        sw   r22, 0(r13)        # new head

        addiu r12, r12, 1
        blt  r12, r10, list_loop
        b    interp
"""
