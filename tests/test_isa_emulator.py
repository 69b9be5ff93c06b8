"""Tests for the functional emulator and trace generation."""

import pytest
from hypothesis import given, strategies as st

from repro.isa import Emulator, EmulationError, OpClass, assemble, run_to_trace


def run(source, max_instructions=100_000):
    emulator = Emulator(assemble(source))
    trace = emulator.run(max_instructions)
    return emulator, trace


class TestArithmetic:
    def test_addu_wraps_32_bits(self):
        emulator, _ = run("li r1, 0x7FFFFFFF\naddiu r2, r1, 1\nhalt\n")
        assert emulator.int_regs[2] == -(2**31)

    def test_subu(self):
        emulator, _ = run("li r1, 3\nli r2, 10\nsubu r3, r1, r2\nhalt\n")
        assert emulator.int_regs[3] == -7

    def test_logic_ops(self):
        emulator, _ = run(
            """
            li r1, 0b1100
            li r2, 0b1010
            and r3, r1, r2
            or r4, r1, r2
            xor r5, r1, r2
            nor r6, r1, r2
            halt
            """
        )
        assert emulator.int_regs[3] == 0b1000
        assert emulator.int_regs[4] == 0b1110
        assert emulator.int_regs[5] == 0b0110
        assert emulator.int_regs[6] == ~0b1110

    def test_shifts(self):
        emulator, _ = run(
            """
            li r1, -8
            sll r2, r1, 1
            srl r3, r1, 1
            sra r4, r1, 1
            li r5, 2
            sllv r6, r1, r5
            halt
            """
        )
        assert emulator.int_regs[2] == -16
        assert emulator.int_regs[3] == 0x7FFFFFFC
        assert emulator.int_regs[4] == -4
        assert emulator.int_regs[6] == -32

    def test_set_less_than(self):
        emulator, _ = run(
            """
            li r1, -1
            li r2, 1
            slt r3, r1, r2
            sltu r4, r1, r2
            slti r5, r1, 0
            halt
            """
        )
        assert emulator.int_regs[3] == 1
        assert emulator.int_regs[4] == 0  # 0xFFFFFFFF unsigned > 1
        assert emulator.int_regs[5] == 1

    def test_lui(self):
        emulator, _ = run("lui r1, 0x1234\nhalt\n")
        assert emulator.int_regs[1] == 0x12340000

    def test_mult_div_rem(self):
        emulator, _ = run(
            """
            li r1, -7
            li r2, 2
            mult r3, r1, r2
            div r4, r1, r2
            rem r5, r1, r2
            halt
            """
        )
        assert emulator.int_regs[3] == -14
        assert emulator.int_regs[4] == -3  # truncation toward zero
        assert emulator.int_regs[5] == -1

    def test_divide_by_zero_yields_zero(self):
        emulator, _ = run("li r1, 5\nli r2, 0\ndiv r3, r1, r2\nrem r4, r1, r2\nhalt\n")
        assert emulator.int_regs[3] == 0
        assert emulator.int_regs[4] == 0

    def test_register_zero_is_hardwired(self):
        emulator, _ = run("li r0, 99\naddu r1, r0, r0\nhalt\n")
        assert emulator.int_regs[0] == 0
        assert emulator.int_regs[1] == 0


class TestMemory:
    def test_word_store_load(self):
        emulator, _ = run(
            """
            .data
            buf: .space 64
            .text
            main: la r1, buf
            li r2, -123456
            sw r2, 8(r1)
            lw r3, 8(r1)
            halt
            """
        )
        assert emulator.int_regs[3] == -123456

    def test_byte_sign_extension(self):
        emulator, _ = run(
            """
            .data
            buf: .space 4
            .text
            main: la r1, buf
            li r2, 0xFF
            sb r2, 0(r1)
            lb r3, 0(r1)
            lbu r4, 0(r1)
            halt
            """
        )
        assert emulator.int_regs[3] == -1
        assert emulator.int_regs[4] == 255

    def test_halfword(self):
        emulator, _ = run(
            """
            .data
            buf: .space 4
            .text
            main: la r1, buf
            li r2, 0x8000
            sh r2, 0(r1)
            lh r3, 0(r1)
            lhu r4, 0(r1)
            halt
            """
        )
        assert emulator.int_regs[3] == -32768
        assert emulator.int_regs[4] == 32768

    def test_uninitialised_memory_reads_zero(self):
        emulator, _ = run("li r1, 0x5000\nlw r2, 0(r1)\nhalt\n")
        assert emulator.int_regs[2] == 0

    def test_data_image_visible(self):
        emulator, _ = run(
            """
            .data
            x: .word 42
            .text
            main: la r1, x
            lw r2, 0(r1)
            halt
            """
        )
        assert emulator.int_regs[2] == 42

    def test_trace_records_addresses(self):
        _, trace = run(
            """
            .data
            x: .word 1
            .text
            main: la r1, x
            lw r2, 0(r1)
            sw r2, 4(r1)
            halt
            """
        )
        load = next(i for i in trace if i.is_load)
        store = next(i for i in trace if i.is_store)
        assert store.mem_addr == load.mem_addr + 4


class TestControlFlow:
    def test_loop_count(self):
        emulator, trace = run(
            """
            main: li r1, 0
            li r2, 10
            loop: addiu r1, r1, 1
            blt r1, r2, loop
            halt
            """
        )
        assert emulator.int_regs[1] == 10
        branches = [i for i in trace if i.is_branch]
        assert len(branches) == 10
        assert sum(i.taken for i in branches) == 9

    def test_all_branch_ops(self):
        emulator, _ = run(
            """
            main: li r1, -5
            li r2, 5
            li r9, 0
            beq r1, r1, a
            halt
            a: bne r1, r2, b
            halt
            b: blez r1, c
            halt
            c: bgtz r2, d
            halt
            d: bltz r1, e
            halt
            e: bgez r2, f
            halt
            f: blt r1, r2, g
            halt
            g: bge r2, r1, h
            halt
            h: ble r1, r2, i
            halt
            i: bgt r2, r1, done
            halt
            done: li r9, 1
            halt
            """
        )
        assert emulator.int_regs[9] == 1

    def test_call_and_return(self):
        emulator, trace = run(
            """
            main: li r4, 7
            jal double
            move r5, r2
            halt
            double: addu r2, r4, r4
            jr $ra
            """
        )
        assert emulator.int_regs[5] == 14
        jumps = [i for i in trace if i.is_uncond]
        assert len(jumps) == 2
        assert all(i.taken for i in jumps)

    def test_indirect_jump_through_table(self):
        emulator, _ = run(
            """
            .data
            table: .space 8
            .text
            main: la r1, table
            li r2, case1
            sw r2, 4(r1)
            lw r3, 4(r1)
            jr r3
            halt
            case1: li r9, 111
            halt
            """
        )
        assert emulator.int_regs[9] == 111

    def test_bad_indirect_target_raises(self):
        emulator = Emulator(assemble("li r1, 999\njr r1\nhalt\n"))
        with pytest.raises(EmulationError, match="outside text segment"):
            emulator.run()

    def test_pc_off_end_raises(self):
        emulator = Emulator(assemble("nop\n"))
        with pytest.raises(EmulationError, match="outside text segment"):
            emulator.run()

    def test_negative_static_target_rejected(self):
        # Predecoding indexes handlers by pc, so a hand-built program
        # with a negative target is refused before anything runs.
        from repro.isa import Instruction, Program

        program = Program(instructions=[
            Instruction(opcode="b", target=-1), Instruction(opcode="halt")])
        emulator = Emulator(program)
        with pytest.raises(EmulationError, match="target -1 outside"):
            emulator.run()
        assert emulator.executed == 0

    def test_instruction_cap(self):
        _, trace = run("main: b main\n", max_instructions=50)
        assert len(trace) == 50
        assert not trace.halted

    def test_negative_cap_rejected(self):
        emulator = Emulator(assemble("halt\n"))
        with pytest.raises(ValueError):
            emulator.run(max_instructions=-1)


class TestFloatingPoint:
    def test_fp_arithmetic(self):
        emulator, _ = run(
            """
            li r1, 3
            cvt.s.w f1, r1
            li r2, 4
            cvt.s.w f2, r2
            add.s f3, f1, f2
            mul.s f4, f1, f2
            div.s f5, f2, f1
            sub.s f6, f2, f1
            cvt.w.s r3, f3
            halt
            """
        )
        assert emulator.fp_regs[3] == pytest.approx(7.0)
        assert emulator.fp_regs[4] == pytest.approx(12.0)
        assert emulator.fp_regs[5] == pytest.approx(4 / 3)
        assert emulator.fp_regs[6] == pytest.approx(1.0)
        assert emulator.int_regs[3] == 7

    def test_fp_div_by_zero_yields_zero(self):
        emulator, _ = run("cvt.s.w f1, r0\nli r1, 1\ncvt.s.w f2, r1\ndiv.s f3, f2, f1\nhalt\n")
        assert emulator.fp_regs[3] == 0.0

    def test_fp_memory_roundtrip(self):
        emulator, _ = run(
            """
            .data
            buf: .space 8
            .text
            main: la r1, buf
            li r2, 5
            cvt.s.w f1, r2
            s.s f1, 0(r1)
            l.s f2, 0(r1)
            halt
            """
        )
        assert emulator.fp_regs[2] == pytest.approx(5.0)


class TestTraceRecords:
    def test_sequential_numbering(self):
        _, trace = run("nop\nnop\nnop\nhalt\n")
        assert [i.seq for i in trace] == [0, 1, 2]

    def test_r0_excluded_from_dependences(self):
        _, trace = run("addu r1, r0, r0\nhalt\n")
        assert trace[0].srcs == ()
        assert trace[0].dest == 1

    def test_write_to_r0_has_no_dest(self):
        _, trace = run("addu r0, r1, r2\nhalt\n")
        assert trace[0].dest is None

    def test_next_pc_chains(self):
        _, trace = run("main: li r1, 1\nb skip\nnop\nskip: halt\n")
        assert trace[0].next_pc == 1
        assert trace[1].next_pc == 3

    def test_class_counts_and_fractions(self):
        _, trace = run(
            """
            .data
            b: .space 4
            .text
            main: la r1, b
            lw r2, 0(r1)
            beq r2, r0, out
            nop
            out: halt
            """
        )
        counts = trace.class_counts()
        assert counts[OpClass.LOAD] == 1
        assert counts[OpClass.BRANCH] == 1
        assert 0 < trace.branch_fraction() < 1
        assert 0 < trace.load_fraction() < 1

    def test_run_to_trace_names(self):
        trace = run_to_trace(assemble("halt\n"), name="demo")
        assert trace.name == "demo"
        assert len(trace) == 0
        assert trace.halted

    def test_empty_trace_fractions(self):
        trace = run_to_trace(assemble("halt\n"))
        assert trace.branch_fraction() == 0.0
        assert trace.load_fraction() == 0.0


@given(st.lists(st.integers(min_value=-1000, max_value=1000), min_size=1, max_size=20))
def test_emulated_sum_matches_python(values):
    """Property: an assembly summation loop agrees with Python's sum."""
    words = ", ".join(str(v) for v in values)
    source = f"""
        .data
        table: .word {words}
        .text
        main: li r1, 0
        li r2, 0
        la r3, table
        li r6, {len(values)}
        loop: sll r4, r2, 2
        addu r4, r4, r3
        lw r5, 0(r4)
        addu r1, r1, r5
        addiu r2, r2, 1
        blt r2, r6, loop
        halt
    """
    emulator = Emulator(assemble(source))
    emulator.run()
    assert emulator.int_regs[1] == sum(values)


@given(st.integers(min_value=0, max_value=30))
def test_fibonacci_property(n):
    """Property: iterative Fibonacci in assembly matches Python."""
    source = f"""
        main: li r1, 0
        li r2, 1
        li r3, {n}
        beq r3, r0, done
        loop: addu r4, r1, r2
        move r1, r2
        move r2, r4
        addiu r3, r3, -1
        bgtz r3, loop
        done: halt
    """
    emulator = Emulator(assemble(source))
    emulator.run()
    a, b = 0, 1
    for _ in range(n):
        a, b = b, a + b
    assert emulator.int_regs[1] == a
