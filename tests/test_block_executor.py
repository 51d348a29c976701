"""Block stepping in the functional executor: its edge cases.

``Executor.run`` retires one basic block per step; the blocks' static
shape is memoized on the program, while bound vector ops and the trace
codes of scalar kinds belong to one run.  Each test compares a run
against a fresh, unmemoized copy of its program or against the events
the instructions must produce one by one.
"""

from __future__ import annotations

import pickle

import numpy as np
import pytest

from repro.errors import ExecutionError
from repro.functional import Executor, FunctionalMemory
from repro.functional.trace import ScalarEvent, VectorEvent, VsetvlEvent
from repro.fuzz.gen import REGIONS, TOTAL_BYTES, input_image
from repro.fuzz.kernel import generate_case
from repro.isa import Assembler
from repro.isa.instructions import Instruction, spec_for


def _fresh(program):
    """An equal program without the plans and blocks memoized on it."""
    return pickle.loads(pickle.dumps(program))


def _run_fuzz(program, seed: int, vlen: int):
    """``(blob, kinds, retired, x registers, S/OUT bytes)`` of one run of
    a fuzz program on its seeded input image."""
    mem = FunctionalMemory(TOTAL_BYTES)
    mem.write_bytes(REGIONS["A"][0],
                    np.frombuffer(input_image(seed), dtype=np.uint8))
    ex = Executor(vlen, mem=mem)
    result = ex.run(program)
    regions = [mem.read_bytes(*REGIONS[name]).tobytes()
               for name in ("S", "OUT")]
    return (result.trace.blob, result.trace.kinds, result.retired,
            ex.state.x.snapshot(), regions)


def _summary(trace) -> list:
    """Each event as a comparable tuple."""
    out = []
    for e in trace.events:
        if isinstance(e, ScalarEvent):
            out.append((e.kind, e.addr))
        elif isinstance(e, VsetvlEvent):
            out.append(("vsetvl", e.vl, e.sew, e.lmul))
        else:
            out.append((e.instr.spec.mnemonic, e.vl, e.sew, e.lmul,
                        e.mem.base if e.mem is not None else None))
    return out


class TestMemoizedProgramAcrossRuns:
    def test_one_program_on_two_vlens(self):
        """Blocks memoized by a run at one VLEN serve a run at another
        without leaking that run's bound ops (a group view bound at one
        vtype and VLEN is illegal or wrong at another)."""
        case = generate_case(101)
        program = case.program
        for vlen in (2048, 8192, 2048):
            assert _run_fuzz(program, 101, vlen) == \
                _run_fuzz(_fresh(program), 101, vlen)

    def test_second_run_keeps_first_use_kind_order(self):
        """The trace codes of scalar kinds are assigned per run, in the
        order the kinds first retire, on every run of the program."""
        case = generate_case(17)
        program = case.program
        first = _run_fuzz(program, 17, 2048)
        second = _run_fuzz(program, 17, 2048)
        assert second == first == _run_fuzz(_fresh(program), 17, 2048)
        kinds = first[1]
        assert "branch" in kinds and "branch_taken" in kinds
        assert kinds.index("alu") < kinds.index("branch_taken")


class TestBlockShapes:
    def test_branch_into_the_middle_of_a_run(self):
        """A backward branch to a label inside the first block's
        straight-line run starts a second block there; the vector and
        scalar rows of both blocks line up with their instructions."""
        a = Assembler("mid")
        a.li("x1", 4)
        a.vsetvli("x2", "x1", sew=64, lmul=1)
        a.li("x3", 2)
        a.li("x5", 0)
        a.vle64_v("v1", "x5")
        a.label("mid")
        a.vfadd_vv("v2", "v1", "v1")
        a.vle64_v("v3", "x5")
        a.sd("x3", "x5", 256)
        a.addi("x5", "x5", 8)
        a.addi("x3", "x3", -1)
        a.bnez("x3", "mid")
        a.halt()
        ex = Executor(2048)
        result = ex.run(a.build())
        assert _summary(result.trace) == [
            ("alu", None), ("vsetvl", 4, 64, 1), ("alu", None),
            ("alu", None), ("vle64_v", 4, 64, 1, 0),
            ("vfadd_vv", 4, 64, 1, None), ("vle64_v", 4, 64, 1, 0),
            ("store", 256), ("alu", None), ("alu", None),
            ("branch_taken", None),
            ("vfadd_vv", 4, 64, 1, None), ("vle64_v", 4, 64, 1, 8),
            ("store", 264), ("alu", None), ("alu", None), ("branch", None),
        ]
        assert result.retired == 18  # 17 events + halt
        assert ex.state.x.read(5) == 16
        assert ex.mem.load_int(264, 8) == 1

    def test_vtype_change_between_blocks(self):
        """A vsetvli ends its block: the ops after it record the new
        vl and vtype, and a return to an earlier vtype rebinds nothing
        wrongly (its register groups differ)."""
        a = Assembler("vtypes")
        a.li("x1", 8)
        a.li("x3", 2)
        a.label("loop")
        a.vsetvli("x2", "x1", sew=64, lmul=1)
        a.vfadd_vv("v8", "v1", "v1")
        a.vsetvli("x2", "x1", sew=32, lmul=2)
        a.vfadd_vv("v10", "v4", "v4")
        a.li("x1", 3)
        a.vsetvli("x0", "x0", sew=32, lmul=2)  # keeps vl, same vtype
        a.vfadd_vv("v12", "v10", "v10")
        a.addi("x3", "x3", -1)
        a.bnez("x3", "loop")
        a.halt()
        program = a.build()
        ex = Executor(2048)
        ex.state.v.write_elems(1, np.arange(32.0), emul=1)
        ex.state.v.write_elems(4, np.arange(128, dtype=np.float32), emul=2)
        result = ex.run(program)
        vector = [(e.vl, e.sew, e.lmul) for e in result.trace.events
                  if isinstance(e, VectorEvent)]
        assert vector == [(8, 64, 1), (8, 32, 2), (8, 32, 2),
                          (3, 64, 1), (3, 32, 2), (3, 32, 2)]
        assert ex.state.v.read_elems(8, 8, np.dtype(np.float64),
                                     1).tolist() == list(range(0, 16, 2))
        assert ex.state.v.read_elems(12, 8, np.dtype(np.float32),
                                     2).tolist() == list(range(0, 32, 4))

    def test_label_pseudo_instructions_inside_a_block(self):
        """Label pseudo-instructions retire nothing and leave no record,
        in a block's body or at its start (a branch target); every
        vector event still links to its own instruction."""
        def label(a, name):
            a.emit(Instruction(spec_for("label"), {"name": name}))

        a = Assembler("labels")
        a.li("x1", 4)
        a.li("x3", 2)
        a.vsetvli("x2", "x1", sew=64, lmul=1)
        a.label("loop")
        label(a, "a")
        a.vfadd_vv("v2", "v1", "v1")
        label(a, "b")
        label(a, "c")
        a.vfmul_vv("v3", "v2", "v2")
        a.addi("x3", "x3", -1)
        label(a, "d")
        a.bnez("x3", "loop")
        label(a, "e")
        a.halt()
        program = a.build()
        result = Executor(2048).run(program)
        assert result.retired == 3 + 2 * 4 + 1
        assert [type(e).__name__ for e in result.trace.events] == [
            "ScalarEvent", "ScalarEvent", "VsetvlEvent"] + 2 * [
            "VectorEvent", "VectorEvent", "ScalarEvent", "ScalarEvent"]
        instrs = [e.instr for e in result.trace.vector_events()]
        assert instrs == 2 * [program[4], program[7]]
        assert result.trace.blob == \
            Executor(2048).run(_fresh(program)).trace.blob


class TestMaxInstructions:
    @staticmethod
    def _countdown(halt: bool):
        a = Assembler("countdown")
        a.li("x1", 3)
        a.label("loop")
        a.addi("x1", "x1", -1)
        a.bnez("x1", "loop")
        a.li("x2", 7)
        if halt:
            a.halt()
        return a.build()

    @pytest.mark.parametrize("halt", [True, False])
    def test_cap_equal_to_and_one_below_the_retired_count(self, halt):
        program = self._countdown(halt)
        retired = 1 + 2 * 3 + 1 + halt
        result = Executor(2048).run(program, max_instructions=retired)
        assert result.retired == retired
        assert result.halted == halt
        with pytest.raises(ExecutionError, match="exceeded"):
            Executor(2048).run(program, max_instructions=retired - 1)
